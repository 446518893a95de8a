//! Wire-byte oracle for name compression.
//!
//! `Reference` below is the earlier encoder, kept here as a test-only
//! oracle: it compresses against a `HashMap` from each suffix's
//! length-prefixed label bytes to the offset where the suffix first
//! occurred, with only offsets <= 0x3FFF eligible. The library encoder finds
//! compression targets by walking the bytes it has already written. Both
//! must emit identical bytes: the simulated latencies depend on the message
//! sizes, so identical wire bytes mean identical studies.

use proptest::prelude::*;
use ruwhere_dns::wire::Encoder;
use ruwhere_dns::{Flags, Message, Name, Question, RData, RType, Record, SoaData, CLASS_IN};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// The earlier `Encoder` and `Name::encode`, for comparison.
#[derive(Default)]
struct Reference {
    buf: Vec<u8>,
    names: HashMap<Vec<u8>, u16>,
}

impl Reference {
    fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn suffix_key(labels: &[&[u8]]) -> Vec<u8> {
        let mut key = Vec::new();
        for l in labels {
            key.push(l.len() as u8);
            key.extend_from_slice(l);
        }
        key
    }

    fn name(&mut self, name: &Name) {
        let labels: Vec<&[u8]> = name.labels().collect();
        for i in 0..labels.len() {
            let key = Self::suffix_key(&labels[i..]);
            if let Some(&off) = self.names.get(&key) {
                self.put_u16(0xC000 | off);
                return;
            }
            let offset = self.buf.len();
            if offset <= 0x3FFF {
                self.names.entry(key).or_insert(offset as u16);
            }
            self.buf.push(labels[i].len() as u8);
            self.buf.extend_from_slice(labels[i]);
        }
        self.buf.push(0);
    }

    fn rdata(&mut self, data: &RData) {
        match data {
            RData::A(ip) => self.buf.extend_from_slice(&ip.octets()),
            RData::Aaaa(ip) => self.buf.extend_from_slice(&ip.octets()),
            RData::Ns(n) | RData::Cname(n) => self.name(n),
            RData::Soa(soa) => {
                self.name(&soa.mname);
                self.name(&soa.rname);
                self.put_u32(soa.serial);
                self.put_u32(soa.refresh);
                self.put_u32(soa.retry);
                self.put_u32(soa.expire);
                self.put_u32(soa.minimum);
            }
            RData::Mx(pref, n) => {
                self.put_u16(*pref);
                self.name(n);
            }
            RData::Txt(strings) => {
                for s in strings {
                    let len = s.len().min(255);
                    self.buf.push(len as u8);
                    self.buf.extend_from_slice(&s[..len]);
                }
            }
            RData::Ds(tag, alg, dt, digest) => {
                self.put_u16(*tag);
                self.buf.push(*alg);
                self.buf.push(*dt);
                self.buf.extend_from_slice(digest);
            }
        }
    }

    fn record(&mut self, r: &Record) {
        self.name(&r.name);
        self.put_u16(r.data.rtype().code());
        self.put_u16(CLASS_IN);
        self.put_u32(r.ttl);
        let len_at = self.buf.len();
        self.put_u16(0);
        let start = self.buf.len();
        self.rdata(&r.data);
        let rdlen = (self.buf.len() - start) as u16;
        self.buf[len_at..len_at + 2].copy_from_slice(&rdlen.to_be_bytes());
    }

    /// Encode `msg` after `header`, the 12 uncompressed header bytes.
    fn message(header: &[u8], msg: &Message) -> Vec<u8> {
        let mut r = Reference {
            buf: header.to_vec(),
            ..Reference::default()
        };
        for q in &msg.questions {
            r.name(&q.name);
            r.put_u16(q.rtype.code());
            r.put_u16(CLASS_IN);
        }
        for rec in msg
            .answers
            .iter()
            .chain(&msg.authorities)
            .chain(&msg.additionals)
        {
            r.record(rec);
        }
        r.buf
    }
}

/// Labels from a small pool, so that names share suffixes, repeat whole,
/// and repeat labels inside one name (`a.a.ru`, `ru.ru`); some are mixed
/// case, and some are prefixes of others (`a`/`ab`).
fn arb_label() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("a".to_owned()),
        Just("A".to_owned()),
        Just("ab".to_owned()),
        Just("b".to_owned()),
        Just("ru".to_owned()),
        Just("RU".to_owned()),
        Just("Ru".to_owned()),
        Just("xn--p1ai".to_owned()),
        Just("ns1".to_owned()),
        Just("example".to_owned()),
        proptest::string::string_regex("[a-zA-Z0-9]{1,6}").unwrap(),
    ]
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 0..5)
        .prop_map(|labels| Name::from_labels(labels).expect("pool labels are valid"))
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RData::A(Ipv4Addr::from(o))),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Cname),
        (arb_name(), arb_name(), any::<u32>()).prop_map(|(mname, rname, serial)| {
            RData::Soa(SoaData {
                mname,
                rname,
                serial,
                refresh: 3600,
                retry: 600,
                expire: 86400,
                minimum: 300,
            })
        }),
        (any::<u16>(), arb_name()).prop_map(|(p, n)| RData::Mx(p, n)),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..20), 0..3)
            .prop_map(RData::Txt),
        (any::<u16>(), proptest::collection::vec(any::<u8>(), 0..20))
            .prop_map(|(t, dg)| RData::Ds(t, 8, 2, dg)),
    ]
}

fn arb_record() -> impl Strategy<Value = Record> {
    (arb_name(), any::<u32>(), arb_rdata()).prop_map(|(name, ttl, data)| Record { name, ttl, data })
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        proptest::collection::vec(
            (arb_name(), prop_oneof![Just(RType::A), Just(RType::Ns)]),
            0..3,
        ),
        proptest::collection::vec(arb_record(), 0..8),
        proptest::collection::vec(arb_record(), 0..6),
        proptest::collection::vec(arb_record(), 0..6),
    )
        .prop_map(|(id, qs, answers, authorities, additionals)| Message {
            id,
            flags: Flags::default(),
            questions: qs.into_iter().map(|(n, t)| Question::new(n, t)).collect(),
            answers,
            authorities,
            additionals,
        })
}

/// Write `names` with raw filler bytes before each, through both encoders.
fn encode_both(names: &[(usize, Name)]) -> (Vec<u8>, Vec<u8>) {
    let mut enc = Encoder::new();
    let mut reference = Reference::default();
    for (filler, name) in names {
        enc.put_slice(&vec![0xEE; *filler]);
        reference.buf.resize(reference.buf.len() + filler, 0xEE);
        name.encode(&mut enc);
        reference.name(name);
    }
    (enc.as_bytes().to_vec(), reference.buf)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn messages_encode_to_the_reference_bytes(msg in arb_message()) {
        let wire = msg.encode().unwrap();
        prop_assert_eq!(&wire, &Reference::message(&wire[..12], &msg));
        prop_assert_eq!(Message::decode(&wire).unwrap(), msg);
    }

    #[test]
    fn names_past_offset_0x3fff_encode_to_the_reference_bytes(
        early in proptest::collection::vec((0usize..40, arb_name()), 0..6),
        lead in 0x3F80usize..0x4010,
        late in proptest::collection::vec((0usize..24, arb_name()), 1..16),
    ) {
        let mut names = early;
        let first_late = names.len();
        names.extend(late);
        names[first_late].0 += lead;
        let (ours, reference) = encode_both(&names);
        prop_assert_eq!(ours, reference);
    }
}

#[test]
fn a_suffix_at_0x3fff_is_a_target_and_one_at_0x4000_is_not() {
    let name: Name = "a.b.ru".parse().unwrap();
    let other: Name = "c.b.ru".parse().unwrap();
    for (start, pointer) in [(0x3FFF, Some(0xFFFFu16)), (0x4000, None)] {
        let names = [(start, name.clone()), (0, name.clone()), (0, other.clone())];
        let (ours, reference) = encode_both(&names);
        assert_eq!(ours, reference);
        let second = &ours[start + name.wire_len()..];
        match pointer {
            Some(p) => assert_eq!(second[..2], p.to_be_bytes()),
            None => assert_eq!(
                second[..name.wire_len()],
                ours[start..start + name.wire_len()]
            ),
        }
    }
}

#[test]
fn repeated_labels_inside_one_name_are_not_compressed_against_themselves() {
    for s in ["a.a.ru", "ru.ru", "a.a.a", "ab.a.ab.a"] {
        let name: Name = s.parse().unwrap();
        let (ours, reference) = encode_both(&[(0, name.clone())]);
        assert_eq!(ours, reference, "{s}");
        assert_eq!(ours.len(), name.wire_len(), "{s} must be written in full");
    }
}
