//! `Message::decode` is total, and `MessageView` agrees with it.
//!
//! Over arbitrary bytes, and over every truncation and every single-byte
//! mutation of four typical replies (a referral with glue, a referral
//! without, a CNAME chain, an NXDOMAIN carrying the SOA), each input must:
//!
//! * decode to a message or a typed `WireError`, never panic;
//! * parse as a view exactly when it decodes, failing with the same error;
//! * where both succeed, materialise from the view to the decoded message.

use proptest::prelude::*;
use ruwhere_dns::{Message, MessageView, Name, RData, RType, Rcode, Record, SoaData, WireError};

fn name(s: &str) -> Name {
    s.parse().unwrap()
}

/// Decode `bytes` both ways and check that the two agree.
fn check(bytes: &[u8]) -> Result<Message, WireError> {
    let decoded = Message::decode(bytes);
    let view = MessageView::parse(bytes);
    match (&view, &decoded) {
        (Ok(v), Ok(m)) => {
            assert_eq!(v.to_message(), *m, "view of {bytes:02x?}");
            assert_eq!(v.id(), m.id);
            assert_eq!(v.flags(), m.flags);
            assert_eq!(v.is_response(), m.is_response());
            assert_eq!(v.question_count(), m.questions.len());
            assert_eq!(v.answer_count(), m.answers.len());
            let rtypes: Vec<RType> = v.answers().map(|r| r.data.rtype()).collect();
            let want: Vec<RType> = m.answers.iter().map(|r| r.data.rtype()).collect();
            assert_eq!(rtypes, want);
            for (r, want) in v.authorities().zip(&m.authorities) {
                assert!(
                    r.name == want.name,
                    "view owner {:?} != {}",
                    r.name,
                    want.name
                );
            }
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "errors differ on {bytes:02x?}"),
        _ => panic!("view {view:?} but decode {decoded:?} on {bytes:02x?}"),
    }
    decoded
}

fn soa() -> SoaData {
    SoaData {
        mname: name("a.dns.ripn.net"),
        rname: name("hostmaster.ripn.net"),
        serial: 19_000,
        refresh: 86400,
        retry: 14400,
        expire: 2_592_000,
        minimum: 3600,
    }
}

fn reply(qname: &str, rtype: RType, rcode: Rcode) -> Message {
    let query = Message::query(0x5a5a, name(qname), rtype);
    Message::response_to(&query, rcode)
}

/// Referral from a TLD, with in-bailiwick glue (A and AAAA).
fn referral_with_glue() -> Message {
    let mut m = reply("www.Example.ru", RType::A, Rcode::NoError);
    for ns in ["ns1.example.ru", "ns2.example.ru"] {
        m.authorities
            .push(Record::new(name("example.ru"), 3600, RData::Ns(name(ns))));
    }
    m.additionals.push(Record::new(
        name("ns1.example.ru"),
        3600,
        RData::A("198.51.100.53".parse().unwrap()),
    ));
    m.additionals.push(Record::new(
        name("ns2.example.ru"),
        3600,
        RData::Aaaa("2001:db8::53".parse().unwrap()),
    ));
    m
}

/// Referral to out-of-bailiwick servers: no glue at all.
fn referral_without_glue() -> Message {
    let mut m = reply("example.ru", RType::Ns, Rcode::NoError);
    for ns in ["ns1.hoster.com", "ns2.hoster.com"] {
        m.authorities
            .push(Record::new(name("example.ru"), 3600, RData::Ns(name(ns))));
    }
    m
}

/// An authoritative CNAME chain ending in the address.
fn cname_chain() -> Message {
    let mut m = reply("www.example.ru", RType::A, Rcode::NoError);
    m.flags.aa = true;
    m.answers.push(Record::new(
        name("www.example.ru"),
        300,
        RData::Cname(name("web.example.ru")),
    ));
    m.answers.push(Record::new(
        name("web.example.ru"),
        300,
        RData::Cname(name("example.ru")),
    ));
    m.answers.push(Record::new(
        name("example.ru"),
        300,
        RData::A("192.0.2.10".parse().unwrap()),
    ));
    m
}

/// An authoritative NXDOMAIN carrying the zone's SOA.
fn nxdomain_with_soa() -> Message {
    let mut m = reply("missing.ru", RType::A, Rcode::NxDomain);
    m.flags.aa = true;
    m.authorities
        .push(Record::new(name("ru"), 86400, RData::Soa(soa())));
    m
}

fn fixtures() -> Vec<(&'static str, Vec<u8>)> {
    [
        ("referral with glue", referral_with_glue()),
        ("referral without glue", referral_without_glue()),
        ("CNAME chain", cname_chain()),
        ("NXDOMAIN with SOA", nxdomain_with_soa()),
    ]
    .into_iter()
    .map(|(what, m)| {
        let bytes = m.encode().unwrap();
        assert_eq!(check(&bytes).as_ref(), Ok(&m), "{what} round trip");
        (what, bytes)
    })
    .collect()
}

#[test]
fn every_truncation_is_an_error() {
    for (what, bytes) in fixtures() {
        for len in 0..bytes.len() {
            assert!(
                check(&bytes[..len]).is_err(),
                "{what} truncated to {len} bytes decoded"
            );
        }
    }
}

#[test]
fn every_single_byte_mutation_agrees() {
    for (_, bytes) in fixtures() {
        let mut buf = bytes.clone();
        for i in 0..buf.len() {
            for v in 0..=u8::MAX {
                buf[i] = v;
                let _ = check(&buf);
            }
            buf[i] = bytes[i];
        }
    }
}

#[test]
fn a_mutation_can_hit_each_error_kind() {
    // The fixtures' mutations reach every decoder error a reply can show,
    // so the agreement above covers them all.
    let mut seen = Vec::new();
    for (_, bytes) in fixtures() {
        let mut buf = bytes.clone();
        for i in 0..buf.len() {
            for v in 0..=u8::MAX {
                buf[i] = v;
                if let Err(e) = Message::decode(&buf) {
                    let kind = std::mem::discriminant(&e);
                    if !seen.contains(&kind) {
                        seen.push(kind);
                    }
                }
            }
            buf[i] = bytes[i];
        }
    }
    for e in [
        WireError::Truncated,
        WireError::BadPointer,
        WireError::NameTooLong,
        WireError::BadLabelType(0x40),
        WireError::BadRdataLength,
        WireError::UnknownType(0),
        WireError::TrailingBytes(0),
    ] {
        assert!(
            seen.contains(&std::mem::discriminant(&e)),
            "no mutation gives {e:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_bytes_agree(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = check(&data);
    }

    #[test]
    fn arbitrary_sections_after_a_plausible_header_agree(
        counts in any::<[u8; 4]>(),
        body in proptest::collection::vec(any::<u8>(), 0..200)
    ) {
        // Small section counts get the parse past the header and into the
        // question and record decoders.
        let mut data = vec![0x12, 0x34, 0x81, 0x80];
        for c in counts {
            data.extend_from_slice(&[0, c % 4]);
        }
        data.extend_from_slice(&body);
        let _ = check(&data);
    }

    #[test]
    fn fixtures_with_random_mutations_agree(
        pick in any::<prop::sample::Index>(),
        flips in proptest::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..6)
    ) {
        let fixtures = fixtures();
        let mut buf = fixtures[pick.index(fixtures.len())].1.clone();
        for (idx, val) in flips {
            let i = idx.index(buf.len());
            buf[i] ^= val;
        }
        let _ = check(&buf);
    }
}
