//! The wire reply equals the owned answer, byte for byte.
//!
//! `AuthServer` encodes its reply straight from the zone's records and the
//! query's bytes; `AuthServer::answer` builds the same reply as an owned
//! `Message`. Over generated zone sets and queries, the bytes the server
//! sends must be `answer(zones, query).encode()` exactly (and, for the
//! degraded behaviours, the bare reply each one sends). The generated
//! zones reach every lookup outcome: a direct answer, in-zone CNAME chains
//! (ending in an answer, out of zone, in a loop), referrals with and
//! without glue, DS at a cut, NODATA, NXDOMAIN, and no zone at all.

use proptest::prelude::*;
use ruwhere_authdns::server::shared_zones;
use ruwhere_authdns::{AuthServer, ServerBehavior};
use ruwhere_dns::{Flags, Message, Name, Opcode, Question, RData, RType, Rcode, Record, SoaData};
use ruwhere_dns::{Zone, CLASS_IN};
use ruwhere_netsim::{Service, SimTime};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

const RTYPES: [RType; 8] = [
    RType::A,
    RType::Ns,
    RType::Cname,
    RType::Soa,
    RType::Mx,
    RType::Txt,
    RType::Aaaa,
    RType::Ds,
];

const BEHAVIORS: [ServerBehavior; 6] = [
    ServerBehavior::Normal,
    ServerBehavior::Refused,
    ServerBehavior::Silent,
    ServerBehavior::ServFail,
    ServerBehavior::Truncated,
    ServerBehavior::Lame,
];

fn name(s: &str) -> Name {
    s.parse().unwrap()
}

fn soa(mname: &str) -> SoaData {
    SoaData {
        mname: name(mname),
        rname: name("hostmaster.ripn.net"),
        serial: 7,
        refresh: 86400,
        retry: 14400,
        expire: 2_592_000,
        minimum: 3600,
    }
}

fn a(last: u8) -> RData {
    RData::A(Ipv4Addr::new(192, 0, 2, last))
}

/// One delegation from the `ru` zone.
#[derive(Debug, Clone)]
struct Delegation {
    /// In-bailiwick name servers with glue, else out-of-bailiwick ones.
    glue: bool,
    /// A DS record at the cut.
    ds: bool,
    /// Whether the same operator also serves the child zone.
    hosted: bool,
    /// Length of the in-zone CNAME chain at `c0.<child>`.
    chain: u8,
    /// Whether the chain ends out of zone instead of at the apex.
    chain_out: bool,
}

fn arb_delegation() -> impl Strategy<Value = Delegation> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        0u8..11,
        any::<bool>(),
    )
        .prop_map(|(glue, ds, hosted, chain, chain_out)| Delegation {
            glue,
            ds,
            hosted,
            chain,
            chain_out,
        })
}

/// The `ru` zone, plus the child zones the operator hosts.
fn zones(delegations: &[Delegation]) -> Vec<Zone> {
    let mut ru = Zone::new(name("ru"), soa("a.dns.ripn.net"), 86400);
    ru.add(Record::new(
        name("ru"),
        86400,
        RData::Ns(name("a.dns.ripn.net")),
    ));
    let mut out = Vec::new();
    for (i, d) in delegations.iter().enumerate() {
        let child = name(&format!("d{i}.ru"));
        let targets = if d.glue {
            vec![format!("ns1.d{i}.ru"), format!("ns2.d{i}.ru")]
        } else {
            vec![format!("ns.hoster{}.com", i % 2), "ns.other.net".to_owned()]
        };
        for (k, t) in targets.iter().enumerate() {
            ru.add(Record::new(child.clone(), 3600, RData::Ns(name(t))));
            if d.glue {
                ru.add(Record::new(name(t), 3600, a(10 + k as u8)));
                if k == 1 {
                    ru.add(Record::new(
                        name(t),
                        3600,
                        RData::Aaaa("2001:db8::53".parse().unwrap()),
                    ));
                }
            }
        }
        if d.ds {
            ru.add(Record::new(
                child.clone(),
                3600,
                RData::Ds(i as u16, 8, 2, vec![0xAB, i as u8]),
            ));
        }
        if d.hosted {
            out.push(child_zone(i, d, &child, &targets));
        }
    }
    out.push(ru);
    out
}

fn child_zone(i: usize, d: &Delegation, child: &Name, targets: &[String]) -> Zone {
    let at = |label: &str| name(&format!("{label}.d{i}.ru"));
    let mut z = Zone::new(child.clone(), soa(&targets[0]), 3600);
    for t in targets {
        z.add(Record::new(child.clone(), 3600, RData::Ns(name(t))));
    }
    z.add(Record::new(child.clone(), 300, a(1)));
    z.add(Record::new(child.clone(), 300, a(2)));
    z.add(Record::new(child.clone(), 300, RData::Mx(10, at("mx"))));
    z.add(Record::new(
        child.clone(),
        300,
        RData::Txt(vec![b"v=spf1 -all".to_vec()]),
    ));
    z.add(Record::new(at("mx"), 300, a(3)));
    if d.glue {
        z.add(Record::new(at("ns1"), 300, a(10)));
    }
    // c0 -> c1 -> ... -> the apex, or out of the zone.
    for k in 0..d.chain {
        let next = if k + 1 < d.chain {
            at(&format!("c{}", k + 1))
        } else if d.chain_out {
            name("www.elsewhere.com")
        } else {
            child.clone()
        };
        z.add(Record::new(at(&format!("c{k}")), 60, RData::Cname(next)));
    }
    z.add(Record::new(at("loop"), 60, RData::Cname(at("loop"))));
    // A delegation inside the child zone, with glue for one server.
    z.add(Record::new(at("sub"), 3600, RData::Ns(at("ns.sub"))));
    z.add(Record::new(
        at("sub"),
        3600,
        RData::Ns(name("ns.hoster0.com")),
    ));
    z.add(Record::new(at("ns.sub"), 3600, a(20)));
    z
}

/// Names worth asking about for `n` delegations.
fn query_names(n: usize) -> Vec<Name> {
    let mut names = vec![
        Name::root(),
        name("ru"),
        name("nope.ru"),
        name("com"),
        name("a.dns.ripn.net"),
    ];
    for i in 0..n {
        for label in [
            "", "www.", "ns1.", "ns2.", "mx.", "c0.", "c1.", "c9.", "loop.", "sub.", "x.sub.",
            "ns.sub.", "nope.",
        ] {
            names.push(name(&format!("{label}d{i}.ru")));
        }
    }
    names
}

/// A query's wire bytes, written by hand so that names can carry mixed
/// case (a `Name` is always lowercase) and no compression.
fn query_bytes(id: u16, rd: bool, questions: &[(Name, RType)], upper: u64) -> Vec<u8> {
    let mut out = id.to_be_bytes().to_vec();
    out.extend_from_slice(&[if rd { 0x01 } else { 0x00 }, 0x00]);
    out.extend_from_slice(&(questions.len() as u16).to_be_bytes());
    out.extend_from_slice(&[0; 6]);
    let mut bit = 0;
    for (qname, rtype) in questions {
        for label in qname.labels() {
            out.push(label.len() as u8);
            for &b in label {
                bit = (bit + 1) % 64;
                let upper_this = upper >> bit & 1 == 1;
                out.push(if upper_this {
                    b.to_ascii_uppercase()
                } else {
                    b
                });
            }
        }
        out.push(0);
        out.extend_from_slice(&rtype.code().to_be_bytes());
        out.extend_from_slice(&CLASS_IN.to_be_bytes());
    }
    out
}

/// What a reply to `query` from a server in `behavior` must be, from the
/// owned path.
fn expected(
    zones: &ruwhere_authdns::ZoneSet,
    query: &Message,
    b: ServerBehavior,
) -> Option<Vec<u8>> {
    let bare = |rcode| Message::response_to(query, rcode);
    let reply = match b {
        ServerBehavior::Silent => return None,
        ServerBehavior::Normal => AuthServer::answer(zones, query),
        ServerBehavior::Refused => bare(Rcode::Refused),
        ServerBehavior::ServFail => bare(Rcode::ServFail),
        ServerBehavior::Truncated => Message {
            flags: Flags {
                tc: true,
                ..bare(Rcode::NoError).flags
            },
            ..bare(Rcode::NoError)
        },
        ServerBehavior::Lame => bare(Rcode::NoError),
    };
    reply.encode().ok()
}

/// The shape of an owned answer, to show every lookup outcome is reached.
fn shape(query: &Message, reply: &Message) -> &'static str {
    let qtype = query.questions[0].rtype;
    let first = reply.answers.first().map(|r| r.data.rtype());
    match (reply.flags.rcode, reply.flags.aa) {
        (Rcode::Refused, _) => "refused",
        (Rcode::NxDomain, _) => "nxdomain",
        (_, false) if reply.additionals.is_empty() => "referral without glue",
        (_, false) => "referral with glue",
        _ if reply.answers.is_empty() => "nodata",
        _ if qtype == RType::Ds => "ds at a cut",
        _ if first == Some(RType::Cname) && qtype != RType::Cname => {
            match reply.answers.last().map(|r| r.data.rtype()) {
                Some(t) if t == qtype => "cname chain to an answer",
                _ if reply.answers.len() == 9 => "cname loop",
                _ => "cname chain out of zone",
            }
        }
        _ => "answer",
    }
}

/// Check one query against every behaviour; returns the answer's shape.
fn check(zones: &ruwhere_authdns::SharedZoneSet, bytes: &[u8]) -> &'static str {
    let query = Message::decode(bytes).expect("test queries decode");
    let src = (Ipv4Addr::new(130, 89, 1, 1), 40000);
    let mut srv = AuthServer::new(zones.clone());
    let behavior = srv.behavior_handle();
    for b in BEHAVIORS {
        *behavior.write() = b;
        let want = expected(&zones.read(), &query, b);
        let got = srv.handle(bytes, src, SimTime::ZERO);
        assert_eq!(got, want, "{b:?} reply to {query:?}");
    }
    shape(&query, &AuthServer::answer(&zones.read(), &query))
}

#[test]
fn every_lookup_outcome_is_reached_and_matches() {
    let delegations = [
        (true, true, false, 0, false),
        (false, true, false, 0, false),
        (true, false, true, 3, false),
        (false, false, true, 2, true),
    ]
    .map(|(glue, ds, hosted, chain, chain_out)| Delegation {
        glue,
        ds,
        hosted,
        chain,
        chain_out,
    });
    let zones = shared_zones(zones(&delegations));
    let mut shapes = BTreeSet::new();
    for (i, qname) in query_names(delegations.len()).iter().enumerate() {
        for rtype in RTYPES {
            let bytes = query_bytes(i as u16, i % 2 == 0, &[(qname.clone(), rtype)], i as u64);
            shapes.insert(check(&zones, &bytes));
        }
    }
    let all = [
        "answer",
        "cname chain out of zone",
        "cname chain to an answer",
        "cname loop",
        "ds at a cut",
        "nodata",
        "nxdomain",
        "referral with glue",
        "referral without glue",
        "refused",
    ];
    assert_eq!(shapes, all.into_iter().collect());
}

#[test]
fn queries_the_server_drops_get_no_reply() {
    let zones = shared_zones(zones(&[]));
    let mut srv = AuthServer::new(zones);
    let src = (Ipv4Addr::new(130, 89, 1, 1), 40000);
    let no_question = query_bytes(1, true, &[], 0);
    let mut response = query_bytes(1, true, &[(name("ru"), RType::Ns)], 0);
    response[2] |= 0x80;
    for bytes in [&no_question[..], &response, &response[..5], b"not dns"] {
        assert_eq!(srv.handle(bytes, src, SimTime::ZERO), None, "{bytes:02x?}");
    }
    // The owned path still answers a question-less query, with FORMERR.
    let empty = Message {
        questions: Vec::new(),
        ..Message::query(1, Name::root(), RType::A)
    };
    let reply = AuthServer::answer(&ruwhere_authdns::ZoneSet::new(), &empty);
    assert_eq!(reply.flags.rcode, Rcode::FormErr);
}

proptest! {
    #[test]
    fn wire_reply_equals_the_encoded_answer(
        delegations in proptest::collection::vec(arb_delegation(), 0..4),
        queries in proptest::collection::vec(
            (
                any::<prop::sample::Index>(),
                0usize..8,
                any::<u16>(),
                any::<bool>(),
                any::<u64>(),
                proptest::collection::vec((any::<prop::sample::Index>(), 0usize..8), 0..2),
                0u8..16,
            ),
            1..24,
        )
    ) {
        let zones = shared_zones(zones(&delegations));
        let names = query_names(delegations.len());
        for (pick, t, id, rd, upper, extra, opcode) in queries {
            let mut questions = vec![(names[pick.index(names.len())].clone(), RTYPES[t])];
            for (p, t) in extra {
                questions.push((names[p.index(names.len())].clone(), RTYPES[t]));
            }
            let mut bytes = query_bytes(id, rd, &questions, upper);
            // Any opcode is echoed.
            bytes[2] |= opcode << 3;
            check(&zones, &bytes);
        }
    }
}

#[test]
fn a_reply_echoes_every_question_lowercased() {
    let zones = shared_zones(zones(&[]));
    let mut srv = AuthServer::new(zones);
    let src = (Ipv4Addr::new(130, 89, 1, 1), 40000);
    let questions = [(name("ru"), RType::Soa), (name("nope.ru"), RType::A)];
    let out = srv
        .handle(
            &query_bytes(9, true, &questions, u64::MAX),
            src,
            SimTime::ZERO,
        )
        .unwrap();
    let reply = Message::decode(&out).unwrap();
    let want: Vec<Question> = questions
        .iter()
        .map(|(n, t)| Question::new(n.clone(), *t))
        .collect();
    assert_eq!(reply.questions, want);
    assert_eq!(reply.flags.opcode, Opcode::Query);
    assert_eq!(reply.answers.len(), 1, "answers the first question only");
}
