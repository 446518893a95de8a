//! Property tests: `Zone::from_text` is total. Arbitrary strings, and
//! truncated or mutated `Zone::to_text` output (what a zone transfer cut
//! short or corrupted in flight delivers), parse or return a
//! `ZoneParseError`; they never panic.

use proptest::prelude::*;
use proptest::sample::Index;
use ruwhere_dns::{Name, RData, Record, SoaData, Zone, ZoneParseError};

/// Whitespace-separated tokens that drive the parser down every
/// record-type branch, plus separators, quotes, comments and non-ASCII text.
const TOKENS: &str = "$ORIGIN ru. ru example.ru. . ns1.example.ru. IN CH SOA NS A AAAA CNAME \
    MX TXT DS 0 60 86400 4294967296 -1 192.0.2.1 2001:db8::1 \" \"txt txt\" ; ab aéa é рф +f \
    xn--p1ai. ..";

/// The token picked by `i`.
fn token(i: &Index) -> &'static str {
    let tokens: Vec<&'static str> = TOKENS.split_whitespace().collect();
    tokens[i.index(tokens.len())]
}

fn name(s: &str) -> Name {
    s.parse().unwrap()
}

/// A zone carrying every record type the text format supports.
fn sample_zone() -> Zone {
    let soa = SoaData {
        mname: name("a.dns.ripn.net"),
        rname: name("hostmaster.ripn.net"),
        serial: 19_047,
        refresh: 86_400,
        retry: 14_400,
        expire: 2_592_000,
        minimum: 3_600,
    };
    let mut z = Zone::new(name("ru"), soa, 86_400);
    let records = [
        ("example.ru", RData::Ns(name("ns1.example.ru"))),
        ("example.ru", RData::Ns(name("ns2.hoster.com"))),
        (
            "example.ru",
            RData::Ds(7, 8, 2, vec![0xDE, 0xAD, 0xBE, 0xEF]),
        ),
        ("ns1.example.ru", RData::A("198.51.100.53".parse().unwrap())),
        (
            "ns1.example.ru",
            RData::Aaaa("2001:db8::53".parse().unwrap()),
        ),
        ("mail.ru", RData::Mx(10, name("mx.mail.ru"))),
        ("www.mail.ru", RData::Cname(name("mail.ru"))),
        ("mail.ru", RData::Txt(vec![b"v=spf1 -all".to_vec()])),
    ];
    for (owner, data) in records {
        assert!(z.add(Record::new(name(owner), 345_600, data)));
    }
    z
}

/// Parse `text`; an error must point at a line of it (or 0 for "no SOA").
fn parse_total(text: &str) -> Result<Zone, ZoneParseError> {
    let result = Zone::from_text(text);
    if let Err(e) = &result {
        assert!(e.line <= text.lines().count(), "{e} is past the end");
    }
    result
}

/// Characters a corrupted transfer may carry in place of the real ones:
/// multi-byte UTF-8, quotes, comment and label separators, digits, hex
/// and control characters.
const EDITS: &[char] = &[
    'é', 'ф', '"', ';', ' ', '.', '-', '9', 'f', 'Z', '\n', '\t', '\0',
];

/// Apply `edits` as (position, replacement, insert-or-overwrite) to `text`.
fn mutate(text: &str, edits: &[(Index, Index, bool)]) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for (at, with, insert) in edits {
        let c = EDITS[with.index(EDITS.len())];
        let at = at.index(chars.len() + 1);
        if *insert || at == chars.len() {
            chars.insert(at, c);
        } else {
            chars[at] = c;
        }
    }
    chars.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_strings_never_panic(text in "\\PC*") {
        let _ = parse_total(&text);
    }

    /// Lines shaped like records (owner, TTL, class, type, then fields)
    /// reach every type's field parser.
    #[test]
    fn record_shaped_lines_never_panic(
        lines in proptest::collection::vec(
            (any::<Index>(), proptest::collection::vec(any::<Index>(), 0..8)),
            0..8,
        )
    ) {
        const RTYPES: &[&str] = &["A", "AAAA", "NS", "CNAME", "MX", "SOA", "TXT", "DS"];
        let mut text = String::from("$ORIGIN ru.\nru. 86400 IN SOA a. b. 1 2 3 4 5\n");
        for (rtype, fields) in &lines {
            let rtype = RTYPES[rtype.index(RTYPES.len())];
            let fields: Vec<&str> =
                fields.iter().map(token).collect();
            text.push_str(&format!("x.ru. 60 IN {rtype} {}\n", fields.join(" ")));
        }
        let _ = parse_total(&text);
    }

    #[test]
    fn token_soup_never_panics(
        lines in proptest::collection::vec(
            proptest::collection::vec(any::<Index>(), 0..10),
            0..8,
        )
    ) {
        let text: String = lines
            .iter()
            .map(|line| {
                let words: Vec<&str> = line.iter().map(token).collect();
                words.join(" ") + "\n"
            })
            .collect();
        let _ = parse_total(&text);
    }

    #[test]
    fn multiply_mutated_text_never_panics(
        edits in proptest::collection::vec((any::<Index>(), any::<Index>(), any::<bool>()), 1..6)
    ) {
        let _ = parse_total(&mutate(&sample_zone().to_text(), &edits));
    }
}

#[test]
fn sample_zone_round_trips() {
    let zone = sample_zone();
    assert_eq!(Zone::from_text(&zone.to_text()).unwrap(), zone);
}

/// Every truncation of a transfer: errors or a valid prefix zone, and a
/// cut at a line end past the SOA always parses to a subset of the zone.
#[test]
fn every_truncation_is_total() {
    let zone = sample_zone();
    let text = zone.to_text();
    // The text opens with the `$ORIGIN` line, then the SOA line.
    let soa_end = text.match_indices('\n').nth(1).unwrap().0 + 1;
    for cut in 0..=text.len() {
        let result = parse_total(&text[..cut]);
        if cut >= soa_end && (text[..cut].ends_with('\n') || cut == text.len()) {
            let prefix = result.unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            assert_eq!(prefix.soa(), zone.soa());
            assert!(prefix.iter().all(|r| zone.iter().any(|z| z == r)));
        }
    }
}

/// Every single-character overwrite and insertion, at every position.
#[test]
fn every_single_edit_is_total() {
    let text = sample_zone().to_text();
    let len = text.chars().count();
    for at in 0..=len {
        for c in EDITS {
            for insert in [false, true] {
                let mut chars: Vec<char> = text.chars().collect();
                if insert || at == len {
                    chars.insert(at, *c);
                } else {
                    chars[at] = *c;
                }
                let _ = parse_total(&chars.into_iter().collect::<String>());
            }
        }
    }
}
