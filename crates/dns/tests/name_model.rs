//! `Name` against a plain label model, `Name::decode` totality, and
//! `Name::to_domain_name` against formatting and re-parsing.

use proptest::prelude::*;
use ruwhere_dns::wire::Decoder;
use ruwhere_dns::{Name, WireError};
use ruwhere_types::DomainName;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A name as its lowercase labels, leftmost first.
type Model = Vec<Vec<u8>>;

/// Uncompressed wire bytes of `labels`, with the terminal zero.
fn wire_of(labels: &[Vec<u8>]) -> Vec<u8> {
    let mut buf = Vec::new();
    for l in labels {
        buf.push(l.len() as u8);
        buf.extend_from_slice(l);
    }
    buf.push(0);
    buf
}

/// Decode a name from its uncompressed wire bytes; the labels may hold any
/// byte, which `Name::from_labels` would reject.
fn decoded(labels: &[Vec<u8>]) -> Name {
    let buf = wire_of(labels);
    let mut d = Decoder::new(&buf);
    let name = Name::decode(&mut d).expect("well-formed wire name");
    assert_eq!(d.remaining(), 0);
    name
}

fn model_of(labels: &[Vec<u8>]) -> Model {
    labels.iter().map(|l| l.to_ascii_lowercase()).collect()
}

fn model_display(model: &Model) -> String {
    if model.is_empty() {
        return ".".to_owned();
    }
    let mut s = String::new();
    for l in model {
        for &b in l {
            if b.is_ascii_graphic() && b != b'.' {
                s.push(b as char);
            } else {
                s.push_str(&format!("\\{b:03}"));
            }
        }
        s.push('.');
    }
    s
}

fn hash_of(n: &Name) -> u64 {
    let mut h = DefaultHasher::new();
    n.hash(&mut h);
    h.finish()
}

/// Labels that are prefixes of each other (`a`/`ab`/`b`), mixed case, and
/// arbitrary bytes.
fn arb_label() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        Just(b"a".to_vec()),
        Just(b"A".to_vec()),
        Just(b"ab".to_vec()),
        Just(b"aB".to_vec()),
        Just(b"b".to_vec()),
        Just(b"ru".to_vec()),
        proptest::collection::vec(any::<u8>(), 1..8),
    ]
}

fn arb_labels() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(arb_label(), 0..5)
}

/// Two label lists, where the second is often a suffix of the first.
fn arb_pair() -> impl Strategy<Value = (Vec<Vec<u8>>, Vec<Vec<u8>>)> {
    prop_oneof![
        (arb_labels(), arb_labels()),
        (arb_labels(), any::<prop::sample::Index>()).prop_map(|(a, k)| {
            let k = k.index(a.len() + 1);
            let b = a[a.len() - k..].to_vec();
            (a, b)
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn name_agrees_with_the_label_model(pair in arb_pair()) {
        let (la, lb) = pair;
        let (a, b) = (decoded(&la), decoded(&lb));
        let (ma, mb) = (model_of(&la), model_of(&lb));

        prop_assert_eq!(a.labels().map(<[u8]>::to_vec).collect::<Model>(), ma.clone());
        prop_assert_eq!(a.cmp(&b), ma.cmp(&mb));
        prop_assert_eq!(a == b, ma == mb);
        if a == b {
            prop_assert_eq!(hash_of(&a), hash_of(&b));
        }
        let sub = ma.len() >= mb.len() && ma[ma.len() - mb.len()..] == mb[..];
        prop_assert_eq!(a.is_subdomain_of(&b), sub);
        prop_assert_eq!(a.is_root(), ma.is_empty());
        prop_assert_eq!(a.label_count(), ma.len());
        prop_assert_eq!(a.wire_len(), 1 + ma.iter().map(|l| 1 + l.len()).sum::<usize>());
        prop_assert_eq!(a.to_string(), model_display(&ma));
        prop_assert_eq!(
            a.parent().map(|p| p.labels().map(<[u8]>::to_vec).collect::<Model>()),
            (!ma.is_empty()).then(|| ma[1..].to_vec())
        );
    }

    #[test]
    fn from_labels_agrees_with_decode(labels in proptest::collection::vec(
        proptest::string::string_regex("[a-zA-Z0-9_-]{1,10}").unwrap(), 0..6)
    ) {
        let bytes: Vec<Vec<u8>> = labels.iter().map(|l| l.as_bytes().to_vec()).collect();
        let built = Name::from_labels(&labels).unwrap();
        let from_wire = decoded(&bytes);
        prop_assert_eq!(hash_of(&built), hash_of(&from_wire));
        prop_assert_eq!(built, from_wire);
    }
}

/// `name` with `k` labels dropped from the left by `parent()`, so that it
/// starts at an offset inside the buffer of `name`.
fn nth_parent(name: &Name, k: usize) -> Name {
    let mut n = name.clone();
    for _ in 0..k {
        n = n.parent().expect("fewer than label_count parents");
    }
    n
}

/// Encoded bytes of `n` alone, with compression.
fn encoded(n: &Name) -> Vec<u8> {
    let mut e = ruwhere_dns::wire::Encoder::new();
    n.encode(&mut e);
    e.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn offset_names_agree_with_the_label_model(
        pair in arb_pair(),
        ka in any::<prop::sample::Index>(),
        kb in any::<prop::sample::Index>(),
    ) {
        // Suffixes reached through parent() share their child's buffer and
        // start at an offset in it; they must behave exactly like names
        // built on their own.
        let (la, lb) = pair;
        let (ka, kb) = (ka.index(la.len() + 1), kb.index(lb.len() + 1));
        let (a, b) = (nth_parent(&decoded(&la), ka), nth_parent(&decoded(&lb), kb));
        let (fresh_a, fresh_b) = (decoded(&la[ka..]), decoded(&lb[kb..]));
        let (ma, mb) = (model_of(&la[ka..]), model_of(&lb[kb..]));

        prop_assert_eq!(a.labels().map(<[u8]>::to_vec).collect::<Model>(), ma.clone());
        prop_assert_eq!(&a, &fresh_a);
        prop_assert_eq!(hash_of(&a), hash_of(&fresh_a));
        prop_assert_eq!(a == b, ma == mb);
        prop_assert_eq!(a == fresh_b, ma == mb);
        if a == b {
            prop_assert_eq!(hash_of(&a), hash_of(&b));
        }
        prop_assert_eq!(a.cmp(&b), ma.cmp(&mb));
        prop_assert_eq!(a.cmp(&fresh_b), ma.cmp(&mb));
        prop_assert_eq!(fresh_a.cmp(&b), ma.cmp(&mb));
        let sub = ma.len() >= mb.len() && ma[ma.len() - mb.len()..] == mb[..];
        prop_assert_eq!(a.is_subdomain_of(&b), sub);
        prop_assert_eq!(a.is_root(), ma.is_empty());
        prop_assert_eq!(a.label_count(), ma.len());
        prop_assert_eq!(a.wire_len(), fresh_a.wire_len());
        prop_assert_eq!(a.to_string(), model_display(&ma));
        prop_assert_eq!(encoded(&a), encoded(&fresh_a));
        prop_assert_eq!(
            a.parent().map(|p| p.labels().map(<[u8]>::to_vec).collect::<Model>()),
            (!ma.is_empty()).then(|| ma[1..].to_vec())
        );
    }
}

#[test]
fn offset_names_key_maps_like_fresh_ones() {
    use std::collections::{BTreeMap, HashMap};
    let n = |s: &str| s.parse::<Name>().unwrap();
    let deep = n("www.a.example.ru");
    let suffixes: Vec<Name> = (0..=4).map(|k| nth_parent(&deep, k)).collect();
    let mut hashed = HashMap::new();
    let mut ordered = BTreeMap::new();
    for (i, s) in suffixes.iter().enumerate() {
        hashed.insert(s.clone(), i);
        ordered.insert(s.clone(), i);
    }
    for (i, s) in ["www.a.example.ru", "a.example.ru", "example.ru", "ru", "."]
        .into_iter()
        .enumerate()
    {
        assert_eq!(hashed.get(&n(s)), Some(&i), "{s}");
        assert_eq!(ordered.get(&n(s)), Some(&i), "{s}");
    }
    let keys: Vec<String> = ordered.keys().map(Name::to_string).collect();
    assert_eq!(
        keys,
        [
            ".",
            "a.example.ru.",
            "example.ru.",
            "ru.",
            "www.a.example.ru."
        ]
    );
}

#[test]
fn order_is_label_wise_not_bytewise() {
    let n = |s: &str| s.parse::<Name>().unwrap();
    // Bytewise, "\x02ab" > "\x01b"; label-wise, "ab" < "b".
    assert!(n("ab.") < n("b."));
    assert!(n("a.") < n("ab."));
    assert!(n("a.b.") < n("a.b.c."));
    assert!(n("a.z.") < n("b.a."));
    assert!(Name::root() < n("a."));
    let mut sorted = [n("b"), n("ab"), n("a.b"), n("a"), Name::root(), n("a.ab")];
    sorted.sort();
    let shown: Vec<String> = sorted.iter().map(Name::to_string).collect();
    assert_eq!(shown, [".", "a.", "a.ab.", "a.b.", "ab.", "b."]);
}

#[test]
fn subdomain_needs_a_label_boundary() {
    let n = |s: &str| s.parse::<Name>().unwrap();
    // "\x01b\x02ru" ends with the bytes of "\x02ru" but "xb.ru" is not
    // under "b.ru" ...
    assert!(!n("xb.ru").is_subdomain_of(&n("b.ru")));
    // ... and the bytes of "\x01a\x02ru" end "\x01b\x01a\x02ru" as labels.
    assert!(n("b.a.ru").is_subdomain_of(&n("a.ru")));
    // A label whose bytes look like a suffix of labels does not count.
    let tricky = decoded(&[b"x\x01a\x02ru".to_vec()]);
    assert!(!tricky.is_subdomain_of(&n("a.ru")));
    assert!(tricky.is_subdomain_of(&Name::root()));
}

#[test]
fn from_labels_keeps_its_error_precedence() {
    let l63 = [b'a'; 63];
    let long = [&l63[..], &l63[..], &l63[..], &l63[..]];
    assert_eq!(Name::from_labels(long), Err(WireError::NameTooLong));
    // A bad label after the total is already too long is still BadLabel.
    let bad_after_long = [&l63[..], &l63[..], &l63[..], &l63[..], &b"a.b"[..]];
    assert_eq!(Name::from_labels(bad_after_long), Err(WireError::BadLabel));
    let non_ascii_after_long = [&l63[..], &l63[..], &l63[..], &l63[..], "é".as_bytes()];
    assert_eq!(
        Name::from_labels(non_ascii_after_long),
        Err(WireError::BadLabel)
    );
    // Errors come in label order; within a label, an empty or over-long
    // label is NameTooLong before its content is checked.
    assert_eq!(
        Name::from_labels([&b"a.b"[..], &b""[..]]),
        Err(WireError::BadLabel)
    );
    assert_eq!(
        Name::from_labels([&l63[..], &l63[..], &l63[..], &l63[..], &b""[..]]),
        Err(WireError::NameTooLong)
    );
    assert_eq!(
        Name::from_labels([&[b'.'; 64][..]]),
        Err(WireError::NameTooLong)
    );
}

// ---- Name::decode totality ---------------------------------------------

/// The errors a malformed name may produce.
fn is_name_error(e: &WireError) -> bool {
    matches!(
        e,
        WireError::Truncated
            | WireError::BadPointer
            | WireError::NameTooLong
            | WireError::BadLabelType(_)
    )
}

/// Decode at `at`; on success the cursor must end inside the buffer, after
/// `at`, and the name must respect the wire limits.
fn check_decode_at(buf: &[u8], at: usize) -> Result<Name, WireError> {
    let mut d = Decoder::new(buf);
    d.seek(at).unwrap();
    let result = Name::decode(&mut d);
    match &result {
        Ok(name) => {
            assert!(d.position() > at && d.position() <= buf.len());
            assert!(name.wire_len() <= 255);
            assert!(name.labels().all(|l| !l.is_empty() && l.len() <= 63));
        }
        Err(e) => assert!(is_name_error(e), "untyped error {e:?}"),
    }
    result
}

/// One piece of a generated buffer.
#[derive(Debug, Clone)]
enum Piece {
    Label(Vec<u8>),
    Root,
    /// A compression pointer to an absolute offset, which may be behind,
    /// at, or ahead of the pointer, or beyond the buffer.
    Pointer(u16),
    Raw(u8),
}

fn arb_piece() -> impl Strategy<Value = Piece> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 1..6).prop_map(Piece::Label),
        Just(Piece::Root),
        (0u16..80).prop_map(Piece::Pointer),
        (0u16..0x4000).prop_map(Piece::Pointer),
        any::<u8>().prop_map(Piece::Raw),
    ]
}

fn assemble(pieces: &[Piece]) -> Vec<u8> {
    let mut buf = Vec::new();
    for p in pieces {
        match p {
            Piece::Label(l) => {
                buf.push(l.len() as u8);
                buf.extend_from_slice(l);
            }
            Piece::Root => buf.push(0),
            Piece::Pointer(t) => buf.extend_from_slice(&(0xC000 | t).to_be_bytes()),
            Piece::Raw(b) => buf.push(*b),
        }
    }
    buf
}

/// Label lengths whose uncompressed wire form, with the terminal zero, is
/// exactly `total` octets; `picks` varies the split.
fn split_into_labels(total: usize, picks: &[u8]) -> Vec<Vec<u8>> {
    let mut remaining = total - 1;
    let mut labels = Vec::new();
    let mut picks = picks.iter().cycle();
    while remaining > 0 {
        let len = if remaining <= 64 {
            remaining - 1
        } else {
            1 + *picks.next().unwrap() as usize % (remaining - 3).min(63)
        };
        labels.push(vec![b'x'; len]);
        remaining -= 1 + len;
    }
    labels
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn decode_is_total_on_arbitrary_bytes(
        buf in proptest::collection::vec(any::<u8>(), 0..300),
        at in any::<prop::sample::Index>(),
    ) {
        let at = at.index(buf.len() + 1);
        let _ = check_decode_at(&buf, at);
    }

    #[test]
    fn decode_is_total_on_pointer_chains(
        pieces in proptest::collection::vec(arb_piece(), 0..24),
        at in any::<prop::sample::Index>(),
    ) {
        let buf = assemble(&pieces);
        let at = at.index(buf.len() + 1);
        let _ = check_decode_at(&buf, at);
    }

    #[test]
    fn pointers_that_do_not_point_back_are_bad(
        prefix in proptest::collection::vec(arb_piece(), 0..8),
        ahead in 0u16..300,
    ) {
        let start = assemble(&prefix).len();
        // A self-pointer, a forward or out-of-range pointer, and a
        // two-pointer loop.
        let self_ptr = [prefix.clone(), vec![Piece::Pointer(start as u16)]].concat();
        let forward = [prefix.clone(), vec![Piece::Pointer(start as u16 + 1 + ahead)]].concat();
        let looped = [
            prefix.clone(),
            vec![Piece::Pointer(start as u16 + 2), Piece::Pointer(start as u16)],
        ]
        .concat();
        for pieces in [self_ptr, forward, looped] {
            let buf = assemble(&pieces);
            prop_assert_eq!(check_decode_at(&buf, start), Err(WireError::BadPointer));
        }
    }

    #[test]
    fn names_of_255_octets_decode_and_256_do_not(
        picks in proptest::collection::vec(any::<u8>(), 1..8),
        cut in any::<prop::sample::Index>(),
    ) {
        for (total, ok) in [(255usize, true), (256, false)] {
            let labels = split_into_labels(total, &picks);
            prop_assert_eq!(wire_of(&labels).len(), total);

            // In place.
            let result = check_decode_at(&wire_of(&labels), 0);
            prop_assert_eq!(result.is_ok(), ok);
            if let Ok(name) = &result {
                prop_assert_eq!(name.wire_len(), total);
            } else {
                prop_assert_eq!(result, Err(WireError::NameTooLong));
            }

            // Split by a compression pointer: the tail first, then the head
            // pointing back at it.
            let k = cut.index(labels.len() + 1);
            let tail = wire_of(&labels[k..]);
            let mut buf = tail.clone();
            let head_at = buf.len();
            for l in &labels[..k] {
                buf.push(l.len() as u8);
                buf.extend_from_slice(l);
            }
            buf.extend_from_slice(&0xC000u16.to_be_bytes());
            let result = check_decode_at(&buf, head_at);
            prop_assert_eq!(result.is_ok(), ok);
            if !ok {
                prop_assert_eq!(result, Err(WireError::NameTooLong));
            }
        }
    }
}

#[test]
fn a_chain_of_64_pointers_decodes_and_65_do_not() {
    for (hops, ok) in [(64usize, true), (65, false)] {
        let mut buf = wire_of(&[b"a".to_vec(), b"ru".to_vec()]);
        let mut target = 0u16;
        for _ in 0..hops {
            let at = buf.len() as u16;
            buf.extend_from_slice(&(0xC000 | target).to_be_bytes());
            target = at;
        }
        let result = check_decode_at(&buf, target as usize);
        if ok {
            assert_eq!(result.unwrap().to_string(), "a.ru.");
        } else {
            assert_eq!(result, Err(WireError::BadPointer));
        }
    }
}

// ---- to_domain_name ------------------------------------------------------

fn arb_host_label() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        // Hostname-shaped, with `_` and leading or trailing `-`.
        proptest::string::string_regex("[a-zA-Z0-9_-]{1,12}")
            .unwrap()
            .prop_map(String::into_bytes),
        // Bytes that display escaped, and `.` inside a label.
        proptest::collection::vec(
            prop_oneof![Just(b'.'), Just(b' '), Just(b'\\'), any::<u8>(), Just(b'a')],
            1..6
        ),
        // 63-octet labels.
        Just(vec![b'a'; 63]),
        Just([vec![b'-'], vec![b'b'; 62]].concat()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn to_domain_name_equals_parsing_the_presentation_form(
        labels in proptest::collection::vec(arb_host_label(), 0..6)
    ) {
        if wire_of(&labels).len() > 255 {
            return Ok(());
        }
        let name = decoded(&labels);
        prop_assert_eq!(
            name.to_domain_name(),
            DomainName::parse(&name.to_string()).ok()
        );
    }
}

#[test]
fn to_domain_name_at_the_length_limit() {
    // 253 presentation characters is the most a wire name can hold:
    // 3 × 63 + 61 octets of labels plus 3 dots.
    let labels = [
        vec![b'a'; 63],
        vec![b'b'; 63],
        vec![b'c'; 63],
        vec![b'd'; 61],
    ];
    let name = decoded(&labels);
    assert_eq!(name.wire_len(), 255);
    assert_eq!(name.to_string().len(), 254); // with the trailing dot
    let d = name.to_domain_name().unwrap();
    assert_eq!(d.as_str().len(), 253);
    assert_eq!(Some(d), DomainName::parse(&name.to_string()).ok());
    assert!(Name::root().to_domain_name().is_none());
}
