//! Property tests for the foundation types.

use proptest::prelude::*;
use ruwhere_types::punycode;
use ruwhere_types::{Date, DomainName, DomainParseError};

proptest! {
    #[test]
    fn date_ymd_roundtrip(days in -1_000_000i32..1_000_000) {
        let d = Date::from_days(days);
        let (y, m, dd) = d.ymd();
        prop_assert_eq!(Date::from_ymd(y, m, dd), d);
        prop_assert!((1..=12).contains(&m));
        prop_assert!((1..=31).contains(&dd));
    }

    #[test]
    fn date_display_parse_roundtrip(days in -700_000i32..700_000) {
        let d = Date::from_days(days);
        let s = d.to_string();
        prop_assert_eq!(s.parse::<Date>().unwrap(), d);
    }

    #[test]
    fn date_ordering_matches_day_count(a in -10_000i32..10_000, b in -10_000i32..10_000) {
        let (da, db) = (Date::from_days(a), Date::from_days(b));
        prop_assert_eq!(da < db, a < b);
        prop_assert_eq!(db - da, b - a);
    }

    #[test]
    fn punycode_roundtrip_cyrillic(s in "[а-яё]{1,20}") {
        let encoded = punycode::encode(&s).unwrap();
        prop_assert!(encoded.is_ascii());
        prop_assert_eq!(punycode::decode(&encoded).unwrap(), s);
    }

    #[test]
    fn punycode_roundtrip_mixed(s in "[a-zа-я0-9]{1,20}") {
        let encoded = punycode::encode(&s).unwrap();
        prop_assert_eq!(punycode::decode(&encoded).unwrap(), s);
    }

    #[test]
    fn punycode_decode_never_panics(s in "[a-z0-9-]{0,40}") {
        let _ = punycode::decode(&s);
    }

    #[test]
    fn idna_label_roundtrip(s in "[а-я]{1,15}") {
        let ascii = punycode::label_to_ascii(&s).unwrap();
        prop_assert!(ascii.starts_with("xn--"));
        prop_assert_eq!(punycode::label_to_unicode(&ascii).unwrap(), s);
    }

    #[test]
    fn domain_parse_is_idempotent(
        labels in proptest::collection::vec("[a-z0-9]{1,10}", 1..4)
    ) {
        let input = labels.join(".");
        let d1 = DomainName::parse(&input).unwrap();
        let d2 = DomainName::parse(d1.as_str()).unwrap();
        prop_assert_eq!(&d1, &d2);
        prop_assert_eq!(d1.label_count(), labels.len());
    }

    #[test]
    fn domain_unicode_form_roundtrips(sld in "[а-я]{1,12}") {
        let d = DomainName::parse(&format!("{sld}.рф")).unwrap();
        prop_assert!(d.is_russian_cctld());
        let uni = d.to_unicode();
        let reparsed = DomainName::parse(&uni).unwrap();
        prop_assert_eq!(reparsed, d);
    }

    #[test]
    fn domain_parser_never_panics(s in "\\PC{0,60}") {
        let _ = DomainName::parse(&s);
    }

    #[test]
    fn from_ascii_labels_equals_parsing_the_joined_labels(
        labels in proptest::collection::vec(
            prop_oneof![
                // `_`, leading and trailing `-`, mixed case, `.` and other
                // punctuation inside a label.
                proptest::string::string_regex("[a-zA-Z0-9_.!-]{1,12}").unwrap(),
                // 63- and 64-byte labels, and totals around 253/254.
                (62usize..=64).prop_map(|n| "a".repeat(n)),
            ],
            0..6,
        )
    ) {
        let bytes: Vec<&[u8]> = labels.iter().map(|l| l.as_bytes()).collect();
        let ours = DomainName::from_ascii_labels(bytes);
        if let Some(first_dot) = labels.iter().position(|l| l.contains('.')) {
            // A dot cannot be inside a wire label of a hostname; labels are
            // checked in order.
            prop_assert!(ours.is_err());
            if labels[..first_dot].iter().all(|l| DomainName::parse(l).is_ok()) {
                prop_assert!(matches!(ours, Err(DomainParseError::BadChar(_))));
            }
        } else {
            prop_assert_eq!(ours, DomainName::parse(&labels.join(".")));
        }
    }
}
