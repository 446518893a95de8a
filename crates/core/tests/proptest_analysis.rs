//! Property tests on analysis invariants: whatever the measurement data
//! looks like, the classifications must partition, percentages must add
//! up, and movement accounting must conserve domains.
//!
//! Sweeps are generated as plain records, built into [`SweepFrame`]s with
//! [`FrameBuilder`], and fed to the series through [`AnalysisEngine`] —
//! the path `run_study` takes.

use proptest::prelude::*;
use ruwhere_core::composition::{classify_record_view, Composition, CompositionSeries, InfraKind};
use ruwhere_core::movement::{Movement, MovementReport};
use ruwhere_core::{AnalysisEngine, AsnShareSeries};
use ruwhere_store::{FrameBuilder, Interner, SweepFrame, SweepStats};
use ruwhere_types::{Asn, Country, Date, DomainName};
use std::net::Ipv4Addr;

const COUNTRIES: [Option<&str>; 5] = [Some("RU"), Some("US"), Some("DE"), Some("SE"), None];

/// One resolved address as generated.
#[derive(Debug, Clone)]
struct Addr {
    ip: Ipv4Addr,
    country: Option<Country>,
    asn: Option<Asn>,
}

/// One domain's generated record.
#[derive(Debug, Clone)]
struct Rec {
    domain: DomainName,
    ns_names: Vec<DomainName>,
    ns_addrs: Vec<Addr>,
    apex_addrs: Vec<Addr>,
}

fn addr(i: usize, cc_idx: usize, asn: u32) -> Addr {
    Addr {
        ip: format!("10.{}.{}.{}", asn % 256, i, 1).parse().unwrap(),
        country: COUNTRIES[cc_idx % COUNTRIES.len()].map(|c| c.parse::<Country>().unwrap()),
        asn: if asn == 0 { None } else { Some(Asn(asn)) },
    }
}

prop_compose! {
    fn arb_record(idx: usize)(
        n_ns in 0usize..4,
        n_apex in 0usize..3,
        cc_seed in any::<usize>(),
        asn_seed in 0u32..6,
    ) -> Rec {
        Rec {
            domain: format!("prop-{idx}.ru").parse().unwrap(),
            ns_names: (0..n_ns).map(|i| format!("ns{i}.prop-{idx}.ru").parse().unwrap()).collect(),
            ns_addrs: (0..n_ns).map(|i| addr(i, cc_seed.wrapping_add(i), asn_seed + i as u32)).collect(),
            apex_addrs: (0..n_apex).map(|i| addr(i + 8, cc_seed.wrapping_mul(3).wrapping_add(i), asn_seed * 2 + i as u32)).collect(),
        }
    }
}

fn arb_sweep() -> impl Strategy<Value = Vec<Rec>> {
    proptest::collection::vec(any::<u8>(), 1..40).prop_flat_map(|seeds| {
        let strategies: Vec<_> = (0..seeds.len()).map(arb_record).collect();
        strategies
    })
}

/// Build the frame of `records` on `date`, interning through `interner`.
fn frame(interner: &Interner, date: Date, records: &[Rec]) -> SweepFrame {
    let mut b = FrameBuilder::new(date);
    for rec in records {
        b.begin_record(interner.intern_name(&rec.domain));
        for ns in &rec.ns_names {
            b.push_ns_name(interner.intern_name(ns));
        }
        for a in &rec.ns_addrs {
            b.push_ns_addr(a.ip, interner.intern_country(a.country), a.asn);
        }
        for a in &rec.apex_addrs {
            b.push_apex_addr(a.ip, interner.intern_country(a.country), a.asn);
        }
        b.end_record();
    }
    b.finish(SweepStats::default(), Default::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn composition_partitions_every_domain(records in arb_sweep()) {
        let date = Date::from_ymd(2022, 3, 1);
        let interner = Interner::new();
        let sweep = frame(&interner, date, &records);
        for kind in [InfraKind::NameServers, InfraKind::Hosting] {
            let mut series = CompositionSeries::new(kind);
            AnalysisEngine::new().observe_frame(&sweep, &interner, &mut [&mut series]);
            let c = series.at(date).unwrap();
            // Partition: every domain lands in exactly one bucket.
            prop_assert_eq!(c.total() as usize, records.len());
            prop_assert_eq!(c.known() + c.unknown, c.total());
            // Percentages over the known set sum to 100 (when any known).
            if c.known() > 0 {
                let sum = c.pct_full() + c.pct_partial() + c.pct_non();
                prop_assert!((sum - 100.0).abs() < 1e-9, "pct sum {sum}");
            }
        }
    }

    #[test]
    fn classification_matches_manual_rule(records in arb_sweep()) {
        let interner = Interner::new();
        let sweep = frame(&interner, Date::from_ymd(2022, 3, 1), &records);
        let snap = interner.snapshot();
        for (view, rec) in sweep.records().zip(&records) {
            let ru = rec.ns_addrs.iter().filter(|a| a.country.map(|c| c.is_russia()).unwrap_or(false)).count();
            let known = rec.ns_addrs.iter().filter(|a| a.country.is_some()).count();
            let expected = match (ru, known) {
                (_, 0) => Composition::Unknown,
                (r, k) if r == k => Composition::Full,
                (0, _) => Composition::Non,
                _ => Composition::Partial,
            };
            prop_assert_eq!(classify_record_view(InfraKind::NameServers, &view, &snap), expected);
        }
    }

    #[test]
    fn movement_conserves_domains(
        a in arb_sweep(),
        b in arb_sweep(),
        asn in 1u32..8,
    ) {
        let interner = Interner::new();
        let fa = frame(&interner, Date::from_ymd(2022, 3, 8), &a);
        let fb = frame(&interner, Date::from_ymd(2022, 5, 25), &b);
        let report = MovementReport::analyze_frames(&fa, &fb, Asn(asn), &interner);
        // Conservation: every original domain has exactly one outcome.
        prop_assert_eq!(
            report.original(),
            report.remained() + report.relocated() + report.lost()
        );
        // Arrivals are disjoint from the original set.
        for d in report.relocated_in.iter().chain(&report.newly_registered) {
            prop_assert!(!report.outcomes.contains_key(d));
        }
        // Destination histogram covers only relocated domains.
        let dest_total: usize = report.destinations().values().sum();
        prop_assert!(dest_total >= report.relocated());
        // Share-to is a fraction.
        let share = report.relocated_share_to(Asn(99));
        prop_assert!((0.0..=1.0).contains(&share));
    }

    #[test]
    fn movement_outcomes_are_consistent_with_sweeps(
        a in arb_sweep(),
        b in arb_sweep(),
    ) {
        let asn = Asn(2);
        let interner = Interner::new();
        let fa = frame(&interner, Date::from_ymd(2022, 3, 8), &a);
        let fb = frame(&interner, Date::from_ymd(2022, 5, 25), &b);
        let report = MovementReport::analyze_frames(&fa, &fb, asn, &interner);
        let snap = interner.snapshot();
        for (domain, outcome) in &report.outcomes {
            let in_b = fb.records().find(|r| snap.name(r.domain_sym()) == domain);
            match outcome {
                Movement::Gone => prop_assert!(in_b.is_none()),
                Movement::Remained => {
                    prop_assert!(in_b.unwrap().apex_addrs().asns().contains(&Some(asn)));
                }
                Movement::RelocatedTo(dests) => {
                    prop_assert!(!dests.contains(&asn));
                    prop_assert!(!dests.is_empty());
                }
                Movement::Unresolved => {
                    prop_assert!(in_b.unwrap().apex_addrs().asns().iter().all(|x| x.is_none()));
                }
            }
        }
    }

    #[test]
    fn asn_share_totals_are_bounded(records in arb_sweep()) {
        let date = Date::from_ymd(2022, 3, 1);
        let interner = Interner::new();
        let sweep = frame(&interner, date, &records);
        let mut s = AsnShareSeries::new();
        AnalysisEngine::new().observe_frame(&sweep, &interner, &mut [&mut s]);
        let total = s.total(date).unwrap();
        // The denominator counts only resolving domains.
        let resolving = records.iter().filter(|d| !d.apex_addrs.is_empty()).count() as u64;
        prop_assert_eq!(total, resolving);
        // Each individual ASN count is ≤ total; shares are percentages.
        for asn in 0..8u32 {
            prop_assert!(s.count(date, Asn(asn)) <= total);
            let share = s.share(date, Asn(asn)).unwrap();
            prop_assert!((0.0..=100.0).contains(&share));
        }
    }
}
