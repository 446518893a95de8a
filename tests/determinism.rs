//! Cross-crate determinism: identical configurations must produce
//! bit-identical measurements, analyses and artifacts.

use ruwhere::prelude::*;

fn small_study() -> StudyResults {
    let mut world = WorldConfig::tiny();
    world.end = Date::from_ymd(2022, 3, 10);
    let mut cfg = StudyConfig::paper_schedule(world);
    cfg.daily_from = Date::from_ymd(2022, 2, 25);
    run_study(&cfg)
}

#[test]
fn studies_are_bit_reproducible() {
    let a = small_study();
    let b = small_study();

    assert_eq!(a.sweeps_run, b.sweeps_run);
    assert_eq!(a.total_queries, b.total_queries);
    assert_eq!(a.certs.len(), b.certs.len());

    // Figure series render identically.
    assert_eq!(
        ruwhere_core::figures::fig1_series(&a).render(),
        ruwhere_core::figures::fig1_series(&b).render()
    );
    assert_eq!(
        ruwhere_core::figures::fig3_series(&a).render(),
        ruwhere_core::figures::fig3_series(&b).render()
    );
    assert_eq!(
        ruwhere_core::figures::table1(&a).render(),
        ruwhere_core::figures::table1(&b).render()
    );
    assert_eq!(
        ruwhere_core::figures::table2(&a).render(),
        ruwhere_core::figures::table2(&b).render()
    );

    // The study-wide symbol tables dump byte-identically, so symbols are
    // directly comparable across the two runs…
    assert_eq!(a.interner.dump(), b.interner.dump());
    // …and the retained columnar frames are byte-equal wholesale.
    let (da, db) = (a.final_sweep().unwrap(), b.final_sweep().unwrap());
    assert_eq!(da, db);
    // The engines did the same amount of single-pass work.
    assert_eq!(a.analysis, b.analysis);
}

#[test]
fn different_seeds_differ() {
    let mut w1 = WorldConfig::tiny();
    w1.end = Date::from_ymd(2022, 1, 20);
    let mut w2 = w1.clone();
    w2.seed ^= 0xDEADBEEF;

    let mut world1 = World::new(w1);
    let mut world2 = World::new(w2);
    let mut s1 = OpenIntelScanner::new(&world1);
    let mut s2 = OpenIntelScanner::new(&world2);
    let d1 = s1.sweep_frame(&mut world1);
    let d2 = s2.sweep_frame(&mut world2);
    // Each scanner has its own interner, so compare what the symbols mean.
    let names = |frame: &SweepFrame, scanner: &OpenIntelScanner| -> Vec<DomainName> {
        let snap = scanner.interner().snapshot();
        frame
            .domains
            .iter()
            .map(|&s| snap.name(s).clone())
            .collect()
    };
    assert_ne!(
        names(&d1, &s1),
        names(&d2, &s2),
        "different seeds must produce different worlds"
    );
}
