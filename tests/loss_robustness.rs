//! Failure injection: the measurement pipeline must degrade gracefully
//! under packet loss — retries recover most resolutions, failures are
//! reported as data gaps rather than corrupting the analyses.

use ruwhere::prelude::*;

/// One tiny-world sweep at `loss`: the frame, the scanner that interned
/// its symbols, and the packets the network dropped.
fn sweep_with_loss(loss: f64) -> (SweepFrame, OpenIntelScanner, u64) {
    let mut world = World::new(WorldConfig::tiny());
    world.network_mut().loss_rate = loss;
    let mut scanner = OpenIntelScanner::new(&world);
    let sweep = scanner.sweep_frame(&mut world);
    let dropped = world.network().stats().dropped;
    (sweep, scanner, dropped)
}

#[test]
fn lossless_baseline_is_clean() {
    let (sweep, _, dropped) = sweep_with_loss(0.0);
    assert_eq!(dropped, 0);
    assert_eq!(sweep.stats.ns_failures, 0);
}

#[test]
fn moderate_loss_is_absorbed_by_retries() {
    let (sweep, _, dropped) = sweep_with_loss(0.05);
    assert!(dropped > 0, "the loss process must actually fire");
    // With 2 transport attempts and resolver-level server fallback, 5%
    // per-packet loss should leave the dataset nearly complete.
    let failure_rate = sweep.stats.ns_failures as f64 / sweep.stats.seeded as f64;
    assert!(
        failure_rate < 0.02,
        "5% loss should cost <2% of domains, lost {:.1}%",
        100.0 * failure_rate
    );
    // Retries cost extra queries relative to the lossless baseline.
    let (clean, _, _) = sweep_with_loss(0.0);
    assert!(sweep.stats.queries >= clean.stats.queries);
    // And extra virtual time (timeouts are expensive).
    assert!(sweep.stats.virtual_elapsed_us > clean.stats.virtual_elapsed_us);
}

#[test]
fn heavy_loss_degrades_but_never_corrupts() {
    let (sweep, scanner, _) = sweep_with_loss(0.30);
    // Many failures are expected…
    assert!(sweep.stats.ns_failures > 0);
    // …but every record that DID resolve is structurally sound, and the
    // composition analysis runs without panicking.
    let mut series = CompositionSeries::new(InfraKind::NameServers);
    AnalysisEngine::new().observe_frame(&sweep, scanner.interner(), &mut [&mut series]);
    let counts = series.at(sweep.date).unwrap();
    assert_eq!(counts.total() as usize, sweep.len());
    // Failed domains land in `unknown`, not in a composition bucket.
    // (`unknown` can exceed `ns_failures`: a domain whose NS RRset resolved
    // but whose NS-host addresses all failed also lacks country data.)
    assert!(counts.unknown >= sweep.stats.ns_failures);
    // Resolved records still carry annotations.
    for rec in sweep.records().filter(|r| r.has_ns_data()).take(20) {
        assert!(rec.ns_addrs().asns().iter().all(|a| a.is_some()));
    }
}

#[test]
fn loss_is_deterministic_too() {
    let (a, scanner_a, dropped_a) = sweep_with_loss(0.10);
    let (b, scanner_b, dropped_b) = sweep_with_loss(0.10);
    assert_eq!(dropped_a, dropped_b);
    assert_eq!(a.stats, b.stats);
    assert_eq!(scanner_a.interner().dump(), scanner_b.interner().dump());
    assert_eq!(a, b);
}
