//! Quickstart: build a small simulated Russian domain ecosystem, run one
//! OpenINTEL-style sweep through its network, and classify what the
//! measurement sees.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ruwhere::prelude::*;

fn main() {
    // A ~500-domain world over January–May 2022 (deterministic).
    let mut world = World::new(WorldConfig::tiny());
    println!(
        "world: {} live domains ({} sanctioned), {} ASes, day = {}",
        world.population(),
        world.sanctions().len(),
        world.network().topology().as_count(),
        world.today(),
    );

    // One full active-DNS sweep: zone-seeded, resolved over the simulated
    // Internet, geolocation-annotated, stored as a columnar frame.
    let mut scanner = OpenIntelScanner::new(&world);
    let sweep = scanner.sweep_frame(&mut world);
    println!(
        "sweep {}: {} domains seeded, {} DNS queries, {} NS failures",
        sweep.date, sweep.stats.seeded, sweep.stats.queries, sweep.stats.ns_failures,
    );

    // Classify name-server composition (the Figure 1 metric) and hosting
    // composition (the §3.1 text metric) in one walk over the frame.
    let mut engine = AnalysisEngine::new();
    let mut ns = CompositionSeries::new(InfraKind::NameServers);
    let mut hosting = CompositionSeries::new(InfraKind::Hosting);
    engine.observe_frame(&sweep, scanner.interner(), &mut [&mut ns, &mut hosting]);
    let c = *ns.at(sweep.date).expect("just observed");
    println!(
        "NS composition: full {:.1}%  partial {:.1}%  non {:.1}%  (of {} domains)",
        c.pct_full(),
        c.pct_partial(),
        c.pct_non(),
        c.known(),
    );

    let h = hosting.at(sweep.date).expect("just observed");
    println!(
        "hosting composition: full {:.1}%  partial {:.1}%  non {:.1}%",
        h.pct_full(),
        h.pct_partial(),
        h.pct_non(),
    );

    // Advance through the invasion and the Netnod event, then re-measure.
    world.advance_to(Date::from_ymd(2022, 3, 5));
    let sweep2 = scanner.sweep_frame(&mut world);
    engine.observe_frame(&sweep2, scanner.interner(), &mut [&mut ns]);
    let c2 = ns.at(sweep2.date).expect("just observed");
    println!(
        "after 2022-03-05 (post-Netnod): full {:.1}%  partial {:.1}%  non {:.1}%",
        c2.pct_full(),
        c2.pct_partial(),
        c2.pct_non(),
    );
    println!(
        "full-Russian NS change: {:+.1} points",
        c2.pct_full() - c.pct_full()
    );
}
