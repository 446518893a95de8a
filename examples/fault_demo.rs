//! Fault injection end to end: schedule a TLD-server outage on the world
//! timeline, watch the sweep degrade into a salvaged partial sweep, and
//! recover the series with flagged imputation (the footnote-8 pipeline).
//!
//! ```sh
//! cargo run --release --example fault_demo
//! ```

use ruwhere::prelude::*;

fn main() {
    // A ~500-domain world, with one extra timeline event: the .ru TLD
    // servers go dark for 20 hours on 2022-01-20 (modelled on the real
    // 2021-03-22 measurement outage behind the paper's footnote 8).
    let outage = Date::from_ymd(2022, 1, 20);
    let mut cfg = WorldConfig::tiny();
    cfg.extra_events.push((
        outage,
        ConflictEvent::InfrastructureFault(InfraFault {
            target: FaultTarget::RuTldServers,
            duration_hours: 20,
        }),
    ));
    let mut world = World::new(cfg);

    let mut scanner = OpenIntelScanner::new(&world);
    let mut ns = CompositionSeries::new(InfraKind::NameServers);
    let mut engine = AnalysisEngine::new();

    for date in [outage.add_days(-1), outage, outage.add_days(1)] {
        world.advance_to(date);
        let sweep = scanner.sweep_frame(&mut world);
        engine.observe_frame(&sweep, scanner.interner(), &mut [&mut ns]);
        let s = &sweep.stats;
        println!(
            "{}: {:>3}/{} records  [{}]  timeouts {}  servfails {}  lame {}  retries {}",
            sweep.date,
            sweep.len(),
            s.seeded,
            if sweep.is_partial() {
                "PARTIAL"
            } else {
                "full   "
            },
            s.timeouts,
            s.servfails,
            s.lame,
            s.retries_spent,
        );
    }

    // The raw series keeps the dip visible; imputed_at() patches the gap
    // from the nearest clean sweep and says so.
    let raw = ns.at(outage).expect("swept").total();
    let (imputed, flagged) = ns.imputed_at(outage, 7).expect("swept");
    println!(
        "\nraw series on {outage}: {raw} records (partial day: {})",
        ns.is_partial_day(outage),
    );
    println!(
        "imputed_at({outage}, 7 days): {} records, imputed = {flagged}",
        imputed.total(),
    );
}
