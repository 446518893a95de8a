//! Fault-injection robustness: whatever faults are scheduled — timeline
//! infrastructure outages, flapping boxes, degraded links — same-seed runs
//! stay bit-identical, and the measurement pipeline degrades into flagged
//! data gaps instead of corrupting its output.

use proptest::prelude::*;
use ruwhere::netsim::{FaultWindow, LinkFault, ServerFault, ServerFaultMode, SimTime};
use ruwhere::prelude::*;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// A randomly drawn fault schedule, applied identically to two worlds.
#[derive(Debug, Clone)]
struct PlanSpec {
    /// Days after the study start at which the timeline fault fires.
    fault_day_offset: i32,
    target: FaultTarget,
    duration_hours: u32,
    /// Direct server fault inside the provider infra space (may or may
    /// not land on a live name server — both must be deterministic).
    server_octets: (u8, u8),
    server_flaps: bool,
    /// Whole-window link degradation.
    link_loss: f64,
    link_latency_us: u64,
    link_provider: u8,
}

fn arb_plan() -> impl Strategy<Value = PlanSpec> {
    (
        1i32..8,
        prop_oneof![
            Just(FaultTarget::RuTldServers),
            Just(FaultTarget::Root),
            Just(FaultTarget::GtldServers),
        ],
        1u32..30,
        (0u8..8, 1u8..255),
        any::<bool>(),
        0.0f64..0.25,
        0u64..20_000,
        0u8..8,
    )
        .prop_map(
            |(
                fault_day_offset,
                target,
                duration_hours,
                server_octets,
                server_flaps,
                link_loss,
                link_latency_us,
                link_provider,
            )| PlanSpec {
                fault_day_offset,
                target,
                duration_hours,
                server_octets,
                server_flaps,
                link_loss,
                link_latency_us,
                link_provider,
            },
        )
}

/// Build a tiny world under `spec`'s fault schedule, advance to the fault
/// day and sweep it; returns the frame and the interner behind its
/// symbols.
fn sweep_under(spec: &PlanSpec) -> (SweepFrame, Arc<Interner>) {
    let mut cfg = WorldConfig::tiny();
    let fault_date = cfg.start.add_days(spec.fault_day_offset);
    cfg.extra_events.push((
        fault_date,
        ConflictEvent::InfrastructureFault(InfraFault {
            target: spec.target,
            duration_hours: spec.duration_hours,
        }),
    ));
    let mut world = World::new(cfg);

    let mode = if spec.server_flaps {
        ServerFaultMode::Flapping { period_us: 750_000 }
    } else {
        ServerFaultMode::Outage
    };
    let plan = world.network_mut().faults_mut();
    plan.add_server_fault(ServerFault {
        addr: Ipv4Addr::new(20, spec.server_octets.0, 128, spec.server_octets.1),
        port: None,
        mode,
        window: FaultWindow::from(SimTime::ZERO),
    });
    plan.add_link_fault(LinkFault {
        prefix: format!("20.{}.0.0/16", spec.link_provider).parse().unwrap(),
        extra_loss: spec.link_loss,
        extra_latency_us: spec.link_latency_us,
        window: FaultWindow::from(SimTime::ZERO),
    });

    world.advance_to(fault_date);
    let mut scanner = OpenIntelScanner::new(&world);
    let frame = scanner.sweep_frame(&mut world);
    (frame, scanner.interner().clone())
}

proptest! {
    // World construction dominates each case; a handful of cases already
    // covers all three fault targets and both server-fault modes.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_fault_plans_keep_sweeps_bit_identical(spec in arb_plan()) {
        let (a, a_syms) = sweep_under(&spec);
        let (b, b_syms) = sweep_under(&spec);
        prop_assert_eq!(a_syms.dump(), b_syms.dump());
        prop_assert_eq!(a.date, b.date);
        prop_assert_eq!(a.stats, b.stats);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn faulted_sweeps_never_corrupt_analyses(spec in arb_plan()) {
        let (sweep, interner) = sweep_under(&spec);
        // However hard the faults bite, the output stays structurally
        // sound: a full sweep covers every seed; a salvaged partial keeps
        // only records that actually measured.
        if sweep.is_partial() {
            prop_assert!(sweep.records().all(|r| r.has_ns_data() || r.has_apex_data()));
            prop_assert!((sweep.len() as u64) <= sweep.stats.seeded);
        } else {
            prop_assert_eq!(sweep.len() as u64, sweep.stats.seeded);
        }
        // Composition still partitions whatever was kept.
        let mut series = CompositionSeries::new(InfraKind::NameServers);
        AnalysisEngine::new().observe_frame(&sweep, &interner, &mut [&mut series]);
        prop_assert_eq!(
            series.at(sweep.date).unwrap().total() as usize,
            sweep.len()
        );
    }
}

#[test]
fn tld_outage_with_background_loss_degrades_gracefully() {
    // The paper's worst day, plus ordinary packet loss on top: the sweep
    // is salvaged as a flagged partial and the failure causes are counted;
    // the next day recovers fully.
    let mut cfg = WorldConfig::tiny();
    let outage = cfg.start.add_days(9);
    cfg.extra_events.push((
        outage,
        ConflictEvent::InfrastructureFault(InfraFault {
            target: FaultTarget::RuTldServers,
            duration_hours: 20,
        }),
    ));
    let mut world = World::new(cfg);
    world.network_mut().loss_rate = 0.05;
    let mut scanner = OpenIntelScanner::new(&world);

    world.advance_to(outage);
    let gap = scanner.sweep_frame(&mut world);
    assert!(
        gap.is_partial(),
        "a TLD outage day must be salvaged as partial"
    );
    assert!(gap.stats.ns_failures * 2 > gap.stats.seeded);
    assert!(gap.stats.timeouts > 0, "the outage manifests as timeouts");
    assert!(gap.stats.retries_spent > 0);

    world.advance_to(outage.succ());
    let next = scanner.sweep_frame(&mut world);
    assert!(!next.is_partial(), "the fault must lift by the next day");
    let failure_rate = next.stats.ns_failures as f64 / next.stats.seeded as f64;
    assert!(
        failure_rate < 0.02,
        "recovery day failure rate too high: {:.1}%",
        100.0 * failure_rate
    );
}
