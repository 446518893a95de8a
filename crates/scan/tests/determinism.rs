//! The parallel sweep engine's determinism contract: for ANY worker
//! count, the merged daily sweep is byte-identical to the 1-worker run —
//! faults, packet loss, partial-sweep salvage, completeness
//! classification AND the embedded observability section (histograms,
//! per-link tables, cause recorders) included. Worker count trades
//! wall-clock time only.

use proptest::prelude::*;
use ruwhere_netsim::fault::{FaultWindow, LinkFault, ServerFault, ServerFaultMode};
use ruwhere_netsim::SimTime;
use ruwhere_scan::{OpenIntelScanner, SweepFrame, SweepOptions};
use ruwhere_world::{ConflictEvent, FaultTarget, InfraFault, World, WorldConfig};
use std::net::Ipv4Addr;

/// One measured day: the columnar frame and the interner's canonical
/// symbol-table dump that gives its symbols meaning.
struct Measured {
    frame: SweepFrame,
    interner_dump: String,
}

/// A randomly drawn measurement day: worker count, background loss, and
/// an active fault window (timeline infrastructure fault + direct server
/// fault + link degradation) the sweep runs inside.
#[derive(Debug, Clone)]
struct DaySpec {
    workers: usize,
    loss: f64,
    fault_day_offset: i32,
    target: FaultTarget,
    duration_hours: u32,
    server_octets: (u8, u8),
    server_flaps: bool,
    link_loss: f64,
    link_provider: u8,
}

fn arb_day() -> impl Strategy<Value = DaySpec> {
    (
        2usize..=8,
        0.0f64..0.2,
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
        0u8..8,
    )
        .prop_map(
            |(
                workers,
                loss,
                fault_day_offset,
                target,
                duration_hours,
                server_octets,
                server_flaps,
                link_loss,
                link_provider,
            )| DaySpec {
                workers,
                loss,
                fault_day_offset,
                target,
                duration_hours,
                server_octets,
                server_flaps,
                link_loss,
                link_provider,
            },
        )
}

/// Sweep the spec's fault day with the given worker count.
fn sweep_with_workers(spec: &DaySpec, workers: usize) -> Measured {
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
    world.network_mut().loss_rate = spec.loss;

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
        extra_latency_us: 15_000,
        window: FaultWindow::from(SimTime::ZERO),
    });

    world.advance_to(fault_date);
    let mut scanner = OpenIntelScanner::with_options(&world, SweepOptions::new().workers(workers));
    let frame = scanner.sweep_frame(&mut world);
    let interner_dump = scanner.interner().dump();
    Measured {
        frame,
        interner_dump,
    }
}

proptest! {
    // World construction dominates each case, and every case sweeps the
    // world twice; a handful of cases still covers all fault targets,
    // both server-fault modes and a spread of worker counts.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn n_worker_sweep_is_byte_identical_to_serial(spec in arb_day()) {
        let serial = sweep_with_workers(&spec, 1);
        let sharded = sweep_with_workers(&spec, spec.workers);
        // Symbol assignment is a pure function of the zone snapshot and
        // the merged record order — never of the sharding (DESIGN.md
        // §10), so the whole symbol table dumps byte-identically.
        prop_assert_eq!(&serial.interner_dump, &sharded.interner_dump);
        // And with identical symbol tables, the columnar frames (domain
        // syms, offset columns, address/country/ASN columns) are equal
        // wholesale.
        prop_assert_eq!(&serial.frame, &sharded.frame);
        let (serial, sharded) = (serial.frame, sharded.frame);
        prop_assert_eq!(serial.date, sharded.date);
        prop_assert_eq!(serial.stats, sharded.stats);
        // The observability section merges associatively over whatever
        // sharding the worker count induced: merged histograms, link
        // tables and cause recorders are equal — and their JSON export is
        // byte-identical, which is what the CI determinism gate compares.
        prop_assert_eq!(&serial.metrics, &sharded.metrics);
        prop_assert_eq!(serial.metrics.render_json(), sharded.metrics.render_json());
    }
}

/// Worker counts far beyond the seed count (empty shards) change nothing
/// either.
#[test]
fn more_workers_than_useful_is_still_identical() {
    let sweep = |workers: usize| {
        let mut world = World::new(WorldConfig::tiny());
        world.network_mut().loss_rate = 0.1;
        let mut scanner =
            OpenIntelScanner::with_options(&world, SweepOptions::new().workers(workers));
        let frame = scanner.sweep_frame(&mut world);
        (frame, scanner.interner().dump())
    };
    let (serial, serial_syms) = sweep(1);
    let (wide, wide_syms) = sweep(64);
    assert_eq!(serial_syms, wide_syms);
    assert_eq!(serial, wide);
    assert_eq!(serial.metrics.render_json(), wide.metrics.render_json());
}
