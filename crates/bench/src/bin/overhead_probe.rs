//! Instrumentation-overhead probe: what does `collect_metrics(true)` cost?
//!
//! Three measurements, printed in order:
//!
//! 1. **Event counts** for one instrumented tiny-world sweep — how many
//!    histogram records / link-table updates a sweep-day actually
//!    performs. Multiplied by the per-op micro costs below, this gives an
//!    analytic bound on the overhead that does not depend on wall-clock
//!    stability.
//! 2. **Micro costs** of the hot observability operations (histogram
//!    record, link-table update, accumulator move), each timed over 2M
//!    iterations.
//! 3. **Paired sweep floors**: minimum over 150 alternated
//!    instrumented/uninstrumented sweeps. On a contended host the floor
//!    ratio is the most robust wall-clock estimator available; run with
//!    `NULL_TEST=1` to make both arms identical and measure the harness's
//!    own noise floor first.
use ruwhere_scan::{OpenIntelScanner, SweepOptions};
use ruwhere_world::{World, WorldConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn sweep_once(collect: bool) -> Duration {
    let mut world = World::new(WorldConfig::tiny());
    let mut scanner = OpenIntelScanner::with_options(
        &world,
        SweepOptions::new().workers(1).collect_metrics(collect),
    );
    let t = Instant::now();
    black_box(scanner.sweep_frame(&mut world));
    t.elapsed()
}

fn counts() {
    let mut world = World::new(WorldConfig::tiny());
    let mut scanner = OpenIntelScanner::with_options(&world, SweepOptions::new().workers(1));
    let sweep = scanner.sweep_frame(&mut world);
    let m = &sweep.metrics;
    println!(
        "events/sweep: delay {} request {} srtt {} links {} cause-keys {} domains {}",
        m.net.delay_us.count(),
        m.net.request_us.count(),
        m.resolver.srtt_us.count(),
        m.net.links.len(),
        m.causes.histograms().count() + m.causes.counters().count(),
        sweep.len()
    );
}

fn micro() {
    use ruwhere_netsim::{Histogram, NetObs};
    use ruwhere_types::Asn;
    let n = 2_000_000u64;
    let mut h = Histogram::new();
    let t = Instant::now();
    for i in 0..n {
        h.record(black_box(5_000 + (i * 37) % 140_000));
    }
    let per = t.elapsed().as_nanos() as f64 / n as f64;
    println!("hist.record        {per:.1} ns/op (count {})", h.count());
    let mut obs = NetObs::new();
    let t = Instant::now();
    for i in 0..n {
        let (a, b) = if i % 2 == 0 {
            (Asn(1), Asn(2))
        } else {
            (Asn(2), Asn(1))
        };
        obs.hop_delivered(a, b, black_box(5_000 + (i * 37) % 140_000));
    }
    let per = t.elapsed().as_nanos() as f64 / n as f64;
    println!(
        "obs.hop_delivered  {per:.1} ns/op (links {})",
        obs.links.len()
    );
    let mut swap = NetObs::new();
    let t = Instant::now();
    for _ in 0..n {
        std::mem::swap(&mut swap, &mut obs);
        std::mem::swap(&mut obs, &mut swap);
    }
    let per = t.elapsed().as_nanos() as f64 / n as f64;
    println!("netobs move x2     {per:.1} ns/op");
    black_box(&obs);
}

fn main() {
    // SOLO=on|off: single-arm floor for cross-process comparison.
    if let Ok(arm) = std::env::var("SOLO") {
        let collect = arm == "on";
        sweep_once(collect);
        let mut best = Duration::MAX;
        for _ in 0..200 {
            best = best.min(sweep_once(collect));
        }
        println!("solo {arm} floor {:.3}ms", best.as_secs_f64() * 1e3);
        return;
    }
    counts();
    micro();
    let n = 150;
    let null_test = std::env::var("NULL_TEST").is_ok();
    sweep_once(true);
    sweep_once(false);
    let (mut on, mut off) = (Duration::MAX, Duration::MAX);
    for _ in 0..n {
        on = on.min(sweep_once(true));
        off = off.min(sweep_once(null_test));
    }
    println!(
        "min over {n}{}: on {:.3}ms off {:.3}ms  delta {:+.2}%",
        if null_test { " (NULL TEST)" } else { "" },
        on.as_secs_f64() * 1e3,
        off.as_secs_f64() * 1e3,
        (on.as_secs_f64() / off.as_secs_f64() - 1.0) * 100.0
    );
}
