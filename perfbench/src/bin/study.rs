//! One timed study with the plain system allocator.
//!
//! ```sh
//! study --workload conflict-daily --seed 1 --workers 2 --report REPORT \
//!       [--checkpoint-dir DIR]
//! ```
//!
//! Times `World::new` for the workload's configuration 20 times as its
//! own call, then `try_run_study` plus report rendering once, writes the
//! report to `REPORT` and prints one JSON line: the study's CPU and wall
//! seconds, the `setup_s` samples (CPU seconds), `total_queries` and
//! `peak_rss_mb`.

use ruwhere_core::try_run_study;
use ruwhere_perfbench::{peak_rss_mb, process_cpu_s, study_config, Args, JsonLine, Workload};
use ruwhere_world::World;
use std::hint::black_box;
use std::time::Instant;

const USAGE: &str = "study --workload NAME --seed N --workers K --report FILE \
                     [--checkpoint-dir DIR]";

/// `World::new` timings per process: set-up takes milliseconds, so a
/// mean over many keeps `setup_s` steady.
const SETUP_REPS: usize = 20;

fn main() {
    let args = Args::from_env(USAGE, true);
    let mut cfg = study_config(args.seed, args.workers);
    cfg.checkpoint_dir = args.checkpoint_dir.clone();
    cfg.resume = args.workload == Workload::Reanalysis;

    let setup_s: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let cpu0 = process_cpu_s();
            let world = black_box(World::new(cfg.world.clone()));
            let dt = process_cpu_s() - cpu0;
            drop(world);
            dt
        })
        .collect();

    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let results = match try_run_study(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let report = ruwhere_bench::render_report(&results);
    let study_wall_s = t0.elapsed().as_secs_f64();
    let study_cpu_s = process_cpu_s() - cpu0;

    if let Err(e) = std::fs::write(&args.report, &report) {
        eprintln!("error: write {}: {e}", args.report.display());
        std::process::exit(1);
    }
    println!(
        "{}",
        JsonLine::default()
            .num("study_cpu_s", study_cpu_s)
            .num("study_wall_s", study_wall_s)
            .nums("setup_s", &setup_s)
            .int("total_queries", results.total_queries)
            .num("peak_rss_mb", peak_rss_mb())
            .render()
    );
}
