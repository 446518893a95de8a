//! Shared pieces of the study benchmark: the workload definitions, the
//! command-line arguments both binaries take, and the small output
//! helpers (one-line JSON, the process's peak resident memory).
//!
//! `study` runs one untraced study the way a user runs `repro`; `trace`
//! mirrors the same study step by step with wall-clock spans and a
//! counting allocator. `run.py` builds both, runs them as fresh processes
//! and checks their reports against each other.

use ruwhere_core::StudyConfig;
use ruwhere_types::Date;
use ruwhere_world::WorldConfig;
use std::path::PathBuf;

/// World scale denominator of every workload (1:20000 ≈ 250 initial
/// domains plus the fixed sanctioned and Russian-CA sets). Chosen so one
/// two-worker study takes a few seconds and a run repeats it several
/// times.
pub const SCALE: usize = 20_000;

/// The benchmark's workloads. Each is one study per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The reference `repro` study shape, checkpoints off.
    ConflictDaily,
    /// The same study writing one durable segment per day.
    CheckpointedDaily,
    /// `resume` over a complete checkpoint directory of the same study.
    Reanalysis,
}

impl Workload {
    /// Parse a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "conflict-daily" => Some(Workload::ConflictDaily),
            "checkpointed-daily" => Some(Workload::CheckpointedDaily),
            "reanalysis" => Some(Workload::Reanalysis),
            _ => None,
        }
    }
}

/// The study every workload runs: the condensed `repro` window
/// (2021-11-01 → 2022-05-25, 154 sweeps) at [`SCALE`], with the world
/// seeded from the benchmark seed. The checkpoint knobs are left for the
/// caller.
pub fn study_config(seed: u64, workers: usize) -> StudyConfig {
    let mut world = WorldConfig::paper_scale(SCALE);
    world.start = Date::from_ymd(2021, 11, 1);
    world.cert_start = Date::from_ymd(2021, 11, 1);
    world.seed = seed;
    let mut cfg = StudyConfig::paper_schedule(world);
    cfg.workers = workers;
    cfg
}

/// Arguments shared by the `study` and `trace` binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which study shape to run.
    pub workload: Workload,
    /// World seed.
    pub seed: u64,
    /// Sweep worker count (`study` only; `trace` always runs 1 worker,
    /// where its exact counters repeat).
    pub workers: usize,
    /// Where to write the rendered report.
    pub report: PathBuf,
    /// Checkpoint directory: written by the checkpointed workload, read
    /// back by `reanalysis`.
    pub checkpoint_dir: Option<PathBuf>,
    /// Where `trace` writes its spans.
    pub spans: Option<PathBuf>,
}

impl Args {
    /// Parse `std::env::args`, exiting with code 2 and a usage line on
    /// anything malformed. `--workers` is required when `takes_workers`
    /// and refused otherwise.
    pub fn from_env(usage: &str, takes_workers: bool) -> Args {
        let mut workload = None;
        let mut seed = None;
        let mut workers = None;
        let mut report = None;
        let mut args = Args {
            workload: Workload::ConflictDaily,
            seed: 0,
            workers: 1,
            report: PathBuf::new(),
            checkpoint_dir: None,
            spans: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().unwrap_or_else(|| fail(usage, &flag));
            match flag.as_str() {
                "--workload" => workload = Workload::parse(&value),
                "--seed" => seed = value.parse().ok(),
                "--workers" if takes_workers => workers = value.parse().ok().filter(|&k| k > 0),
                "--report" => report = Some(PathBuf::from(value)),
                "--checkpoint-dir" => args.checkpoint_dir = Some(value.into()),
                "--spans" => args.spans = Some(value.into()),
                _ => fail(usage, &flag),
            }
        }
        args.workload = workload.unwrap_or_else(|| fail(usage, "--workload"));
        args.seed = seed.unwrap_or_else(|| fail(usage, "--seed"));
        args.report = report.unwrap_or_else(|| fail(usage, "--report"));
        if takes_workers {
            args.workers = workers.unwrap_or_else(|| fail(usage, "--workers"));
        }
        if args.workload != Workload::ConflictDaily && args.checkpoint_dir.is_none() {
            fail(usage, "--checkpoint-dir");
        }
        args
    }
}

fn fail(usage: &str, flag: &str) -> ! {
    eprintln!("error: missing or bad {flag}\nusage: {usage}");
    std::process::exit(2);
}

/// CPU seconds (user plus system) this process has used so far, summed
/// over all its threads, including threads that have exited.
///
/// The end-to-end metrics are CPU time, not wall time: on the small shared
/// VMs this benchmark runs on, the host takes vCPUs away for tens of
/// seconds at a time, which moves a two-worker study's wall time by up to
/// 2× between runs of the same inputs while its CPU time moves far less.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` that outlives the
    // call: two 64-bit fields, the layout on 64-bit Linux, the only target
    // the `compile_error!` gate below lets build.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads CPU clocks through the 64-bit Linux `struct timespec`");

/// The process's high-water resident set (`VmHWM`) in MiB, or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A flat JSON object of numeric fields, printed as one line.
#[derive(Default)]
pub struct JsonLine(Vec<(String, String)>);

impl JsonLine {
    /// Add a floating-point field (full precision).
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        let v = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".into()
        };
        self.0.push((key.to_owned(), v));
        self
    }

    /// Add an integer field.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.0.push((key.to_owned(), value.to_string()));
        self
    }

    /// Add an array of floats.
    pub fn nums(&mut self, key: &str, values: &[f64]) -> &mut Self {
        let items: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
        self.0
            .push((key.to_owned(), format!("[{}]", items.join(", "))));
        self
    }

    /// Render as `{"key": value, ...}`.
    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}
