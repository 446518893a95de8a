//! Shared fixtures for the benchmark harness.
//!
//! Building a world and sweeping it is expensive; benches build one shared
//! fixture per process and measure the per-figure analysis code against it.
//!
//! The module also hosts the sweep-throughput benchmark behind the CI
//! `bench` job: [`bench_sweep`] measures wall-clock sweep time at a set of
//! worker counts on a pinned fixture, [`render_bench_json`] serialises the
//! rows to the committed `BENCH_sweep.json` format, and [`check_baseline`]
//! gates regressions against a committed baseline: the exact query count
//! and a throughput floor.

use ruwhere_core::{
    figures, run_study, AnalysisEngine, AsnShareSeries, CompositionSeries, DatasetStats, InfraKind,
    StudyConfig, StudyResults, TldDependencySeries, TldUsageSeries, TransitionFlows,
};
use ruwhere_scan::{OpenIntelScanner, SweepMetrics, SweepOptions};
use ruwhere_store::Interner;
use ruwhere_types::{Asn, Date};
use ruwhere_world::{World, WorldConfig};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Environment variable naming the number of daily-sweep days in the
/// bench fixture (and the sweep-throughput benchmark's day count).
pub const BENCH_DAYS_ENV: &str = "RUWHERE_BENCH_DAYS";

/// Days swept by [`bench_sweep`] per worker count when [`BENCH_DAYS_ENV`]
/// is unset.
pub const DEFAULT_BENCH_DAYS: i32 = 3;

/// The fixture's day count: `$RUWHERE_BENCH_DAYS` (at least 1), or
/// [`DEFAULT_BENCH_DAYS`] when the variable is unset or unparsable.
pub fn bench_days() -> i32 {
    std::env::var(BENCH_DAYS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<i32>().ok())
        .map(|d| d.max(1))
        .unwrap_or(DEFAULT_BENCH_DAYS)
}

/// The fixture's study configuration: the test schedule (tiny world,
/// daily sweeps from 2022-02-20), with the daily window trimmed to the
/// last `$RUWHERE_BENCH_DAYS` days when that variable is set — CI pins it
/// so bench numbers are comparable across runs; locally it shrinks the
/// fixture for quick iterations.
pub fn fixture_config() -> StudyConfig {
    let days = std::env::var(BENCH_DAYS_ENV).is_ok().then(bench_days);
    fixture_config_for_days(days)
}

/// [`fixture_config`] with the daily-window override passed explicitly
/// instead of read from the environment — for harnesses (e.g. the crash
/// harness) that pin `RUWHERE_BENCH_DAYS` on child processes and need
/// the matching sweep schedule in-process.
pub fn fixture_config_for_days(days: Option<i32>) -> StudyConfig {
    let mut cfg = StudyConfig::test_schedule();
    cfg.daily_from = Date::from_ymd(2022, 2, 20);
    if let Some(days) = days {
        cfg.daily_from = cfg
            .world
            .end
            .add_days(-(days.max(1) - 1))
            .max(cfg.world.start);
    }
    cfg
}

/// A cached tiny study spanning the conflict window (see
/// [`fixture_config`] for the `RUWHERE_BENCH_DAYS` override).
pub fn fixture() -> &'static StudyResults {
    static FIXTURE: OnceLock<StudyResults> = OnceLock::new();
    FIXTURE.get_or_init(|| run_study(&fixture_config()))
}

/// One worker-count's measured sweep throughput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepBenchRow {
    /// Worker-pool size the sweeps ran with.
    pub workers: usize,
    /// Wall-clock seconds for all sweeps (world construction excluded).
    pub wall_seconds: f64,
    /// DNS queries the sweeps emitted (identical for every worker count —
    /// the engine's determinism contract).
    pub queries: u64,
    /// Throughput: queries per wall-clock second.
    pub queries_per_sec: f64,
    /// Shared NS-target cache hit rate across the sweeps.
    pub ns_cache_hit_rate: f64,
}

/// Measure sweep throughput at each worker count on the pinned fixture:
/// a fresh tiny world per count (identical by construction), sweeping
/// `$RUWHERE_BENCH_DAYS` consecutive days (default
/// [`DEFAULT_BENCH_DAYS`]). Only `sweep_frame()` calls are timed. Metrics
/// collection is ON — the CI throughput gate measures the instrumented
/// engine, so instrumentation overhead that regresses throughput past the
/// gate's tolerance fails the bench job.
pub fn bench_sweep(worker_counts: &[usize]) -> Vec<SweepBenchRow> {
    bench_sweep_opts(worker_counts, true)
}

/// [`bench_sweep`] with an explicit metrics switch; `collect_metrics:
/// false` is the uninstrumented baseline of the overhead measurement
/// (EXPERIMENTS.md §observability).
pub fn bench_sweep_opts(worker_counts: &[usize], collect_metrics: bool) -> Vec<SweepBenchRow> {
    let days = bench_days();
    worker_counts
        .iter()
        .map(|&workers| {
            let mut world = World::new(WorldConfig::tiny());
            let mut scanner = OpenIntelScanner::with_options(
                &world,
                SweepOptions::new()
                    .workers(workers)
                    .collect_metrics(collect_metrics),
            );
            let mut wall = 0.0f64;
            let mut queries = 0u64;
            let mut hits = 0u64;
            let mut misses = 0u64;
            for day in 0..days {
                if day > 0 {
                    world.advance_to(world.today().succ());
                }
                let t0 = Instant::now();
                let sweep = scanner.sweep_frame(&mut world);
                wall += t0.elapsed().as_secs_f64();
                queries += sweep.stats.queries;
                hits += sweep.stats.ns_cache_hits;
                misses += sweep.stats.ns_cache_misses;
            }
            SweepBenchRow {
                workers,
                wall_seconds: wall,
                queries,
                queries_per_sec: if wall > 0.0 {
                    queries as f64 / wall
                } else {
                    0.0
                },
                ns_cache_hit_rate: if hits + misses > 0 {
                    hits as f64 / (hits + misses) as f64
                } else {
                    0.0
                },
            }
        })
        .collect()
}

/// The analysis-phase measurement: one [`AnalysisEngine`] walk per
/// frame feeding the eight study series, over the swept days.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisBenchReport {
    /// Days analysed.
    pub sweeps: i32,
    /// Total records across the analysed frames.
    pub records: u64,
    /// Records the engine visited (one per record per frame, no matter
    /// how many observers ride the walk).
    pub single_pass_visits: u64,
    /// Observer hook dispatches the engine made (visits × observers).
    pub observer_dispatches: u64,
    /// Wall-clock seconds of the engine walks over all frames.
    pub single_pass_seconds: f64,
}

/// Measure the analysis phase on the pinned fixture: sweep
/// `$RUWHERE_BENCH_DAYS` days once (untimed), then feed the eight study
/// series through one [`AnalysisEngine`] walk per frame, as `run_study`
/// does. Visit counts are exact; wall-clock covers only the walks, never
/// the sweeping.
pub fn bench_analysis(workers: usize) -> AnalysisBenchReport {
    let days = bench_days();
    let mut world = World::new(WorldConfig::tiny());
    let sanctions = world.sanctions().clone();
    let interner = Arc::new(Interner::new());
    let mut scanner = OpenIntelScanner::with_options(
        &world,
        SweepOptions::new()
            .workers(workers)
            .interner(interner.clone()),
    );
    let mut frames = Vec::new();
    for day in 0..days {
        if day > 0 {
            world.advance_to(world.today().succ());
        }
        frames.push(scanner.sweep_frame(&mut world).strip_metrics());
    }
    let records: u64 = frames.iter().map(|f| f.len() as u64).sum();

    let mut c1 = CompositionSeries::new(InfraKind::NameServers);
    let mut c2 = CompositionSeries::new(InfraKind::Hosting);
    let mut c3 = CompositionSeries::sanctioned(InfraKind::NameServers, sanctions);
    let mut td = TldDependencySeries::new();
    let mut tu = TldUsageSeries::new();
    let mut asn = AsnShareSeries::new();
    let mut ds = DatasetStats::new();
    let mut tf = TransitionFlows::new(InfraKind::NameServers);
    let mut engine = AnalysisEngine::new();
    let t0 = Instant::now();
    for frame in &frames {
        engine.observe_frame(
            frame,
            &interner,
            &mut [
                &mut c1, &mut c2, &mut c3, &mut td, &mut tu, &mut asn, &mut ds, &mut tf,
            ],
        );
    }
    let single_pass_seconds = t0.elapsed().as_secs_f64();

    AnalysisBenchReport {
        sweeps: days,
        records,
        single_pass_visits: engine.record_visits(),
        observer_dispatches: engine.observer_dispatches(),
        single_pass_seconds,
    }
}

/// Sweep the first `days` days of the tiny world once with metrics on and
/// return the run-level merged metric section plus the day count.
///
/// The merge is the same associative fold the sweep engine uses per
/// worker, applied across days — so the run-level section inherits the
/// per-sweep guarantee: identical for any worker count.
pub fn collect_sweep_metrics(workers: usize, days: i32) -> (SweepMetrics, i32) {
    let mut world = World::new(WorldConfig::tiny());
    let mut scanner = OpenIntelScanner::with_options(&world, SweepOptions::new().workers(workers));
    let mut merged = SweepMetrics::new();
    for day in 0..days {
        if day > 0 {
            world.advance_to(world.today().succ());
        }
        let sweep = scanner.sweep_frame(&mut world);
        merged.merge(&sweep.metrics);
    }
    (merged, days)
}

/// Serialise the run-level metric section as the `METRICS_sweep.json`
/// artifact. Deliberately carries NO worker count, timestamp or host
/// information: two runs over the same fixture must produce
/// byte-identical files regardless of parallelism, so the CI determinism
/// gate can compare them with `cmp`.
pub fn render_metrics_json(metrics: &SweepMetrics, days: i32) -> String {
    let mut out = format!("{{\"bench\":\"sweep_metrics\",\"days\":{days},\"metrics\":");
    metrics.push_json(&mut out);
    out.push_str("}\n");
    out
}

/// Serialise bench rows as the `BENCH_sweep.json` artifact. Hand-rolled
/// (the build has no JSON dependency); one row object per line so the
/// baseline gate can parse it with plain string scanning. The optional
/// analysis report lands as one extra `"analysis"` line — it carries
/// neither a `workers` nor a `queries_per_sec` key, so [`check_baseline`]
/// skips it by construction.
pub fn render_bench_json(rows: &[SweepBenchRow], analysis: Option<&AnalysisBenchReport>) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = format!("{{\n  \"bench\": \"sweep\",\n  \"cpus\": {cpus},\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workers\": {}, \"wall_seconds\": {:.6}, \"queries\": {}, \
             \"queries_per_sec\": {:.1}, \"ns_cache_hit_rate\": {:.4}}}{}\n",
            r.workers,
            r.wall_seconds,
            r.queries,
            r.queries_per_sec,
            r.ns_cache_hit_rate,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    let speedup = speedup(
        rows,
        1,
        *rows.iter().map(|r| &r.workers).max().unwrap_or(&1),
    );
    out.push_str("  ],\n");
    if let Some(a) = analysis {
        out.push_str(&format!(
            "  \"analysis\": {{\"sweeps\": {}, \"records\": {}, \"single_pass_visits\": {}, \
             \"observer_dispatches\": {}, \"single_pass_seconds\": {:.6}}},\n",
            a.sweeps, a.records, a.single_pass_visits, a.observer_dispatches, a.single_pass_seconds,
        ));
    }
    out.push_str(&format!(
        "  \"max_speedup\": {:.2}\n}}\n",
        speedup.unwrap_or(1.0)
    ));
    out
}

/// Render every paper artifact the study can produce, plus the retained
/// sweeps' aggregate stats, the engine's work counters and the full
/// symbol-table dump, as one text document. The content is a pure
/// function of the study output, and the determinism contract makes that
/// output byte-identical for any worker count — CI renders a 1-worker
/// and a 4-worker report and compares them with `cmp`.
pub fn render_report(r: &StudyResults) -> String {
    let mut artifacts: Vec<(&str, String)> = vec![
        ("dataset_stats", figures::dataset_table(r).render()),
        ("fig1_series", figures::fig1_series(r).render()),
        ("fig1_summary", figures::fig1_summary(r).render()),
        ("hosting_summary", figures::hosting_summary(r).render()),
        ("fig2_series", figures::fig2_series(r).render()),
        ("fig2_summary", figures::fig2_summary(r).render()),
        ("fig3_series", figures::fig3_series(r).render()),
        ("fig3_summary", figures::fig3_summary(r).render()),
        ("fig4_series", figures::fig4_series(r).render()),
        ("fig5_series", figures::fig5_series(r).render()),
        ("fig5_summary", figures::fig5_summary(r).render()),
    ];
    let end = r.retained.keys().next_back().copied();
    let start = Date::from_ymd(2022, 3, 8);
    if let Some(end) = end {
        if let Some((t, _)) = figures::movement_table(r, Asn::AMAZON, "Figure 6", start, end, "") {
            artifacts.push(("fig6_amazon", t.render()));
        }
        if let Some((t, _)) = figures::movement_table(r, Asn::SEDO, "Figure 7", start, end, "") {
            artifacts.push(("fig7_sedo", t.render()));
        }
    }
    artifacts.push((
        "provider_actions",
        figures::provider_actions_table(r).render(),
    ));
    let (fig8, _) = figures::fig8_table(r);
    artifacts.push(("fig8_ca_timelines", fig8.render()));
    artifacts.push(("tab1_issuance", figures::table1(r).render()));
    artifacts.push(("cert_volume", figures::cert_volume_table(r).render()));
    artifacts.push(("tab2_revocation", figures::table2(r).render()));
    if let Some(t) = figures::russian_ca_table(r) {
        artifacts.push(("sec4_3_russian_ca", t.render()));
    }
    artifacts.push(("transition_flows", figures::transition_table(r).render()));
    artifacts.push(("sec6_discussion", figures::discussion_table(r).render()));

    let mut stats = String::new();
    for (date, frame) in &r.retained {
        stats.push_str(&format!(
            "{date}  records={}  {:?}\n",
            frame.len(),
            frame.stats
        ));
    }
    artifacts.push(("retained_sweep_stats", stats));
    artifacts.push((
        "analysis_engine",
        format!(
            "frames={}  record_visits={}  observer_dispatches={}\n",
            r.analysis.frames(),
            r.analysis.record_visits(),
            r.analysis.observer_dispatches()
        ),
    ));
    // The symbol table is the byte-identity oracle: identical dumps mean
    // identical symbol assignment across the whole study.
    artifacts.push(("interner_dump", r.interner.dump()));

    let mut out = String::new();
    for (id, text) in &artifacts {
        out.push_str(&format!("=== {id} ===\n{text}\n"));
    }
    out
}

/// Speedup of `workers_b` relative to `workers_a` (wall-clock ratio).
pub fn speedup(rows: &[SweepBenchRow], workers_a: usize, workers_b: usize) -> Option<f64> {
    let a = rows.iter().find(|r| r.workers == workers_a)?;
    let b = rows.iter().find(|r| r.workers == workers_b)?;
    if b.wall_seconds > 0.0 {
        Some(a.wall_seconds / b.wall_seconds)
    } else {
        None
    }
}

/// Extract `"key": <number>` from a JSON row line (the line-oriented
/// format [`render_bench_json`] writes).
fn json_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Gate current rows against a committed baseline JSON. For every worker
/// count present in both:
///
/// - the query count must equal the baseline's exactly. It is a
///   deterministic work counter (identical at every worker count for a
///   given day count), so any difference is a real change in the work
///   the sweep does, never noise;
/// - the measured queries/sec must not fall more than `tolerance` (e.g.
///   `0.15`) below the baseline.
///
/// Returns the list of violations as the error.
pub fn check_baseline(
    current: &[SweepBenchRow],
    baseline_json: &str,
    tolerance: f64,
) -> Result<(), String> {
    let mut checked = 0usize;
    let mut violations = Vec::new();
    for line in baseline_json.lines() {
        let (Some(workers), Some(base_qps)) = (
            json_field(line, "workers"),
            json_field(line, "queries_per_sec"),
        ) else {
            continue;
        };
        let Some(cur) = current.iter().find(|r| r.workers == workers as usize) else {
            continue;
        };
        checked += 1;
        if let Some(base_queries) = json_field(line, "queries") {
            if cur.queries as f64 != base_queries {
                violations.push(format!(
                    "workers={}: {} queries, baseline {} (the count is exact)",
                    cur.workers, cur.queries, base_queries
                ));
            }
        }
        let floor = base_qps * (1.0 - tolerance);
        if cur.queries_per_sec < floor {
            violations.push(format!(
                "workers={}: {:.1} q/s is below the baseline floor {:.1} \
                 (baseline {:.1}, tolerance {:.0}%)",
                cur.workers,
                cur.queries_per_sec,
                floor,
                base_qps,
                tolerance * 100.0
            ));
        }
    }
    if checked == 0 {
        return Err("baseline JSON contained no comparable rows".into());
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<SweepBenchRow> {
        vec![
            SweepBenchRow {
                workers: 1,
                wall_seconds: 4.0,
                queries: 4000,
                queries_per_sec: 1000.0,
                ns_cache_hit_rate: 0.9,
            },
            SweepBenchRow {
                workers: 4,
                wall_seconds: 1.0,
                queries: 4000,
                queries_per_sec: 4000.0,
                ns_cache_hit_rate: 0.9,
            },
        ]
    }

    fn analysis() -> AnalysisBenchReport {
        AnalysisBenchReport {
            sweeps: 3,
            records: 1000,
            single_pass_visits: 1000,
            observer_dispatches: 8000,
            single_pass_seconds: 0.5,
        }
    }

    #[test]
    fn analysis_line_is_invisible_to_the_gate() {
        let json = render_bench_json(&rows(), Some(&analysis()));
        assert!(json.contains(
            "\"analysis\": {\"sweeps\": 3, \"records\": 1000, \"single_pass_visits\": 1000, \
             \"observer_dispatches\": 8000, \"single_pass_seconds\": 0.500000},"
        ));
        // The analysis line adds no comparable row, so the gate result is
        // unchanged: identical numbers still pass…
        assert!(check_baseline(&rows(), &json, 0.15).is_ok());
        // …and a regression still fails.
        let mut slow = rows();
        slow[1].queries_per_sec = 3000.0;
        assert!(check_baseline(&slow, &json, 0.15).is_err());
    }

    #[test]
    fn gate_rejects_any_change_in_the_query_count() {
        let json = render_bench_json(&rows(), None);
        for delta in [-1i64, 1] {
            let mut moved = rows();
            moved[0].queries = (moved[0].queries as i64 + delta) as u64;
            // Even with throughput well above the floor…
            moved[0].queries_per_sec = 9000.0;
            let err = check_baseline(&moved, &json, 0.15).unwrap_err();
            assert!(err.contains("workers=1"), "unexpected error: {err}");
            assert!(err.contains("4000"), "unexpected error: {err}");
            assert!(!err.contains("workers=4"), "unexpected error: {err}");
        }
    }

    #[test]
    fn json_round_trips_through_the_gate() {
        let json = render_bench_json(&rows(), None);
        assert!(json.contains("\"workers\": 4"));
        assert!(json.contains("\"max_speedup\": 4.00"));
        // Identical numbers pass the gate.
        assert!(check_baseline(&rows(), &json, 0.15).is_ok());
        // A >15% throughput drop fails it.
        let mut slow = rows();
        slow[1].queries_per_sec = 3000.0;
        let err = check_baseline(&slow, &json, 0.15).unwrap_err();
        assert!(err.contains("workers=4"), "unexpected error: {err}");
        // An improvement passes.
        let mut fast = rows();
        fast[1].queries_per_sec = 9000.0;
        assert!(check_baseline(&fast, &json, 0.15).is_ok());
    }

    #[test]
    fn speedup_is_wall_clock_ratio() {
        assert_eq!(speedup(&rows(), 1, 4), Some(4.0));
        assert_eq!(speedup(&rows(), 1, 8), None);
    }

    #[test]
    fn gate_rejects_empty_baseline() {
        assert!(check_baseline(&rows(), "{}", 0.15).is_err());
    }
}
