//! Golden oracle: the pinned fixture's report and metric export, byte for
//! byte.
//!
//! Comparing 1 worker against N only proves self-consistency; a refactor
//! that moves a figure the same way at every worker count passes it. These
//! tests pin the absolute output instead. `tests/golden/REPORT.txt` and
//! `tests/golden/METRICS.json` are what
//!
//! ```sh
//! RUWHERE_BENCH_DAYS=3 repro --report REPORT.txt --metrics METRICS.json
//! ```
//!
//! writes (at any `RUWHERE_WORKERS`). The day count is pinned here rather
//! than read from the environment, so the oracle checks the same fixture
//! everywhere. A change that means to move the output regenerates both
//! files with that command and names the lines that moved.

use std::path::PathBuf;

/// Daily-window length of the pinned fixture.
const DAYS: i32 = 3;

fn golden(name: &str) -> String {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name]
        .iter()
        .collect();
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Fail with the first line that differs, and the report section
/// (`=== fig1_series ===`, …) it sits in, not with the whole document.
fn assert_golden(name: &str, actual: &str, workers: usize) {
    let expected = golden(name);
    if actual == expected {
        return;
    }
    let (mut want, mut got) = (expected.lines(), actual.lines());
    let (mut line, mut section) = (1, "<none>");
    loop {
        match (want.next(), got.next()) {
            (Some(w), Some(g)) if w == g => {
                if w.starts_with("=== ") {
                    section = w;
                }
                line += 1;
            }
            (w, g) => panic!(
                "{name} at {workers} worker(s) differs from tests/golden/{name} at line {line} \
                 (section {section}):\n\
                 golden: {}\n\
                 actual: {}",
                w.unwrap_or("<end of file>"),
                g.unwrap_or("<end of file>"),
            ),
        }
    }
}

#[test]
fn report_matches_golden_at_1_and_2_workers() {
    for workers in [1, 2] {
        let mut cfg = ruwhere_bench::fixture_config_for_days(Some(DAYS));
        cfg.workers = workers;
        let report = ruwhere_bench::render_report(&ruwhere_core::run_study(&cfg));
        assert_golden("REPORT.txt", &report, workers);
    }
}

#[test]
fn metrics_match_golden_at_1_and_2_workers() {
    for workers in [1, 2] {
        let (metrics, days) = ruwhere_bench::collect_sweep_metrics(workers, DAYS);
        let json = ruwhere_bench::render_metrics_json(&metrics, days);
        assert_golden("METRICS.json", &json, workers);
    }
}
