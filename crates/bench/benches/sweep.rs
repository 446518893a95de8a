//! Sweep-engine throughput: one full daily sweep of the tiny world at
//! 1 / available-parallelism workers. The engine's determinism contract
//! makes the two produce byte-identical output, so this measures the
//! sharding overhead and speedup in isolation.

use criterion::{criterion_group, criterion_main, Criterion};
use ruwhere_scan::{available_workers, OpenIntelScanner, SweepOptions};
use ruwhere_world::{World, WorldConfig};
use std::hint::black_box;

fn bench_sweep_workers(c: &mut Criterion) {
    let mut g = c.benchmark_group("sweep");
    g.sample_size(10);
    for workers in [1, available_workers()] {
        // Instrumented vs uninstrumented: the pair of series is the
        // observability overhead measurement (EXPERIMENTS.md).
        for (label, collect) in [("", true), ("_nometrics", false)] {
            g.bench_function(&format!("daily_sweep_{workers}w{label}"), |b| {
                b.iter(|| {
                    let mut world = World::new(WorldConfig::tiny());
                    let mut scanner = OpenIntelScanner::with_options(
                        &world,
                        SweepOptions::new()
                            .workers(workers)
                            .collect_metrics(collect),
                    );
                    black_box(scanner.sweep_frame(&mut world))
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_sweep_workers);
criterion_main!(benches);
