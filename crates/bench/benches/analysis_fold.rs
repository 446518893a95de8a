//! The analysis fold: one single-pass [`AnalysisEngine`] walk over the
//! fixture's final sweep frame, feeding all eight study series.
//!
//! The series are built fresh inside the timed closure, so the number
//! covers the fold itself: one walk with eight hook dispatches per
//! record.

use criterion::{criterion_group, criterion_main, Criterion};
use ruwhere_bench::fixture;
use ruwhere_core::{
    composition::{CompositionSeries, InfraKind},
    AnalysisEngine, AsnShareSeries, DatasetStats, TldDependencySeries, TldUsageSeries,
    TransitionFlows,
};
use std::hint::black_box;

fn bench_analysis_fold(c: &mut Criterion) {
    let r = fixture();
    let frame = r.final_sweep().expect("fixture retains its final sweep");
    let series = || {
        (
            CompositionSeries::new(InfraKind::NameServers),
            CompositionSeries::new(InfraKind::Hosting),
            CompositionSeries::sanctioned(InfraKind::NameServers, r.sanctions.clone()),
            TldDependencySeries::new(),
            TldUsageSeries::new(),
            AsnShareSeries::new(),
            DatasetStats::new(),
            TransitionFlows::new(InfraKind::NameServers),
        )
    };

    let mut g = c.benchmark_group("analysis_fold");
    g.bench_function("single_pass_engine", |b| {
        b.iter(|| {
            let (mut c1, mut c2, mut c3, mut td, mut tu, mut asn, mut ds, mut tf) = series();
            let mut engine = AnalysisEngine::new();
            engine.observe_frame(
                black_box(frame),
                &r.interner,
                &mut [
                    &mut c1, &mut c2, &mut c3, &mut td, &mut tu, &mut asn, &mut ds, &mut tf,
                ],
            );
            black_box(engine.record_visits())
        })
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_analysis_fold
);
criterion_main!(benches);
