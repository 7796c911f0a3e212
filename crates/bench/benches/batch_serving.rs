//! Criterion bench for the batch-serving path: one synthetic workload,
//! a batch of new cars, MaxFreqItemSets as the solver, solved serially.
//! Compares the full universe against the per-tuple projection and
//! times one cold mine of the shared cache. The JSON artifact lives in
//! `figures serving`; this bench gives statistically rigorous timings on
//! the Quick workload.

use criterion::{criterion_group, criterion_main, Criterion};
use soc_bench::figs::synthetic_setup;
use soc_bench::harness::Scale;
use soc_core::{solve_batch, MfiSolver, Projected, SharedMfi};
use std::hint::black_box;

fn bench_batch_serving(c: &mut Criterion) {
    let (log, cars) = synthetic_setup(Scale::Quick, 800, 32);
    let solver = MfiSolver::default();
    let m = 5;

    let mut group = c.benchmark_group("batch_serving");
    group.sample_size(10);

    // A fresh SharedMfi per iteration so every run pays the cold mine —
    // the cost profile of serving a batch against a new log.
    group.bench_function("full", |b| {
        b.iter(|| {
            let shared = SharedMfi::new(solver.clone());
            black_box(solve_batch(&shared, &log, &cars, m))
        })
    });
    group.bench_function("projected", |b| {
        b.iter(|| black_box(solve_batch(&Projected(solver.clone()), &log, &cars, m)))
    });

    // Mining alone: one cold prime of the shared cache.
    group.bench_function("prime", |b| {
        b.iter(|| {
            let shared = SharedMfi::new(solver.clone());
            shared.prime(&log);
            black_box(shared.cached_thresholds())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_batch_serving);
criterion_main!(benches);
