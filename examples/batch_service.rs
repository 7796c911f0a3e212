//! Batch service: the production deployment shape.
//!
//! A marketplace scores every incoming listing against the site's query
//! log. This example shows the two optimizations that make that cheap:
//! query-log **deduplication** (weights replace duplicates, objectives
//! unchanged) and a **shared preprocessing cache** ([`SharedMfi`]) that
//! every solve of a [`solve_batch`] reuses.
//!
//! Run with: `cargo run --release --example batch_service`

use standout::core::{solve_batch, MfiSolver, SharedMfi, SocAlgorithm, SocInstance};
use standout::data::{Query, QueryLog};
use standout::workload::{
    generate_cars, generate_real_workload, sample_new_cars, CarsConfig, RealWorkloadConfig,
};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // Simulate a raw production log: the 185 distinct query shapes
    // repeated with realistic skew (popular queries repeat often).
    let distinct = generate_real_workload(&RealWorkloadConfig::default());
    let mut raw_queries: Vec<Query> = Vec::new();
    for (i, q) in distinct.queries().iter().enumerate() {
        let repeats = 1 + 400 / (i + 1); // Zipf-ish repetition
        raw_queries.extend(std::iter::repeat_n(q.clone(), repeats));
    }
    let raw = QueryLog::new(Arc::clone(distinct.schema()), raw_queries);
    let dedup = raw.deduplicate();
    println!(
        "raw log: {} queries → deduplicated: {} distinct (total weight {})\n",
        raw.len(),
        dedup.len(),
        dedup.total_weight()
    );

    // 200 incoming listings, m = 6 highlighted features each.
    let dataset = generate_cars(&CarsConfig {
        num_cars: 3_000,
        seed: 42,
    });
    let listings = sample_new_cars(&dataset, 2_000, 11);
    let m = 6;

    // Shared preprocessing: mine the deduplicated log once.
    let shared = SharedMfi::new(MfiSolver::default());
    shared.prime(&dedup);
    // The first pass fills the adaptive-threshold cache completely; the
    // second measures steady-state service throughput.
    let mut solutions = Vec::new();
    for pass in ["cold cache", "warm cache"] {
        let t0 = Instant::now();
        solutions = solve_batch(&shared, &dedup, &listings, m);
        let elapsed = t0.elapsed();
        let total: usize = solutions.iter().map(|s| s.satisfied).sum();
        println!(
            "{pass}: {:>8.2?}  ({:.2} listings/ms, mean satisfied weight {:.1})",
            elapsed,
            listings.len() as f64 / elapsed.as_secs_f64() / 1e3,
            total as f64 / listings.len() as f64
        );
    }

    // Cross-check: solving against the raw (un-deduplicated) log gives
    // identical objective values — weights are exact, not approximate.
    let best = solutions
        .iter()
        .enumerate()
        .max_by_key(|(_, s)| s.satisfied)
        .map(|(i, _)| i)
        .unwrap();
    let sample = &listings[best];
    let on_raw = MfiSolver::default().solve(&SocInstance::new(&raw, sample, m));
    let on_dedup = MfiSolver::default().solve(&SocInstance::new(&dedup, sample, m));
    println!(
        "\nconsistency: raw log → {} satisfied, deduplicated log → {} satisfied",
        on_raw.satisfied, on_dedup.satisfied
    );
    assert_eq!(on_raw.satisfied, on_dedup.satisfied);
}
