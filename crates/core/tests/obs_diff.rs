//! Differential test for the observability layer: turning metrics and
//! tracing ON must not change a single solver or miner result. The
//! instruments only *observe* — same seeds in, bit-identical solutions
//! and itemsets out, whether recording is off, on, or on-with-spans.
//!
//! Runs in its own integration-test process because the enable flags
//! are process-global.

use soc_core::{
    solve_batch, ConsumeAttrCumul, IlpSolver, MfiSolver, SocAlgorithm, SocInstance, Solution,
};
use soc_data::{AttrSet, QueryLog, Tuple};
use soc_rng::StdRng;

const M: usize = 10;

fn random_instance(seed: u64, num_queries: usize) -> (QueryLog, Tuple) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sets = Vec::with_capacity(num_queries);
    for _ in 0..num_queries {
        let len = rng.random_range(1..=4usize);
        let mut attrs = AttrSet::empty(M);
        while attrs.count() < len {
            attrs.insert(rng.random_range(0..M));
        }
        sets.push(attrs);
    }
    let tuple = Tuple::new(AttrSet::from_indices(
        M,
        (0..M).filter(|_| rng.random_bool(0.6)),
    ));
    (QueryLog::from_attr_sets(M, sets), tuple)
}

/// Solves every (seed, m) cell with every algorithm under the current
/// flag state and returns the flat result vector.
fn solve_all() -> Vec<Solution> {
    let mut out = Vec::new();
    for seed in 0..4u64 {
        let (log, t) = random_instance(seed, 24);
        for m in [1, 3, 5] {
            let inst = SocInstance::new(&log, &t, m);
            for algo in [
                &IlpSolver::default() as &dyn SocAlgorithm,
                &MfiSolver::default(), // fixed internal seed: deterministic
                &MfiSolver::deterministic(),
                &ConsumeAttrCumul,
            ] {
                out.push(algo.solve(&inst));
            }
        }
    }
    out
}

fn mine_all() -> Vec<Vec<soc_itemsets::FrequentItemset>> {
    (0..4u64)
        .map(|seed| {
            let (log, _) = random_instance(seed, 24);
            MfiSolver::default().mine(&log, 3)
        })
        .collect()
}

fn batch_all() -> Vec<Solution> {
    let (log, _) = random_instance(7, 30);
    let tuples: Vec<Tuple> = (0..8u64).map(|s| random_instance(s + 50, 1).1).collect();
    solve_batch(&IlpSolver::default(), &log, &tuples, 4)
}

#[test]
fn instrumentation_changes_no_result() {
    soc_obs::disable_all();
    let base_solutions = solve_all();
    let base_mfis = mine_all();
    let base_batch = batch_all();

    soc_obs::enable_metrics();
    assert_eq!(solve_all(), base_solutions, "metrics-on diverged");
    assert_eq!(mine_all(), base_mfis, "metrics-on MFI diverged");
    assert_eq!(batch_all(), base_batch, "metrics-on batch diverged");

    soc_obs::enable_tracing();
    assert_eq!(solve_all(), base_solutions, "tracing-on diverged");
    assert_eq!(mine_all(), base_mfis, "tracing-on MFI diverged");
    assert_eq!(batch_all(), base_batch, "tracing-on batch diverged");

    // The run above must actually have exercised the instruments —
    // otherwise this test proves nothing.
    assert!(soc_obs::registry()
        .snapshot()
        .to_json()
        .contains("mfi.walk_rounds"));
    let spans = soc_obs::drain_spans();
    assert!(spans.iter().any(|s| s.name == "solve_batch"));
    assert!(spans.iter().any(|s| s.name == "mine_mfi"));
    soc_obs::disable_all();
}
