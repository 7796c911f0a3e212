//! Differential tests for instance projection (`SocInstance::reduced` /
//! `Projected<A>`): solving on the compact per-tuple universe must
//! return the same objective — and a valid retained set in the original
//! universe — as solving full-width.
//!
//! Exact algorithms (BruteForce, ILP, MFI) are compared directly: the
//! projection preserves every objective value, so optima must agree.
//! The greedies are compared against their decision-equivalent
//! full-width counterpart (candidate-restricted + deduplicated log):
//! projection is exactly that restriction plus an order-preserving
//! renumbering, so both the retained set and the objective must match
//! bit for bit.

use soc_core::{
    BruteForce, ConsumeAttr, ConsumeAttrCumul, ConsumeQueries, IlpSolver, LocalSearch, MfiSolver,
    Projected, SocAlgorithm, SocInstance,
};
use soc_data::{AttrSet, QueryLog, Tuple};
use soc_rng::StdRng;

const M: usize = 9;

/// A reproducible random instance: `num_queries` random queries over `M`
/// attributes (lengths 1..=4, skewed toward low indices) and a random
/// tuple with roughly `density` ones.
fn random_instance(seed: u64, num_queries: usize, density: f64) -> (QueryLog, Tuple) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sets = Vec::with_capacity(num_queries);
    for _ in 0..num_queries {
        let len = rng.random_range(1..=4usize);
        let mut attrs = AttrSet::empty(M);
        while attrs.count() < len {
            // Squaring skews toward low indices so duplicates arise and
            // the projection's weight-merging path is exercised.
            let x: f64 = rng.random();
            attrs.insert(((x * x * M as f64) as usize).min(M - 1));
        }
        sets.push(attrs);
    }
    let tuple = Tuple::new(AttrSet::from_indices(
        M,
        (0..M).filter(|_| rng.random_bool(density)),
    ));
    (QueryLog::from_attr_sets(M, sets), tuple)
}

#[test]
fn exact_solvers_match_full_width_objective() {
    for seed in 0..12u64 {
        let (log, t) = random_instance(seed, 18, 0.6);
        for m in [0, 1, 2, 3, 5, M] {
            let inst = SocInstance::new(&log, &t, m);
            let want = BruteForce.solve(&inst).satisfied;
            for algo in [
                &Projected(BruteForce) as &dyn SocAlgorithm,
                &Projected(IlpSolver::default()),
                &Projected(MfiSolver::deterministic()),
            ] {
                let sol = algo.solve(&inst);
                assert_eq!(
                    sol.satisfied,
                    want,
                    "{} seed {seed} m {m}: projected objective diverged",
                    algo.name()
                );
                assert_eq!(
                    sol.retained.universe(),
                    M,
                    "retained set must be full-width"
                );
                assert!(sol.retained.is_subset(t.attrs()));
                assert!(sol.retained.count() <= m);
            }
        }
    }
}

#[test]
fn randomized_mfi_projection_is_valid_and_exact_with_generous_budget() {
    // The random-walk miner is exact w.h.p. given enough walks; a 1500
    // walk budget on a ≤ 9-attribute universe makes a miss astronomically
    // unlikely, so this doubles as an exactness check through projection.
    let solver = MfiSolver {
        stop: soc_itemsets::StopRule::FixedIterations(1500),
        max_iterations: 2000,
        ..Default::default()
    };
    for seed in 0..6u64 {
        let (log, t) = random_instance(seed, 14, 0.5);
        for m in [1, 2, 4] {
            let inst = SocInstance::new(&log, &t, m);
            let want = BruteForce.solve(&inst).satisfied;
            let sol = Projected(solver.clone()).solve(&inst);
            assert_eq!(sol.satisfied, want, "seed {seed} m {m}");
            assert!(sol.retained.is_subset(t.attrs()));
        }
    }
}

#[test]
fn greedies_are_decision_equivalent_to_restricted_dedup_log() {
    for seed in 100..112u64 {
        let (log, t) = random_instance(seed, 25, 0.55);
        // Projection = candidate restriction + dedup + order-preserving
        // renumbering; the greedies' scores and tie-breaks are invariant
        // under the latter, so this full-width instance must reproduce
        // the projected run exactly.
        let counterpart = log.restrict_to_candidate(&t).deduplicate();
        for m in [0, 1, 2, 3, 4, M] {
            let inst = SocInstance::new(&log, &t, m);
            let full = SocInstance::new(&counterpart, &t, m);
            for algo in [
                &ConsumeAttr as &dyn SocAlgorithm,
                &ConsumeAttrCumul,
                &ConsumeQueries,
            ] {
                let projected = Projected(&algo).solve(&inst);
                let direct = algo.solve(&full);
                assert_eq!(
                    projected.retained,
                    direct.retained,
                    "{} seed {seed} m {m}: retained sets diverged",
                    algo.name()
                );
                assert_eq!(projected.satisfied, direct.satisfied);
            }
        }
    }
}

#[test]
fn projected_heuristics_stay_valid_and_never_beat_optimum() {
    for seed in 200..208u64 {
        let (log, t) = random_instance(seed, 20, 0.5);
        for m in [1, 3, 5] {
            let inst = SocInstance::new(&log, &t, m);
            let opt = BruteForce.solve(&inst).satisfied;
            for algo in [
                &Projected(ConsumeAttr) as &dyn SocAlgorithm,
                &Projected(ConsumeAttrCumul),
                &Projected(ConsumeQueries),
                &Projected(LocalSearch::default()),
            ] {
                let sol = algo.solve(&inst);
                assert!(
                    sol.satisfied <= opt,
                    "{} seed {seed} m {m} beat the optimum",
                    algo.name()
                );
                assert!(sol.retained.is_subset(t.attrs()));
                assert!(sol.retained.count() <= m);
            }
        }
    }
}

/// Every solver the workspace exposes, boxed for sweep tests.
fn all_solvers() -> Vec<Box<dyn SocAlgorithm>> {
    vec![
        Box::new(BruteForce),
        Box::new(IlpSolver::default()),
        Box::new(MfiSolver::default()),
        Box::new(MfiSolver::deterministic()),
        Box::new(ConsumeAttr),
        Box::new(ConsumeAttrCumul),
        Box::new(ConsumeQueries),
        Box::new(LocalSearch::default()),
    ]
}

#[test]
fn zero_query_projection_is_solvable_by_every_algorithm() {
    // The tuple is disjoint from every query, so the projected instance
    // has a nonempty compact universe but zero queries — the refine
    // pass of sketch-and-refine hits exactly this shape when a cluster
    // selection filters out every query. No solver may panic; the only
    // valid objective is 0.
    let log = QueryLog::from_bitstrings(&["1100", "1000", "0100"]).unwrap();
    let t = Tuple::from_bitstring("0011").unwrap();
    for m in [0, 1, 2, 5] {
        let inst = SocInstance::new(&log, &t, m);
        let reduced = inst.reduced();
        assert_eq!(reduced.log().len(), 0);
        assert_eq!(reduced.log().num_attrs(), 2);
        for algo in all_solvers() {
            let sol = Projected(&*algo).solve(&inst);
            assert_eq!(sol.satisfied, 0, "{} m {m}", algo.name());
            assert!(sol.retained.is_subset(t.attrs()), "{} m {m}", algo.name());
            assert!(sol.retained.count() <= m, "{} m {m}", algo.name());
        }
    }
}

#[test]
fn empty_tuple_projection_is_solvable_by_every_algorithm() {
    // Degenerate sibling: the tuple has no attributes at all, so the
    // compact universe itself is empty.
    let log = QueryLog::from_bitstrings(&["1100", "0011"]).unwrap();
    let t = Tuple::from_bitstring("0000").unwrap();
    for m in [0, 2] {
        let inst = SocInstance::new(&log, &t, m);
        for algo in all_solvers() {
            let sol = Projected(&*algo).solve(&inst);
            assert_eq!(sol.satisfied, 0, "{} m {m}", algo.name());
            assert_eq!(sol.retained, AttrSet::empty(4), "{} m {m}", algo.name());
        }
    }
}

#[test]
fn singleton_projection_is_solvable_by_every_algorithm() {
    // A single surviving query — the singleton-cluster shape of the
    // sketch refine pass. Every solver must find it.
    let log = QueryLog::from_bitstrings(&["1100", "0011", "0110"]).unwrap();
    let t = Tuple::from_bitstring("1100").unwrap();
    let inst = SocInstance::new(&log, &t, 2);
    let reduced = inst.reduced();
    assert_eq!(reduced.log().len(), 1);
    for algo in all_solvers() {
        let sol = Projected(&*algo).solve(&inst);
        assert_eq!(sol.satisfied, 1, "{}", algo.name());
        assert!(sol.retained.is_subset(t.attrs()), "{}", algo.name());
    }
}

#[test]
fn projection_equivalence_holds_on_weighted_logs() {
    for seed in 300..306u64 {
        let (log, t) = random_instance(seed, 30, 0.6);
        let weighted = log.deduplicate(); // non-unit weights
        for m in [2, 4] {
            let inst = SocInstance::new(&weighted, &t, m);
            let want = BruteForce.solve(&inst).satisfied;
            let sol = Projected(IlpSolver::default()).solve(&inst);
            assert_eq!(sol.satisfied, want, "seed {seed} m {m}");
        }
    }
}

#[test]
fn projection_equivalence_holds_after_appends_carry_the_view() {
    // `QueryLog::append` hands the grown log a distinct view derived from
    // the old one (as a served `ingest` does). Projected solves on the
    // grown log must still match full-width solves on it: exact optima
    // agree, and the greedies reproduce their full-width counterparts.
    for seed in 400..408u64 {
        let (mut log, t) = random_instance(seed, 20, 0.6);
        for round in 0..3u64 {
            // A log's first projection scans; the second derives the view.
            for _ in 0..2 {
                let _ = SocInstance::new(&log, &t, 3).reduced();
            }
            let (rows, _) = random_instance(seed * 31 + round, 6 + 5 * round as usize, 0.6);
            log = log.append(&rows);
            let counterpart = log.restrict_to_candidate(&t).deduplicate();
            for m in [1, 3, 5] {
                let inst = SocInstance::new(&log, &t, m);
                let want = BruteForce.solve(&inst).satisfied;
                for algo in [
                    &Projected(BruteForce) as &dyn SocAlgorithm,
                    &Projected(IlpSolver::default()),
                ] {
                    let sol = algo.solve(&inst);
                    assert_eq!(
                        sol.satisfied,
                        want,
                        "{} seed {seed} round {round} m {m}",
                        algo.name()
                    );
                    assert_eq!(log.satisfied_count(&Tuple::new(sol.retained)), want);
                }
                let full = SocInstance::new(&counterpart, &t, m);
                for algo in [
                    &ConsumeAttr as &dyn SocAlgorithm,
                    &ConsumeAttrCumul,
                    &ConsumeQueries,
                ] {
                    let projected = Projected(&algo).solve(&inst);
                    let direct = algo.solve(&full);
                    assert_eq!(
                        projected.retained,
                        direct.retained,
                        "{} seed {seed} round {round} m {m}",
                        algo.name()
                    );
                    assert_eq!(projected.satisfied, direct.satisfied);
                }
            }
        }
    }
}
