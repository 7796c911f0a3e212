//! Property-based tests for the problem variants: each variant solver is
//! checked against a direct-semantics brute force over all publication
//! sets.

use proptest::prelude::*;
use standout::core::variants::per_attribute::solve_per_attribute;
use standout::core::variants::topk::{retrieves_in_topk, solve_topk_feature_count, TieBreak};
use standout::core::{BruteForce, SocAlgorithm, SocInstance};
use standout::data::categorical::{CatQuery, CatTuple};
use standout::data::{AttrSet, Database, QueryLog, Schema, Tuple};
use std::sync::Arc;

const M: usize = 6;

fn log_strategy() -> impl Strategy<Value = QueryLog> {
    proptest::collection::vec(proptest::collection::vec(any::<bool>(), M), 0..10).prop_map(|rows| {
        QueryLog::from_attr_sets(M, rows.iter().map(|r| AttrSet::from_bools(r)).collect())
    })
}

fn db_strategy() -> impl Strategy<Value = Database> {
    proptest::collection::vec(proptest::collection::vec(any::<bool>(), M), 1..10).prop_map(|rows| {
        Database::new(
            Arc::new(Schema::anonymous(M)),
            rows.iter()
                .map(|r| Tuple::new(AttrSet::from_bools(r)))
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SOC-Topk via winnable-query reduction equals a brute force that
    /// evaluates every compression with the reference top-k semantics.
    #[test]
    fn topk_reduction_is_exact(
        db in db_strategy(),
        log in log_strategy(),
        tbits in proptest::collection::vec(any::<bool>(), M),
        k in 1usize..4,
        m in 0usize..=M,
        optimistic in any::<bool>(),
    ) {
        let t = Tuple::new(AttrSet::from_bools(&tbits));
        let ties = if optimistic { TieBreak::NewTupleWins } else { TieBreak::IncumbentWins };
        let r = solve_topk_feature_count(&BruteForce, &db, &log, k, ties, &t, m);

        let scores: Vec<f64> = db.tuples().iter().map(|u| u.count() as f64).collect();
        let cand = m.min(t.count()) as f64;
        let mut best = 0usize;
        for compressed in t.compressions(m) {
            let visible = log
                .queries()
                .iter()
                .filter(|q| retrieves_in_topk(&db, &scores, q, &compressed, cand, k, ties))
                .count();
            best = best.max(visible);
        }
        prop_assert_eq!(r.visible_in, best);
    }

    /// Per-attribute variant equals an exhaustive scan over every subset
    /// of the tuple.
    #[test]
    fn per_attribute_matches_subset_scan(
        log in log_strategy(),
        tbits in proptest::collection::vec(any::<bool>(), M),
    ) {
        let t = Tuple::new(AttrSet::from_bools(&tbits));
        prop_assume!(t.count() > 0);
        let got = solve_per_attribute(&BruteForce, &log, &t);

        let mut best = 0.0f64;
        for m in 1..=t.count() {
            for compressed in t.compressions(m) {
                let retained = compressed.count();
                if retained == 0 { continue; }
                let ratio = log.satisfied_count(&compressed) as f64 / retained as f64;
                best = best.max(ratio);
            }
        }
        prop_assert!((got.ratio - best).abs() < 1e-9, "got {} want {}", got.ratio, best);
    }

    /// Categorical solve equals a direct brute force over publish sets.
    #[test]
    fn categorical_matches_direct_enumeration(
        values in proptest::collection::vec(0u32..3, 4),
        raw_queries in proptest::collection::vec(
            proptest::collection::vec(proptest::option::of(0u32..3), 4), 0..8),
        m in 0usize..=4,
    ) {
        let schema = standout::data::categorical::CatSchema::new(
            (0..4).map(|i| (format!("a{i}"), vec!["v0".to_string(), "v1".to_string(), "v2".to_string()])),
        );
        let t = CatTuple { values };
        let queries: Vec<CatQuery> = raw_queries
            .into_iter()
            .map(|conditions| CatQuery { conditions })
            .collect();
        let got = standout::core::variants::categorical::solve_categorical(
            &BruteForce, &schema, &queries, &t, m,
        );

        let mut best = 0usize;
        for mask in 0u32..(1 << 4) {
            let publish = AttrSet::from_indices(4, (0..4).filter(|&i| mask >> i & 1 == 1));
            if publish.count() > m { continue; }
            let sat = queries.iter().filter(|q| q.matches(&t, &publish)).count();
            best = best.max(sat);
        }
        prop_assert_eq!(got.satisfied, best);
    }

    /// Batch solving matches per-tuple solving, slot by slot.
    #[test]
    fn batch_matches_sequential(
        log in log_strategy(),
        tuples in proptest::collection::vec(proptest::collection::vec(any::<bool>(), M), 1..8),
        m in 0usize..=M,
    ) {
        let tuples: Vec<Tuple> = tuples
            .iter()
            .map(|b| Tuple::new(AttrSet::from_bools(b)))
            .collect();
        let batch = standout::core::solve_batch(&BruteForce, &log, &tuples, m);
        prop_assert_eq!(batch.len(), tuples.len());
        for (tuple, sol) in tuples.iter().zip(&batch) {
            let seq = BruteForce.solve(&SocInstance::new(&log, tuple, m));
            prop_assert_eq!(sol.satisfied, seq.satisfied);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Deduplicating the log never changes the optimum or any exact
    /// algorithm's answer (weights make the compressed log equivalent).
    #[test]
    fn deduplication_preserves_exact_solutions(
        rows in proptest::collection::vec(proptest::collection::vec(any::<bool>(), M), 0..14),
        tbits in proptest::collection::vec(any::<bool>(), M),
        m in 0usize..=M,
    ) {
        let raw = QueryLog::from_attr_sets(
            M,
            rows.iter().map(|r| AttrSet::from_bools(r)).collect(),
        );
        let dedup = raw.deduplicate();
        let t = Tuple::new(AttrSet::from_bools(&tbits));
        let on_raw = BruteForce.solve(&SocInstance::new(&raw, &t, m));
        let on_dedup = BruteForce.solve(&SocInstance::new(&dedup, &t, m));
        prop_assert_eq!(on_raw.satisfied, on_dedup.satisfied);

        let ilp = standout::core::IlpSolver::default();
        let ilp_dedup = ilp.solve(&SocInstance::new(&dedup, &t, m));
        prop_assert_eq!(ilp_dedup.satisfied, on_raw.satisfied);

        let mfi = standout::core::MfiSolver::deterministic();
        let mfi_dedup = mfi.solve(&SocInstance::new(&dedup, &t, m));
        prop_assert_eq!(mfi_dedup.satisfied, on_raw.satisfied);
    }
}
