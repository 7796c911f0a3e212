//! Differential tests for the hybrid inverted index: every indexed
//! counting kernel must agree *exactly* with the retained naive-scan
//! implementation on randomized weighted logs — including deduplicated
//! logs, empty logs, and universes wider than 128 attributes (which
//! spill the bitset's inline two-word storage) — plus cache-validity
//! tests for `clone` and `deduplicate`, and a density × weight sweep
//! (uniform, Zipf-skewed, near-empty, near-full rows) that drives the
//! sparse, dense, and mixed container paths through all three kernels
//! against both the scan baselines and the dense-only build.

use soc_data::{AttrSet, LogIndex, Query, QueryId, QueryLog, Schema, Tuple};
use soc_rng::StdRng;
use std::sync::Arc;

/// A random weighted log: `s` queries over `universe` attributes with
/// per-attribute density `p`, weights in `1..=max_w`.
fn random_log(rng: &mut StdRng, universe: usize, s: usize, p: f64, max_w: usize) -> QueryLog {
    let queries: Vec<Query> = (0..s)
        .map(|_| {
            Query::new(AttrSet::from_indices(
                universe,
                (0..universe).filter(|_| rng.random_bool(p)),
            ))
        })
        .collect();
    let weights: Vec<usize> = (0..s).map(|_| rng.random_range(1..=max_w)).collect();
    QueryLog::new_weighted(Arc::new(Schema::anonymous(universe)), queries, weights)
}

/// A random attribute subset of the universe.
fn random_set(rng: &mut StdRng, universe: usize, p: f64) -> AttrSet {
    AttrSet::from_indices(universe, (0..universe).filter(|_| rng.random_bool(p)))
}

/// Asserts all four kernels (plus the disjunctive count) agree with
/// their scan baselines on a batch of random operands.
fn assert_kernels_match(rng: &mut StdRng, log: &QueryLog, probes: usize) {
    let universe = log.num_attrs();
    assert_eq!(
        log.attribute_frequencies(),
        log.attribute_frequencies_scan(),
        "attribute_frequencies (S={}, M={universe})",
        log.len()
    );
    for _ in 0..probes {
        let p = rng.random_range(0.05..0.9);
        let items = random_set(rng, universe, p);
        let t = Tuple::new(random_set(rng, universe, p));
        assert_eq!(
            log.satisfied_count(&t),
            log.satisfied_count_scan(&t),
            "satisfied_count (S={}, M={universe}, t={t:?})",
            log.len()
        );
        assert_eq!(
            log.satisfied_count_disjunctive(&t),
            log.satisfied_count_disjunctive_scan(&t),
            "satisfied_count_disjunctive (S={}, M={universe}, t={t:?})",
            log.len()
        );
        assert_eq!(
            log.cooccurrence_count(&items),
            log.cooccurrence_count_scan(&items),
            "cooccurrence_count (S={}, M={universe}, items={items})",
            log.len()
        );
        assert_eq!(
            log.complement_support(&items),
            log.complement_support_scan(&items),
            "complement_support (S={}, M={universe}, items={items})",
            log.len()
        );
    }
}

#[test]
fn indexed_kernels_match_scans_on_random_weighted_logs() {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    for trial in 0..40 {
        let universe = rng.random_range(1..40usize);
        let s = rng.random_range(0..120usize);
        let p = rng.random_range(0.05..0.7);
        let max_w = if trial % 2 == 0 { 1 } else { 9 }; // unit & weighted paths
        let log = random_log(&mut rng, universe, s, p, max_w);
        assert_kernels_match(&mut rng, &log, 12);
    }
}

#[test]
fn indexed_kernels_match_scans_on_deduplicated_logs() {
    let mut rng = StdRng::seed_from_u64(0xDED0);
    for _ in 0..20 {
        let universe = rng.random_range(2..10usize);
        // Few attributes + many queries forces heavy duplication, so
        // deduplicate() produces genuinely merged weights.
        let raw = random_log(&mut rng, universe, 200, 0.3, 3);
        let dedup = raw.deduplicate();
        assert!(dedup.len() < raw.len(), "expected duplicates to merge");
        assert_kernels_match(&mut rng, &dedup, 12);
        // And the two logs agree with each other on every kernel.
        let t = Tuple::new(random_set(&mut rng, universe, 0.5));
        let items = random_set(&mut rng, universe, 0.3);
        assert_eq!(raw.satisfied_count(&t), dedup.satisfied_count(&t));
        assert_eq!(
            raw.cooccurrence_count(&items),
            dedup.cooccurrence_count(&items)
        );
        assert_eq!(
            raw.complement_support(&items),
            dedup.complement_support(&items)
        );
        assert_eq!(raw.attribute_frequencies(), dedup.attribute_frequencies());
    }
}

#[test]
fn indexed_kernels_match_scans_on_empty_logs() {
    let mut rng = StdRng::seed_from_u64(0xE3);
    for universe in [0usize, 1, 7, 130] {
        let log = QueryLog::from_attr_sets(universe, Vec::new());
        assert_kernels_match(&mut rng, &log, 8);
        assert_eq!(log.satisfied_count(&Tuple::new(AttrSet::full(universe))), 0);
        assert_eq!(log.complement_support(&AttrSet::empty(universe)), 0);
    }
}

#[test]
fn indexed_kernels_match_scans_beyond_inline_bitset_storage() {
    // Universes > 128 attributes spill AttrSet's inline two-word storage
    // onto the heap; the index must be oblivious to that.
    let mut rng = StdRng::seed_from_u64(0xB16);
    for universe in [129usize, 200, 320] {
        let log = random_log(&mut rng, universe, 90, 0.04, 4);
        assert_kernels_match(&mut rng, &log, 10);
    }
}

#[test]
fn more_queries_than_one_bitmap_word() {
    // S > 64 exercises multi-word accumulator rows and the tail-masking
    // of the final word.
    let mut rng = StdRng::seed_from_u64(0x60D);
    for s in [64usize, 65, 128, 300] {
        let log = random_log(&mut rng, 12, s, 0.25, 2);
        assert_kernels_match(&mut rng, &log, 12);
    }
}

/// A random weighted log with *per-attribute* densities, so individual
/// rows can be forced sparse, dense, near-empty, or near-full.
fn random_log_with_densities(
    rng: &mut StdRng,
    s: usize,
    densities: &[f64],
    max_w: usize,
) -> QueryLog {
    let universe = densities.len();
    let queries: Vec<Query> = (0..s)
        .map(|_| {
            Query::new(AttrSet::from_indices(
                universe,
                (0..universe).filter(|&a| rng.random_bool(densities[a])),
            ))
        })
        .collect();
    let weights: Vec<usize> = (0..s).map(|_| rng.random_range(1..=max_w)).collect();
    QueryLog::new_weighted(Arc::new(Schema::anonymous(universe)), queries, weights)
}

/// Asserts the hybrid build, the dense-only build, and the scan
/// baselines agree on all three kernels (plus the disjunctive count and
/// frequencies) over a batch of random operands.
fn assert_hybrid_dense_scan_agree(rng: &mut StdRng, log: &QueryLog, probes: usize, label: &str) {
    let universe = log.num_attrs();
    let dense = LogIndex::build_dense(log);
    assert_eq!(dense.sparse_rows(), 0, "{label}: dense build must be flat");
    assert_eq!(
        log.attribute_frequencies(),
        dense.attribute_frequencies(),
        "{label}: frequencies"
    );
    for _ in 0..probes {
        let p = rng.random_range(0.05..0.9);
        let items = random_set(rng, universe, p);
        let t = Tuple::new(random_set(rng, universe, p));
        let scan = log.satisfied_count_scan(&t);
        assert_eq!(log.satisfied_count(&t), scan, "{label}: satisfied {t:?}");
        assert_eq!(
            dense.satisfied_count(&t),
            scan,
            "{label}: satisfied/dense {t:?}"
        );
        let scan = log.cooccurrence_count_scan(&items);
        assert_eq!(
            log.cooccurrence_count(&items),
            scan,
            "{label}: cooccurrence {items}"
        );
        assert_eq!(
            dense.cooccurrence_count(&items),
            scan,
            "{label}: cooccurrence/dense {items}"
        );
        let scan = log.complement_support_scan(&items);
        assert_eq!(
            log.complement_support(&items),
            scan,
            "{label}: complement {items}"
        );
        assert_eq!(
            dense.complement_support(&items),
            scan,
            "{label}: complement/dense {items}"
        );
        assert_eq!(
            log.satisfied_count_disjunctive(&t),
            log.satisfied_count_disjunctive_scan(&t),
            "{label}: disjunctive {t:?}"
        );
    }
}

#[test]
fn density_sweep_uniform_rows() {
    // Uniform per-attribute density swept from near-empty (all rows
    // sparse) through the container threshold to near-full (all rows
    // dense), with unit and general weights.
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for &p in &[0.002, 0.008, 0.015625, 0.02, 0.05, 0.3, 0.9, 0.99] {
        for max_w in [1usize, 7] {
            let densities = vec![p; 24];
            let log = random_log_with_densities(&mut rng, 400, &densities, max_w);
            let label = format!("uniform p={p} max_w={max_w}");
            assert_hybrid_dense_scan_agree(&mut rng, &log, 10, &label);
        }
    }
}

#[test]
fn density_sweep_zipf_skewed_rows() {
    // Zipf-skewed per-attribute densities: head attributes are dense,
    // the tail is sparse — the workload shape the hybrid index targets.
    // Both container types appear in one index and most random operand
    // sets mix them.
    let mut rng = StdRng::seed_from_u64(0x21FF);
    for &exponent in &[1.5, 2.5] {
        for max_w in [1usize, 5] {
            let densities: Vec<f64> = (0..32)
                .map(|rank| (0.8 / ((rank + 1) as f64).powf(exponent)).max(0.001))
                .collect();
            let log = random_log_with_densities(&mut rng, 600, &densities, max_w);
            let idx = log.index();
            assert!(
                idx.sparse_rows() > 0 && idx.sparse_rows() < 32,
                "zipf(exp={exponent}) must mix containers, got {} sparse of 32",
                idx.sparse_rows()
            );
            let label = format!("zipf exp={exponent} max_w={max_w}");
            assert_hybrid_dense_scan_agree(&mut rng, &log, 12, &label);
        }
    }
}

#[test]
fn density_sweep_near_empty_and_near_full_rows() {
    // Extremes in one universe: empty rows, singleton rows, all-ones
    // rows, and rows missing a single query — tail-word masking and the
    // full-word weighted-popcount shortcut both get exercised.
    let mut rng = StdRng::seed_from_u64(0xF001);
    for s in [65usize, 127, 200] {
        for max_w in [1usize, 9] {
            let universe = 8;
            let queries: Vec<Query> = (0..s)
                .map(|i| {
                    Query::new(AttrSet::from_indices(
                        universe,
                        (0..universe).filter(|&a| match a {
                            0 => false,      // empty row
                            1 => i == s / 2, // singleton row
                            2 => true,       // full row
                            3 => i != s / 3, // full minus one
                            _ => (i + a) % (a + 1) == 0,
                        }),
                    ))
                })
                .collect();
            let weights: Vec<usize> = (0..s).map(|_| rng.random_range(1..=max_w)).collect();
            let log =
                QueryLog::new_weighted(Arc::new(Schema::anonymous(universe)), queries, weights);
            let idx = log.index();
            assert!(idx.is_sparse(0) && idx.is_sparse(1));
            assert!(!idx.is_sparse(2) && !idx.is_sparse(3));
            let label = format!("extremes s={s} max_w={max_w}");
            assert_hybrid_dense_scan_agree(&mut rng, &log, 12, &label);
        }
    }
}

#[test]
fn threshold_boundary_forces_both_containers_in_one_operand_set() {
    // Rows with cardinalities straddling the strict `card * 64 < S`
    // rule: at S = 320 the boundary is card 5 — card 4 goes sparse,
    // card 5 dense. One operand set spanning the boundary drives the
    // mixed sparse∧dense kernel paths.
    let s = 320usize;
    let universe = 4;
    let queries: Vec<Query> = (0..s)
        .map(|i| {
            Query::new(AttrSet::from_indices(
                universe,
                (0..universe).filter(|&a| match a {
                    0 => i < 4, // just under: sparse
                    1 => i < 5, // exactly at: dense (strict inequality)
                    2 => i < 6, // just over: dense
                    _ => i % 2 == 0,
                }),
            ))
        })
        .collect();
    let log = QueryLog::from_attr_sets(
        universe,
        queries.into_iter().map(|q| q.attrs().clone()).collect(),
    );
    let idx = log.index();
    assert!(idx.is_sparse(0), "card 4 of 320 must be sparse");
    assert!(
        !idx.is_sparse(1),
        "card 5 of 320 must be dense (boundary is strict)"
    );
    assert!(!idx.is_sparse(2));

    let mut rng = StdRng::seed_from_u64(0xB0D1);
    // The full operand set mixes one sparse and three dense rows; the
    // pairs hit sparse∧dense and dense∧dense directly.
    for probe in [
        AttrSet::from_indices(universe, [0, 1]),
        AttrSet::from_indices(universe, [0, 3]),
        AttrSet::from_indices(universe, [1, 2]),
        AttrSet::from_indices(universe, [0, 1, 2, 3]),
    ] {
        assert_eq!(
            log.cooccurrence_count(&probe),
            log.cooccurrence_count_scan(&probe),
            "cooccurrence {probe}"
        );
        assert_eq!(
            log.complement_support(&probe),
            log.complement_support_scan(&probe),
            "complement {probe}"
        );
    }
    assert_hybrid_dense_scan_agree(&mut rng, &log, 10, "threshold boundary");
}

#[test]
fn sparse_vs_sparse_galloping_sizes() {
    // Two sparse rows with lopsided entry counts (1 : 8) push the
    // sparse∧sparse intersection onto its galloping path; comparable
    // counts take the linear merge. Both must match the scan.
    let s = 4096usize;
    let universe = 3;
    let sets: Vec<AttrSet> = (0..s)
        .map(|i| {
            AttrSet::from_indices(
                universe,
                (0..universe).filter(|&a| match a {
                    0 => i % 1024 == 0, // 4 ids
                    1 => i % 16 == 0,   // 256 ids: 256 * 64 > 4096 — dense
                    _ => i % 128 == 7,  // 32 ids, sparse
                }),
            )
        })
        .collect();
    let log = QueryLog::from_attr_sets(universe, sets);
    let idx = log.index();
    assert!(idx.is_sparse(0) && idx.is_sparse(2));
    assert!(!idx.is_sparse(1), "256 ids of 4096 sit above the 1/64 rule");
    for probe in [
        AttrSet::from_indices(universe, [0, 2]), // sparse ∧ sparse, gallop
        AttrSet::from_indices(universe, [0, 1]), // sparse ∧ dense probe
        AttrSet::from_indices(universe, [1, 2]),
        AttrSet::from_indices(universe, [0, 1, 2]),
    ] {
        assert_eq!(
            log.cooccurrence_count(&probe),
            log.cooccurrence_count_scan(&probe),
            "{probe}"
        );
    }
}

#[test]
fn clone_shares_a_valid_index() {
    let mut rng = StdRng::seed_from_u64(0xC10E);
    let log = random_log(&mut rng, 16, 80, 0.3, 3);
    let t = Tuple::new(random_set(&mut rng, 16, 0.5));

    // Force the original to build and cache its index, then clone.
    let before = log.satisfied_count(&t);
    let clone = log.clone();
    // The clone holds byte-identical queries and weights, so a carried
    // index is *valid* (never stale): both logs must agree with the
    // clone's own scan baseline on every kernel.
    assert_eq!(clone.satisfied_count(&t), before);
    assert_eq!(clone.satisfied_count(&t), clone.satisfied_count_scan(&t));
    assert_kernels_match(&mut rng, &clone, 8);
}

#[test]
fn deduplicate_does_not_carry_a_stale_index() {
    let mut rng = StdRng::seed_from_u64(0x57A1E);
    // Duplicate-heavy raw log; prime its index cache BEFORE deriving.
    let raw = random_log(&mut rng, 6, 150, 0.35, 2);
    let t = Tuple::new(random_set(&mut rng, 6, 0.6));
    let _ = raw.satisfied_count(&t); // cache built over 150 queries

    let dedup = raw.deduplicate();
    assert!(dedup.len() < raw.len());
    // A stale (shared) index would count 150 query-id bits against the
    // dedup'd log's shorter weight vector; the fresh index must agree
    // with the dedup'd scan baseline exactly.
    assert_kernels_match(&mut rng, &dedup, 10);
    assert_eq!(dedup.satisfied_count(&t), raw.satisfied_count(&t));
}

#[test]
fn filter_and_complement_do_not_carry_a_stale_index() {
    let mut rng = StdRng::seed_from_u64(0xF117);
    let log = random_log(&mut rng, 10, 70, 0.3, 3);
    let t = Tuple::new(random_set(&mut rng, 10, 0.5));
    let _ = log.satisfied_count(&t); // prime the cache

    let filtered = log.filter(|q| q.attrs().contains(0));
    assert_kernels_match(&mut rng, &filtered, 8);

    let complemented = log.complement();
    assert_kernels_match(&mut rng, &complemented, 8);
}

/// Asserts the view-backed projection equals the scan oracle exactly —
/// queries in order, weights, schema names and mapping — and that
/// `satisfied_ids` equals the `q.matches(t)` filter. A log's first
/// projection scans, so this projects twice and checks the second.
fn assert_projection_matches_scan(log: &QueryLog, t: &Tuple) {
    let _ = log.project_onto(t);
    let (fast, fast_map) = log.project_onto(t);
    let (scan, scan_map) = log.project_onto_scan(t);
    let label = format!("S={}, M={}, t={t:?}", log.len(), log.num_attrs());
    assert_eq!(
        fast.queries(),
        scan.queries(),
        "projected queries ({label})"
    );
    assert_eq!(
        weights(&fast),
        weights(&scan),
        "projected weights ({label})"
    );
    assert_eq!(
        fast.schema().names(),
        scan.schema().names(),
        "projected schema ({label})"
    );
    assert_eq!(fast_map, scan_map, "projection mapping ({label})");
    let filtered: Vec<QueryId> = log
        .iter()
        .filter(|(_, q)| q.matches(t))
        .map(|(id, _)| id)
        .collect();
    assert_eq!(log.satisfied_ids(t), filtered, "satisfied_ids ({label})");
}

fn weights(log: &QueryLog) -> Vec<usize> {
    log.iter().map(|(id, _)| log.weight(id)).collect()
}

/// A duplicate-heavy weighted log: `s` rows drawn from a pool of `pool`
/// random queries with per-attribute densities, weights in `1..=max_w`.
fn pooled_log(
    rng: &mut StdRng,
    s: usize,
    pool: usize,
    densities: &[f64],
    max_w: usize,
) -> QueryLog {
    let universe = densities.len();
    let pool: Vec<Query> = (0..pool)
        .map(|_| {
            Query::new(AttrSet::from_indices(
                universe,
                (0..universe).filter(|&a| rng.random_bool(densities[a])),
            ))
        })
        .collect();
    let queries: Vec<Query> = (0..s)
        .map(|_| pool[rng.random_range(0..pool.len())].clone())
        .collect();
    let weights: Vec<usize> = (0..s).map(|_| rng.random_range(1..=max_w)).collect();
    QueryLog::new_weighted(Arc::new(Schema::anonymous(universe)), queries, weights)
}

/// Random tuples plus the empty and the full tuple.
fn probe_tuples(rng: &mut StdRng, universe: usize, n: usize) -> Vec<Tuple> {
    let mut tuples: Vec<Tuple> = (0..n)
        .map(|_| {
            let p = rng.random_range(0.2..0.95);
            Tuple::new(random_set(rng, universe, p))
        })
        .collect();
    tuples.push(Tuple::new(AttrSet::empty(universe)));
    tuples.push(Tuple::new(AttrSet::full(universe)));
    tuples
}

#[test]
fn projection_matches_scan_on_duplicate_heavy_weighted_logs() {
    let mut rng = StdRng::seed_from_u64(0x9801);
    for trial in 0..24 {
        let universe = rng.random_range(1..24usize);
        let densities: Vec<f64> = (0..universe).map(|_| rng.random_range(0.05..0.6)).collect();
        // More rows than pooled queries, so some row repeats.
        let pool = rng.random_range(1..60usize);
        let s = rng.random_range(pool + 1..pool + 400);
        let max_w = if trial % 2 == 0 { 1 } else { 7 };
        let log = pooled_log(&mut rng, s, pool, &densities, max_w);
        assert!(log.deduplicate().len() < log.len());
        for t in probe_tuples(&mut rng, universe, 10) {
            assert_projection_matches_scan(&log, &t);
        }
    }
}

#[test]
fn projection_matches_scan_with_sparse_view_containers() {
    // Rare attributes leave fewer than distinct/64 ids in their view rows,
    // so the view's index stores them sparse; the tail word is partial.
    let mut rng = StdRng::seed_from_u64(0x5BA5);
    let mut densities = vec![0.4; 14];
    densities.extend([0.004, 0.006, 0.002, 0.01, 0.003, 0.008]);
    for (s, pool) in [(5_000usize, 1_500usize), (3_001, 700)] {
        let log = pooled_log(&mut rng, s, pool, &densities, 3);
        let view = log.deduplicate();
        assert_ne!(view.len() % 64, 0, "view tail word must be partial");
        assert!(
            view.index().sparse_rows() > 0,
            "the view's index must hold sparse rows"
        );
        for t in probe_tuples(&mut rng, densities.len(), 24) {
            assert_projection_matches_scan(&log, &t);
        }
    }
}

#[test]
fn projection_matches_scan_beyond_inline_bitset_storage() {
    let mut rng = StdRng::seed_from_u64(0x1301);
    for universe in [129usize, 200] {
        let densities = vec![0.02; universe];
        let log = pooled_log(&mut rng, 150, 40, &densities, 4);
        for t in probe_tuples(&mut rng, universe, 8) {
            assert_projection_matches_scan(&log, &t);
        }
    }
}

#[test]
fn projection_matches_scan_on_empty_logs() {
    let mut rng = StdRng::seed_from_u64(0xE4);
    for universe in [0usize, 1, 7, 130] {
        let log = QueryLog::from_attr_sets(universe, Vec::new());
        for t in probe_tuples(&mut rng, universe, 3) {
            assert_projection_matches_scan(&log, &t);
            assert_eq!(log.project_onto(&t).0.len(), 0);
        }
    }
}

#[test]
fn clone_after_the_view_is_filled_projects_identically() {
    let mut rng = StdRng::seed_from_u64(0xC10E);
    let densities = vec![0.3; 10];
    let log = pooled_log(&mut rng, 300, 50, &densities, 5);
    let tuples = probe_tuples(&mut rng, 10, 10);
    for t in &tuples {
        assert_projection_matches_scan(&log, t); // fills the view
    }
    let clone = log.clone();
    for t in &tuples {
        assert_projection_matches_scan(&clone, t);
    }
}

#[test]
fn append_carries_the_view_forward_exactly() {
    // The appended log's projections and deduplication must equal those
    // of a log built fresh from the concatenated rows, whether or not the
    // old log's view was built — and over several appends, with incoming
    // rows that both repeat and extend the distinct queries.
    let mut rng = StdRng::seed_from_u64(0xA99E);
    let densities = vec![0.3, 0.2, 0.4, 0.1, 0.35, 0.25, 0.05];
    let universe = densities.len();
    for fill_view in [true, false] {
        let mut log = pooled_log(&mut rng, 200, 40, &densities, 3);
        for round in 0..4 {
            let tuples = probe_tuples(&mut rng, universe, 6);
            if fill_view {
                // The second projection derives the view.
                let _ = log.project_onto(&tuples[0]);
                let _ = log.project_onto(&tuples[0]);
            }
            // 1 to 211 rows × 7 attributes: small appends look rows up on
            // the view's index, the last ones hash the view.
            let rows = pooled_log(&mut rng, 1 + round * 70, 25, &densities, 4);
            let appended = log.append(&rows);
            let fresh = QueryLog::new_weighted(
                Arc::clone(log.schema()),
                [log.queries(), rows.queries()].concat(),
                [weights(&log), weights(&rows)].concat(),
            );
            assert_eq!(appended.queries(), fresh.queries());
            assert_eq!(weights(&appended), weights(&fresh));
            let (dedup, fresh_dedup) = (appended.deduplicate(), fresh.deduplicate());
            assert_eq!(dedup.queries(), fresh_dedup.queries());
            assert_eq!(weights(&dedup), weights(&fresh_dedup));
            for t in &tuples {
                assert_projection_matches_scan(&appended, t);
                let (a, b) = (appended.project_onto(t), fresh.project_onto(t));
                assert_eq!(a.0.queries(), b.0.queries());
                assert_eq!(weights(&a.0), weights(&b.0));
            }
            log = appended;
        }
    }
}
