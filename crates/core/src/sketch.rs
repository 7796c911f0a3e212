//! Sketch-and-refine solving: cluster-compressed instances with a
//! verified objective-bound bracket.
//!
//! The exact paths (ILP, MFI, even the greedies) all scale in the
//! number of distinct queries, so million-query logs price them out.
//! This module ports the **SketchRefine** recipe of Brucato et al.
//! (*Scalable Package Queries*) to SOC-CB-QL:
//!
//! 1. **Project** the instance onto the tuple's universe
//!    ([`SocInstance::reduced`]) — the refine pass composes with the
//!    existing `project_onto` machinery rather than reinventing it.
//! 2. **Cluster** the compact log's queries into `k` groups of similar
//!    attribute sets ([`soc_data::cluster_log`], deterministic
//!    k-centers seeded from `soc-rng`).
//! 3. **Sketch**: collapse each cluster to one representative query —
//!    the **union** of its members' attribute sets — weighted by the
//!    aggregate cluster weight. The result is an ordinary
//!    [`QueryLog`]/[`SocInstance`], solvable by any existing solver
//!    unchanged. A retained set satisfying a union representative
//!    satisfies *every* member, so the sketch objective of a retained
//!    set never overstates its true objective.
//! 4. **Refine**: re-solve a restricted instance built under a query
//!    budget of a few multiples of `k`. Clusters the sketch solution
//!    *touched* — those whose **intersection** representative the
//!    sketch's retained set satisfies (a member can only be satisfied
//!    if the intersection is) — are admitted first, heaviest first;
//!    the remaining budget fills with the heaviest untouched clusters.
//!    Below the budget the refine pass converges to the full projected
//!    solve; past it, the cap keeps the refine instance within a
//!    constant factor of the sketch instance instead of degenerating
//!    into a full re-solve (at scale most intersection representatives
//!    are empty and hence trivially satisfied). The refined retained
//!    set is re-scored against the whole compact log, so the reported
//!    objective is always a true, feasible objective of the original
//!    instance.
//!
//! **Bound bracket.** Callers get `[lower, upper]` certified to contain
//! the exact optimum without ground truth:
//!
//! - `lower` is the true objective of the best retained set found —
//!   feasible by construction, hence a valid lower bound on OPT.
//! - `upper` combines two sound overestimates. *Structural*: a cluster
//!   can only contribute if its intersection representative fits the
//!   budget (`|∩Cᵢ| ≤ m`), because every member contains the
//!   intersection; summing those clusters' weights bounds any retained
//!   set's objective. *Optimistic*: for any retained set `R`, if some
//!   member of `Cᵢ` is satisfied then `∩Cᵢ ⊆ R`, so the true objective
//!   is at most the objective of the **intersection sketch** (each
//!   cluster collapsed to its intersection, full cluster weight) at the
//!   same `R`; maximizing the intersection sketch with an *exact* inner
//!   solver therefore bounds OPT from above. The optimistic bound is
//!   taken only when [`SocAlgorithm::is_exact`] holds for the inner
//!   solver.
//!
//! With `clusters ≥ #queries` the clustering is the identity, union and
//! intersection representatives both degenerate to the queries
//! themselves, and the sketch solve *is* the exact (projected) solve —
//! the exactness anchor of `tests/sketch_diff.rs`.

use soc_data::{cluster_log, AttrSet, ClusterConfig, ClusterDistance, Query, QueryLog, Tuple};
use soc_obs::{counter, gauge, sketch};

use crate::{MfiSolver, SocAlgorithm, SocInstance, Solution};

/// Default cluster count for a log of `len` queries: `8·√len`, clamped
/// to `[16, 8192]` (and never above `len`). Grows slowly enough that
/// the sketch instance stays orders of magnitude smaller than the log
/// while giving the refine pass usefully tight clusters; on the topical
/// benchmark workload, doubling the multiplier from 4 to 8 recovered
/// most of the residual objective gap for pennies of extra solve time
/// (the sketch solve is mining-dominated, and mining cost grows far
/// slower than linearly in the cluster count).
pub fn default_clusters(len: usize) -> usize {
    let root = (len as f64).sqrt() as usize;
    (8 * root).clamp(16, 8192).min(len.max(1))
}

/// Refine-pass query budget for a `k`-cluster solve over a compact log
/// of `len` queries: `k`, at least 1024, never above `len`. Keeps the
/// refine instance no bigger than the sketch instance — the dominant
/// solver cost is the per-candidate support counting inside the MFI
/// attempt scan, which is linear in the instance's rows, so a refine
/// instance of sketch size keeps refine within a constant factor of the
/// sketch solve. Without a cap, the empty intersection representatives
/// that dominate at scale would mark nearly every cluster as touched
/// and the refine pass would re-solve the entire log. Small instances
/// sit entirely under the floor, so there the refine pass converges to
/// the full projected solve.
fn refine_cap(k: usize, len: usize) -> usize {
    k.max(1024).min(len)
}

/// A sketch-and-refine solve with its certified objective bracket.
#[derive(Clone, Debug)]
pub struct SketchOutcome {
    /// The best feasible solution found (refined, re-scored on the full
    /// instance).
    pub solution: Solution,
    /// `solution.satisfied` — a true lower bound on the exact optimum.
    pub lower: usize,
    /// Certified upper bound on the exact optimum (see module docs).
    pub upper: usize,
    /// Clusters actually formed (≤ requested; identity when the log is
    /// smaller than the request).
    pub clusters: usize,
    /// Queries of the compact log re-solved by the refine pass.
    pub refine_queries: usize,
}

impl SketchOutcome {
    /// The relative approximation gap certified by the bracket,
    /// `(upper − lower) / upper` — `0.0` when the bracket is tight or
    /// the instance is trivially empty.
    pub fn gap(&self) -> f64 {
        if self.upper == 0 {
            0.0
        } else {
            (self.upper - self.lower) as f64 / self.upper as f64
        }
    }
}

/// Sketch-and-refine wrapper around any inner solver.
///
/// The inner solver runs (unchanged) on the sketch, refine, and
/// optimistic-bound instances; an exact inner solver yields the
/// tightest brackets, a greedy inner yields the fastest sketches with
/// the structural upper bound only.
#[derive(Clone, Debug)]
pub struct SketchSolver<A> {
    /// Requested cluster count (effective count is capped at the
    /// compact log's length). Must be ≥ 1.
    pub clusters: usize,
    /// Clustering distance.
    pub distance: ClusterDistance,
    /// Clustering seed.
    pub seed: u64,
    /// Solver for the sketch/refine/bound instances.
    pub inner: A,
}

impl SketchSolver<MfiSolver> {
    /// A sketch solver with the paper's random-walk MFI solver inside —
    /// the configuration the CLI and serve layers expose. The walk's
    /// adaptive threshold makes it exact (in the walk budget, the
    /// paper's own guarantee); the provably-exact backtracking miner is
    /// deliberately *not* used here because refine instances carry raw
    /// short queries whose dense complements it cannot enumerate
    /// (EXPERIMENTS.md, "Miner comparison").
    pub fn new(clusters: usize) -> Self {
        Self {
            clusters,
            distance: ClusterDistance::default(),
            seed: ClusterConfig::default().seed,
            inner: MfiSolver::default(),
        }
    }
}

impl<A: SocAlgorithm> SketchSolver<A> {
    /// A sketch solver with a custom inner solver.
    pub fn with_inner(clusters: usize, inner: A) -> Self {
        Self {
            clusters,
            distance: ClusterDistance::default(),
            seed: ClusterConfig::default().seed,
            inner,
        }
    }

    /// Solves the instance and returns the full bracketed outcome.
    ///
    /// # Panics
    /// Panics if `clusters == 0`; the CLI and serve layers reject such
    /// requests with typed errors before reaching this point.
    pub fn solve_bracketed(&self, instance: &SocInstance<'_>) -> SketchOutcome {
        assert!(self.clusters > 0, "cluster count must be at least 1");
        counter!("sketch.solves").inc();
        let _span = soc_obs::span("sketch_solve");

        // Phase 1: project onto the tuple's universe.
        let reduced = instance.reduced();
        let rlog = reduced.log();
        let compact = reduced.instance();
        if rlog.is_empty() {
            // No query a compression could ever satisfy: the empty
            // retained set is optimal and the bracket is [0, 0].
            let retained = AttrSet::empty(instance.log.num_attrs());
            gauge!("sketch.gap_permille").set(0);
            return SketchOutcome {
                solution: instance.solution_with_known_objective(retained, 0),
                lower: 0,
                upper: 0,
                clusters: 0,
                refine_queries: 0,
            };
        }

        // Phase 2: cluster the compact log.
        let t0 = soc_obs::metrics_then_now();
        let clustering = {
            let _span = soc_obs::span("sketch_cluster");
            cluster_log(
                rlog,
                &ClusterConfig {
                    k: self.clusters,
                    distance: self.distance,
                    seed: self.seed,
                    // A union representative wider than the retention
                    // budget can never be satisfied by any feasible t′,
                    // so an uncapped wide cluster turns its whole weight
                    // into dead rows and drags the sketch lower bound
                    // toward 0. Capping at `effective_m` splits such
                    // clusters until every representative is at least
                    // potentially satisfiable.
                    union_width_cap: Some(compact.effective_m().max(1)),
                    ..ClusterConfig::default()
                },
            )
        };
        let k = clustering.num_clusters();
        if std::env::var_os("SOC_MFI_TRACE").is_some() {
            eprintln!("sketch trace: clustered rows={} k={}", rlog.len(), k);
        }
        gauge!("sketch.clusters").set(k as i64);
        if let Some(t0) = t0 {
            sketch!("sketch.cluster_us").record(soc_obs::clock::elapsed_us(t0));
        }

        // Phase 3: per-cluster envelopes — union and intersection of the
        // members' attribute sets, plus aggregate weight. One pass.
        let universe = rlog.num_attrs();
        let mut union_rep = vec![AttrSet::empty(universe); k];
        let mut inter_rep: Vec<Option<AttrSet>> = vec![None; k];
        let mut weight = vec![0usize; k];
        for (id, q) in rlog.iter() {
            let c = clustering.cluster_of(id);
            union_rep[c].union_with(q.attrs());
            inter_rep[c] = Some(match inter_rep[c].take() {
                None => q.attrs().clone(),
                Some(acc) => acc.intersection(q.attrs()),
            });
            weight[c] += rlog.weight(id);
        }
        let inter_rep: Vec<AttrSet> = inter_rep
            .into_iter()
            .map(|r| r.expect("k-centers clusters are non-empty"))
            .collect();

        // Phase 4: solve the (pessimistic, union-representative) sketch.
        let t0 = soc_obs::metrics_then_now();
        let sketch_log = QueryLog::new_weighted(
            std::sync::Arc::clone(rlog.schema()),
            union_rep.iter().cloned().map(Query::new).collect(),
            weight.clone(),
        );
        let sketch_inst = SocInstance::new(&sketch_log, compact.tuple, instance.m);
        if std::env::var_os("SOC_MFI_TRACE").is_some() {
            eprintln!(
                "sketch trace: sketch solve rows={} weight={}",
                sketch_log.len(),
                sketch_log.total_weight()
            );
        }
        // Presolve the sketch with the cumulative greedy heuristic: its
        // objective is a feasible lower bound on the sketch optimum, so
        // a hint-aware inner solver starts its threshold schedule near
        // the optimum instead of at half the sketch's weight — on dense
        // sketch instances that removes most mining rounds.
        let presolve = crate::ConsumeAttrCumul.solve(&sketch_inst).satisfied;
        let sketch_sol = self.inner.solve_with_hint(&sketch_inst, presolve);
        let sketch_true = rlog.satisfied_count(&Tuple::new(sketch_sol.retained.clone()));
        if let Some(t0) = t0 {
            sketch!("sketch.sketch_us").record(soc_obs::clock::elapsed_us(t0));
        }

        // Phase 5: refine under the `refine_cap` query budget. Clusters
        // the sketch solution *touched* — those whose intersection
        // representative the retained set satisfies — are admitted
        // first (heaviest first; they are where improvements near the
        // sketch solution live), then the remaining budget is filled
        // with the heaviest untouched clusters. On instances smaller
        // than the budget the refine pass therefore converges to the
        // full projected solve; past it, the cap keeps the instance
        // within a constant factor of the sketch. Dropping clusters
        // never endangers soundness — the refine result is only ever
        // used as a feasible lower bound.
        let t0 = soc_obs::metrics_then_now();
        let mut members = vec![0usize; k];
        for (id, _) in rlog.iter() {
            members[clustering.cluster_of(id)] += 1;
        }
        let touched: Vec<bool> = inter_rep
            .iter()
            .map(|r| r.is_subset(&sketch_sol.retained))
            .collect();
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by_key(|&c| (!touched[c], std::cmp::Reverse(weight[c]), c));
        let mut budget = refine_cap(k, rlog.len());
        let mut selected = vec![false; k];
        let mut dropped = 0usize;
        for &c in &order {
            if members[c] <= budget {
                selected[c] = true;
                budget -= members[c];
            } else {
                dropped += 1;
            }
        }
        gauge!("sketch.refine_dropped_clusters").set(dropped as i64);
        let mut refine_queries = Vec::new();
        let mut refine_weights = Vec::new();
        for (id, q) in rlog.iter() {
            if selected[clustering.cluster_of(id)] {
                refine_queries.push(q.clone());
                refine_weights.push(rlog.weight(id));
            }
        }
        let refine_len = refine_queries.len();
        gauge!("sketch.refine_queries").set(refine_len as i64);
        let (mut best_retained, mut best_val) = (sketch_sol.retained, sketch_true);
        if refine_len > 0 {
            let _span = soc_obs::span("sketch_refine");
            let refine_log = QueryLog::new_weighted(
                std::sync::Arc::clone(rlog.schema()),
                refine_queries,
                refine_weights,
            );
            let refine_inst = SocInstance::new(&refine_log, compact.tuple, instance.m);
            // Warm-start: the sketch solution is feasible on the refine
            // instance too, so its objective there lower-bounds the
            // refine optimum — the adaptive-threshold walk can skip its
            // expensive low-threshold rounds.
            let hint = refine_log.satisfied_count(&Tuple::new(best_retained.clone()));
            let refine_sol = self.inner.solve_with_hint(&refine_inst, hint);
            let refine_true = rlog.satisfied_count(&Tuple::new(refine_sol.retained.clone()));
            if refine_true > best_val {
                best_retained = refine_sol.retained;
                best_val = refine_true;
            }
        }
        if let Some(t0) = t0 {
            sketch!("sketch.refine_us").record(soc_obs::clock::elapsed_us(t0));
        }

        // Phase 6: the upper bound. Structural: only clusters whose
        // intersection fits the budget can contribute. Optimistic: the
        // exact optimum of the intersection sketch dominates OPT.
        let m_eff = compact.effective_m();
        let structural: usize = inter_rep
            .iter()
            .zip(&weight)
            .filter(|(r, _)| r.count() <= m_eff)
            .map(|(_, &w)| w)
            .sum();
        let mut upper = structural;
        if self.inner.is_exact() && k < rlog.len() {
            // With identity clustering the sketch solve already was
            // exact, so the optimistic solve would just repeat it.
            let inter_log = QueryLog::new_weighted(
                std::sync::Arc::clone(rlog.schema()),
                inter_rep.into_iter().map(Query::new).collect(),
                weight,
            );
            let inter_inst = SocInstance::new(&inter_log, compact.tuple, instance.m);
            // `best_val` lower-bounds the true optimum, which the
            // intersection sketch's optimum dominates — a valid
            // warm-start for the same halving shortcut as the refine
            // pass.
            let optimistic = self.inner.solve_with_hint(&inter_inst, best_val).satisfied;
            upper = upper.min(optimistic);
        }
        if self.inner.is_exact() && k >= rlog.len() {
            // Identity clustering + exact inner: the sketch solve is the
            // exact projected solve, so the bracket is tight.
            upper = upper.min(best_val);
        }
        // The bracket is mathematically guaranteed; the clamp only
        // defends against an inner solver that overclaims exactness.
        debug_assert!(upper >= best_val, "bound bracket inverted");
        let upper = upper.max(best_val);
        // A zero upper bound means a zero-width bracket: gap 0.
        let gap_permille = ((upper - best_val) * 1000).checked_div(upper).unwrap_or(0) as i64;
        gauge!("sketch.gap_permille").set(gap_permille);

        // Map back to the original universe; the compact objective
        // equals the original objective by projection equivalence.
        let retained = reduced.mapping().to_original(&best_retained);
        SketchOutcome {
            solution: instance.solution_with_known_objective(retained, best_val),
            lower: best_val,
            upper,
            clusters: k,
            refine_queries: refine_len,
        }
    }
}

impl<A: SocAlgorithm> SocAlgorithm for SketchSolver<A> {
    fn name(&self) -> &'static str {
        "SketchRefine"
    }

    fn is_exact(&self) -> bool {
        // Exact in the degenerate clusters ≥ #queries regime, but that
        // depends on the instance; conservatively heuristic.
        false
    }

    fn solve(&self, instance: &SocInstance<'_>) -> Solution {
        self.solve_bracketed(instance).solution
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BruteForce;

    fn fig1() -> (QueryLog, Tuple) {
        let log =
            QueryLog::from_bitstrings(&["110000", "100100", "010100", "000101", "001010"]).unwrap();
        let t = Tuple::from_bitstring("110111").unwrap();
        (log, t)
    }

    #[test]
    fn identity_clustering_is_exact_on_fig1() {
        let (log, t) = fig1();
        for m in 0..=5 {
            let inst = SocInstance::new(&log, &t, m);
            let exact = BruteForce.solve(&inst).satisfied;
            let out = SketchSolver::with_inner(log.len(), BruteForce).solve_bracketed(&inst);
            assert_eq!(out.lower, exact, "m = {m}");
            assert_eq!(out.upper, exact, "m = {m}");
            assert_eq!(out.solution.satisfied, exact, "m = {m}");
        }
    }

    #[test]
    fn coarse_sketch_brackets_the_optimum_on_fig1() {
        let (log, t) = fig1();
        for k in 1..=4 {
            for m in 1..=4 {
                let inst = SocInstance::new(&log, &t, m);
                let exact = BruteForce.solve(&inst).satisfied;
                let out = SketchSolver::with_inner(k, BruteForce).solve_bracketed(&inst);
                assert!(out.lower <= exact, "k {k} m {m}");
                assert!(out.upper >= exact, "k {k} m {m}");
                assert_eq!(out.solution.satisfied, out.lower);
                assert!(out.solution.retained.is_subset(t.attrs()));
                assert!(out.solution.retained.count() <= m);
            }
        }
    }

    #[test]
    fn empty_projection_short_circuits() {
        let log = QueryLog::from_bitstrings(&["1100", "0100"]).unwrap();
        let t = Tuple::from_bitstring("0011").unwrap();
        let inst = SocInstance::new(&log, &t, 2);
        let out = SketchSolver::new(4).solve_bracketed(&inst);
        assert_eq!(out.solution.satisfied, 0);
        assert_eq!((out.lower, out.upper), (0, 0));
        assert_eq!(out.clusters, 0);
        assert_eq!(out.gap(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_clusters_panics() {
        let (log, t) = fig1();
        let inst = SocInstance::new(&log, &t, 2);
        let _ = SketchSolver::with_inner(0, BruteForce).solve_bracketed(&inst);
    }

    #[test]
    fn default_clusters_scales_gently() {
        assert_eq!(default_clusters(0), 1);
        assert_eq!(default_clusters(10), 10); // capped at len
        assert_eq!(default_clusters(100), 80);
        assert_eq!(default_clusters(1_000_000), 8000);
        assert!(default_clusters(usize::MAX / 2) <= 8192);
    }
}
