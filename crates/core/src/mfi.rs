//! `MaxFreqItemSets-SOC-CB-QL` (§IV.C): the scalable exact algorithm.
//!
//! Pipeline (Fig 5 of the paper):
//!
//! 1. View the complemented log `~Q` as a virtual transaction table
//!    ([`soc_itemsets::ComplementedLog`] — never materialized).
//! 2. Mine its maximal frequent itemsets at threshold `r` with the
//!    two-phase top-down random walk, stopping when every itemset has
//!    been rediscovered (Good–Turing heuristic).
//! 3. Among all itemsets `I` with `|I| = M − m`, `I ⊇ ~t`, and `I` a
//!    subset of some mined maximal itemset, pick the one with the highest
//!    frequency; the answer is `t' = ~I`.
//! 4. If no such `I` exists the optimum satisfies fewer than `r` queries:
//!    the adaptive threshold strategy halves `r` and retries (guaranteed
//!    optimal once `r = 1`), while fixed strategies report failure.
//!
//! Mining is tuple-independent, so step 2 can be *preprocessed* once per
//! query log and reused across new tuples ([`MfiPreprocessed`]) — the
//! paper's "0.015 seconds for any m value" observation in Fig 6.

use std::collections::{BTreeMap, HashSet};

use soc_data::{AttrSet, Combinations, QueryLog};
use soc_itemsets::{
    backtracking_mfi, BacktrackLimits, ComplementedLog, FrequentItemset, MfiConfig, MfiMiner,
    StopRule, ThresholdStrategy, WalkDirection,
};
use soc_obs::{counter, sketch};
use soc_rng::StdRng;

use crate::{SocAlgorithm, SocInstance, Solution};

/// Which maximal-frequent-itemset miner the solver runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MinerKind {
    /// The paper's repeated two-phase random walk (§IV.C): fast, complete
    /// with high probability in the walk budget.
    RandomWalk,
    /// Deterministic GenMax-style backtracking enumeration: provably
    /// complete, usually slower on dense complements.
    Backtracking,
}

/// The maximal-frequent-itemset-based exact algorithm.
#[derive(Clone, Debug)]
pub struct MfiSolver {
    /// How the support threshold is chosen / revised. The default
    /// (adaptive halving) guarantees an optimal answer.
    pub threshold: ThresholdStrategy,
    /// Mining engine (random walk by default, per the paper).
    pub miner: MinerKind,
    /// Walk strategy; the paper's top-down two-phase walk by default.
    pub direction: WalkDirection,
    /// Walk stopping rule.
    pub stop: StopRule,
    /// Hard cap on walks per mining run.
    pub max_iterations: usize,
    /// Floor on walks before the seen-twice rule may stop the miner.
    pub min_iterations: usize,
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
    /// Cap on candidate compressions scored per threshold attempt. The
    /// attempt scan enumerates every level-`(M − m)` subset of each
    /// qualifying maximal itemset — `C(width, M − m)` candidates, which
    /// explodes combinatorially when a mined itemset is much wider than
    /// the target level (dense complement logs with a large `M − m`).
    /// Itemsets are scanned in decreasing support order; one whose
    /// subset count would overrun the remaining budget is scored by a
    /// deterministic greedy peel (`≈ target × width` support calls)
    /// instead of full enumeration. Instances whose total candidate
    /// count fits the budget — everything the differential suites and
    /// the paper's own workloads produce — are unaffected.
    pub attempt_budget: usize,
}

impl Default for MfiSolver {
    fn default() -> Self {
        Self {
            threshold: ThresholdStrategy::AdaptiveHalving { initial: None },
            miner: MinerKind::RandomWalk,
            direction: WalkDirection::TopDown,
            stop: StopRule::SeenTwice,
            max_iterations: 5_000,
            min_iterations: 64,
            seed: 0x5eed_50c0,
            attempt_budget: 1 << 18,
        }
    }
}

impl MfiSolver {
    /// A solver configured for provable exactness: deterministic
    /// backtracking enumeration plus the adaptive threshold.
    pub fn deterministic() -> Self {
        Self {
            miner: MinerKind::Backtracking,
            ..Default::default()
        }
    }
}

/// Maximal frequent itemsets of `~Q` mined per threshold, reusable across
/// tuples (the preprocessing opportunity of §IV.C).
#[derive(Clone, Debug, Default)]
pub struct MfiPreprocessed {
    by_threshold: BTreeMap<usize, Vec<FrequentItemset>>,
}

impl MfiPreprocessed {
    /// Mined thresholds currently cached.
    pub fn thresholds(&self) -> impl Iterator<Item = usize> + '_ {
        self.by_threshold.keys().copied()
    }

    /// The mined maximal itemsets for a threshold, if cached.
    pub fn get(&self, threshold: usize) -> Option<&[FrequentItemset]> {
        self.by_threshold.get(&threshold).map(Vec::as_slice)
    }
}

impl MfiSolver {
    /// Mines the maximal frequent itemsets of `~Q` at `threshold`.
    pub fn mine(&self, log: &QueryLog, threshold: usize) -> Vec<FrequentItemset> {
        let oracle = ComplementedLog::new(log);
        match self.miner {
            MinerKind::RandomWalk => {
                let miner = MfiMiner::new(MfiConfig {
                    threshold,
                    max_iterations: self.max_iterations,
                    min_iterations: self.min_iterations,
                    direction: self.direction,
                    stop: self.stop,
                });
                let mut rng = StdRng::seed_from_u64(self.seed ^ threshold as u64);
                miner.mine(&oracle, &mut rng).itemsets
            }
            MinerKind::Backtracking => {
                backtracking_mfi(&oracle, threshold, &BacktrackLimits::default())
                    .itemsets()
                    .to_vec()
            }
        }
    }

    /// Ensures the preprocessing cache holds the itemsets for `threshold`.
    pub fn preprocess(&self, pre: &mut MfiPreprocessed, log: &QueryLog, threshold: usize) {
        pre.by_threshold
            .entry(threshold)
            .or_insert_with(|| self.mine(log, threshold));
    }

    /// One attempt at a given threshold: scan the mined maximal itemsets
    /// for the best level-`M − m` superset of `~t`. Returns `None` when
    /// no qualifying itemset exists (optimum < threshold).
    fn attempt(&self, instance: &SocInstance<'_>, mfis: &[FrequentItemset]) -> Option<Solution> {
        let m_attrs = instance.log.num_attrs();
        let t = instance.tuple.attrs();
        let not_t = t.complement();
        let target = m_attrs - instance.effective_m();
        // k = attributes of t that must be *dropped*.
        let k = target - not_t.count();

        // Highest-support itemsets first: their level-`target` subsets
        // inherit at least that support, so when the candidate budget
        // truncates the scan it truncates the least promising tail.
        let mut order: Vec<usize> = (0..mfis.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(mfis[i].support));

        let mut budget = self.attempt_budget.max(1);
        let mut best: Option<(AttrSet, usize)> = None;
        let mut seen: HashSet<AttrSet> = HashSet::new();
        for &mi in &order {
            let mfi = &mfis[mi];
            if mfi.items.count() < target || !not_t.is_subset(&mfi.items) {
                continue;
            }
            // Candidate drops come from J ∩ t.
            let pool = mfi.items.intersection(t).to_indices();
            debug_assert!(pool.len() >= k);
            if choose_at_most(pool.len(), k, budget) < budget {
                for combo in Combinations::new(pool.len(), k) {
                    let mut itemset = not_t.clone();
                    for &ci in &combo {
                        itemset.insert(pool[ci]);
                    }
                    if !seen.insert(itemset.clone()) {
                        continue;
                    }
                    budget = budget.saturating_sub(1);
                    let freq = instance.log.complement_support(&itemset);
                    if best.as_ref().is_none_or(|&(_, bf)| freq > bf) {
                        best = Some((itemset, freq));
                    }
                }
            } else {
                // Too wide to enumerate: peel greedily instead. Insert
                // the least-damaging drop from the pool `k` times —
                // every intermediate stays a subset of the (frequent)
                // mined itemset, so the final candidate is valid at this
                // threshold; it just carries no optimality claim.
                let mut dropped = not_t.clone();
                let mut remaining = pool;
                let mut support = 0;
                for _ in 0..k {
                    let mut pick: Option<(usize, usize)> = None;
                    for (pos, &cand) in remaining.iter().enumerate() {
                        let mut probe = dropped.clone();
                        probe.insert(cand);
                        budget = budget.saturating_sub(1);
                        let s = instance.log.complement_support(&probe);
                        if pick.is_none_or(|(_, ps)| s > ps) {
                            pick = Some((pos, s));
                        }
                    }
                    let (pos, s) = pick.expect("pool has at least k candidates");
                    dropped.insert(remaining.swap_remove(pos));
                    support = s;
                }
                if k == 0 {
                    // Degenerate pool: the only candidate is `~t` itself.
                    support = instance.log.complement_support(&dropped);
                }
                if seen.insert(dropped.clone()) && best.as_ref().is_none_or(|&(_, bf)| support > bf)
                {
                    best = Some((dropped, support));
                }
            }
            if budget == 0 {
                break;
            }
        }
        best.map(|(itemset, freq)| {
            instance.solution_with_known_objective(itemset.complement(), freq)
        })
    }

    /// Solves using (and extending) a preprocessing cache.
    pub fn solve_preprocessed(
        &self,
        pre: &mut MfiPreprocessed,
        instance: &SocInstance<'_>,
    ) -> Solution {
        let mut r = self.threshold.initial(instance.log.total_weight().max(1));
        loop {
            counter!("mfi.threshold_rounds").inc();
            let t0 = soc_obs::metrics_then_now();
            self.preprocess(pre, instance.log, r);
            if let Some(t0) = t0 {
                sketch!("mfi.mine_us").record(soc_obs::clock::elapsed_us(t0));
            }
            let mfis = pre.get(r).expect("just mined");
            let t0 = soc_obs::metrics_then_now();
            let attempted = self.attempt(instance, mfis);
            if std::env::var_os("SOC_MFI_TRACE").is_some() {
                eprintln!(
                    "mfi trace: rows={} r={} mfis={} hit={}",
                    instance.log.len(),
                    r,
                    mfis.len(),
                    attempted.is_some()
                );
            }
            if let Some(t0) = t0 {
                sketch!("mfi.attempt_us").record(soc_obs::clock::elapsed_us(t0));
            }
            if let Some(sol) = attempted {
                return sol;
            }
            match self.threshold.next(r) {
                Some(next) => r = next,
                // Optimum satisfies fewer queries than the final
                // threshold. For exhaustive strategies (r reached 1) that
                // means the optimum is 0 — any compression is optimal.
                // For fixed strategies this is the documented "algorithm
                // returns empty" outcome; we still return a valid
                // (possibly suboptimal) compression.
                None => return fallback_solution(instance),
            }
        }
    }
}

/// `min(C(n, k), cap)` without overflow: the partial products saturate
/// at `cap`, so the comparison against an attempt budget stays exact
/// even where the true binomial overflows `usize`.
fn choose_at_most(n: usize, k: usize, cap: usize) -> usize {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc * (n - i) as u128 / (i + 1) as u128;
        if acc >= cap as u128 {
            return cap;
        }
    }
    acc as usize
}

/// The budget-respecting compression returned when no frequent itemset
/// qualifies: retain the first `m` attributes of the tuple. Used when the
/// optimum is provably 0 (exhaustive strategies) or the fixed threshold
/// came back empty.
fn fallback_solution(instance: &SocInstance<'_>) -> Solution {
    let fallback: Vec<usize> = instance
        .tuple
        .attrs()
        .iter()
        .take(instance.effective_m())
        .collect();
    let retained = AttrSet::from_indices(instance.log.num_attrs(), fallback);
    instance.solution(retained)
}

/// A thread-safe wrapper sharing one preprocessing cache across many
/// solves — the deployment shape of the paper's preprocessing remark
/// (mine the log once, answer per-tuple requests cheaply). Implements
/// [`SocAlgorithm`], so it drops into batch drivers and benches.
pub struct SharedMfi {
    solver: MfiSolver,
    cache: std::sync::RwLock<MfiPreprocessed>,
}

impl SharedMfi {
    /// Wraps a solver with an empty shared cache.
    pub fn new(solver: MfiSolver) -> Self {
        Self {
            solver,
            cache: std::sync::RwLock::new(MfiPreprocessed::default()),
        }
    }

    /// Pre-mines the cache for the thresholds the adaptive strategy will
    /// visit first (call before spawning workers to avoid a thundering
    /// herd on the first solve).
    ///
    /// Mining happens *outside* the write lock — the lock is taken only
    /// to install the finished result, so concurrent readers (cached
    /// solves on other threads) never stall behind a mining run.
    pub fn prime(&self, log: &QueryLog) {
        let r = self.solver.threshold.initial(log.total_weight().max(1));
        let cached = self
            .cache
            .read()
            .expect("cache lock poisoned")
            .get(r)
            .is_some();
        if cached {
            return;
        }
        let mined = self.solver.mine(log, r);
        let mut cache = self.cache.write().expect("cache lock poisoned");
        cache.by_threshold.entry(r).or_insert(mined);
    }

    /// Number of thresholds currently cached.
    pub fn cached_thresholds(&self) -> usize {
        self.cache
            .read()
            .expect("cache lock poisoned")
            .thresholds()
            .count()
    }
}

impl SocAlgorithm for SharedMfi {
    fn name(&self) -> &'static str {
        "MaxFreqItemSets(shared)"
    }

    fn is_exact(&self) -> bool {
        self.solver.is_exact()
    }

    fn solve(&self, instance: &SocInstance<'_>) -> Solution {
        let mut r = self
            .solver
            .threshold
            .initial(instance.log.total_weight().max(1));
        loop {
            // Fast path: solve against the read-locked cache.
            let hit = {
                let cache = self.cache.read().expect("cache lock poisoned");
                cache.get(r).map(|mfis| self.solver.attempt(instance, mfis))
            };
            match hit {
                Some(Some(sol)) => return sol,
                Some(None) => match self.solver.threshold.next(r) {
                    Some(next) => r = next,
                    None => return fallback_solution(instance),
                },
                None => {
                    // Miss: mine outside the read lock, then install.
                    let mined = self.solver.mine(instance.log, r);
                    let mut cache = self.cache.write().expect("cache lock poisoned");
                    cache.by_threshold.entry(r).or_insert(mined);
                }
            }
        }
    }
}

impl SocAlgorithm for MfiSolver {
    fn name(&self) -> &'static str {
        match self.miner {
            MinerKind::RandomWalk => "MaxFreqItemSets",
            MinerKind::Backtracking => "MaxFreqItemSets(det)",
        }
    }

    fn is_exact(&self) -> bool {
        // Exact whenever the threshold strategy is exhaustive and the walk
        // budget suffices to discover all maximal itemsets (the paper's
        // high-probability guarantee).
        self.threshold.exhaustive()
    }

    fn solve(&self, instance: &SocInstance<'_>) -> Solution {
        let mut pre = MfiPreprocessed::default();
        self.solve_preprocessed(&mut pre, instance)
    }

    /// Warm-started solve: when the default halving schedule is active,
    /// start it at `hint` (a known lower bound on the optimum) instead of
    /// half the log's total weight. A tight hint skips the descent
    /// through thresholds far above the optimum and, more importantly,
    /// never lands far *below* it — mining at a threshold well under the
    /// optimum returns a much larger maximal-itemset crop whose
    /// candidate scan dominates solve time. Halving from the hint still
    /// descends to 1 on failure, so the exactness guarantee of the
    /// adaptive strategy is unchanged.
    fn solve_with_hint(&self, instance: &SocInstance<'_>, hint: usize) -> Solution {
        match self.threshold {
            ThresholdStrategy::AdaptiveHalving { initial: None } if hint > 0 => {
                let warm = MfiSolver {
                    threshold: ThresholdStrategy::AdaptiveHalving {
                        initial: Some(hint),
                    },
                    ..self.clone()
                };
                warm.solve(instance)
            }
            _ => self.solve(instance),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BruteForce;
    use soc_data::Tuple;

    fn fig1() -> (QueryLog, Tuple) {
        let log =
            QueryLog::from_bitstrings(&["110000", "100100", "010100", "000101", "001010"]).unwrap();
        let t = Tuple::from_bitstring("110111").unwrap();
        (log, t)
    }

    #[test]
    fn solves_fig1() {
        let (log, t) = fig1();
        let sol = MfiSolver::default().solve(&SocInstance::new(&log, &t, 3));
        assert_eq!(sol.satisfied, 3);
        assert_eq!(sol.retained.to_indices(), vec![0, 1, 3]);
    }

    #[test]
    fn matches_brute_force_across_m() {
        let (log, t) = fig1();
        for m in 0..=6 {
            let inst = SocInstance::new(&log, &t, m);
            let got = MfiSolver::default().solve(&inst);
            let want = BruteForce.solve(&inst);
            assert_eq!(got.satisfied, want.satisfied, "m = {m}");
        }
    }

    #[test]
    fn exact_threshold_strategy() {
        let (log, t) = fig1();
        let solver = MfiSolver {
            threshold: ThresholdStrategy::Exact,
            ..Default::default()
        };
        for m in 1..=5 {
            let inst = SocInstance::new(&log, &t, m);
            assert_eq!(
                solver.solve(&inst).satisfied,
                BruteForce.solve(&inst).satisfied,
                "m = {m}"
            );
        }
    }

    #[test]
    fn fixed_threshold_may_fall_back() {
        let (log, t) = fig1();
        // Threshold 4: no 3-attribute compression satisfies 4 of the 5
        // queries, so the fixed strategy falls back to a valid answer.
        let solver = MfiSolver {
            threshold: ThresholdStrategy::Fixed(4),
            ..Default::default()
        };
        let sol = solver.solve(&SocInstance::new(&log, &t, 3));
        assert!(sol.retained.count() <= 3);
        assert!(sol.retained.is_subset(t.attrs()));
        assert!(!solver.is_exact());
    }

    #[test]
    fn preprocessing_is_reused() {
        let (log, t) = fig1();
        let solver = MfiSolver::default();
        let mut pre = MfiPreprocessed::default();
        let inst = SocInstance::new(&log, &t, 3);
        let a = solver.solve_preprocessed(&mut pre, &inst);
        let cached: Vec<usize> = pre.thresholds().collect();
        assert!(!cached.is_empty());
        // Second tuple reuses the cache (no panic, same log).
        let t2 = Tuple::from_bitstring("010101").unwrap();
        let inst2 = SocInstance::new(&log, &t2, 2);
        let b = solver.solve_preprocessed(&mut pre, &inst2);
        assert_eq!(a.satisfied, 3);
        assert_eq!(b.satisfied, BruteForce.solve(&inst2).satisfied);
    }

    #[test]
    fn tuple_smaller_than_budget() {
        let (log, _) = fig1();
        let t = Tuple::from_bitstring("010100").unwrap(); // 2 ones
        let inst = SocInstance::new(&log, &t, 4);
        let sol = MfiSolver::default().solve(&inst);
        assert_eq!(sol.satisfied, BruteForce.solve(&inst).satisfied);
        assert_eq!(sol.retained.count(), 2); // keeps the whole tuple
    }

    #[test]
    fn zero_optimum_falls_back_gracefully() {
        // No query is a subset of t: optimum is 0.
        let log = QueryLog::from_bitstrings(&["0011", "0010"]).unwrap();
        let t = Tuple::from_bitstring("1100").unwrap();
        let inst = SocInstance::new(&log, &t, 1);
        let sol = MfiSolver::default().solve(&inst);
        assert_eq!(sol.satisfied, 0);
        assert!(sol.retained.count() <= 1);
    }
}

#[cfg(test)]
mod prime_contention_tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    /// Regression test for the `prime` cache-miss path: mining must run
    /// outside the write lock, so readers observe only brief lock holds
    /// while a miss is being mined on another thread.
    #[test]
    fn readers_do_not_stall_behind_prime() {
        // A workload whose mining run takes long enough to measure: many
        // rows over a wide universe, so each walk pays real support work.
        let mut rng = StdRng::seed_from_u64(0xC0_11EC);
        let m_attrs = 26;
        let mut sets = Vec::new();
        for _ in 0..3000 {
            let len = rng.random_range(2..=4usize);
            let mut attrs = AttrSet::empty(m_attrs);
            while attrs.count() < len {
                attrs.insert(rng.random_range(0..m_attrs));
            }
            sets.push(attrs);
        }
        let log = QueryLog::from_attr_sets(m_attrs, sets);
        let solver = MfiSolver::default();
        let r = solver.threshold.initial(log.len());

        // Calibrate: how long does one mining run take here? Too fast and
        // the test cannot discriminate a stall — skip rather than flake.
        let start = Instant::now();
        let _ = solver.mine(&log, r);
        let mining_time = start.elapsed();
        if mining_time < Duration::from_millis(50) {
            eprintln!("mining too fast to measure contention ({mining_time:?}); skipping");
            return;
        }

        let shared = SharedMfi::new(solver);
        let done = AtomicBool::new(false);
        let max_read_wait = std::thread::scope(|scope| {
            scope.spawn(|| {
                shared.prime(&log);
                done.store(true, Ordering::Release);
            });
            let mut worst = Duration::ZERO;
            while !done.load(Ordering::Acquire) {
                let begin = Instant::now();
                let _ = shared.cached_thresholds(); // takes the read lock
                worst = worst.max(begin.elapsed());
                std::thread::yield_now();
            }
            worst
        });
        assert!(
            max_read_wait < mining_time / 2,
            "a reader stalled {max_read_wait:?} behind a {mining_time:?} mining run — \
             prime is mining inside the write lock again"
        );
    }
}

#[cfg(test)]
mod backtracking_tests {
    use super::*;
    use crate::{BruteForce, SocAlgorithm};
    use soc_data::Tuple;

    #[test]
    fn deterministic_solver_matches_brute_force() {
        let log = QueryLog::from_bitstrings(&[
            "110000", "100100", "010100", "000101", "001010", "110100", "000110",
        ])
        .unwrap();
        let solver = MfiSolver::deterministic();
        assert!(solver.is_exact());
        for bits in ["110111", "111111", "010101"] {
            let t = Tuple::from_bitstring(bits).unwrap();
            for m in 0..=6 {
                let inst = SocInstance::new(&log, &t, m);
                assert_eq!(
                    solver.solve(&inst).satisfied,
                    BruteForce.solve(&inst).satisfied,
                    "t = {bits}, m = {m}"
                );
            }
        }
    }
}
