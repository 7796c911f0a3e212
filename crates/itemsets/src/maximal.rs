//! Maximal-frequent-itemset mining by random walks.
//!
//! Two walk strategies are provided:
//!
//! - [`bottom_up_walk`] — the classic GKMS walk (Gunopulos et al., TODS
//!   2003; the paper's reference [11]): start from a random frequent
//!   singleton and add random items while the set stays frequent.
//! - [`top_down_walk`] — the paper's contribution (§IV.C): a two-phase
//!   walk that starts from the *top* of the lattice, removes random items
//!   until the set becomes frequent (*Down Phase*), then adds random items
//!   while frequent (*Up Phase*). On dense tables (such as a complemented
//!   query log) the maximal itemsets live near the top, so this walk
//!   traverses far fewer levels — each walk's [`WalkStats`] records the
//!   count so the ablation bench can demonstrate it.
//!
//! [`MfiMiner`] repeats a walk until every discovered maximal itemset has
//! been seen at least twice (the paper's Good-Turing-motivated stopping
//! heuristic) or an iteration cap is hit.

use std::collections::HashMap;

use soc_data::AttrSet;
use soc_obs::counter;
use soc_rng::StdRng;

use crate::{FrequentItemset, SupportCounter};

/// Per-walk trace statistics (level counts feed the walk-direction
/// ablation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalkStats {
    /// Lattice levels traversed during the down phase.
    pub down_steps: usize,
    /// Lattice levels traversed during the up phase.
    pub up_steps: usize,
    /// Support evaluations performed.
    pub support_calls: usize,
}

impl WalkStats {
    /// Total lattice levels traversed.
    pub fn total_steps(&self) -> usize {
        self.down_steps + self.up_steps
    }
}

/// True iff `itemset` is frequent and no superset is (checked by single
/// additions — sufficient by downward closure).
pub fn is_maximal<S: SupportCounter>(data: &S, itemset: &AttrSet, threshold: usize) -> bool {
    if data.support(itemset) < threshold {
        return false;
    }
    (0..data.universe())
        .filter(|&i| !itemset.contains(i))
        .all(|i| data.support(&itemset.with(i)) < threshold)
}

/// Up phase shared by both walks: greedily add random items while the set
/// stays frequent. Terminates at a maximal frequent itemset.
fn up_phase<S: SupportCounter>(
    data: &S,
    start: AttrSet,
    threshold: usize,
    rng: &mut StdRng,
    stats: &mut WalkStats,
) -> AttrSet {
    let m = data.universe();
    let mut current = start;
    let mut candidates: Vec<usize> = (0..m).filter(|&i| !current.contains(i)).collect();
    rng.shuffle(&mut candidates);
    // One shuffled pass suffices: if adding `i` keeps the set frequent we
    // take it; if not, no later superset can make `i` frequent again
    // (supports only shrink as the set grows).
    for i in candidates {
        let attempt = current.with(i);
        stats.support_calls += 1;
        if data.support(&attempt) >= threshold {
            current = attempt;
            stats.up_steps += 1;
        }
    }
    current
}

/// The GKMS bottom-up random walk. Returns `None` when `threshold`
/// exceeds the total support (nothing, not even the empty itemset, is
/// frequent). When no *singleton* is frequent the empty itemset is the
/// unique maximal frequent itemset and is returned.
pub fn bottom_up_walk<S: SupportCounter>(
    data: &S,
    threshold: usize,
    rng: &mut StdRng,
) -> (Option<AttrSet>, WalkStats) {
    let m = data.universe();
    let mut stats = WalkStats::default();
    if threshold > data.total_support() {
        return (None, stats);
    }
    let mut singletons: Vec<usize> = (0..m).collect();
    rng.shuffle(&mut singletons);
    let start = singletons.into_iter().find(|&i| {
        stats.support_calls += 1;
        data.support(&AttrSet::from_indices(m, [i])) >= threshold
    });
    let Some(first) = start else {
        return (Some(AttrSet::empty(m)), stats);
    };
    stats.up_steps += 1; // from ∅ to the singleton
    let mfi = up_phase(
        data,
        AttrSet::from_indices(m, [first]),
        threshold,
        rng,
        &mut stats,
    );
    (Some(mfi), stats)
}

/// The paper's two-phase top-down random walk (§IV.C, Fig 3).
///
/// Returns `None` when even the empty itemset is infrequent, i.e.
/// `threshold > total_support` (nothing can be frequent).
pub fn top_down_walk<S: SupportCounter>(
    data: &S,
    threshold: usize,
    rng: &mut StdRng,
) -> (Option<AttrSet>, WalkStats) {
    let m = data.universe();
    let mut stats = WalkStats::default();
    if threshold > data.total_support() {
        return (None, stats);
    }
    // Down phase: from the full itemset, remove random items until frequent.
    let mut current = AttrSet::full(m);
    stats.support_calls += 1;
    while data.support(&current) < threshold {
        let members = current.to_indices();
        debug_assert!(
            !members.is_empty(),
            "empty itemset has support = total_support >= threshold"
        );
        let victim = members[rng.random_range(0..members.len())];
        current.remove(victim);
        stats.down_steps += 1;
        stats.support_calls += 1;
    }
    // Up phase: climb back to a maximal frequent itemset.
    let mfi = up_phase(data, current, threshold, rng, &mut stats);
    (Some(mfi), stats)
}

/// Which walk the miner repeats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalkDirection {
    /// The paper's two-phase top-down walk.
    TopDown,
    /// The GKMS bottom-up walk (baseline).
    BottomUp,
}

/// Stopping rule for the repeated walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopRule {
    /// Stop once every discovered MFI has been seen at least twice — the
    /// paper's Good-Turing heuristic ("the number of itemsets seen exactly
    /// once estimates the undiscovered mass"; see [`crate::good_turing`]).
    SeenTwice,
    /// Run exactly this many walks (ablation baseline).
    FixedIterations(usize),
}

/// Configuration of the repeated random-walk miner.
#[derive(Clone, Debug)]
pub struct MfiConfig {
    /// Support threshold `r`.
    pub threshold: usize,
    /// Hard cap on walk iterations.
    pub max_iterations: usize,
    /// Floor on walk iterations before [`StopRule::SeenTwice`] may fire.
    /// Two lucky repeats of a single itemset would otherwise stop the
    /// miner instantly; a modest floor makes missing an itemset unlikely
    /// while keeping the adaptive character of the rule.
    pub min_iterations: usize,
    /// Walk strategy.
    pub direction: WalkDirection,
    /// Stopping rule.
    pub stop: StopRule,
}

impl Default for MfiConfig {
    fn default() -> Self {
        Self {
            threshold: 1,
            max_iterations: 10_000,
            min_iterations: 64,
            direction: WalkDirection::TopDown,
            stop: StopRule::SeenTwice,
        }
    }
}

/// Result of a repeated random-walk mining run.
#[derive(Clone, Debug)]
pub struct MfiResult {
    /// Discovered maximal frequent itemsets with supports.
    pub itemsets: Vec<FrequentItemset>,
    /// How many times each itemset (index-aligned) was rediscovered.
    pub times_discovered: Vec<usize>,
    /// Walks performed.
    pub iterations: usize,
    /// True if the stop rule was satisfied (false = hit `max_iterations`).
    pub converged: bool,
    /// Aggregate walk statistics.
    pub stats: WalkStats,
}

impl MfiResult {
    /// The Good-Turing estimate of undiscovered probability mass at the
    /// end of the run.
    pub fn unseen_mass_estimate(&self) -> f64 {
        crate::good_turing::unseen_mass(self.times_discovered.iter().copied(), self.iterations)
    }
}

/// Mirrors a finished run's counters into the process-wide registry.
/// `dedup_hits` = walks that rediscovered an already-seen itemset.
fn publish_run_metrics(result: &MfiResult) {
    if !soc_obs::metrics_enabled() {
        return;
    }
    counter!("mfi.walk_rounds").add(result.iterations as u64);
    counter!("mfi.support_calls").add(result.stats.support_calls as u64);
    counter!("mfi.dedup_hits").add(result.iterations.saturating_sub(result.itemsets.len()) as u64);
}

/// Repeats a random walk until the stop rule fires, collecting distinct
/// maximal frequent itemsets — `ComputeMaxFreqItemsets` of the paper's
/// Fig 5 pseudo-code.
pub struct MfiMiner {
    config: MfiConfig,
}

impl MfiMiner {
    /// Creates a miner with the given configuration.
    pub fn new(config: MfiConfig) -> Self {
        assert!(config.threshold > 0, "support threshold must be positive");
        assert!(config.max_iterations > 0, "need at least one iteration");
        Self { config }
    }

    /// Runs the repeated walk over `data`.
    pub fn mine<S: SupportCounter>(&self, data: &S, rng: &mut StdRng) -> MfiResult {
        let _span = soc_obs::span("mine_mfi");
        let cfg = &self.config;
        let mut seen: HashMap<AttrSet, (usize, usize)> = HashMap::new(); // set -> (support, count)
        let mut stats = WalkStats::default();
        let mut iterations = 0;
        let mut converged = false;

        while iterations < cfg.max_iterations {
            let should_stop = match cfg.stop {
                StopRule::SeenTwice => {
                    iterations >= cfg.min_iterations.max(1) && seen.values().all(|&(_, c)| c >= 2)
                }
                StopRule::FixedIterations(n) => iterations >= n,
            };
            if should_stop {
                converged = true;
                break;
            }

            let (found, wstats) = match cfg.direction {
                WalkDirection::TopDown => top_down_walk(data, cfg.threshold, rng),
                WalkDirection::BottomUp => bottom_up_walk(data, cfg.threshold, rng),
            };
            stats.down_steps += wstats.down_steps;
            stats.up_steps += wstats.up_steps;
            stats.support_calls += wstats.support_calls;
            iterations += 1;

            match found {
                Some(mfi) => {
                    let support = data.support(&mfi);
                    let entry = seen.entry(mfi).or_insert((support, 0));
                    entry.1 += 1;
                }
                None => {
                    // Nothing is frequent at this threshold; report empty.
                    converged = true;
                    break;
                }
            }
        }

        let mut itemsets = Vec::with_capacity(seen.len());
        let mut times = Vec::with_capacity(seen.len());
        let mut entries: Vec<(AttrSet, (usize, usize))> = seen.into_iter().collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0)); // deterministic output order
        for (items, (support, count)) in entries {
            itemsets.push(FrequentItemset { items, support });
            times.push(count);
        }
        let result = MfiResult {
            itemsets,
            times_discovered: times,
            iterations,
            converged,
            stats,
        };
        publish_run_metrics(&result);
        result
    }
}

/// Exhaustive MFI enumeration — test oracle for tiny universes.
///
/// # Panics
/// Panics if the universe exceeds 20 items or `threshold == 0`.
pub fn enumerate_maximal<S: SupportCounter>(data: &S, threshold: usize) -> Vec<FrequentItemset> {
    let frequent = crate::apriori::enumerate_frequent(data, threshold);
    let mut out: Vec<FrequentItemset> = frequent
        .iter()
        .filter(|f| is_maximal(data, &f.items, threshold))
        .cloned()
        .collect();
    // `enumerate_frequent` skips the empty itemset (Apriori convention);
    // it is nonetheless the unique MFI when no singleton is frequent.
    let empty = AttrSet::empty(data.universe());
    if out.is_empty() && is_maximal(data, &empty, threshold) {
        out.push(FrequentItemset {
            support: data.support(&empty),
            items: empty,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TransactionSet;

    fn sample() -> TransactionSet {
        TransactionSet::new(
            6,
            vec![
                AttrSet::from_indices(6, [0, 1, 2, 3]),
                AttrSet::from_indices(6, [0, 1, 2]),
                AttrSet::from_indices(6, [0, 1, 4]),
                AttrSet::from_indices(6, [2, 3, 4]),
                AttrSet::from_indices(6, [0, 1, 2, 3, 4]),
            ],
        )
    }

    fn canon(mut v: Vec<FrequentItemset>) -> Vec<String> {
        v.sort_by_key(|f| f.items.to_bitstring());
        v.into_iter().map(|f| f.items.to_bitstring()).collect()
    }

    #[test]
    fn walks_return_maximal_itemsets() {
        let t = sample();
        let mut rng = StdRng::seed_from_u64(42);
        for threshold in 1..=3 {
            for _ in 0..20 {
                let (td, _) = top_down_walk(&t, threshold, &mut rng);
                assert!(is_maximal(&t, &td.unwrap(), threshold));
                let (bu, _) = bottom_up_walk(&t, threshold, &mut rng);
                assert!(is_maximal(&t, &bu.unwrap(), threshold));
            }
        }
    }

    #[test]
    fn miner_discovers_all_mfis() {
        let t = sample();
        let mut rng = StdRng::seed_from_u64(7);
        for threshold in 1..=3 {
            let expected = canon(enumerate_maximal(&t, threshold));
            let miner = MfiMiner::new(MfiConfig {
                threshold,
                max_iterations: 2_000,
                min_iterations: 1,
                direction: WalkDirection::TopDown,
                stop: StopRule::FixedIterations(500),
            });
            let result = miner.mine(&t, &mut rng);
            assert_eq!(canon(result.itemsets), expected, "threshold {threshold}");
        }
    }

    #[test]
    fn seen_twice_stop_rule_converges() {
        let t = sample();
        let mut rng = StdRng::seed_from_u64(3);
        let miner = MfiMiner::new(MfiConfig {
            threshold: 2,
            max_iterations: 5_000,
            min_iterations: 1,
            direction: WalkDirection::TopDown,
            stop: StopRule::SeenTwice,
        });
        let result = miner.mine(&t, &mut rng);
        assert!(result.converged);
        assert!(result.times_discovered.iter().all(|&c| c >= 2));
        assert!((result.unseen_mass_estimate() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn bottom_up_agrees_with_top_down() {
        let t = sample();
        let mut rng = StdRng::seed_from_u64(11);
        let run = |dir| {
            let miner = MfiMiner::new(MfiConfig {
                threshold: 2,
                max_iterations: 2_000,
                min_iterations: 1,
                direction: dir,
                stop: StopRule::FixedIterations(400),
            });
            canon(miner.mine(&t, &mut StdRng::seed_from_u64(5)).itemsets)
        };
        let _ = &mut rng;
        assert_eq!(run(WalkDirection::TopDown), run(WalkDirection::BottomUp));
    }

    #[test]
    fn top_down_traverses_fewer_levels_on_dense_data() {
        // Dense table: complement of a sparse log, the paper's argument.
        // With a low threshold the maximal itemsets sit near the top of
        // the lattice, which is exactly the regime §IV.C argues about.
        let m = 30;
        let mut rows = Vec::new();
        for i in 0..20 {
            // Sparse rows of 2 items → dense complements of 28 items.
            rows.push(AttrSet::from_indices(m, [i % m, (i * 7 + 1) % m]).complement());
        }
        let t = TransactionSet::new(m, rows);
        let threshold = 2;
        let mut td_steps = 0;
        let mut bu_steps = 0;
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            let (r1, s1) = top_down_walk(&t, threshold, &mut rng);
            let (r2, s2) = bottom_up_walk(&t, threshold, &mut rng);
            assert!(r1.is_some() && r2.is_some());
            td_steps += s1.total_steps();
            bu_steps += s2.total_steps();
        }
        assert!(
            td_steps < bu_steps,
            "top-down {td_steps} should beat bottom-up {bu_steps} on dense data"
        );
    }

    #[test]
    fn impossible_threshold_reports_empty() {
        let t = sample();
        let mut rng = StdRng::seed_from_u64(1);
        let (r, _) = top_down_walk(&t, 100, &mut rng);
        assert!(r.is_none());
        let miner = MfiMiner::new(MfiConfig {
            threshold: 100,
            ..Default::default()
        });
        let result = miner.mine(&t, &mut rng);
        assert!(result.itemsets.is_empty());
        assert!(result.converged);
    }

    #[test]
    fn full_set_frequent_is_sole_mfi() {
        let t = TransactionSet::new(4, vec![AttrSet::full(4); 3]);
        let mut rng = StdRng::seed_from_u64(2);
        let (r, stats) = top_down_walk(&t, 2, &mut rng);
        assert_eq!(r.unwrap(), AttrSet::full(4));
        assert_eq!(stats.down_steps, 0);
    }
}
