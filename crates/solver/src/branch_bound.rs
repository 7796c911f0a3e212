//! LP-based branch-and-bound for 0/1 integer programs.
//!
//! Best-first search over binary fixings. Each node re-optimizes its LP
//! relaxation *warm* from its parent's basis snapshot (dual simplex, see
//! [`crate::simplex`]) instead of a cold two-phase solve, prunes against
//! the incumbent, and branches by pseudocost estimates. A cheap
//! combinatorial pre-bound (the box relaxation of the objective under
//! the child's bounds, maintained in O(1) per fixing) discards children
//! before any pivoting. After branching, the search *plunges*: it keeps
//! one child and solves it immediately on the same engine, so the warm
//! solve is a dive (shift the bounds in place, dual re-optimize) rather
//! than a basis refactorization; the sibling joins the best-first heap.
//! The search is sequential and deterministic: ties in the heap and in
//! branching break the same way on every run.
//!
//! This reproduces — and now accelerates — the behaviour the paper
//! observed with its off-the-shelf solver: "carefully designed branch
//! and bound algorithms can efficiently solve problems of moderate size"
//! (§VI), degrading for long query logs.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

use soc_obs::{counter, sketch};

use crate::model::{LpStatus, MipOptions, MipSolution, Model, Sense, SolveError, SolveStats};
use crate::simplex::{self, Engine, EngineLp, Snapshot};

struct Node {
    /// Fixed binaries: (var, lower, upper) with lower == upper.
    fixings: Vec<(usize, f64, f64)>,
    /// Optimistic estimate in max-space: min(parent LP bound, box bound).
    bound: f64,
    /// Box relaxation of the objective under this node's bounds
    /// (max-space); maintained incrementally from the parent.
    box_bound: f64,
    /// Nearest ancestor's optimal basis, for warm LP restarts.
    snapshot: Option<Arc<Snapshot>>,
    /// Variable fixed to create this node (`usize::MAX` at the root).
    branch_var: usize,
    /// Whether `branch_var` was fixed to 1.
    branch_up: bool,
    /// The parent's LP bound (max-space), for pseudocost updates.
    parent_lp: f64,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound.total_cmp(&other.bound) == Ordering::Equal
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // total_cmp: a NaN bound (numerically failed LP) orders *above*
        // +inf instead of scrambling the heap; `can_improve` then rejects
        // it at pop time, so the node is discarded rather than searched.
        self.bound.total_cmp(&other.bound)
    }
}

/// In max-space: can a node with optimistic `bound` still beat `incumbent`?
fn can_improve(bound: f64, incumbent: f64, opts: &MipOptions) -> bool {
    if opts.integral_objective {
        // The true optimum is integral: a bound of 6.9 cannot beat 6.
        (bound + 1e-6).floor() > incumbent + 1e-9
    } else {
        bound > incumbent + 1e-9
    }
}

/// Per-variable branching history: average LP-bound degradation observed
/// when fixing the variable up (to 1) or down (to 0). Uninitialized
/// directions fall back to the global average, then to fractionality.
struct Pseudocosts {
    sum: [Vec<f64>; 2],
    cnt: [Vec<u32>; 2],
}

impl Pseudocosts {
    fn new(n: usize) -> Self {
        Self {
            sum: [vec![0.0; n], vec![0.0; n]],
            cnt: [vec![0; n], vec![0; n]],
        }
    }

    fn record(&mut self, j: usize, up: bool, degradation: f64) {
        let d = usize::from(up);
        self.sum[d][j] += degradation.max(0.0);
        self.cnt[d][j] += 1;
    }

    fn estimate(&self, j: usize, up: bool, fallback: f64) -> f64 {
        let d = usize::from(up);
        if self.cnt[d][j] > 0 {
            self.sum[d][j] / self.cnt[d][j] as f64
        } else {
            fallback
        }
    }

    fn global_avg(&self, up: bool) -> f64 {
        let d = usize::from(up);
        let total: u32 = self.cnt[d].iter().sum();
        if total == 0 {
            1.0
        } else {
            self.sum[d].iter().sum::<f64>() / total as f64
        }
    }

    /// Product score (larger = branch here): each factor is the expected
    /// bound degradation of one child, floored so an uninformative
    /// direction cannot zero the product.
    fn score(&self, j: usize, frac: f64) -> f64 {
        let down = self.estimate(j, false, self.global_avg(false)) * frac;
        let up = self.estimate(j, true, self.global_avg(true)) * (1.0 - frac);
        down.max(1e-6) * up.max(1e-6)
    }
}

/// The search state, owned by the single search loop.
struct Search<'a> {
    model: &'a Model,
    opts: &'a MipOptions,
    int_vars: &'a [usize],
    /// Objective coefficients in max-space (`sign * c`).
    obj_max: &'a [f64],
    heap: BinaryHeap<Node>,
    /// Incumbent values; `None` until a feasible point is found.
    incumbent: Option<Vec<f64>>,
    /// Incumbent objective (max-space); NEG_INFINITY when no incumbent
    /// exists yet.
    best: f64,
    pseudo: Pseudocosts,
    /// Search counters, returned as the solution's stats.
    stats: SolveStats,
    deadline: Option<Instant>,
}

/// What the search loop does after processing one node.
enum Step {
    /// Solve this child next on the same engine (a plunge).
    Plunge(Node),
    /// Pop the best node from the heap.
    Pop,
    /// A node or time limit, or the gap target, was reached; the
    /// unprocessed node went back onto the heap.
    Stop,
}

impl Search<'_> {
    fn try_improve(&mut self, obj_max: f64, values: Vec<f64>) {
        if self.incumbent.is_none() || obj_max > self.best + 1e-9 {
            self.incumbent = Some(values);
            self.best = obj_max;
        }
    }

    /// The box relaxation contribution of variable `j` under its model
    /// bounds (max-space): the best the objective term can do on its own.
    fn relaxed_contrib(&self, j: usize) -> f64 {
        let c = self.obj_max[j];
        let v = &self.model.vars[j];
        if c > 0.0 {
            c * v.upper
        } else {
            c * v.lower
        }
    }

    /// Solves one node's LP: warm from the nearest ancestor snapshot when
    /// enabled, cold in the engine layout otherwise, standalone build as
    /// the last resort (node bounds the fixed layout cannot express).
    fn solve_node_lp(&mut self, engine: &mut Engine, node: &Node) -> Result<EngineLp, SolveError> {
        let fixings = (!node.fixings.is_empty()).then_some(node.fixings.as_slice());
        if self.opts.warm_lp {
            if let Some(snap) = &node.snapshot {
                if let Some(res) = engine.solve_warm(snap, fixings) {
                    self.stats.warm_solves += 1;
                    return res;
                }
                self.stats.warm_failures += 1;
            }
        }
        self.stats.cold_solves += 1;
        if let Some(res) = engine.solve_cold(fixings) {
            return res;
        }
        let lp = simplex::solve_model(self.model, fixings)?;
        Ok(EngineLp {
            status: lp.status,
            objective: lp.objective,
            values: lp.values,
            pivots: 0,
            dual_pivots: 0,
            snapshot: None,
        })
    }

    /// Processes one popped node: limit checks, LP solve, pseudocost
    /// update, incumbent handling, branching. Returns the child to
    /// *plunge* into — the loop solves it next on the same engine, so
    /// the child's parent snapshot matches the live tableau and the
    /// warm solve takes the O(bound-change) dive path instead of a full
    /// refactorization. The sibling goes to the heap as usual.
    fn process(&mut self, node: Node, engine: &mut Engine) -> Result<Step, SolveError> {
        let to_max = |obj: f64| match self.model.sense {
            Sense::Maximize => obj,
            Sense::Minimize => -obj,
        };
        if self.stats.nodes >= self.opts.max_nodes
            || self.deadline.is_some_and(|d| Instant::now() >= d)
        {
            // Keep the node in the heap so `proven_optimal` sees it.
            self.heap.push(node);
            return Ok(Step::Stop);
        }
        if !can_improve(node.bound, self.best, self.opts) {
            return Ok(Step::Pop);
        }
        if self.opts.rel_gap > 0.0
            && self.best.is_finite()
            && node.bound - self.best <= self.opts.rel_gap * self.best.abs().max(1.0)
        {
            self.heap.push(node);
            return Ok(Step::Stop);
        }
        self.stats.nodes += 1;

        let lp_start = soc_obs::metrics_then_now();
        let lp = self.solve_node_lp(engine, &node)?;
        if let Some(t0) = lp_start {
            let depth = node.fixings.len();
            let us = soc_obs::clock::elapsed_us(t0);
            sketch!("solver.lp_us").record(us);
            sketch!("solver.node_depth").record(depth as u64);
            // Depth-banded LP time: warm dives should make deep nodes
            // cheaper than the root band, and these sketches show it.
            let band = match depth {
                0 => sketch!("solver.lp_us.depth0"),
                1..=3 => sketch!("solver.lp_us.depth1_3"),
                4..=15 => sketch!("solver.lp_us.depth4_15"),
                _ => sketch!("solver.lp_us.depth16p"),
            };
            band.record(us);
        }
        self.stats.lp_pivots += lp.pivots;
        self.stats.dual_pivots += lp.dual_pivots;
        match lp.status {
            LpStatus::Infeasible => return Ok(Step::Pop),
            LpStatus::Unbounded => return Err(SolveError::Unbounded),
            LpStatus::Optimal => {}
        }
        let bound = to_max(lp.objective);
        if node.branch_var != usize::MAX && node.parent_lp.is_finite() {
            self.pseudo
                .record(node.branch_var, node.branch_up, node.parent_lp - bound);
        }
        if !can_improve(bound, self.best, self.opts) {
            return Ok(Step::Pop);
        }

        let fractional: Vec<(usize, f64)> = self
            .int_vars
            .iter()
            .copied()
            .map(|j| (j, lp.values[j]))
            .filter(|&(_, x)| (x - x.round()).abs() > self.opts.int_tol)
            .collect();

        if fractional.is_empty() {
            // Integral: candidate incumbent.
            let mut vals = lp.values;
            for &j in self.int_vars {
                vals[j] = vals[j].round();
            }
            if self.model.is_feasible(&vals, 1e-6) {
                let obj = to_max(self.model.objective_value(&vals));
                self.try_improve(obj, vals);
            }
            return Ok(Step::Pop);
        }

        // Rounding heuristic: try the nearest-integer point once per
        // node; cheap and often supplies an early incumbent.
        let mut rounded = lp.values.clone();
        for &j in self.int_vars {
            rounded[j] = rounded[j].round();
        }
        if self.model.is_feasible(&rounded, 1e-6) {
            let obj = to_max(self.model.objective_value(&rounded));
            self.try_improve(obj, rounded);
        }

        // Branch by pseudocost product score; ties break on the smallest
        // index, so the search is deterministic.
        let branch = fractional
            .iter()
            .map(|&(j, x)| (j, self.pseudo.score(j, (x - x.floor()).clamp(0.0, 1.0))))
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(j, _)| j)
            .expect("fractional set is nonempty");
        let child_snapshot = lp.snapshot.map(Arc::new).or_else(|| node.snapshot.clone());
        let mut plunge: Option<Node> = None;
        for (value, up) in [(0.0, false), (1.0, true)] {
            // O(1) box-bound maintenance: replace j's free-range term by
            // its fixed value.
            let child_box =
                node.box_bound - self.relaxed_contrib(branch) + self.obj_max[branch] * value;
            let child_bound = bound.min(child_box);
            if !can_improve(child_bound, self.best, self.opts) {
                self.stats.pre_bound_pruned += 1;
                continue;
            }
            let mut fixings = node.fixings.clone();
            fixings.push((branch, value, value));
            let child = Node {
                fixings,
                bound: child_bound,
                box_bound: child_box,
                snapshot: child_snapshot.clone(),
                branch_var: branch,
                branch_up: up,
                parent_lp: bound,
            };
            // Keep the higher-bound child for the plunge (ties prefer the
            // up-fixing, which tends straight to an incumbent); the
            // sibling joins the best-first heap.
            match &plunge {
                Some(kept) if kept.bound > child.bound => self.heap.push(child),
                _ => {
                    if let Some(displaced) = plunge.replace(child) {
                        self.heap.push(displaced);
                    }
                }
            }
        }
        Ok(plunge.map_or(Step::Pop, Step::Plunge))
    }

    /// Search loop: pop the best node, then plunge — chase each returned
    /// child on the same engine while one exists. The live tableau is
    /// the child's parent basis, so each plunge step is a dive (bound
    /// shift + dual re-optimize), not a refactorization. Ends when the
    /// heap is empty or a limit stops the search.
    fn run(&mut self) -> Result<(), SolveError> {
        let mut engine = Engine::new(self.model);
        while let Some(mut node) = self.heap.pop() {
            loop {
                match self.process(node, &mut engine)? {
                    Step::Plunge(child) => node = child,
                    Step::Pop => break,
                    Step::Stop => return Ok(()),
                }
            }
        }
        Ok(())
    }
}

pub(crate) fn solve(model: &Model, opts: &MipOptions) -> Result<MipSolution, SolveError> {
    let _span = soc_obs::span("solve_mip");
    // Defer-record so every return path (including errors) is measured:
    // tail quantiles of MIP solves are exactly where log₂ buckets were
    // too coarse.
    struct RecordOnDrop(Option<u64>);
    impl Drop for RecordOnDrop {
        fn drop(&mut self) {
            if let Some(t0) = self.0 {
                soc_obs::sketch!("solver.solve_us").record(soc_obs::clock::elapsed_us(t0));
            }
        }
    }
    let _record = RecordOnDrop(soc_obs::metrics_then_now());
    let to_max = |obj: f64| match model.sense {
        Sense::Maximize => obj,
        Sense::Minimize => -obj,
    };
    let from_max = to_max; // involution

    let int_vars: Vec<usize> = model
        .vars
        .iter()
        .enumerate()
        .filter(|(_, v)| v.integer)
        .map(|(j, _)| j)
        .collect();
    let sign = match model.sense {
        Sense::Maximize => 1.0,
        Sense::Minimize => -1.0,
    };
    let obj_max: Vec<f64> = model.objective.iter().map(|c| sign * c).collect();

    let mut search = Search {
        model,
        opts,
        int_vars: &int_vars,
        obj_max: &obj_max,
        heap: BinaryHeap::new(),
        incumbent: None,
        best: f64::NEG_INFINITY,
        pseudo: Pseudocosts::new(model.num_vars()),
        stats: SolveStats::default(),
        deadline: opts.time_limit.map(|d| Instant::now() + d),
    };

    // Warm start: accept a caller-provided feasible point as the first
    // incumbent so pruning bites from the root node.
    if let Some(start) = &opts.initial_solution {
        if model.is_feasible(start, 1e-6) {
            let mut vals = start.clone();
            for &j in &int_vars {
                vals[j] = vals[j].round();
            }
            let obj = to_max(model.objective_value(&vals));
            search.try_improve(obj, vals);
        }
    }

    // Root box bound: each variable contributes its best term in
    // isolation; children maintain this in O(1) per fixing.
    let root_box: f64 = (0..model.num_vars())
        .map(|j| search.relaxed_contrib(j))
        .sum();
    search.heap.push(Node {
        fixings: Vec::new(),
        bound: root_box,
        box_bound: root_box,
        snapshot: None,
        branch_var: usize::MAX,
        branch_up: false,
        parent_lp: f64::INFINITY,
    });

    search.run()?;

    // A limit stop pushes its unprocessed node back, so a non-empty heap
    // means the search was cut short.
    let stopped = !search.heap.is_empty();
    let best = search.best;
    let proven_optimal = !stopped
        || (search.incumbent.is_some()
            && search
                .heap
                .iter()
                .all(|n| !can_improve(n.bound, best, opts)));
    let stats = search.stats;
    // Mirror the per-solve stats into the process-wide registry so batch
    // runs accumulate totals without threading SolveStats around.
    if soc_obs::metrics_enabled() {
        counter!("solver.nodes").add(stats.nodes as u64);
        counter!("solver.lp_pivots").add(stats.lp_pivots as u64);
        counter!("solver.dual_pivots").add(stats.dual_pivots as u64);
        counter!("solver.warm_solves").add(stats.warm_solves as u64);
        counter!("solver.cold_solves").add(stats.cold_solves as u64);
        counter!("solver.warm_failures").add(stats.warm_failures as u64);
        counter!("solver.pre_bound_pruned").add(stats.pre_bound_pruned as u64);
    }

    match search.incumbent {
        Some(values) => Ok(MipSolution {
            objective: from_max(best),
            values,
            nodes: stats.nodes,
            proven_optimal,
            stats,
        }),
        None if stopped || stats.nodes >= opts.max_nodes => {
            Err(SolveError::NodeLimitWithoutIncumbent)
        }
        None => Err(SolveError::Infeasible),
    }
}

#[cfg(test)]
mod tests {
    use crate::model::{Cmp, LinExpr, MipOptions, Model, Sense};

    #[test]
    fn knapsack() {
        // max 10a + 13b + 7c, 3a + 4b + 2c <= 6, binary → a + c = 17? check:
        // a+b: w=7 no. a+c: w=5 v=17. b+c: w=6 v=20. → 20.
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary();
        let b = m.add_binary();
        let c = m.add_binary();
        m.set_objective(LinExpr::new().plus(10.0, a).plus(13.0, b).plus(7.0, c));
        m.add_constraint(
            LinExpr::new().plus(3.0, a).plus(4.0, b).plus(2.0, c),
            Cmp::Le,
            6.0,
        );
        let s = m.solve_mip(&MipOptions::default()).unwrap();
        assert!((s.objective - 20.0).abs() < 1e-6);
        assert!(s.proven_optimal);
        assert_eq!(s.values[1].round() as i64, 1);
        assert_eq!(s.values[2].round() as i64, 1);
    }

    #[test]
    fn minimization_mip() {
        // min a + b + c with a + b >= 1, b + c >= 1, a + c >= 1 → 2 (vertex cover of a triangle).
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_binary();
        let b = m.add_binary();
        let c = m.add_binary();
        m.set_objective(LinExpr::sum([a, b, c]));
        m.add_constraint(LinExpr::sum([a, b]), Cmp::Ge, 1.0);
        m.add_constraint(LinExpr::sum([b, c]), Cmp::Ge, 1.0);
        m.add_constraint(LinExpr::sum([a, c]), Cmp::Ge, 1.0);
        let s = m.solve_mip(&MipOptions::default()).unwrap();
        assert!((s.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_mip() {
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary();
        let b = m.add_binary();
        m.set_objective(LinExpr::sum([a, b]));
        m.add_constraint(LinExpr::sum([a, b]), Cmp::Ge, 3.0);
        assert!(m.solve_mip(&MipOptions::default()).is_err());
    }

    #[test]
    fn fixed_binaries_respected() {
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary_fixed(false);
        let b = m.add_binary();
        m.set_objective(LinExpr::new().plus(5.0, a).plus(1.0, b));
        let s = m.solve_mip(&MipOptions::default()).unwrap();
        assert!((s.objective - 1.0).abs() < 1e-6);
        assert_eq!(s.values[0].round() as i64, 0);
    }

    #[test]
    fn integral_objective_pruning_still_exact() {
        let opts = MipOptions {
            integral_objective: true,
            ..Default::default()
        };
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..8).map(|_| m.add_binary()).collect();
        m.set_objective(LinExpr::sum(vars.iter().copied()));
        m.add_constraint(LinExpr::sum(vars.iter().copied()), Cmp::Le, 5.0);
        let s = m.solve_mip(&opts).unwrap();
        assert!((s.objective - 5.0).abs() < 1e-6);
    }

    #[test]
    fn soc_shaped_model() {
        // The paper's formulation on Fig 1 (§IV.B): should satisfy 3 queries
        // with m = 3.
        // Attributes of t: {0,1,3,4,5} (no turbo). Queries:
        // q1={0,1}, q2={0,3}, q3={1,3}, q4={3,5}, q5={2,4}.
        let mut m = Model::new(Sense::Maximize);
        let x: Vec<_> = (0..6)
            .map(|j| {
                if j == 2 {
                    m.add_binary_fixed(false)
                } else {
                    m.add_binary()
                }
            })
            .collect();
        let queries: &[&[usize]] = &[&[0, 1], &[0, 3], &[1, 3], &[3, 5], &[2, 4]];
        let mut obj = LinExpr::new();
        let mut ys = Vec::new();
        for q in queries {
            let y = m.add_binary();
            obj = obj.plus(1.0, y);
            for &j in *q {
                m.add_constraint(LinExpr::new().plus(1.0, y).plus(-1.0, x[j]), Cmp::Le, 0.0);
            }
            ys.push(y);
        }
        m.set_objective(obj);
        m.add_constraint(LinExpr::sum(x.iter().copied()), Cmp::Le, 3.0);
        let s = m
            .solve_mip(&MipOptions {
                integral_objective: true,
                ..Default::default()
            })
            .unwrap();
        assert!(
            (s.objective - 3.0).abs() < 1e-6,
            "objective {}",
            s.objective
        );
        // Retained attributes must be {0,1,3}.
        let retained: Vec<usize> = (0..6).filter(|&j| s.values[j] > 0.5).collect();
        assert_eq!(retained, vec![0, 1, 3]);
    }

    #[test]
    fn cold_and_warm_agree_and_report_stats() {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..10).map(|_| m.add_binary()).collect();
        m.set_objective(LinExpr::from_terms(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (1.0 + (i % 4) as f64, v)),
        ));
        m.add_constraint(
            LinExpr::from_terms(
                vars.iter()
                    .enumerate()
                    .map(|(i, &v)| (1.0 + (i % 3) as f64, v)),
            ),
            Cmp::Le,
            9.0,
        );
        m.add_constraint(LinExpr::sum(vars.iter().copied()), Cmp::Le, 6.0);
        let warm = m
            .solve_mip_no_presolve(&MipOptions::default())
            .expect("warm solve");
        let cold = m
            .solve_mip_no_presolve(&MipOptions {
                warm_lp: false,
                ..Default::default()
            })
            .expect("cold solve");
        assert!((warm.objective - cold.objective).abs() < 1e-6);
        assert!(warm.proven_optimal && cold.proven_optimal);
        assert_eq!(cold.stats.warm_solves, 0);
        if warm.stats.nodes > 1 {
            assert!(warm.stats.warm_solves > 0, "stats: {:?}", warm.stats);
        }
        assert!(warm.stats.lp_pivots > 0);
    }

    #[test]
    fn node_limit_yields_incumbent_without_proof() {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..12).map(|_| m.add_binary()).collect();
        m.set_objective(LinExpr::from_terms(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (3.0 + (i % 5) as f64, v)),
        ));
        m.add_constraint(
            LinExpr::from_terms(
                vars.iter()
                    .enumerate()
                    .map(|(i, &v)| (2.0 + (i % 4) as f64, v)),
            ),
            Cmp::Le,
            11.0,
        );
        let opts = MipOptions {
            max_nodes: 2,
            initial_solution: Some(vec![0.0; 12]),
            ..Default::default()
        };
        let s = m.solve_mip_no_presolve(&opts).expect("incumbent exists");
        assert!(!s.proven_optimal);
        assert!(s.nodes <= 2);
    }

    #[test]
    fn time_limit_is_honoured() {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..16).map(|_| m.add_binary()).collect();
        m.set_objective(LinExpr::sum(vars.iter().copied()));
        m.add_constraint(LinExpr::sum(vars.iter().copied()), Cmp::Le, 9.0);
        let opts = MipOptions {
            time_limit: Some(std::time::Duration::ZERO),
            initial_solution: Some(vec![0.0; 16]),
            ..Default::default()
        };
        let s = m.solve_mip_no_presolve(&opts).expect("incumbent exists");
        assert_eq!(s.stats.nodes, 0);
        assert!(!s.proven_optimal);
    }
}
