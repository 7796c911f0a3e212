//! Model-builder API for linear and 0/1 integer programs.
//!
//! The paper's ILP formulation (§IV.B) is built against this API; the
//! solver layers ([`crate::simplex`], [`crate::branch_bound`]) consume the
//! canonical form it produces.

use std::fmt;

/// Identifies a decision variable within a [`Model`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// The variable's position in the model.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Optimization direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sense {
    /// Maximize the objective.
    Maximize,
    /// Minimize the objective.
    Minimize,
}

/// Constraint comparison operator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cmp {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

/// A linear expression `Σ coef_i · var_i`.
#[derive(Clone, Debug, Default)]
pub struct LinExpr {
    /// `(variable, coefficient)` terms; duplicates are summed on use.
    pub terms: Vec<(VarId, f64)>,
}

impl LinExpr {
    /// The empty expression.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `coef · var` and returns `self` for chaining.
    #[must_use]
    pub fn plus(mut self, coef: f64, var: VarId) -> Self {
        self.terms.push((var, coef));
        self
    }

    /// Builds an expression from `(coef, var)` pairs.
    pub fn from_terms<I: IntoIterator<Item = (f64, VarId)>>(terms: I) -> Self {
        Self {
            terms: terms.into_iter().map(|(c, v)| (v, c)).collect(),
        }
    }

    /// `Σ var_i` over the given variables.
    pub fn sum<I: IntoIterator<Item = VarId>>(vars: I) -> Self {
        Self {
            terms: vars.into_iter().map(|v| (v, 1.0)).collect(),
        }
    }
}

#[derive(Clone, Debug)]
pub(crate) struct VarDef {
    pub lower: f64,
    pub upper: f64,
    pub integer: bool,
    pub name: Option<String>,
}

#[derive(Clone, Debug)]
pub(crate) struct ConstraintDef {
    pub terms: Vec<(u32, f64)>,
    pub cmp: Cmp,
    pub rhs: f64,
}

/// A linear / 0-1 integer program under construction.
///
/// ```
/// use soc_solver::{Model, Sense, Cmp, LinExpr};
/// let mut m = Model::new(Sense::Maximize);
/// let x = m.add_binary();
/// let y = m.add_binary();
/// m.set_objective(LinExpr::new().plus(3.0, x).plus(2.0, y));
/// m.add_constraint(LinExpr::new().plus(1.0, x).plus(1.0, y), Cmp::Le, 1.0);
/// let sol = m.solve_mip(&Default::default()).unwrap();
/// assert_eq!(sol.objective.round() as i64, 3);
/// ```
#[derive(Clone, Debug)]
pub struct Model {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<VarDef>,
    pub(crate) constraints: Vec<ConstraintDef>,
    pub(crate) objective: Vec<f64>,
}

impl Model {
    /// Creates an empty model with the given optimization direction.
    pub fn new(sense: Sense) -> Self {
        Self {
            sense,
            vars: Vec::new(),
            constraints: Vec::new(),
            objective: Vec::new(),
        }
    }

    /// Adds a continuous variable with bounds `[lower, upper]`
    /// (`upper` may be `f64::INFINITY`).
    ///
    /// # Panics
    /// Panics if `lower > upper`, either bound is NaN, or `lower` is
    /// infinite (shifted-standard-form requires a finite lower bound).
    pub fn add_continuous(&mut self, lower: f64, upper: f64) -> VarId {
        assert!(!lower.is_nan() && !upper.is_nan(), "bounds must not be NaN");
        assert!(lower.is_finite(), "lower bound must be finite");
        assert!(lower <= upper, "lower bound exceeds upper bound");
        let id = VarId(u32::try_from(self.vars.len()).expect("model exceeds u32::MAX variables"));
        self.vars.push(VarDef {
            lower,
            upper,
            integer: false,
            name: None,
        });
        self.objective.push(0.0);
        id
    }

    /// Adds a binary (0/1) variable.
    pub fn add_binary(&mut self) -> VarId {
        let id = self.add_continuous(0.0, 1.0);
        self.vars[id.index()].integer = true;
        id
    }

    /// Adds a binary variable fixed to a constant (used to pin `x_j = 0`
    /// for attributes absent from the new tuple, §IV.B).
    pub fn add_binary_fixed(&mut self, value: bool) -> VarId {
        let v = if value { 1.0 } else { 0.0 };
        let id = self.add_continuous(v, v);
        self.vars[id.index()].integer = true;
        id
    }

    /// Names a variable (diagnostics only).
    pub fn set_name(&mut self, var: VarId, name: impl Into<String>) {
        self.vars[var.index()].name = Some(name.into());
    }

    /// Sets the objective `Σ coef · var` (replacing any previous one).
    pub fn set_objective(&mut self, expr: LinExpr) {
        self.objective = vec![0.0; self.vars.len()];
        for (v, c) in expr.terms {
            self.objective[v.index()] += c;
        }
    }

    /// Adds the constraint `expr cmp rhs`.
    pub fn add_constraint(&mut self, expr: LinExpr, cmp: Cmp, rhs: f64) {
        let mut terms: Vec<(u32, f64)> = Vec::with_capacity(expr.terms.len());
        for (v, c) in expr.terms {
            assert!(
                v.index() < self.vars.len(),
                "constraint uses unknown variable"
            );
            terms.push((v.0, c));
        }
        self.constraints.push(ConstraintDef { terms, cmp, rhs });
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Solves the continuous (LP) relaxation of the model.
    pub fn solve_lp(&self) -> Result<LpSolution, SolveError> {
        crate::simplex::solve_model(self, None)
    }

    /// Solves the model as a mixed 0/1 integer program: presolve
    /// reductions first (fixed-variable substitution, singleton bound
    /// tightening, redundant-row elimination), then LP-based
    /// branch-and-bound on the reduced model.
    pub fn solve_mip(&self, opts: &MipOptions) -> Result<MipSolution, SolveError> {
        match crate::presolve::presolve(self) {
            crate::presolve::Presolved::Infeasible => Err(SolveError::Infeasible),
            // Nothing eliminated: the reduced model is this model (same
            // variables, same order), so skip the projection/expansion
            // round-trips and solve in place.
            crate::presolve::Presolved::Reduced { map, .. } if map.is_identity() => {
                crate::branch_bound::solve(self, opts)
            }
            crate::presolve::Presolved::Reduced { reduced, map } => {
                let mut inner_opts = opts.clone();
                inner_opts.initial_solution = opts
                    .initial_solution
                    .as_ref()
                    .filter(|ws| ws.len() == self.num_vars())
                    .map(|ws| map.project(ws));
                let sol = crate::branch_bound::solve(&reduced, &inner_opts)?;
                let values = map.expand(&sol.values);
                let mut stats = sol.stats;
                stats.presolved_vars = map.eliminated();
                Ok(MipSolution {
                    objective: self.objective_value(&values),
                    values,
                    nodes: sol.nodes,
                    proven_optimal: sol.proven_optimal,
                    stats,
                })
            }
        }
    }

    /// Solves by branch-and-bound without presolve reductions (used by
    /// tests and benchmarks isolating the search itself).
    pub fn solve_mip_no_presolve(&self, opts: &MipOptions) -> Result<MipSolution, SolveError> {
        crate::branch_bound::solve(self, opts)
    }

    /// Evaluates the objective at a point (used by tests and heuristics).
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Checks primal feasibility of a point within tolerance `eps`
    /// (bounds, constraints, and integrality of integer variables).
    pub fn is_feasible(&self, x: &[f64], eps: f64) -> bool {
        if x.len() != self.vars.len() {
            return false;
        }
        for (def, &v) in self.vars.iter().zip(x) {
            if v < def.lower - eps || v > def.upper + eps {
                return false;
            }
            if def.integer && (v - v.round()).abs() > eps {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(j, a)| a * x[j as usize]).sum();
            let ok = match c.cmp {
                Cmp::Le => lhs <= c.rhs + eps,
                Cmp::Ge => lhs >= c.rhs - eps,
                Cmp::Eq => (lhs - c.rhs).abs() <= eps,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

/// Options controlling the branch-and-bound search.
#[derive(Clone, Debug)]
pub struct MipOptions {
    /// Give up after exploring this many nodes.
    pub max_nodes: usize,
    /// Integrality tolerance.
    pub int_tol: f64,
    /// Declare the objective integral-valued, enabling stronger pruning
    /// (`bound <= incumbent` cuts when `floor(bound) <= incumbent`). True
    /// for all SOC models (the objective counts queries).
    pub integral_objective: bool,
    /// Warm-start incumbent: a known feasible point (e.g. from a greedy
    /// heuristic) used to prune from the first node. Ignored if
    /// infeasible or of the wrong arity.
    pub initial_solution: Option<Vec<f64>>,
    /// Wall-clock budget for the search; `None` = unlimited. When it
    /// expires the best incumbent is returned with
    /// `proven_optimal = false`.
    pub time_limit: Option<std::time::Duration>,
    /// Stop once `(best bound − incumbent) <= rel_gap · max(1, |incumbent|)`
    /// (in maximization space). `0.0` proves optimality.
    pub rel_gap: f64,
    /// Re-optimize each node's LP from its parent's basis with dual
    /// simplex instead of a cold two-phase solve. On by default; off is
    /// the cold baseline used for differential testing and benchmarks.
    pub warm_lp: bool,
}

impl Default for MipOptions {
    fn default() -> Self {
        Self {
            max_nodes: 1_000_000,
            int_tol: 1e-6,
            integral_objective: false,
            initial_solution: None,
            time_limit: None,
            rel_gap: 0.0,
            warm_lp: true,
        }
    }
}

/// Counters describing a branch-and-bound run (warm-start efficacy and
/// LP effort), reported through [`MipSolution::stats`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SolveStats {
    /// Nodes whose LP relaxation was solved.
    pub nodes: usize,
    /// Total simplex basis changes, including warm-restore
    /// refactorization steps and primal/dual pivots.
    pub lp_pivots: usize,
    /// Dual-simplex pivots (subset of `lp_pivots`).
    pub dual_pivots: usize,
    /// Node LPs re-optimized from a parent basis snapshot.
    pub warm_solves: usize,
    /// Node LPs solved by a cold two-phase simplex (root + fallbacks).
    pub cold_solves: usize,
    /// Warm restores that failed and fell back to a cold solve.
    pub warm_failures: usize,
    /// Children discarded by the combinatorial pre-bound before any
    /// pivoting.
    pub pre_bound_pruned: usize,
    /// Variables eliminated by presolve before the search.
    pub presolved_vars: usize,
}

impl SolveStats {
    /// Fraction of node LPs served from a parent basis.
    pub fn warm_hit_rate(&self) -> f64 {
        let solved = self.warm_solves + self.cold_solves;
        if solved == 0 {
            0.0
        } else {
            self.warm_solves as f64 / solved as f64
        }
    }

    /// Mean LP pivots per explored node.
    pub fn pivots_per_node(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.lp_pivots as f64 / self.nodes as f64
        }
    }
}

/// Result status of an LP solve.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LpStatus {
    /// An optimal vertex was found.
    Optimal,
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
}

/// Solution of an LP relaxation.
#[derive(Clone, Debug)]
pub struct LpSolution {
    /// Termination status.
    pub status: LpStatus,
    /// Objective value (meaningful only when `status == Optimal`).
    pub objective: f64,
    /// Variable values (meaningful only when `status == Optimal`).
    pub values: Vec<f64>,
}

/// Solution of a 0/1 integer program.
#[derive(Clone, Debug)]
pub struct MipSolution {
    /// Objective value of the best integral solution.
    pub objective: f64,
    /// Variable values of the best integral solution.
    pub values: Vec<f64>,
    /// Nodes explored by branch-and-bound.
    pub nodes: usize,
    /// True if the search completed (false = stopped at a node/time/gap
    /// limit; the solution is the best incumbent but not proven optimal).
    pub proven_optimal: bool,
    /// Solver counters (warm-start hit rate, LP pivots, pruning).
    pub stats: SolveStats,
}

/// Errors reported by the solvers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// The model has no feasible point.
    Infeasible,
    /// The model is unbounded.
    Unbounded,
    /// Branch-and-bound hit `max_nodes` before finding any integral
    /// feasible solution.
    NodeLimitWithoutIncumbent,
    /// The simplex iterated past its safety limit (numerical trouble).
    IterationLimit,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "model is infeasible"),
            SolveError::Unbounded => write!(f, "model is unbounded"),
            SolveError::NodeLimitWithoutIncumbent => {
                write!(
                    f,
                    "node limit reached before any integral solution was found"
                )
            }
            SolveError::IterationLimit => write!(f, "simplex iteration limit reached"),
        }
    }
}

impl std::error::Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_model() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary();
        let y = m.add_continuous(0.0, 2.0);
        m.set_objective(LinExpr::new().plus(1.0, x).plus(1.0, y));
        m.add_constraint(LinExpr::sum([x, y]), Cmp::Le, 2.0);
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.num_constraints(), 1);
        assert!((m.objective_value(&[1.0, 0.5]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn feasibility_check() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary();
        m.add_constraint(LinExpr::new().plus(1.0, x), Cmp::Le, 0.5);
        assert!(m.is_feasible(&[0.0], 1e-9));
        assert!(!m.is_feasible(&[1.0], 1e-9)); // violates constraint
        assert!(!m.is_feasible(&[0.5], 1e-9)); // violates integrality
        assert!(!m.is_feasible(&[], 1e-9)); // wrong arity
    }

    #[test]
    fn fixed_binary() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary_fixed(false);
        assert!(!m.is_feasible(&[1.0], 1e-9));
        assert!(m.is_feasible(&[0.0], 1e-9));
        let _ = x;
    }

    #[test]
    #[should_panic(expected = "lower bound exceeds")]
    fn bad_bounds_panic() {
        let mut m = Model::new(Sense::Minimize);
        let _ = m.add_continuous(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn foreign_variable_panics() {
        let mut a = Model::new(Sense::Maximize);
        let mut b = Model::new(Sense::Maximize);
        let x = a.add_binary();
        let _ = x;
        // b has no variables; using x (index 0) must panic.
        b.add_constraint(LinExpr::new().plus(1.0, VarId(0)), Cmp::Le, 1.0);
    }
}
