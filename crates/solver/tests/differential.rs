//! Differential validation of the solve modes: on random 0/1 programs,
//! exhaustive enumeration, the cold branch-and-bound (two-phase primal
//! simplex per node) and the warm-started dual-simplex path must all
//! agree on the optimal objective. The cold mode is the oracle; the
//! warm mode is compared against it.

use soc_rng::StdRng;
use soc_solver::{Cmp, LinExpr, MipOptions, Model, Sense};

struct RandomBip {
    nvars: usize,
    objective: Vec<i32>,
    /// Constraints: (coefficients, rhs, cmp).
    constraints: Vec<(Vec<i32>, i32, Cmp)>,
}

/// Random binary programs: mixed `<=`/`>=`/`==` rows, positive and
/// negative coefficients, occasionally infeasible.
fn random_bip(rng: &mut StdRng) -> RandomBip {
    let nvars = rng.random_range(2..9usize);
    let objective: Vec<i32> = (0..nvars).map(|_| rng.random_range(-6..11i32)).collect();
    let ncons = rng.random_range(0..6usize);
    let constraints = (0..ncons)
        .map(|_| {
            let coefs: Vec<i32> = (0..nvars).map(|_| rng.random_range(-4..7i32)).collect();
            let cmp = match rng.random_range(0..10u32) {
                0 => Cmp::Eq,
                1 | 2 => Cmp::Ge,
                _ => Cmp::Le,
            };
            let rhs = match cmp {
                Cmp::Eq => rng.random_range(0..5i32),
                Cmp::Ge => rng.random_range(-2..6i32),
                Cmp::Le => rng.random_range(0..14i32),
            };
            (coefs, rhs, cmp)
        })
        .collect();
    RandomBip {
        nvars,
        objective,
        constraints,
    }
}

fn build(bip: &RandomBip) -> Model {
    let mut m = Model::new(Sense::Maximize);
    let vars: Vec<_> = (0..bip.nvars).map(|_| m.add_binary()).collect();
    m.set_objective(LinExpr::from_terms(
        bip.objective
            .iter()
            .zip(&vars)
            .map(|(&c, &v)| (c as f64, v)),
    ));
    for (coefs, rhs, cmp) in &bip.constraints {
        m.add_constraint(
            LinExpr::from_terms(coefs.iter().zip(&vars).map(|(&c, &v)| (c as f64, v))),
            *cmp,
            *rhs as f64,
        );
    }
    m
}

/// Exhaustive optimum over all 2^n assignments; `None` if infeasible.
fn brute_force(bip: &RandomBip) -> Option<i64> {
    let mut best: Option<i64> = None;
    for mask in 0u32..(1 << bip.nvars) {
        let x: Vec<i64> = (0..bip.nvars).map(|j| ((mask >> j) & 1) as i64).collect();
        let feasible = bip.constraints.iter().all(|(coefs, rhs, cmp)| {
            let lhs: i64 = coefs.iter().zip(&x).map(|(&c, &v)| c as i64 * v).sum();
            match cmp {
                Cmp::Le => lhs <= *rhs as i64,
                Cmp::Ge => lhs >= *rhs as i64,
                Cmp::Eq => lhs == *rhs as i64,
            }
        });
        if feasible {
            let obj: i64 = bip
                .objective
                .iter()
                .zip(&x)
                .map(|(&c, &v)| c as i64 * v)
                .sum();
            best = Some(best.map_or(obj, |b: i64| b.max(obj)));
        }
    }
    best
}

fn mode(warm_lp: bool) -> MipOptions {
    MipOptions {
        integral_objective: true,
        warm_lp,
        ..Default::default()
    }
}

#[test]
fn cold_and_warm_match_exhaustive_enumeration() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for case in 0..240 {
        let bip = random_bip(&mut rng);
        let expected = brute_force(&bip);
        let model = build(&bip);
        let cold = model.solve_mip(&mode(false));
        let warm = model.solve_mip(&mode(true));
        match expected {
            Some(best) => {
                for (name, sol) in [("cold", &cold), ("warm", &warm)] {
                    let sol = sol
                        .as_ref()
                        .unwrap_or_else(|e| panic!("case {case}: {name} errored: {e}"));
                    assert!(
                        (sol.objective - best as f64).abs() < 1e-6,
                        "case {case}: {name} found {} but brute force says {best}",
                        sol.objective
                    );
                    assert!(
                        model.is_feasible(&sol.values, 1e-6),
                        "case {case}: {name} returned an infeasible point"
                    );
                    assert!(sol.proven_optimal, "case {case}: {name} did not prove");
                }
            }
            None => {
                for (name, sol) in [("cold", &cold), ("warm", &warm)] {
                    assert!(
                        sol.is_err(),
                        "case {case}: {name} found a solution to an infeasible program"
                    );
                }
            }
        }
    }
}

#[test]
fn warm_path_reports_warm_solves_and_identical_objectives_without_presolve() {
    // `solve_mip_no_presolve` drives branch-and-bound on the raw model,
    // so warm restores are exercised without presolve shrinking the tree.
    let mut rng = StdRng::seed_from_u64(42);
    let mut warm_hits = 0usize;
    for case in 0..120 {
        let bip = random_bip(&mut rng);
        let model = build(&bip);
        let cold = model.solve_mip_no_presolve(&mode(false));
        let warm = model.solve_mip_no_presolve(&mode(true));
        match (&cold, &warm) {
            (Ok(c), Ok(w)) => {
                assert!(
                    (c.objective - w.objective).abs() < 1e-6,
                    "case {case}: cold {} vs warm {}",
                    c.objective,
                    w.objective
                );
                assert_eq!(c.stats.warm_solves, 0, "cold mode must not warm-start");
                warm_hits += w.stats.warm_solves;
            }
            (Err(_), Err(_)) => {}
            (c, w) => panic!("case {case}: cold {c:?} disagrees with warm {w:?}"),
        }
    }
    assert!(
        warm_hits > 0,
        "the suite never exercised a warm restore — generator too easy"
    );
}
