//! Property tests asserting that the sparse revised simplex behind
//! `Problem::solve` and the reference tableau (`solve_dense`) agree — on
//! status, on the objective, and on the strong duality identity
//! `objective == Σ dualsᵢ·rhsᵢ` — over random LPs that may be
//! feasible-bounded, infeasible, or unbounded.

use lpb_lp::{solve_dense, Problem, Sense, SolverOptions, Status};
use proptest::prelude::*;

/// A random LP with arbitrary row senses and signed coefficients, so every
/// status outcome is reachable.
#[derive(Debug, Clone)]
struct AnyLp {
    n_vars: usize,
    objective: Vec<f64>,
    rows: Vec<(Vec<f64>, u8, f64)>,
    minimize: bool,
}

fn any_lp() -> impl Strategy<Value = AnyLp> {
    (1usize..5).prop_flat_map(|n_vars| {
        let obj = proptest::collection::vec(-4.0f64..4.0, n_vars);
        let rows = proptest::collection::vec(
            (
                proptest::collection::vec(-3.0f64..3.0, n_vars),
                0u8..3,
                -10.0f64..10.0,
            ),
            1..6,
        );
        (obj, rows, 0u8..2).prop_map(move |(objective, rows, minimize)| AnyLp {
            n_vars,
            objective,
            rows,
            minimize: minimize == 1,
        })
    })
}

/// A random bounded-feasible LP (box rows keep it bounded, the origin keeps
/// it feasible), where both solvers must find identical optima.
fn bounded_lp() -> impl Strategy<Value = AnyLp> {
    (2usize..6).prop_flat_map(|n_vars| {
        let obj = proptest::collection::vec(-5.0f64..5.0, n_vars);
        let upper = proptest::collection::vec(0.1f64..20.0, n_vars);
        let extra = proptest::collection::vec(
            (proptest::collection::vec(0.0f64..3.0, n_vars), 1.0f64..50.0),
            0..5,
        );
        (obj, upper, extra).prop_map(move |(objective, upper, extra)| {
            let mut rows: Vec<(Vec<f64>, u8, f64)> = Vec::new();
            for (j, u) in upper.iter().enumerate() {
                let mut coeffs = vec![0.0; n_vars];
                coeffs[j] = 1.0;
                rows.push((coeffs, 0, *u));
            }
            for (coeffs, rhs) in extra {
                rows.push((coeffs, 0, rhs));
            }
            AnyLp {
                n_vars,
                objective,
                rows,
                minimize: false,
            }
        })
    })
}

fn build(lp: &AnyLp) -> Problem {
    let mut p = if lp.minimize {
        Problem::minimize(lp.n_vars)
    } else {
        Problem::maximize(lp.n_vars)
    };
    for (j, &c) in lp.objective.iter().enumerate() {
        p.set_objective(j, c);
    }
    for (coeffs, sense, rhs) in &lp.rows {
        let sense = match sense {
            0 => Sense::Le,
            1 => Sense::Ge,
            _ => Sense::Eq,
        };
        let sparse: Vec<(usize, f64)> = coeffs
            .iter()
            .enumerate()
            .filter(|(_, c)| **c != 0.0)
            .map(|(j, &c)| (j, c))
            .collect();
        p.add_constraint(&sparse, sense, *rhs);
    }
    p
}

fn duality_gap(p: &Problem, sol: &lpb_lp::Solution) -> f64 {
    let dual_obj: f64 = p
        .constraints()
        .iter()
        .zip(&sol.duals)
        .map(|(c, d)| c.rhs * d)
        .sum();
    (dual_obj - sol.objective).abs() / (1.0 + sol.objective.abs())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On arbitrary LPs the two solvers report the same status, and when
    /// optimal, the same objective (to 1e-6) with both satisfying strong
    /// duality.
    #[test]
    fn sparse_and_dense_agree_on_arbitrary_lps(lp in any_lp()) {
        let p = build(&lp);
        let dense = solve_dense(&p, &SolverOptions::default()).unwrap();
        let sparse = match p.solve() {
            Ok(s) => s,
            Err(e) => { prop_assert!(false, "sparse failed with {e} on {:?}", lp); unreachable!() }
        };
        prop_assert_eq!(dense.status, sparse.status,
            "status mismatch on {:?}", lp);
        if dense.status == Status::Optimal {
            prop_assert!((dense.objective - sparse.objective).abs()
                    <= 1e-6 * (1.0 + dense.objective.abs()),
                "objective mismatch: dense {} vs sparse {}", dense.objective, sparse.objective);
            prop_assert!(duality_gap(&p, &dense) < 1e-5, "dense duality gap");
            prop_assert!(duality_gap(&p, &sparse) < 1e-5, "sparse duality gap");
        }
    }

    /// On bounded-feasible LPs both solvers are optimal with matching
    /// objectives, primal-feasible solutions and matching `c·x`.
    #[test]
    fn sparse_and_dense_agree_on_bounded_lps(lp in bounded_lp()) {
        let p = build(&lp);
        let dense = solve_dense(&p, &SolverOptions::default()).unwrap();
        let sparse = p.solve().unwrap();
        prop_assert_eq!(dense.status, Status::Optimal);
        prop_assert_eq!(sparse.status, Status::Optimal);
        prop_assert!((dense.objective - sparse.objective).abs()
            <= 1e-6 * (1.0 + dense.objective.abs()),
            "objective mismatch: dense {} vs sparse {}", dense.objective, sparse.objective);
        for sol in [&dense, &sparse] {
            let tol = 1e-6;
            for (coeffs, _, rhs) in &lp.rows {
                let lhs: f64 = coeffs.iter().zip(&sol.x).map(|(c, x)| c * x).sum();
                prop_assert!(lhs <= rhs + tol, "row violated: {} > {}", lhs, rhs);
            }
            for &xj in &sol.x {
                prop_assert!(xj >= -tol);
            }
            let cx: f64 = lp.objective.iter().zip(&sol.x).map(|(c, x)| c * x).sum();
            prop_assert!((cx - sol.objective).abs() < 1e-5 * (1.0 + sol.objective.abs()));
        }
    }
}
