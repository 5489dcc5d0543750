//! The dual simplex phase of the sparse revised solver.
//!
//! The primal simplex keeps `x_B ≥ 0` and chases dual feasibility (all
//! reduced costs non-positive, in the internal maximization convention); the
//! dual simplex does the opposite: starting from a **dual-feasible** basis —
//! which is exactly what an optimal basis stays when rows are appended with
//! their slacks basic — it keeps the reduced costs non-positive while
//! driving negative basic values out.
//!
//! Its consumer is [`crate::IncrementalSolver::append_le_rows`]: the rows a
//! constraint-generation round adds surface as negative basic slacks and
//! are repaired here with a few dual pivots, and a zero-cost pass restores
//! primal feasibility after an unbounded relaxation was cut.  That is how
//! `lpb-core`'s lazy polymatroid loop (`cgen`, n ≥ 9 and non-simple
//! statistics) reaches its optimum without ever solving cold twice.

use crate::error::LpError;
use crate::revised::{btran, ColKind, Engine, PRIMAL_FEAS_TOL};

/// Outcome of a [`dual_simplex`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DualOutcome {
    /// All basic values are ≥ `-PRIMAL_FEAS_TOL`; together with the
    /// maintained dual feasibility the basis is (near-)optimal — a primal
    /// polish pass confirms it.
    PrimalFeasible,
    /// A row with a negative basic value has no eligible entering column:
    /// `e_rᵀB⁻¹ A x = x_B[r] < 0` with non-negative coefficients over
    /// `x ≥ 0` is a certificate that the problem is infeasible.
    Infeasible,
    /// Numerical drift broke the dual-feasibility invariant (a priced
    /// reduced cost came out positive) or produced an unusable pivot; the
    /// caller should fall back to a cold solve.
    LostDualFeasibility,
}

/// Run dual simplex iterations until the basis is primal feasible, the
/// problem is proven infeasible, or the iteration cap is hit.
///
/// Precondition: the current basis is dual feasible for `cost` (every
/// nonbasic, non-artificial column prices out non-positive); artificial
/// columns never enter.
pub(crate) fn dual_simplex(
    engine: &mut Engine,
    cost: &[f64],
    max_iter: usize,
) -> Result<DualOutcome, LpError> {
    let tol = engine.tol;
    let bland_threshold = 2 * (engine.m + engine.n_cols);
    let mut iterations = 0usize;
    let mut rho = vec![0.0; engine.m];
    // Dual Devex reference weights, one per basis row: the leaving row
    // maximizes `x_B[i]² / w[i]` instead of the raw most-negative value,
    // which steers away from rows whose dual edge is long.  The update
    // needs only the already-FTRANed entering column, so it is free.
    let mut row_w = vec![1.0f64; engine.m];
    let mut epoch = engine.refactor_epoch;
    loop {
        if engine.refactor_epoch != epoch {
            // Reference-framework reset after an in-pivot refactorization.
            epoch = engine.refactor_epoch;
            row_w.iter_mut().for_each(|w| *w = 1.0);
        }
        // Leaving row: the most infeasible row by the Devex-weighted
        // criterion (or the lowest infeasible row once the anti-cycling
        // rule kicks in).
        let use_bland = iterations > bland_threshold;
        let mut leaving: Option<usize> = None;
        let mut best_score = 0.0f64;
        for (i, &w) in row_w.iter().enumerate().take(engine.m) {
            if engine.x_b[i] < -PRIMAL_FEAS_TOL {
                if use_bland {
                    leaving = Some(i);
                    break;
                }
                let score = engine.x_b[i] * engine.x_b[i] / w;
                if leaving.is_none() || score > best_score {
                    leaving = Some(i);
                    best_score = score;
                }
            }
        }
        let Some(row) = leaving else {
            return Ok(DualOutcome::PrimalFeasible);
        };
        if iterations >= max_iter {
            return Err(LpError::IterationLimit { limit: max_iter });
        }
        iterations += 1;

        // ρ = e_rowᵀ B⁻¹ gives the pivot row of B⁻¹A for pricing.
        rho.iter_mut().for_each(|v| *v = 0.0);
        rho[row] = 1.0;
        btran(&engine.etas, &mut rho);
        let y = engine.duals_for(cost);

        // Dual ratio test: among nonbasic columns with a negative pivot-row
        // entry, the smallest |reduced cost / entry| keeps every reduced
        // cost non-positive after the pivot.
        let mut entering: Option<(usize, f64)> = None;
        for col in 0..engine.n_cols {
            if engine.in_basis[col] || engine.kind[col] == ColKind::Artificial {
                continue;
            }
            let alpha = engine.row_dot_col(col, &rho);
            if alpha >= -tol {
                continue;
            }
            let rc = engine.reduced_cost(col, cost, &y);
            if rc > tol {
                return Ok(DualOutcome::LostDualFeasibility);
            }
            let ratio = rc / alpha;
            // First-wins on ties: columns are scanned in ascending order, so
            // keeping the incumbent already selects the lowest index among
            // near-equal ratios (the Bland-style tie-break).
            let better = match entering {
                None => true,
                Some((_, best_ratio)) => ratio < best_ratio - tol,
            };
            if better {
                entering = Some((col, ratio));
            }
        }
        let Some((col, _)) = entering else {
            return Ok(DualOutcome::Infeasible);
        };

        engine.column_into_work(col);
        engine.ftran_work();
        if engine.work[row] >= -1e-11 {
            // The freshly FTRANed entry disagrees with the priced ρᵀA_j
            // (stale eta file numerics); bail out rather than divide by it.
            return Ok(DualOutcome::LostDualFeasibility);
        }
        // Devex weight update from the FTRANed column (pre-pivot).
        let alpha_r = engine.work[row];
        let w_r = row_w[row];
        for (i, w) in row_w.iter_mut().enumerate().take(engine.m) {
            if i != row && engine.work[i] != 0.0 {
                let ratio = engine.work[i] / alpha_r;
                let cand = ratio * ratio * w_r;
                if cand > *w {
                    *w = cand;
                }
            }
        }
        row_w[row] = (w_r / (alpha_r * alpha_r)).max(1.0);
        engine.pivot(row, col);
        crate::stats::record_dual_pivot();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Problem, Sense};
    use crate::revised::{extract_solution, prepare, Prep};
    use crate::simplex::{SolverOptions, Status};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    /// The invariant `dual_simplex` maintains, checked from scratch.
    fn is_dual_feasible(engine: &Engine, cost: &[f64]) -> bool {
        let y = engine.duals_for(cost);
        (0..engine.n_cols).all(|col| {
            engine.in_basis[col]
                || engine.kind[col] == ColKind::Artificial
                || engine.reduced_cost(col, cost, &y) <= engine.tol
        })
    }

    #[test]
    fn dual_simplex_repairs_an_infeasible_start() {
        // Build the engine cold (slack basis, dual feasible only if the
        // objective prices non-positive) for a minimization written as
        // max −2x −3y with x + y ≤ b rows; make one RHS negative so the
        // slack basis is primal infeasible but dual feasible.
        let mut p = Problem::maximize(2);
        p.set_objective(0, -2.0);
        p.set_objective(1, -3.0);
        p.add_constraint(&[(0, -1.0), (1, -1.0)], Sense::Le, 4.0);
        p.add_constraint(&[(0, 1.0)], Sense::Le, 5.0);
        let Prep::Ready(mut prepared) = prepare(&p, &SolverOptions::default()) else {
            unreachable!("the problem has rows");
        };
        assert_eq!(prepared.n_artificial, 0);
        // prepare() would flip a row with a negative rhs into a `≥` row with
        // an artificial; negate row 0's rhs in the prepared engine instead,
        // which is the state a violated appended row leaves behind.
        prepared.engine.b[0] = -4.0;
        prepared.engine.x_b[0] = -4.0;
        assert!(prepared.engine.x_b.iter().any(|&v| v < 0.0));
        assert!(is_dual_feasible(&prepared.engine, &prepared.cost2));
        let outcome =
            dual_simplex(&mut prepared.engine, &prepared.cost2, prepared.max_iter).unwrap();
        assert_eq!(outcome, DualOutcome::PrimalFeasible);
        for v in prepared.engine.x_b.iter_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        let status = prepared
            .engine
            .optimize(&prepared.cost2, prepared.max_iter, false)
            .unwrap();
        assert_eq!(status, Status::Optimal);
        let sol = extract_solution(
            &prepared.engine,
            &prepared.cost2,
            prepared.sign,
            &prepared.row_flipped,
            prepared.n,
        );
        // min 2x + 3y s.t. x + y ≥ 4, x ≤ 5 → optimum 8 at (4, 0).
        assert_close(sol.objective, -8.0);
    }
}
