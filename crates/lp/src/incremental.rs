//! Incremental row appends on a factorized simplex basis — the engine
//! behind lazy constraint generation.
//!
//! The polymatroid bound LP has `n + C(n,2)·2^(n−2)` Shannon elemental
//! rows, almost all of which are slack at the optimum for n ≥ 9.  Instead
//! of materializing them, a constraint-generation loop solves a small core
//! LP, separates violated inequalities against the current point, and adds
//! them in batches.  [`IncrementalSolver`] makes the "add them" step cheap:
//! appending `<=` rows with their slacks basic extends the basis to the
//! block lower-triangular `[[B, 0], [R_B, I]]`, which one refactorization
//! turns back into a valid eta file while **preserving dual feasibility
//! exactly** (the extended duals are `(y, 0)`).  Violated new rows surface
//! as negative basic slacks and are repaired with a few dual pivots — no
//! cold restart, no phase 1.
//!
//! When the relaxation is unbounded (too few rows to pin the objective),
//! [`IncrementalSolver::unbounded_ray`] exposes the improving ray so the
//! separation oracle can cut it; a zero-cost dual pass then restores primal
//! feasibility before phase 2 resumes.
//!
//! The one consumer is `lpb-core`'s lazy polymatroid loop (`cgen`):
//! polymatroid bounds at n ≥ 9 and on non-simple statistics.

use crate::dual::{dual_simplex, DualOutcome};
use crate::error::LpError;
use crate::problem::Problem;
use crate::revised::{
    extract_solution, infeasible_solution, prepare, ColKind, Prep, Prepared, PRIMAL_FEAS_TOL,
};
use crate::simplex::{Solution, SolverOptions, Status};
use crate::stats::{record_solve, SolvePath};

/// A sparse revised-simplex solve that stays alive after the optimum so
/// `<=` rows can be appended and re-solved in place.
///
/// Built by [`IncrementalSolver::solve`]; grown by
/// [`append_le_rows`](Self::append_le_rows).  Any numerical failure is
/// reported as an error and leaves the solver unusable — callers rebuild
/// from scratch (they hold the full row set anyway).
pub struct IncrementalSolver {
    prepared: Prepared,
    /// Caller-pinned iteration cap, if any; otherwise the cap is re-derived
    /// from the (growing) problem size on every append.
    explicit_max_iter: Option<usize>,
    status: Status,
}

impl std::fmt::Debug for IncrementalSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalSolver")
            .field("n_vars", &self.prepared.n)
            .field("n_rows", &self.prepared.engine.m)
            .field("status", &self.status)
            .finish()
    }
}

impl IncrementalSolver {
    /// Solve `problem` with the sparse revised simplex, keeping the
    /// factorized engine for later row appends.
    ///
    /// Constraint-free problems are rejected with [`LpError::EmptyProblem`]
    /// (there is no basis to grow).
    pub fn solve(problem: &Problem, options: &SolverOptions) -> Result<Self, LpError> {
        problem.validate()?;
        record_solve(SolvePath::RevisedCold, problem.n_vars());
        let mut p = match prepare(problem, options) {
            Prep::Trivial(_) => return Err(LpError::EmptyProblem),
            Prep::Ready(p) => *p,
        };
        let max_iter = p.max_iter;
        let status = if p.n_artificial > 0 {
            let cost1: Vec<f64> = p
                .engine
                .kind
                .iter()
                .map(|k| if *k == ColKind::Artificial { -1.0 } else { 0.0 })
                .collect();
            match p.engine.optimize(&cost1, max_iter, true)? {
                Status::Optimal if p.engine.objective_for(&cost1) < -1e-6 => Status::Infeasible,
                Status::Optimal => p.engine.optimize(&p.cost2, max_iter, false)?,
                Status::Unbounded => {
                    return Err(LpError::NumericalInstability {
                        detail: "phase 1 reported an unbounded direction".into(),
                    })
                }
                Status::Infeasible => unreachable!("optimize never returns Infeasible"),
            }
        } else {
            p.engine.optimize(&p.cost2, max_iter, false)?
        };
        Ok(IncrementalSolver {
            prepared: p,
            explicit_max_iter: options.max_iterations,
            status,
        })
    }

    /// Status of the most recent solve or append.
    pub fn status(&self) -> Status {
        self.status
    }

    /// Total number of rows currently in the solver (original + appended).
    pub fn n_rows(&self) -> usize {
        self.prepared.engine.m
    }

    /// The solution at the current state, in the original problem's
    /// coordinates; appended rows contribute trailing dual entries in
    /// append order.
    pub fn solution(&self) -> Solution {
        let p = &self.prepared;
        match self.status {
            Status::Optimal => extract_solution(&p.engine, &p.cost2, p.sign, &p.row_flipped, p.n),
            Status::Infeasible => infeasible_solution(p.n, p.engine.m),
            Status::Unbounded => Solution {
                status: Status::Unbounded,
                objective: f64::INFINITY * p.sign,
                x: vec![0.0; p.n],
                duals: vec![0.0; p.engine.m],
                basis: vec![],
            },
        }
    }

    /// When the last solve ended [`Status::Unbounded`]: the improving ray
    /// over the structural variables.  A separation oracle can cut it by
    /// appending a row `a` with `a·ray > 0`; if no such row exists in the
    /// full constraint family, the problem is genuinely unbounded.
    pub fn unbounded_ray(&self) -> Option<Vec<f64>> {
        if self.status != Status::Unbounded {
            return None;
        }
        self.prepared
            .engine
            .unbounded_ray_structural(self.prepared.n)
    }

    /// Append `<=` rows (`coefficients · x <= rhs`) and re-solve in place.
    ///
    /// From an optimal basis this costs one refactorization plus a few dual
    /// pivots; from an unbounded one, a zero-cost dual pass restores
    /// primal feasibility first.  Errors (including
    /// [`LpError::NumericalInstability`] when the extended factorization is
    /// unusable) leave the solver dead; rebuild from the full row set.
    pub fn append_le_rows(&mut self, rows: &[(Vec<(usize, f64)>, f64)]) -> Result<Status, LpError> {
        let n = self.prepared.n;
        for (coeffs, rhs) in rows {
            if !rhs.is_finite() {
                return Err(LpError::NonFiniteCoefficient {
                    location: "appended row rhs".into(),
                });
            }
            for &(j, c) in coeffs {
                if j >= n {
                    return Err(LpError::VariableOutOfRange {
                        index: j,
                        n_vars: n,
                    });
                }
                if !c.is_finite() {
                    return Err(LpError::NonFiniteCoefficient {
                        location: "appended row coefficient".into(),
                    });
                }
            }
        }
        if self.status == Status::Infeasible {
            // Adding constraints cannot restore feasibility.
            return Ok(Status::Infeasible);
        }
        let was_unbounded = self.status == Status::Unbounded;
        let p = &mut self.prepared;
        if !p.engine.append_le_rows(rows) {
            return Err(LpError::NumericalInstability {
                detail: "refactorization of the row-extended basis failed".into(),
            });
        }
        record_solve(SolvePath::AppendWarm, n);
        p.cost2.resize(p.engine.n_cols, 0.0);
        p.m = p.engine.m;
        let max_iter = self
            .explicit_max_iter
            .unwrap_or_else(|| 200 * (p.engine.m + p.engine.n_cols).max(100));
        p.max_iter = max_iter;

        if was_unbounded {
            // The pre-append basis was primal feasible but not optimal, so
            // dual feasibility for the real cost does not hold.  With a
            // zero cost every basis is dual feasible, so a zero-cost dual
            // pass is a pure feasibility phase for the new rows.
            let zero = vec![0.0; p.engine.n_cols];
            match dual_simplex(&mut p.engine, &zero, max_iter)? {
                DualOutcome::PrimalFeasible => {}
                DualOutcome::Infeasible => {
                    self.status = Status::Infeasible;
                    return Ok(Status::Infeasible);
                }
                DualOutcome::LostDualFeasibility => {
                    return Err(LpError::NumericalInstability {
                        detail: "zero-cost dual repair failed after row append".into(),
                    })
                }
            }
        } else if p.engine.x_b.iter().any(|&v| v < -PRIMAL_FEAS_TOL) {
            match dual_simplex(&mut p.engine, &p.cost2, max_iter)? {
                DualOutcome::PrimalFeasible => {}
                DualOutcome::Infeasible => {
                    self.status = Status::Infeasible;
                    return Ok(Status::Infeasible);
                }
                DualOutcome::LostDualFeasibility => {
                    return Err(LpError::NumericalInstability {
                        detail: "dual repair lost feasibility after row append".into(),
                    })
                }
            }
        }
        for v in p.engine.x_b.iter_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        // Primal polish: a no-op pass when the dual repair ended optimal,
        // a full phase 2 when the pre-append basis was unbounded.
        self.status = p.engine.optimize(&p.cost2, max_iter, false)?;
        Ok(self.status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Sense;
    use crate::simplex::SolverKind;
    use crate::solve_sparse;

    fn sparse_opts() -> SolverOptions {
        SolverOptions {
            solver: SolverKind::SparseRevised,
            ..SolverOptions::default()
        }
    }

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    /// Append rows one batch at a time and compare against cold solves of
    /// the accumulated problem after every batch.
    #[test]
    fn appended_rows_match_cold_solves() {
        let mut p = Problem::maximize(3);
        for j in 0..3 {
            p.set_objective(j, (j + 1) as f64);
            p.add_constraint(&[(j, 1.0)], Sense::Le, 4.0);
        }
        let mut inc = IncrementalSolver::solve(&p, &sparse_opts()).unwrap();
        assert_eq!(inc.status(), Status::Optimal);
        assert_close(inc.solution().objective, 24.0);

        type RowBatch = Vec<(Vec<(usize, f64)>, f64)>;
        let batches: Vec<RowBatch> = vec![
            vec![(vec![(0, 1.0), (1, 1.0)], 5.0)],
            vec![
                (vec![(1, 1.0), (2, 1.0)], 6.0),
                (vec![(0, 1.0), (2, 1.0)], 6.5),
            ],
            vec![(vec![(0, 1.0), (1, 1.0), (2, 1.0)], 7.0)],
        ];
        for batch in &batches {
            let status = inc.append_le_rows(batch).unwrap();
            assert_eq!(status, Status::Optimal);
            for (coeffs, rhs) in batch {
                p.add_constraint(coeffs, Sense::Le, *rhs);
            }
            let cold = solve_sparse(&p, &sparse_opts()).unwrap();
            let warm = inc.solution();
            assert_close(warm.objective, cold.objective);
            // Feasibility of the incremental primal for every row so far.
            for (coeffs, _, rhs) in p.rows_all() {
                let lhs: f64 = coeffs.iter().map(|&(j, c)| c * warm.x[j]).sum();
                assert!(lhs <= rhs + 1e-6, "row violated: {lhs} > {rhs}");
            }
            // Strong duality over all rows, appended included.
            let dual_obj: f64 = p
                .rows_all()
                .zip(&warm.duals)
                .map(|((_, _, b), y)| b * y)
                .sum();
            assert_close(dual_obj, warm.objective);
        }
    }

    #[test]
    fn cutting_an_unbounded_ray_recovers_the_optimum() {
        // max x + y with only x <= 3: unbounded along y.
        let mut p = Problem::maximize(2);
        p.set_objective(0, 1.0);
        p.set_objective(1, 1.0);
        p.add_constraint(&[(0, 1.0)], Sense::Le, 3.0);
        let mut inc = IncrementalSolver::solve(&p, &sparse_opts()).unwrap();
        assert_eq!(inc.status(), Status::Unbounded);
        let ray = inc.unbounded_ray().expect("unbounded solve exposes a ray");
        // The ray must improve the objective and move along y.
        assert!(ray[1] > 0.5, "ray {ray:?} should move along y");
        // Cut it: y <= 4.
        let status = inc.append_le_rows(&[(vec![(1, 1.0)], 4.0)]).unwrap();
        assert_eq!(status, Status::Optimal);
        assert_close(inc.solution().objective, 7.0);
    }

    #[test]
    fn appends_after_infeasible_stay_infeasible() {
        let mut p = Problem::maximize(1);
        p.set_objective(0, 1.0);
        p.add_constraint(&[(0, 1.0)], Sense::Le, 1.0);
        p.add_constraint(&[(0, 1.0)], Sense::Ge, 2.0);
        let mut inc = IncrementalSolver::solve(&p, &sparse_opts()).unwrap();
        assert_eq!(inc.status(), Status::Infeasible);
        let status = inc.append_le_rows(&[(vec![(0, 1.0)], 9.0)]).unwrap();
        assert_eq!(status, Status::Infeasible);
    }

    #[test]
    fn appending_an_infeasible_row_is_detected() {
        let mut p = Problem::maximize(2);
        p.set_objective(0, 1.0);
        p.set_objective(1, 1.0);
        p.add_constraint(&[(0, 1.0)], Sense::Le, 3.0);
        p.add_constraint(&[(1, 1.0)], Sense::Le, 3.0);
        let mut inc = IncrementalSolver::solve(&p, &sparse_opts()).unwrap();
        assert_eq!(inc.status(), Status::Optimal);
        // x <= -1 contradicts x >= 0.
        let status = inc.append_le_rows(&[(vec![(0, 1.0)], -1.0)]).unwrap();
        assert_eq!(status, Status::Infeasible);
    }

    #[test]
    fn rejects_bad_rows_and_empty_problems() {
        let p = Problem::maximize(1);
        assert_eq!(
            IncrementalSolver::solve(&p, &sparse_opts()).unwrap_err(),
            LpError::EmptyProblem
        );

        let mut p = Problem::maximize(1);
        p.set_objective(0, 1.0);
        p.add_constraint(&[(0, 1.0)], Sense::Le, 1.0);
        let mut inc = IncrementalSolver::solve(&p, &sparse_opts()).unwrap();
        assert_eq!(
            inc.append_le_rows(&[(vec![(7, 1.0)], 1.0)]).unwrap_err(),
            LpError::VariableOutOfRange {
                index: 7,
                n_vars: 1
            }
        );
        assert!(matches!(
            inc.append_le_rows(&[(vec![(0, f64::NAN)], 1.0)])
                .unwrap_err(),
            LpError::NonFiniteCoefficient { .. }
        ));
    }

    /// Phase-1 problems (Ge rows) are supported: artificials stay pinned
    /// through later appends.
    #[test]
    fn appends_work_after_a_phase_one_start() {
        let mut p = Problem::minimize(2);
        p.set_objective(0, 2.0);
        p.set_objective(1, 3.0);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Sense::Ge, 4.0);
        let mut inc = IncrementalSolver::solve(&p, &sparse_opts()).unwrap();
        assert_eq!(inc.status(), Status::Optimal);
        assert_close(inc.solution().objective, 8.0);
        // x <= 1 forces y >= 3: optimum 2·1 + 3·3 = 11.
        let status = inc.append_le_rows(&[(vec![(0, 1.0)], 1.0)]).unwrap();
        assert_eq!(status, Status::Optimal);
        assert_close(inc.solution().objective, 11.0);
    }
}
