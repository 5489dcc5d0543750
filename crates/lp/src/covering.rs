//! Dense dual simplex for covering LPs whose rows arrive a few at a time.
//!
//! ```text
//! min  b·w   s.t.  aᵣ·w ≥ 1  for every row r,   w ≥ 0        (b ≥ 0)
//! ```
//!
//! With `b ≥ 0` the point `w = 0` is dual feasible — the all-surplus basis
//! prices every column at its own cost — so there is no phase 1: the dual
//! simplex starts there and only ever repairs rows that are not yet covered.
//! A row appended later is reduced against the current basis and repaired
//! by a few more dual pivots from the optimum already reached; nothing is
//! rebuilt.  The tableau has one row per constraint and one column per
//! weight plus one surplus column per row, so its size follows the *rows*,
//! which is what makes it the right shape for a row-generation loop over a
//! long cost vector.
//!
//! Who solves through here: `lpb-core`'s normal-cone bound, which is this LP
//! with one weight per statistic, `b` the log-bounds, and one row per step
//! function of the working set (the witness inequality (8) evaluated on
//! that step function) — 10 to 45 rows over 20 to 150 weights on every bound
//! the planner and the service compute.  The LP dual, `max Σ αᵣ` subject to
//! `Σᵣ αᵣ·aᵣ ≤ b`, is the form the paper states the bound in; its solution
//! is read off the surplus columns' reduced costs ([`CoveringLp::row_duals`]).

use crate::error::LpError;
use crate::stats::{self, SolvePath};

/// A row counts as covered once `aᵣ·w ≥ 1 −` this, and a tableau entry is a
/// pivot candidate only beyond it: the tolerance of the crate's other
/// solvers ([`crate::SolverOptions::tolerance`]'s default).
const TOLERANCE: f64 = 1e-9;

/// How a [`CoveringLp::solve`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoveringStatus {
    /// Every row is covered at minimum cost.
    Optimal,
    /// No `w ≥ 0` covers some row (in the current basis it reads
    /// `Σ (non-negative)·x = negative`): the covering LP is infeasible and
    /// its dual unbounded.
    Uncoverable,
    /// Some cost is negative, so `w = 0` is not dual feasible and this
    /// kernel, which has no phase 1, has nowhere to start.  When no
    /// coefficient is negative the covering LP is then unbounded below (or
    /// infeasible) and its dual infeasible.
    NegativeCost,
}

/// One covering LP, solved and extended in place; see the module docs.
#[derive(Debug, Clone)]
pub struct CoveringLp {
    /// Structural columns: one per cost.
    n_cols: usize,
    n_rows: usize,
    /// Rows (and with them surplus columns) the tableau has room for.
    row_capacity: usize,
    /// Row-major, `row_capacity × (n_cols + row_capacity)`: structural
    /// columns first, then the surplus column of each row.
    cells: Vec<f64>,
    rhs: Vec<f64>,
    /// Reduced cost per column; non-negative throughout (dual feasibility).
    reduced: Vec<f64>,
    /// The basic column of each row.
    basis: Vec<usize>,
    objective: f64,
    negative_cost: bool,
    /// The pivot row, copied out for the elimination loop.
    scratch: Vec<f64>,
}

impl CoveringLp {
    /// An LP over `costs.len()` weights and no rows yet, with room for
    /// `row_capacity` rows before the tableau is reallocated (it doubles).
    ///
    /// Fails with [`LpError::NonFiniteCoefficient`] on a NaN or infinite
    /// cost.  A negative cost is accepted and reported by
    /// [`solve`](Self::solve); without any cost no row can be covered.
    pub fn new(costs: &[f64], row_capacity: usize) -> Result<Self, LpError> {
        if let Some(i) = costs.iter().position(|c| !c.is_finite()) {
            return Err(LpError::NonFiniteCoefficient {
                location: format!("cost of weight {i}"),
            });
        }
        let n_cols = costs.len();
        let row_capacity = row_capacity.max(1);
        let mut reduced = costs.to_vec();
        reduced.resize(n_cols + row_capacity, 0.0);
        Ok(CoveringLp {
            n_cols,
            n_rows: 0,
            row_capacity,
            cells: vec![0.0; row_capacity * (n_cols + row_capacity)],
            rhs: Vec::with_capacity(row_capacity),
            reduced,
            basis: Vec::with_capacity(row_capacity),
            objective: 0.0,
            negative_cost: costs.iter().any(|&c| c < 0.0),
            scratch: Vec::new(),
        })
    }

    fn stride(&self) -> usize {
        self.n_cols + self.row_capacity
    }

    /// Columns in use: the weights and one surplus per row.
    fn width(&self) -> usize {
        self.n_cols + self.n_rows
    }

    /// Double the row capacity, moving every row to the wider stride.
    fn grow(&mut self) {
        let (old_stride, width) = (self.stride(), self.width());
        self.row_capacity *= 2;
        let stride = self.stride();
        let mut cells = vec![0.0; self.row_capacity * stride];
        for r in 0..self.n_rows {
            cells[r * stride..r * stride + width]
                .copy_from_slice(&self.cells[r * old_stride..r * old_stride + width]);
        }
        self.cells = cells;
        self.reduced.resize(stride, 0.0);
    }

    /// Append the row `coefficients·w ≥ 1` (one coefficient per weight, in
    /// order), expressed in the current basis.  The next
    /// [`solve`](Self::solve) continues from the basis the last one reached.
    ///
    /// Fails with [`LpError::NonFiniteCoefficient`] on a NaN or infinite
    /// coefficient; the LP is then unchanged.
    ///
    /// # Panics
    ///
    /// Panics when `coefficients` is not one per weight.
    pub fn push_row(&mut self, coefficients: &[f64]) -> Result<(), LpError> {
        assert_eq!(
            coefficients.len(),
            self.n_cols,
            "a covering row needs one coefficient per weight"
        );
        let row = self.n_rows;
        if let Some(j) = coefficients.iter().position(|c| !c.is_finite()) {
            return Err(LpError::NonFiniteCoefficient {
                location: format!("row {row}, weight {j}"),
            });
        }
        if row == self.row_capacity {
            self.grow();
        }
        let (stride, n_cols, width) = (self.stride(), self.n_cols, self.width());
        let (done, rest) = self.cells.split_at_mut(row * stride);
        let new = &mut rest[..stride];
        // −a·w + s = −1: the surplus is basic, at −1 until the row is covered.
        for (x, c) in new.iter_mut().zip(coefficients) {
            *x = -c;
        }
        let mut rhs = -1.0;
        for (q, &b) in self.basis.iter().enumerate() {
            // Basic surplus columns are zero in a fresh row already.
            if b >= n_cols || new[b] == 0.0 {
                continue;
            }
            let factor = new[b];
            let basic_row = &done[q * stride..q * stride + width];
            for (x, y) in new[..width].iter_mut().zip(basic_row) {
                *x -= factor * y;
            }
            new[b] = 0.0;
            rhs -= factor * self.rhs[q];
        }
        new[n_cols + row] = 1.0;
        self.rhs.push(rhs);
        self.basis.push(n_cols + row);
        self.n_rows += 1;
        Ok(())
    }

    /// Run the dual simplex until every row is covered.  One call is one
    /// solve in [`crate::SolverStats`] (`covering_solves`) and its pivots
    /// are `dual_pivots`.
    ///
    /// Fails with [`LpError::IterationLimit`] past `200·max(rows + weights,
    /// 100)` pivots, which under a pivoting rule that cannot cycle (Bland's
    /// rule once the objective stalls) means a numerical failure.
    pub fn solve(&mut self) -> Result<CoveringStatus, LpError> {
        stats::record_solve(SolvePath::Covering, self.n_cols);
        if self.negative_cost {
            return Ok(CoveringStatus::NegativeCost);
        }
        let size = self.n_rows + self.n_cols;
        self.run(200 * size.max(100), 2 * size)
    }

    /// The pivoting loop.  The row that leaves is the least covered one and
    /// the column that enters the one that keeps every reduced cost
    /// non-negative at the smallest ratio; ties go to the smallest index
    /// either way, so the pivot sequence is a function of the input.  Zero
    /// costs tie the ratio test at zero and the objective then stands still:
    /// once it has for `stall_budget` pivots in a row, rows leave by
    /// smallest *basic column* instead, which with the smallest-index ratio
    /// test is Bland's rule for the dual simplex and cannot cycle.
    fn run(&mut self, max_pivots: usize, stall_budget: usize) -> Result<CoveringStatus, LpError> {
        let (mut pivots, mut stalled) = (0usize, 0usize);
        loop {
            let bland = stalled >= stall_budget;
            let mut leaving: Option<usize> = None;
            for (r, &v) in self.rhs.iter().enumerate() {
                if v >= -TOLERANCE {
                    continue;
                }
                let better = leaving.is_none_or(|best| {
                    if bland {
                        self.basis[r] < self.basis[best]
                    } else {
                        v < self.rhs[best]
                    }
                });
                if better {
                    leaving = Some(r);
                }
            }
            let Some(row) = leaving else {
                return Ok(CoveringStatus::Optimal);
            };
            let stride = self.stride();
            let cells = &self.cells[row * stride..row * stride + self.width()];
            let mut entering: Option<(usize, f64)> = None;
            for (j, (&a, &d)) in cells.iter().zip(&self.reduced).enumerate() {
                if a < -TOLERANCE {
                    let ratio = d.max(0.0) / -a;
                    if entering.is_none_or(|(_, best)| ratio < best) {
                        entering = Some((j, ratio));
                    }
                }
            }
            let Some((col, _)) = entering else {
                return Ok(CoveringStatus::Uncoverable);
            };
            if pivots == max_pivots {
                return Err(LpError::IterationLimit { limit: max_pivots });
            }
            pivots += 1;
            let before = self.objective;
            self.pivot(row, col);
            if self.objective > before + TOLERANCE {
                stalled = 0;
            } else {
                stalled += 1;
            }
        }
    }

    fn pivot(&mut self, row: usize, col: usize) {
        stats::record_dual_pivot();
        let (stride, width) = (self.stride(), self.width());
        let inv = 1.0 / self.cells[row * stride + col];
        self.scratch.clear();
        self.scratch
            .extend_from_slice(&self.cells[row * stride..row * stride + width]);
        for x in &mut self.scratch {
            *x *= inv;
        }
        self.scratch[col] = 1.0;
        let pivot_rhs = self.rhs[row] * inv;
        for r in 0..self.n_rows {
            let target = &mut self.cells[r * stride..r * stride + width];
            if r == row {
                target.copy_from_slice(&self.scratch);
                self.rhs[r] = pivot_rhs;
                continue;
            }
            let factor = target[col];
            if factor == 0.0 {
                continue;
            }
            for (x, p) in target.iter_mut().zip(&self.scratch) {
                *x -= factor * p;
            }
            target[col] = 0.0;
            self.rhs[r] -= factor * pivot_rhs;
        }
        let d = self.reduced[col];
        if d != 0.0 {
            for (x, p) in self.reduced.iter_mut().zip(&self.scratch) {
                *x -= d * p;
            }
            self.reduced[col] = 0.0;
            self.objective += d * pivot_rhs;
        }
        self.basis[row] = col;
    }

    /// `b·w` at the current basis: after an [`Optimal`](CoveringStatus::Optimal)
    /// solve, the common optimum of the LP and its dual.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// The weights `w` at the current basis, one per cost.
    pub fn weights(&self) -> Vec<f64> {
        let mut w = vec![0.0; self.n_cols];
        for (&b, &v) in self.basis.iter().zip(&self.rhs) {
            if b < self.n_cols {
                w[b] = v;
            }
        }
        w
    }

    /// The dual solution `α`, one multiplier per row in the order the rows
    /// were pushed: `Σᵣ αᵣ·aᵣ ≤ b` and, at an optimum, `Σᵣ αᵣ = b·w`.
    pub fn row_duals(&self) -> &[f64] {
        &self.reduced[self.n_cols..self.n_cols + self.n_rows]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Problem, Sense, SolverStats, Status};

    fn lp(costs: &[f64], rows: &[&[f64]]) -> CoveringLp {
        let mut lp = CoveringLp::new(costs, 1).unwrap();
        for row in rows {
            lp.push_row(row).unwrap();
        }
        lp
    }

    /// The same LP through the two-phase tableau, as a reference.
    fn reference(costs: &[f64], rows: &[&[f64]]) -> crate::Solution {
        let mut p = Problem::minimize(costs.len());
        for (j, &c) in costs.iter().enumerate() {
            p.set_objective(j, c);
        }
        for row in rows {
            let coeffs: Vec<(usize, f64)> = row.iter().copied().enumerate().collect();
            p.add_constraint(&coeffs, Sense::Ge, 1.0);
        }
        p.solve().unwrap()
    }

    #[test]
    fn solves_a_small_covering_lp_and_reports_both_solutions() {
        let costs = [3.0, 2.0, 4.0];
        let rows: [&[f64]; 3] = [&[1.0, 1.0, 0.0], &[0.0, 1.0, 1.0], &[1.0, 0.0, 1.0]];
        let mut lp = lp(&costs, &rows);
        let (status, work) = SolverStats::on_thread(|| lp.solve().unwrap());
        assert_eq!(status, CoveringStatus::Optimal);
        let expected = reference(&costs, &rows);
        assert_eq!(expected.status, Status::Optimal);
        assert!((lp.objective() - expected.objective).abs() < 1e-9);
        let w = lp.weights();
        for row in rows {
            let covered: f64 = row.iter().zip(&w).map(|(a, w)| a * w).sum();
            assert!(covered >= 1.0 - 1e-9, "{row:?} at {w:?}");
        }
        assert!(w.iter().all(|&x| x >= 0.0));
        // The dual: feasible for every weight's cost, and as large.
        let alpha = lp.row_duals();
        assert!(alpha.iter().all(|&a| a >= -1e-12));
        assert!((alpha.iter().sum::<f64>() - lp.objective()).abs() < 1e-9);
        for (j, &c) in costs.iter().enumerate() {
            let used: f64 = rows.iter().zip(alpha).map(|(row, a)| row[j] * a).sum();
            assert!(used <= c + 1e-9, "weight {j}: {used} > {c}");
        }
        assert!(work.dual_pivots > 0 && work.primal_pivots == 0);
        assert_eq!((work.covering_solves, work.total_solves()), (1, 1));
        assert_eq!(work.solve_columns, 3);
    }

    /// Rows appended after a solve are repaired from the basis it reached:
    /// same optimum as the LP posed whole, in fewer pivots than from scratch.
    #[test]
    fn appended_rows_continue_from_the_last_basis() {
        let costs = [1.0, 1.5, 2.0, 0.5];
        let rows: [&[f64]; 5] = [
            &[1.0, 0.0, 0.5, 0.0],
            &[0.0, 1.0, 0.0, 0.25],
            &[0.5, 0.5, 1.0, 0.0],
            &[0.0, 0.0, 1.0, 1.0],
            &[0.25, 1.0, 0.0, 1.0],
        ];
        let mut grown = lp(&costs, &rows[..2]);
        assert_eq!(grown.solve().unwrap(), CoveringStatus::Optimal);
        let ((), repair) = SolverStats::on_thread(|| {
            for row in &rows[2..] {
                grown.push_row(row).unwrap();
            }
            assert_eq!(grown.solve().unwrap(), CoveringStatus::Optimal);
        });
        let mut whole = lp(&costs, &rows);
        let (status, cold) = SolverStats::on_thread(|| whole.solve().unwrap());
        assert_eq!(status, CoveringStatus::Optimal);
        assert!((grown.objective() - whole.objective()).abs() < 1e-9);
        assert!((grown.objective() - reference(&costs, &rows).objective).abs() < 1e-9);
        assert!(
            repair.dual_pivots < cold.dual_pivots,
            "{repair:?} vs {cold:?}"
        );
    }

    /// What the kernel answers when there is no optimum, and that it cannot
    /// spin: typed statuses and errors, never a panic or an open loop.
    #[test]
    fn failure_paths_are_typed() {
        // Non-finite input is refused where it enters.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                CoveringLp::new(&[1.0, bad], 4),
                Err(LpError::NonFiniteCoefficient { .. })
            ));
            let mut lp = CoveringLp::new(&[1.0, 1.0], 4).unwrap();
            assert!(matches!(
                lp.push_row(&[1.0, bad]),
                Err(LpError::NonFiniteCoefficient { .. })
            ));
            // A refused row leaves no trace.
            lp.push_row(&[1.0, 0.0]).unwrap();
            assert_eq!(lp.solve().unwrap(), CoveringStatus::Optimal);
            assert_eq!((lp.row_duals().len(), lp.objective()), (1, 1.0));
        }
        // No weights at all: nothing covers a row.
        let mut empty = lp(&[], &[&[]]);
        assert_eq!(empty.solve().unwrap(), CoveringStatus::Uncoverable);
        // A negative cost: no dual-feasible start.
        let mut negative = lp(&[1.0, -0.5], &[&[1.0, 1.0]]);
        assert_eq!(negative.solve().unwrap(), CoveringStatus::NegativeCost);
        // A row nothing covers, alone or behind rows that are fine.
        let mut open = lp(&[1.0, 1.0], &[&[1.0, 0.0], &[0.0, 0.0]]);
        assert_eq!(open.solve().unwrap(), CoveringStatus::Uncoverable);
        // Zero costs tie every ratio at zero: terminates at cost zero.
        let mut free = lp(
            &[0.0, 0.0, 0.0],
            &[&[1.0, 0.5, 0.0], &[0.0, 1.0, 0.5], &[0.5, 0.0, 1.0]],
        );
        assert_eq!(free.solve().unwrap(), CoveringStatus::Optimal);
        assert_eq!(free.objective(), 0.0);
        // The cap is an error value, and the LP stays usable after it.
        let mut capped = lp(&[1.0, 1.0], &[&[1.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(capped.run(1, 8), Err(LpError::IterationLimit { limit: 1 }));
        assert_eq!(capped.run(1, 8), Ok(CoveringStatus::Optimal));
        assert_eq!(capped.objective(), 2.0);
    }

    /// Under Bland's rule from the first pivot (a stall budget of zero) the
    /// kernel reaches the optimum the default rule and the reference reach,
    /// on zero-cost columns that tie its ratio test.
    #[test]
    fn bland_fallback_reaches_the_same_optimum() {
        let costs = [0.0, 1.0, 0.0, 2.0, 0.0];
        let rows: [&[f64]; 4] = [
            &[1.0, 0.5, 0.0, 0.0, 0.25],
            &[0.0, 1.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0, 1.0, 0.0],
            &[0.0, 0.25, 0.0, 1.0, 0.0],
        ];
        let expected = reference(&costs, &rows).objective;
        assert!(expected > 0.0);
        let mut default_rule = lp(&costs, &rows);
        assert_eq!(default_rule.solve().unwrap(), CoveringStatus::Optimal);
        let mut bland = lp(&costs, &rows);
        assert_eq!(bland.run(1000, 0), Ok(CoveringStatus::Optimal));
        for solved in [&default_rule, &bland] {
            assert!((solved.objective() - expected).abs() < 1e-9);
            let w = solved.weights();
            for row in rows {
                let covered: f64 = row.iter().zip(&w).map(|(a, w)| a * w).sum();
                assert!(covered >= 1.0 - 1e-9);
            }
        }
    }
}
