//! Linear-program builder: variables, objective, sparse constraint rows,
//! and shared immutable row blocks for problem families.

use crate::error::LpError;
use crate::simplex::{solve, Solution, SolverOptions};
use crate::sparse::{CscMatrix, CsrMatrix};
use std::sync::Arc;

/// Direction of optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Maximize the objective.
    Maximize,
    /// Minimize the objective.
    Minimize,
}

/// Sense of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// `a·x <= b`
    Le,
    /// `a·x >= b`
    Ge,
    /// `a·x == b`
    Eq,
}

/// A single linear constraint `a·x (<=|>=|==) rhs`, with a sparse
/// coefficient list.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Sparse `(variable index, coefficient)` pairs. Repeated indices are
    /// summed.
    pub coeffs: Vec<(usize, f64)>,
    /// The comparison sense.
    pub sense: Sense,
    /// Right-hand side constant.
    pub rhs: f64,
    /// Optional human-readable label (used by callers to map dual values
    /// back to the statistics that generated the row).
    pub label: Option<String>,
}

/// An immutable, shareable block of `≤` rows with non-negative right-hand
/// sides, appended *after* a problem's explicit constraints at solve time.
///
/// Problem families like the polymatroid bound LP share a large constant row
/// block (the Shannon elemental inequalities) across thousands of solves
/// that differ only in a handful of leading rows.  Building the block — and
/// in particular its compressed sparse *column* transpose, which is what the
/// revised simplex prices against — once and attaching it by `Arc` removes
/// that per-solve setup cost entirely (see
/// [`Problem::set_shared_tail`]).
///
/// The restriction to `≤` rows with `rhs ≥ 0` is deliberate: such rows never
/// need sign normalization or phase-1 artificials, so the block can be baked
/// into the solver's column store verbatim.
#[derive(Debug)]
pub struct SharedRowBlock {
    n_cols: usize,
    rows: Vec<Vec<(usize, f64)>>,
    rhs: Vec<f64>,
    csc: Arc<CscMatrix>,
}

impl SharedRowBlock {
    /// Build a block over `n_cols` structural variables from sparse rows and
    /// their right-hand sides (one per row), validating eagerly.
    ///
    /// # Panics
    ///
    /// Panics when `rows` and `rhs` differ in length, a column index is out
    /// of range, a coefficient or right-hand side is non-finite, or a
    /// right-hand side is negative.
    pub fn new(n_cols: usize, rows: Vec<Vec<(usize, f64)>>, rhs: Vec<f64>) -> Self {
        assert_eq!(rows.len(), rhs.len(), "one rhs per shared row");
        for (i, row) in rows.iter().enumerate() {
            assert!(
                rhs[i].is_finite() && rhs[i] >= 0.0,
                "shared row {i}: rhs must be finite and non-negative, got {}",
                rhs[i]
            );
            for &(j, c) in row {
                assert!(j < n_cols, "shared row {i}: column {j} out of range");
                assert!(c.is_finite(), "shared row {i}: non-finite coefficient");
            }
        }
        let csc = Arc::new(CsrMatrix::from_rows(n_cols, &rows).to_csc());
        SharedRowBlock {
            n_cols,
            rows,
            rhs,
            csc,
        }
    }

    /// Number of rows in the block.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of structural columns the block was built for.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// The sparse `(column, coefficient)` entries of row `i`.
    pub fn row(&self, i: usize) -> &[(usize, f64)] {
        &self.rows[i]
    }

    /// The right-hand sides, one per row (all non-negative).
    pub fn rhs(&self) -> &[f64] {
        &self.rhs
    }

    /// The cached column-major transpose of the block.
    pub(crate) fn csc(&self) -> &Arc<CscMatrix> {
        &self.csc
    }
}

/// A linear program over non-negative variables `x >= 0`.
///
/// All variables are implicitly bounded below by zero, which matches the
/// entropy-vector LPs of the bound engine (entropies and step-function
/// coefficients are non-negative).
#[derive(Debug, Clone)]
pub struct Problem {
    n_vars: usize,
    direction: Direction,
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
    var_names: Vec<Option<String>>,
    shared_tail: Option<Arc<SharedRowBlock>>,
}

impl Problem {
    /// Create a maximization problem over `n_vars` non-negative variables
    /// with an all-zero objective.
    pub fn maximize(n_vars: usize) -> Self {
        Self::new(n_vars, Direction::Maximize)
    }

    /// Create a minimization problem over `n_vars` non-negative variables
    /// with an all-zero objective.
    pub fn minimize(n_vars: usize) -> Self {
        Self::new(n_vars, Direction::Minimize)
    }

    /// Create a problem with the given direction.
    pub fn new(n_vars: usize, direction: Direction) -> Self {
        Problem {
            n_vars,
            direction,
            objective: vec![0.0; n_vars],
            constraints: Vec::new(),
            var_names: vec![None; n_vars],
            shared_tail: None,
        }
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Number of explicit constraints added so far (excluding any shared
    /// tail block; see [`n_rows_total`](Self::n_rows_total)).
    pub fn n_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Total number of constraint rows the solver will see: explicit
    /// constraints followed by the rows of the shared tail block, if any.
    pub fn n_rows_total(&self) -> usize {
        self.constraints.len() + self.shared_tail.as_ref().map_or(0, |t| t.n_rows())
    }

    /// Attach a shared block of `≤` rows that is appended after the explicit
    /// constraints at solve time, regardless of when it is set.  The block's
    /// cached column-major form is reused verbatim by the sparse solver, so
    /// re-solving a family of problems that share it skips rebuilding the
    /// bulk of the constraint matrix.  Replaces any previously attached
    /// block.
    pub fn set_shared_tail(&mut self, block: Arc<SharedRowBlock>) {
        self.shared_tail = Some(block);
    }

    /// The shared tail block, if one is attached.
    pub fn shared_tail(&self) -> Option<&Arc<SharedRowBlock>> {
        self.shared_tail.as_ref()
    }

    /// Iterate every row the solver will see — explicit constraints first,
    /// then the shared tail rows (always `≤`, non-negative rhs) — as
    /// `(coefficients, sense, rhs)`.
    pub fn rows_all(&self) -> impl Iterator<Item = (&[(usize, f64)], Sense, f64)> {
        self.constraints
            .iter()
            .map(|c| (c.coeffs.as_slice(), c.sense, c.rhs))
            .chain(
                self.shared_tail
                    .iter()
                    .flat_map(|t| (0..t.n_rows()).map(move |i| (t.row(i), Sense::Le, t.rhs()[i]))),
            )
    }

    /// Optimization direction.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Objective coefficient vector.
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// The constraint rows.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Set the objective coefficient of variable `var`.
    pub fn set_objective(&mut self, var: usize, coeff: f64) {
        assert!(var < self.n_vars, "objective variable out of range");
        self.objective[var] = coeff;
    }

    /// Give variable `var` a human-readable name (for debugging output).
    pub fn set_var_name(&mut self, var: usize, name: impl Into<String>) {
        assert!(var < self.n_vars, "variable out of range");
        self.var_names[var] = Some(name.into());
    }

    /// Name of variable `var`, if one was set.
    pub fn var_name(&self, var: usize) -> Option<&str> {
        self.var_names.get(var).and_then(|n| n.as_deref())
    }

    /// Add a constraint and return its row index.
    pub fn add_constraint(&mut self, coeffs: &[(usize, f64)], sense: Sense, rhs: f64) -> usize {
        self.add_labeled_constraint(coeffs, sense, rhs, None::<String>)
    }

    /// Add a constraint with a label and return its row index.
    pub fn add_labeled_constraint(
        &mut self,
        coeffs: &[(usize, f64)],
        sense: Sense,
        rhs: f64,
        label: Option<impl Into<String>>,
    ) -> usize {
        self.constraints.push(Constraint {
            coeffs: coeffs.to_vec(),
            sense,
            rhs,
            label: label.map(Into::into),
        });
        self.constraints.len() - 1
    }

    /// Validate indices and coefficient finiteness.
    pub fn validate(&self) -> Result<(), LpError> {
        if self.n_vars == 0 {
            return Err(LpError::EmptyProblem);
        }
        for (i, c) in self.objective.iter().enumerate() {
            if !c.is_finite() {
                return Err(LpError::NonFiniteCoefficient {
                    location: format!("objective[{i}]"),
                });
            }
        }
        for (row, con) in self.constraints.iter().enumerate() {
            if !con.rhs.is_finite() {
                return Err(LpError::NonFiniteCoefficient {
                    location: format!("rhs of row {row}"),
                });
            }
            for &(idx, coeff) in &con.coeffs {
                if idx >= self.n_vars {
                    return Err(LpError::VariableOutOfRange {
                        index: idx,
                        n_vars: self.n_vars,
                    });
                }
                if !coeff.is_finite() {
                    return Err(LpError::NonFiniteCoefficient {
                        location: format!("row {row}, variable {idx}"),
                    });
                }
            }
        }
        if let Some(tail) = &self.shared_tail {
            // The block's own rows were validated at construction; only the
            // column-count compatibility can go wrong here.
            if tail.n_cols() != self.n_vars {
                return Err(LpError::SharedTailWidthMismatch {
                    tail_cols: tail.n_cols(),
                    n_vars: self.n_vars,
                });
            }
        }
        Ok(())
    }

    /// Solve the problem with default solver options.
    pub fn solve(&self) -> Result<Solution, LpError> {
        self.solve_with(&SolverOptions::default())
    }

    /// Solve the problem with explicit solver options.
    pub fn solve_with(&self, options: &SolverOptions) -> Result<Solution, LpError> {
        self.validate()?;
        solve(self, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_records_objective_and_constraints() {
        let mut p = Problem::maximize(3);
        p.set_objective(0, 1.0);
        p.set_objective(2, -2.0);
        p.set_var_name(2, "z");
        let r0 = p.add_constraint(&[(0, 1.0), (1, 1.0)], Sense::Le, 5.0);
        let r1 = p.add_labeled_constraint(&[(2, 1.0)], Sense::Ge, 1.0, Some("lower bound on z"));
        assert_eq!(p.n_vars(), 3);
        assert_eq!(p.n_constraints(), 2);
        assert_eq!(r0, 0);
        assert_eq!(r1, 1);
        assert_eq!(p.objective(), &[1.0, 0.0, -2.0]);
        assert_eq!(p.var_name(2), Some("z"));
        assert_eq!(p.var_name(0), None);
        assert_eq!(
            p.constraints()[1].label.as_deref(),
            Some("lower bound on z")
        );
        assert_eq!(p.direction(), Direction::Maximize);
    }

    #[test]
    fn validate_rejects_out_of_range_variable() {
        let mut p = Problem::maximize(2);
        p.add_constraint(&[(5, 1.0)], Sense::Le, 1.0);
        assert_eq!(
            p.validate(),
            Err(LpError::VariableOutOfRange {
                index: 5,
                n_vars: 2
            })
        );
    }

    #[test]
    fn validate_rejects_nan_rhs_and_empty_problem() {
        let mut p = Problem::maximize(1);
        p.add_constraint(&[(0, 1.0)], Sense::Le, f64::NAN);
        assert!(matches!(
            p.validate(),
            Err(LpError::NonFiniteCoefficient { .. })
        ));
        let p = Problem::maximize(0);
        assert_eq!(p.validate(), Err(LpError::EmptyProblem));
    }

    #[test]
    #[should_panic(expected = "objective variable out of range")]
    fn set_objective_out_of_range_panics() {
        let mut p = Problem::minimize(1);
        p.set_objective(3, 1.0);
    }

    #[test]
    fn shared_tail_rows_behave_like_explicit_constraints() {
        // max x + y s.t. x <= 2 (explicit), y <= 3 and x + y <= 4 (tail).
        let tail = Arc::new(SharedRowBlock::new(
            2,
            vec![vec![(1, 1.0)], vec![(0, 1.0), (1, 1.0)]],
            vec![3.0, 4.0],
        ));
        assert_eq!(tail.n_rows(), 2);
        assert_eq!(tail.n_cols(), 2);
        assert_eq!(tail.row(0), &[(1, 1.0)]);
        assert_eq!(tail.rhs(), &[3.0, 4.0]);
        let mut p = Problem::maximize(2);
        p.set_objective(0, 1.0);
        p.set_objective(1, 1.0);
        p.add_constraint(&[(0, 1.0)], Sense::Le, 2.0);
        p.set_shared_tail(tail.clone());
        assert_eq!(p.n_constraints(), 1);
        assert_eq!(p.n_rows_total(), 3);
        assert!(p.shared_tail().is_some());
        assert_eq!(p.rows_all().count(), 3);
        let s = p.solve().unwrap();
        assert!((s.objective - 4.0).abs() < 1e-6);
        assert_eq!(s.duals.len(), 3);
        // Strong duality across explicit + tail rows.
        let dual_obj: f64 = p.rows_all().zip(&s.duals).map(|((_, _, b), y)| b * y).sum();
        assert!((dual_obj - 4.0).abs() < 1e-6);
    }

    #[test]
    fn validate_rejects_mismatched_tail_width() {
        let tail = Arc::new(SharedRowBlock::new(3, vec![vec![(2, 1.0)]], vec![1.0]));
        let mut p = Problem::maximize(2);
        p.set_objective(0, 1.0);
        p.set_shared_tail(tail);
        assert!(matches!(
            p.validate(),
            Err(LpError::SharedTailWidthMismatch {
                tail_cols: 3,
                n_vars: 2
            })
        ));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn shared_block_rejects_negative_rhs() {
        SharedRowBlock::new(1, vec![vec![(0, 1.0)]], vec![-1.0]);
    }
}
