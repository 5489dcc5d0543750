//! Sparse revised simplex with a product-form (eta-file) basis inverse.
//!
//! This is the fast path for the bound-engine LPs. Where the dense solver
//! materializes the full `m × (n + m)` tableau and rewrites all of it on
//! every pivot, the revised method keeps the constraint matrix in sparse
//! column form and represents `B⁻¹` implicitly as a product of eta
//! transformations, so one iteration costs `O(nnz(A) + nnz(etas))` instead
//! of `O(m · (n + m))`. For the polymatroid LP (rows are Shannon elemental
//! inequalities with ≤ 4 nonzeros each) the measured end-to-end speedup over
//! the seed dense path grows from ~1.5× at 6 query variables to ~8× at 8
//! (see `BENCH_lp.json`), and the gap widens with size.
//!
//! Semantics mirror [`crate::simplex::solve_dense`] exactly: two phases with
//! artificial variables for `>=`/`==` rows, Bland's rule after a stall,
//! identical status classification, and the same dual-sign conventions, so
//! the two solvers can cross-check each other (see
//! `tests/proptest_sparse_dense.rs`).
//!
//! Every solve here is cold, from the slack basis.  Who comes through
//! (smaller LPs go to the dense tableau, see [`crate::SolverKind::Auto`],
//! and normal-cone bounds to [`crate::CoveringLp`]): materialized
//! polymatroid LPs of 6 to 8 variables (246 rows and up) — one-shot
//! `Cone::auto` bounds at those sizes (ten of the 33 queries of the
//! benchmark's `bound-only` workload, thirty LPs of experiment E3),
//! `compute_bound(.., Cone::Polymatroid)` on non-simple statistics, the
//! `lp_scaling` emitter, and the differential tests that plan on the
//! polymatroid cone against the product's normal one; the fully enumerated
//! normal-cone LPs that `lp_scaling` and `lp_agreement` keep as oracles of
//! the generated solve; and — through [`crate::IncrementalSolver`], which
//! shares `prepare` and the engine — the first relaxation of the lazy
//! polymatroid loop.

use crate::error::LpError;
use crate::problem::{Direction, Problem, Sense};
use crate::stats;
use std::sync::Arc;

/// Number of times any sparse-solver engine in this process refactorized its
/// eta file from scratch after hitting
/// [`SolverOptions::eta_refactor_cap`] (or extending its basis via
/// [`Engine::append_le_rows`]).  A view of
/// [`crate::SolverStats::refactorizations`].
pub fn eta_refactorization_count() -> usize {
    stats::refactorization_count() as usize
}

/// Residual below which a basic artificial is considered "at zero": the same
/// threshold phase 1 uses to accept a basis as feasible, so every artificial
/// that survives phase 1 is pinned by the ratio test (see
/// [`Engine::ratio_test`]) instead of drifting during phase 2.
const ARTIFICIAL_RESIDUAL: f64 = 1e-6;
use crate::simplex::{Pricing, Solution, SolverOptions, Status};
use crate::sparse::{CscMatrix, CsrMatrix};

/// One eta transformation: pivoting column `w` into basis position `row`.
#[derive(Clone)]
pub(crate) struct Eta {
    row: usize,
    pivot: f64,
    /// `(i, w_i)` for the nonzero off-pivot entries of the pivot column.
    entries: Vec<(usize, f64)>,
}

/// `x := E⁻¹ x` for each eta in application order (FTRAN).
pub(crate) fn ftran(etas: &[Eta], x: &mut [f64]) {
    for eta in etas {
        let xr = x[eta.row];
        if xr != 0.0 {
            let t = xr / eta.pivot;
            for &(i, w) in &eta.entries {
                x[i] -= w * t;
            }
            x[eta.row] = t;
        }
    }
}

/// `yᵀ := yᵀ E⁻¹` for each eta in reverse order (BTRAN).
pub(crate) fn btran(etas: &[Eta], y: &mut [f64]) {
    for eta in etas.iter().rev() {
        let mut acc = y[eta.row];
        for &(i, w) in &eta.entries {
            acc -= w * y[i];
        }
        y[eta.row] = acc / eta.pivot;
    }
}

/// Kind of a column in the working problem.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum ColKind {
    /// Structural variable `j` of the original problem.
    Structural,
    /// Slack (`+1`) or surplus (`-1`) singleton in some row.
    Slack,
    /// Phase-1 artificial singleton in some row.
    Artificial,
}

/// The structural columns of the working problem: the per-solve explicit
/// rows in CSC form (row indices `0..head_rows`), plus an optional shared
/// tail block whose cached CSC is borrowed by `Arc` and addressed at a row
/// offset — the tail is never rebuilt per solve — plus an optional block of
/// rows appended *after* the original problem by the row-append API
/// ([`Engine::append_le_rows`]), kept both as rows (for cheap re-append)
/// and as a rebuilt CSC mirror (for column access).
#[derive(Clone)]
pub(crate) struct ColumnStore {
    head: CscMatrix,
    tail: Option<(usize, Arc<CscMatrix>)>,
    /// Engine row index of the first appended row (= the original `m`).
    appended_offset: usize,
    appended_rows: Vec<Vec<(usize, f64)>>,
    appended: Option<CscMatrix>,
}

impl ColumnStore {
    fn col_dot(&self, j: usize, y: &[f64]) -> f64 {
        let mut acc = self.head.col_dot(j, y);
        if let Some((offset, tail)) = &self.tail {
            acc += tail.col(j).map(|(i, v)| v * y[offset + i]).sum::<f64>();
        }
        if let Some(app) = &self.appended {
            let offset = self.appended_offset;
            acc += app.col(j).map(|(i, v)| v * y[offset + i]).sum::<f64>();
        }
        acc
    }

    fn scatter_col(&self, j: usize, out: &mut [f64]) {
        self.head.scatter_col(j, out);
        if let Some((offset, tail)) = &self.tail {
            for (i, v) in tail.col(j) {
                out[offset + i] = v;
            }
        }
        if let Some(app) = &self.appended {
            for (i, v) in app.col(j) {
                out[self.appended_offset + i] = v;
            }
        }
    }

    /// Add rows at the end of the store, rebuilding the appended block's
    /// CSC mirror (cheap: the appended block holds at most a few thousand
    /// rows of ≤ 4 nonzeros each).
    fn append_rows(&mut self, n_cols: usize, rows: &[Vec<(usize, f64)>]) {
        self.appended_rows.extend(rows.iter().cloned());
        self.appended = Some(CsrMatrix::from_rows(n_cols, &self.appended_rows).to_csc());
    }
}

#[derive(Clone)]
pub(crate) struct Engine {
    pub(crate) m: usize,
    pub(crate) n_structural: usize,
    pub(crate) n_cols: usize,
    pub(crate) cols: ColumnStore,
    /// For slack/surplus/artificial columns: `(row, coefficient)`.
    pub(crate) singleton: Vec<(usize, f64)>,
    pub(crate) kind: Vec<ColKind>,
    pub(crate) basis: Vec<usize>,
    pub(crate) in_basis: Vec<bool>,
    pub(crate) etas: Vec<Eta>,
    pub(crate) x_b: Vec<f64>,
    pub(crate) b: Vec<f64>,
    pub(crate) tol: f64,
    /// Scratch: entering column in dense form.
    pub(crate) work: Vec<f64>,
    pub(crate) pivots_since_recompute: usize,
    /// Refactorize the eta file from scratch once it grows past this length.
    pub(crate) eta_cap: usize,
    /// Entering-variable pricing rule (see [`Pricing`]).
    pub(crate) pricing: Pricing,
    /// Bumped on every successful [`Engine::refactorize`]; lets the
    /// optimize loop detect in-pivot refactorizations and reset its Devex
    /// reference framework and incremental reduced costs.
    pub(crate) refactor_epoch: usize,
    /// Set when [`Engine::optimize`] returns [`Status::Unbounded`]: the
    /// entering column whose ratio test found no blocking row.  Together
    /// with the FTRANed column still held in `work`, this encodes the
    /// improving ray (see [`Engine::unbounded_ray_structural`]).
    pub(crate) unbounded_entering: Option<usize>,
}

impl Engine {
    /// `work := B⁻¹ work` using the eta file.
    pub(crate) fn ftran_work(&mut self) {
        let Engine { etas, work, .. } = self;
        ftran(etas, work);
    }

    pub(crate) fn column_into_work(&mut self, col: usize) {
        self.work.iter_mut().for_each(|v| *v = 0.0);
        if col < self.n_structural {
            let (cols, work) = (&self.cols, &mut self.work);
            cols.scatter_col(col, work);
        } else {
            let (row, coef) = self.singleton[col];
            self.work[row] = coef;
        }
    }

    /// `ρᵀ A_j` for a dense row vector `ρ` (dual-simplex pricing).
    pub(crate) fn row_dot_col(&self, col: usize, rho: &[f64]) -> f64 {
        if col < self.n_structural {
            self.cols.col_dot(col, rho)
        } else {
            let (row, coef) = self.singleton[col];
            coef * rho[row]
        }
    }

    /// Reduced cost of column `col` given `y = c_Bᵀ B⁻¹`.
    pub(crate) fn reduced_cost(&self, col: usize, cost: &[f64], y: &[f64]) -> f64 {
        cost[col] - self.row_dot_col(col, y)
    }

    /// `y = c_Bᵀ B⁻¹` for the given cost vector.
    pub(crate) fn duals_for(&self, cost: &[f64]) -> Vec<f64> {
        let mut y: Vec<f64> = self.basis.iter().map(|&b| cost[b]).collect();
        btran(&self.etas, &mut y);
        y
    }

    /// Current objective `c_Bᵀ x_B`.
    pub(crate) fn objective_for(&self, cost: &[f64]) -> f64 {
        self.basis
            .iter()
            .zip(self.x_b.iter())
            .map(|(&b, &x)| cost[b] * x)
            .sum()
    }

    /// Ratio test on `self.work`; returns the blocking row, if any.
    ///
    /// Rows whose basic variable is an artificial pinned at zero (residual
    /// within the phase-1 acceptance threshold) block at ratio 0 for
    /// *either* sign of the pivot entry, which both keeps the artificial at
    /// zero and drives it out of the basis — this replaces the dense
    /// solver's explicit `drive_out_artificials` pass.  The caller zeroes
    /// the pinned residual before pivoting (see [`Engine::optimize`]), so
    /// the entering variable comes in at exactly zero.
    pub(crate) fn ratio_test(&self) -> Option<usize> {
        let tol = self.tol;
        let mut pivot_row: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..self.m {
            let wi = self.work[i];
            let artificial_pinned_at_zero = self.x_b[i].abs() <= ARTIFICIAL_RESIDUAL
                && self.kind[self.basis[i]] == ColKind::Artificial;
            let ratio = if wi > tol {
                let numerator = if artificial_pinned_at_zero {
                    0.0
                } else {
                    self.x_b[i].max(0.0)
                };
                numerator / wi
            } else if artificial_pinned_at_zero && wi < -tol {
                0.0
            } else {
                continue;
            };
            let better = ratio < best_ratio - tol
                || (ratio < best_ratio + tol
                    && pivot_row.is_some_and(|r| self.basis[i] < self.basis[r]));
            if better {
                best_ratio = ratio;
                pivot_row = Some(i);
            }
        }
        pivot_row
    }

    /// Pivot `col` into basis position `row` using the entering column
    /// currently held in `self.work`.
    pub(crate) fn pivot(&mut self, row: usize, col: usize) {
        let pivot = self.work[row];
        debug_assert!(pivot.abs() > 1e-12, "pivot element too small");
        let theta = self.x_b[row] / pivot;
        for i in 0..self.m {
            if i != row && self.work[i] != 0.0 {
                self.x_b[i] -= theta * self.work[i];
                if self.x_b[i] < 0.0 && self.x_b[i] > -1e-9 {
                    self.x_b[i] = 0.0;
                }
            }
        }
        self.x_b[row] = theta;
        self.basis_replace(row, col);
        if self.etas.len() > self.eta_cap {
            self.refactorize();
        } else if self.pivots_since_recompute >= 64 {
            // Re-derive x_B = B⁻¹ b to keep incremental drift in check.
            let mut xb = self.b.clone();
            ftran(&self.etas, &mut xb);
            self.x_b = xb;
            self.pivots_since_recompute = 0;
        }
    }

    /// Rebuild the eta file from scratch for the current basis: at most one
    /// eta per row instead of one per pivot ever taken.  The product form is
    /// reconstructed by pivoting each basis column into its row; positions
    /// whose pivot entry is still tiny are deferred to a later pass (this
    /// multi-pass order keeps the file sparse).  When the natural
    /// row-per-column assignment gets stuck — possible for a perfectly
    /// nonsingular basis, e.g. one that is a row permutation away from
    /// triangular — a *forced pivot* places the column in its
    /// largest-magnitude unclaimed row instead (partial pivoting) and
    /// permutes the basis assignment to match; `basis[r]` and `x_b[r]` are
    /// parallel arrays re-derived from the new file, so the permutation is
    /// invisible to the rest of the solver.  Only genuine (numerical)
    /// singularity keeps the old file, with the cap doubled so the solve
    /// does not thrash on retries.
    ///
    /// Returns `true` when a fresh file was built, `false` when the old one
    /// was kept.  Callers that *require* a rebuild (row appends, whose old
    /// file is stale for the extended basis) must check this.
    pub(crate) fn refactorize(&mut self) -> bool {
        let m = self.m;
        let mut new_etas: Vec<Eta> = Vec::with_capacity(m);
        let mut new_basis = self.basis.clone();
        let mut claimed = vec![false; m];
        // `pending` holds basis *positions* whose column has not been
        // placed yet; the column of position `r` is `self.basis[r]`, even
        // after a forced pivot claims row `r` for some other column.
        let mut pending: Vec<usize> = (0..m).collect();
        while !pending.is_empty() {
            let before = pending.len();
            let mut still_pending = Vec::new();
            for &r in &pending {
                if claimed[r] {
                    still_pending.push(r);
                    continue;
                }
                self.column_into_work(self.basis[r]);
                ftran(&new_etas, &mut self.work);
                let pivot = self.work[r];
                // Threshold pivoting: the own-row pivot is only accepted
                // while it is within a stability factor of the best
                // unclaimed entry, else the column is deferred (and placed
                // by a later pass or a forced pivot on its largest entry).
                // Accepting any pivot above the bare singularity floor
                // breeds enormous growth factors on the all-±1 bound LPs.
                let max_unclaimed = (0..m)
                    .filter(|&i| !claimed[i])
                    .map(|i| self.work[i].abs())
                    .fold(0.0f64, f64::max);
                if pivot.abs() <= 1e-10 || pivot.abs() < 0.01 * max_unclaimed {
                    still_pending.push(r);
                    continue;
                }
                let entries: Vec<(usize, f64)> = (0..m)
                    .filter(|&i| i != r && self.work[i].abs() > 1e-12)
                    .map(|i| (i, self.work[i]))
                    .collect();
                new_etas.push(Eta {
                    row: r,
                    pivot,
                    entries,
                });
                claimed[r] = true;
            }
            if still_pending.len() == before {
                // Natural assignment stuck: force one column into its best
                // unclaimed row, then retry the cheap own-row passes.
                let mut placed_at = None;
                'force: for (k, &r) in still_pending.iter().enumerate() {
                    self.column_into_work(self.basis[r]);
                    ftran(&new_etas, &mut self.work);
                    let mut best: Option<usize> = None;
                    for (i, &taken) in claimed.iter().enumerate().take(m) {
                        if !taken
                            && self.work[i].abs() > 1e-10
                            && best.is_none_or(|b| self.work[i].abs() > self.work[b].abs())
                        {
                            best = Some(i);
                        }
                    }
                    if let Some(row) = best {
                        let pivot = self.work[row];
                        let entries: Vec<(usize, f64)> = (0..m)
                            .filter(|&i| i != row && self.work[i].abs() > 1e-12)
                            .map(|i| (i, self.work[i]))
                            .collect();
                        new_etas.push(Eta {
                            row,
                            pivot,
                            entries,
                        });
                        claimed[row] = true;
                        new_basis[row] = self.basis[r];
                        placed_at = Some(k);
                        break 'force;
                    }
                }
                match placed_at {
                    Some(k) => {
                        still_pending.remove(k);
                    }
                    None => {
                        // Every remaining column prices to ~0 in every
                        // unclaimed row: the basis is numerically singular.
                        // Keep the existing (longer but valid) file.
                        self.eta_cap = self.eta_cap.saturating_mul(2);
                        return false;
                    }
                }
            }
            pending = still_pending;
        }
        self.basis = new_basis;
        self.etas = new_etas;
        let mut xb = self.b.clone();
        ftran(&self.etas, &mut xb);
        self.x_b = xb;
        self.pivots_since_recompute = 0;
        self.refactor_epoch = self.refactor_epoch.wrapping_add(1);
        stats::record_refactorization();
        true
    }

    /// Extend the engine with `new_rows` of `(coefficients, rhs)` pairs,
    /// each a `<=` row over the structural variables, giving every new row
    /// a basic slack and refactorizing the extended basis.
    ///
    /// With the new slacks basic the extended basis matrix is block
    /// lower-triangular `[[B, 0], [R_B, I]]` — nonsingular whenever the old
    /// basis was — and the extended duals are `(y, 0)`, so **dual
    /// feasibility is preserved exactly**: reduced costs of old columns are
    /// unchanged and the new slacks price at zero.  Appended rows the
    /// current point violates surface as negative basic slacks, which the
    /// dual simplex then repairs — this is what lets constraint generation
    /// and grown warm starts extend a solved LP without a cold restart.
    ///
    /// Returns `false` if the mandatory refactorization failed (the engine
    /// is then unusable and the caller must rebuild from scratch).
    pub(crate) fn append_le_rows(&mut self, new_rows: &[(Vec<(usize, f64)>, f64)]) -> bool {
        let k = new_rows.len();
        if k == 0 {
            return true;
        }
        let old_m = self.m;
        let rows: Vec<Vec<(usize, f64)>> = new_rows.iter().map(|(r, _)| r.clone()).collect();
        self.cols.append_rows(self.n_structural, &rows);
        for (i, (_, rhs)) in new_rows.iter().enumerate() {
            self.b.push(*rhs);
            let col = self.n_cols + i;
            self.singleton.push((old_m + i, 1.0));
            self.kind.push(ColKind::Slack);
            self.in_basis.push(true);
            self.basis.push(col);
        }
        self.n_cols += k;
        self.m += k;
        self.work = vec![0.0; self.m];
        self.x_b.resize(self.m, 0.0);
        stats::record_append(k);
        self.refactorize()
    }

    /// After [`Engine::optimize`] returned [`Status::Unbounded`]: the
    /// improving ray restricted to the first `n` (structural) variables,
    /// scaled so the entering variable moves at rate 1.  `None` if the last
    /// optimize call did not end unbounded.
    pub(crate) fn unbounded_ray_structural(&self, n: usize) -> Option<Vec<f64>> {
        let q = self.unbounded_entering?;
        let mut d = vec![0.0; n];
        if q < n {
            d[q] = 1.0;
        }
        // x_B moves along -B⁻¹A_q, still held in `work` from the failed
        // ratio test.
        for (i, &bcol) in self.basis.iter().enumerate() {
            if bcol < n && self.work[i] != 0.0 {
                d[bcol] = -self.work[i];
            }
        }
        Some(d)
    }

    /// Record the eta for the entering column held in `self.work` and swap
    /// `col` into basis position `row` — bookkeeping only, `x_b` untouched.
    pub(crate) fn basis_replace(&mut self, row: usize, col: usize) {
        let pivot = self.work[row];
        let entries: Vec<(usize, f64)> = (0..self.m)
            .filter(|&i| i != row && self.work[i].abs() > 1e-12)
            .map(|i| (i, self.work[i]))
            .collect();
        self.etas.push(Eta {
            row,
            pivot,
            entries,
        });
        self.in_basis[self.basis[row]] = false;
        self.in_basis[col] = true;
        self.basis[row] = col;
        self.pivots_since_recompute += 1;
    }

    /// Exact reduced costs of every column (zero for basic columns).
    pub(crate) fn reduced_costs(&self, cost: &[f64]) -> Vec<f64> {
        let y = self.duals_for(cost);
        (0..self.n_cols)
            .map(|col| {
                if self.in_basis[col] {
                    0.0
                } else {
                    self.reduced_cost(col, cost, &y)
                }
            })
            .collect()
    }

    /// Run simplex on `cost` until optimal/unbounded or the iteration cap.
    ///
    /// `allow_artificial_entering` is true only in phase 1.
    pub(crate) fn optimize(
        &mut self,
        cost: &[f64],
        max_iter: usize,
        allow_artificial_entering: bool,
    ) -> Result<Status, LpError> {
        self.unbounded_entering = None;
        match self.pricing {
            Pricing::Dantzig => self.optimize_dantzig(cost, max_iter, allow_artificial_entering),
            Pricing::Devex => self.optimize_devex(cost, max_iter, allow_artificial_entering),
        }
    }

    /// Classic Dantzig pricing: full BTRAN + pricing pass per iteration,
    /// entering column = most positive reduced cost.
    fn optimize_dantzig(
        &mut self,
        cost: &[f64],
        max_iter: usize,
        allow_artificial_entering: bool,
    ) -> Result<Status, LpError> {
        let tol = self.tol;
        let mut stalled = 0usize;
        let mut last_objective = self.objective_for(cost);
        let bland_threshold = 2 * (self.m + self.n_cols);
        let mut remaining = max_iter;
        loop {
            if remaining == 0 {
                return Err(LpError::IterationLimit { limit: max_iter });
            }
            remaining -= 1;

            let use_bland = stalled > bland_threshold;
            let y = self.duals_for(cost);
            let mut entering: Option<(usize, f64)> = None;
            for col in 0..self.n_cols {
                if self.in_basis[col] {
                    continue;
                }
                if !allow_artificial_entering && self.kind[col] == ColKind::Artificial {
                    continue;
                }
                let rc = self.reduced_cost(col, cost, &y);
                if rc > tol {
                    if use_bland {
                        entering = Some((col, rc));
                        break;
                    }
                    if entering.is_none_or(|(_, best)| rc > best) {
                        entering = Some((col, rc));
                    }
                }
            }
            let Some((col, _)) = entering else {
                return Ok(Status::Optimal);
            };

            self.column_into_work(col);
            self.ftran_work();
            let mut row_opt = self.ratio_test();
            if row_opt.is_none() && !self.etas.is_empty() && self.refactorize() {
                // "No blocking row" through a long eta file can be pure
                // cancellation noise.  Re-derive the direction on a fresh
                // factorization; only a confirmed unblocked direction is
                // declared unbounded.
                self.column_into_work(col);
                self.ftran_work();
                row_opt = self.ratio_test();
            }
            let Some(row) = row_opt else {
                self.unbounded_entering = Some(col);
                return Ok(Status::Unbounded);
            };
            // A pinned artificial leaves at exactly zero: absorb its residual
            // (already within the phase-1 feasibility slop) so the entering
            // variable cannot come in negative via a negative pivot entry.
            if self.kind[self.basis[row]] == ColKind::Artificial
                && self.x_b[row].abs() <= ARTIFICIAL_RESIDUAL
            {
                self.x_b[row] = 0.0;
            }
            self.pivot(row, col);
            stats::record_primal_pivot();

            let objective = self.objective_for(cost);
            if objective > last_objective + tol {
                stalled = 0;
                last_objective = objective;
            } else {
                stalled += 1;
            }
        }
    }

    /// Devex reference-framework pricing with incrementally maintained
    /// reduced costs.
    ///
    /// Instead of a BTRAN plus a full pricing pass per iteration, one BTRAN
    /// of the pivot row updates the dense reduced-cost vector *and* the
    /// Devex weights in a single pass over the nonbasic columns — the same
    /// per-iteration cost as Dantzig, but the weighted criterion
    /// `rc²/w` avoids the long degenerate pivot chains Dantzig takes on the
    /// bound LPs.  Safeguards: the framework and the reduced costs restart
    /// from scratch after every refactorization and periodically to bound
    /// drift, Bland iterations re-price exactly, and optimality is only
    /// declared after a confirming exact pricing pass.
    fn optimize_devex(
        &mut self,
        cost: &[f64],
        max_iter: usize,
        allow_artificial_entering: bool,
    ) -> Result<Status, LpError> {
        let tol = self.tol;
        let mut stalled = 0usize;
        let mut last_objective = self.objective_for(cost);
        let bland_threshold = 2 * (self.m + self.n_cols);
        let mut remaining = max_iter;
        let mut weights = vec![1.0f64; self.n_cols];
        let mut rc = self.reduced_costs(cost);
        let mut epoch = self.refactor_epoch;
        let mut since_exact = 0usize;
        let mut rho = vec![0.0f64; self.m];
        loop {
            if remaining == 0 {
                return Err(LpError::IterationLimit { limit: max_iter });
            }
            remaining -= 1;

            let use_bland = stalled > bland_threshold;
            if use_bland || since_exact >= 100 {
                // Exact re-pricing: under Bland correctness depends on true
                // reduced-cost signs, and the incremental updates drift.
                rc = self.reduced_costs(cost);
                since_exact = 0;
            }
            let eligible = |this: &Self, col: usize| {
                !this.in_basis[col]
                    && (allow_artificial_entering || this.kind[col] != ColKind::Artificial)
            };
            let pick = |this: &Self, rc: &[f64], weights: &[f64]| -> Option<usize> {
                let mut best: Option<(usize, f64)> = None;
                for col in 0..this.n_cols {
                    if !eligible(this, col) || rc[col] <= tol {
                        continue;
                    }
                    let score = rc[col] * rc[col] / weights[col];
                    if best.is_none_or(|(_, b)| score > b) {
                        best = Some((col, score));
                    }
                }
                best.map(|(col, _)| col)
            };
            let col = if use_bland {
                (0..self.n_cols).find(|&c| eligible(self, c) && rc[c] > tol)
            } else {
                pick(self, &rc, &weights)
            };
            let col = match col {
                Some(col) => col,
                None => {
                    // The incremental reduced costs say "optimal"; confirm
                    // against exact pricing before stopping.
                    rc = self.reduced_costs(cost);
                    since_exact = 0;
                    match pick(self, &rc, &weights) {
                        Some(col) => col,
                        None => return Ok(Status::Optimal),
                    }
                }
            };

            self.column_into_work(col);
            self.ftran_work();
            let mut row_opt = self.ratio_test();
            if row_opt.is_none() {
                // Unboundedness must be confirmed, not inferred from drifted
                // state: refresh the factorization first, then re-check that
                // the column still prices as improving (the incremental
                // reduced cost may have gone stale), then re-derive the
                // direction — "no blocking row" through a long eta file can
                // be pure cancellation noise.
                if !self.etas.is_empty() {
                    self.refactorize();
                }
                let y = self.duals_for(cost);
                if self.reduced_cost(col, cost, &y) <= tol {
                    rc = self.reduced_costs(cost);
                    since_exact = 0;
                    continue;
                }
                self.column_into_work(col);
                self.ftran_work();
                row_opt = self.ratio_test();
            }
            let Some(row) = row_opt else {
                self.unbounded_entering = Some(col);
                return Ok(Status::Unbounded);
            };
            if self.kind[self.basis[row]] == ColKind::Artificial
                && self.x_b[row].abs() <= ARTIFICIAL_RESIDUAL
            {
                self.x_b[row] = 0.0;
            }
            // Pivot row ρ = e_rowᵀB⁻¹ of the *pre-pivot* basis, for the
            // simultaneous reduced-cost and Devex-weight updates.
            rho.iter_mut().for_each(|v| *v = 0.0);
            rho[row] = 1.0;
            btran(&self.etas, &mut rho);
            let alpha_q = self.work[row];
            let rc_q = rc[col];
            let w_q = weights[col];
            let leaving = self.basis[row];
            self.pivot(row, col);
            stats::record_primal_pivot();
            since_exact += 1;

            if self.refactor_epoch != epoch {
                // Reference-framework reset: factorization quality and
                // weight quality restart together.
                epoch = self.refactor_epoch;
                weights.iter_mut().for_each(|w| *w = 1.0);
                rc = self.reduced_costs(cost);
                since_exact = 0;
            } else {
                let step = rc_q / alpha_q;
                let wq_scaled = w_q / (alpha_q * alpha_q);
                for j in 0..self.n_cols {
                    if self.in_basis[j] {
                        continue;
                    }
                    let alpha_rj = self.row_dot_col(j, &rho);
                    if alpha_rj != 0.0 {
                        rc[j] -= step * alpha_rj;
                        let cand = alpha_rj * alpha_rj * wq_scaled;
                        if cand > weights[j] {
                            weights[j] = cand;
                        }
                    }
                }
                rc[col] = 0.0;
                weights[leaving] = wq_scaled.max(1.0);
            }

            let objective = self.objective_for(cost);
            if objective > last_objective + tol {
                stalled = 0;
                last_objective = objective;
            } else {
                stalled += 1;
            }
        }
    }
}

/// Primal-feasibility slack shared by the replay acceptance check and the
/// dual simplex: basic values above `-PRIMAL_FEAS_TOL` count as feasible
/// (and are clamped to zero before primal iterations resume).
pub(crate) const PRIMAL_FEAS_TOL: f64 = 1e-7;

/// A problem normalized and ready to optimize, plus everything needed to
/// interpret the engine's answer in the caller's original coordinates.
pub(crate) struct Prepared {
    pub(crate) n: usize,
    pub(crate) m: usize,
    pub(crate) sign: f64,
    /// Explicit-row flip pattern (tail rows are never flipped).
    pub(crate) row_flipped: Vec<bool>,
    pub(crate) n_artificial: usize,
    /// Phase-2 cost vector over all working columns.
    pub(crate) cost2: Vec<f64>,
    pub(crate) engine: Engine,
    pub(crate) max_iter: usize,
}

/// Outcome of [`prepare`]: either a ready engine or an immediately decided
/// solution (problems with no rows at all).
pub(crate) enum Prep {
    Ready(Box<Prepared>),
    Trivial(Solution),
}

/// Normalize `problem` — explicit rows are flipped so every RHS is
/// non-negative, the cold-start invariant phase 1 relies on — and build the
/// revised-simplex engine.
pub(crate) fn prepare(problem: &Problem, options: &SolverOptions) -> Prep {
    let n = problem.n_vars();
    let m_explicit = problem.n_constraints();
    let tail = problem.shared_tail().cloned();
    let m = m_explicit + tail.as_ref().map_or(0, |t| t.n_rows());
    // Floor the pivot tolerance: the ratio test only admits pivot entries
    // larger than `tol`, and the eta factorization needs those entries
    // comfortably away from zero.
    let tol = options.tolerance.max(1e-12);

    let sign = match problem.direction() {
        Direction::Maximize => 1.0,
        Direction::Minimize => -1.0,
    };
    let mut obj = vec![0.0; n];
    for (j, c) in problem.objective().iter().enumerate() {
        obj[j] = sign * c;
    }

    if m == 0 {
        let status = if obj.iter().any(|&c| c > tol) {
            Status::Unbounded
        } else {
            Status::Optimal
        };
        return Prep::Trivial(Solution {
            status,
            objective: if status == Status::Unbounded {
                f64::INFINITY * sign
            } else {
                0.0
            },
            x: vec![0.0; n],
            duals: vec![],
            basis: vec![],
        });
    }

    // Normalize explicit rows, mirroring the dense path; tail rows are `<=`
    // with non-negative RHS by construction and are appended untouched.
    let mut row_flipped = vec![false; m_explicit];
    let mut b = vec![0.0; m];
    let mut senses = Vec::with_capacity(m);
    let mut sparse_rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m_explicit);
    for (i, con) in problem.constraints().iter().enumerate() {
        let flip = con.rhs < 0.0;
        row_flipped[i] = flip;
        let mult = if flip { -1.0 } else { 1.0 };
        b[i] = mult * con.rhs;
        senses.push(match (con.sense, flip) {
            (Sense::Le, false) | (Sense::Ge, true) => Sense::Le,
            (Sense::Ge, false) | (Sense::Le, true) => Sense::Ge,
            (Sense::Eq, _) => Sense::Eq,
        });
        sparse_rows.push(con.coeffs.iter().map(|&(j, c)| (j, mult * c)).collect());
    }
    if let Some(tail) = &tail {
        for (i, &rhs) in tail.rhs().iter().enumerate() {
            b[m_explicit + i] = rhs;
            senses.push(Sense::Le);
        }
    }
    let head_csc = CsrMatrix::from_rows(n, &sparse_rows).to_csc();
    let cols = ColumnStore {
        head: head_csc,
        tail: tail.as_ref().map(|t| (m_explicit, Arc::clone(t.csc()))),
        appended_offset: m,
        appended_rows: Vec::new(),
        appended: None,
    };

    // Column layout: structural, then one slack/surplus per Le/Ge row, then
    // one artificial per Ge/Eq row — identical to the dense tableau.
    let n_slack = senses.iter().filter(|s| **s != Sense::Eq).count();
    let n_artificial = senses.iter().filter(|s| **s != Sense::Le).count();
    let n_cols = n + n_slack + n_artificial;
    let mut singleton = vec![(usize::MAX, 0.0); n_cols];
    let mut kind = vec![ColKind::Structural; n_cols];
    let mut basis = vec![usize::MAX; m];
    let mut next_slack = n;
    let mut next_artificial = n + n_slack;
    for (i, sense) in senses.iter().enumerate() {
        match sense {
            Sense::Le => {
                singleton[next_slack] = (i, 1.0);
                kind[next_slack] = ColKind::Slack;
                basis[i] = next_slack;
                next_slack += 1;
            }
            Sense::Ge => {
                singleton[next_slack] = (i, -1.0);
                kind[next_slack] = ColKind::Slack;
                next_slack += 1;
                singleton[next_artificial] = (i, 1.0);
                kind[next_artificial] = ColKind::Artificial;
                basis[i] = next_artificial;
                next_artificial += 1;
            }
            Sense::Eq => {
                singleton[next_artificial] = (i, 1.0);
                kind[next_artificial] = ColKind::Artificial;
                basis[i] = next_artificial;
                next_artificial += 1;
            }
        }
    }
    let mut in_basis = vec![false; n_cols];
    for &col in &basis {
        in_basis[col] = true;
    }

    let engine = Engine {
        m,
        n_structural: n,
        n_cols,
        cols,
        singleton,
        kind,
        basis,
        in_basis,
        etas: Vec::new(),
        x_b: b.clone(),
        b,
        tol,
        work: vec![0.0; m],
        pivots_since_recompute: 0,
        // Refactorization itself leaves up to one eta per row, so a cap
        // below m refactorizes after every pivot — correct, just eager.
        eta_cap: options.eta_refactor_cap.max(1),
        pricing: options.pricing,
        refactor_epoch: 0,
        unbounded_entering: None,
    };

    // Per-phase iteration cap, matching the dense solver's semantics.
    let max_iter = options
        .max_iterations
        .unwrap_or_else(|| 200 * (m + n_cols).max(100));

    // Phase-2 cost vector over all columns.
    let mut cost2 = vec![0.0; n_cols];
    cost2[..n].copy_from_slice(&obj);

    Prep::Ready(Box::new(Prepared {
        n,
        m,
        sign,
        row_flipped,
        n_artificial,
        cost2,
        engine,
        max_iter,
    }))
}

/// The all-zero solution reported for infeasible problems.
pub(crate) fn infeasible_solution(n: usize, m: usize) -> Solution {
    Solution {
        status: Status::Infeasible,
        objective: f64::NAN,
        x: vec![0.0; n],
        duals: vec![0.0; m],
        basis: vec![],
    }
}

/// Read the optimal primal/dual solution out of an optimized engine, undoing
/// the explicit-row flips and the direction sign.
pub(crate) fn extract_solution(
    engine: &Engine,
    cost2: &[f64],
    sign: f64,
    row_flipped: &[bool],
    n: usize,
) -> Solution {
    let mut x = vec![0.0; n];
    let mut structural_basis = Vec::new();
    for (row, &col) in engine.basis.iter().enumerate() {
        if col < n {
            x[col] = engine.x_b[row];
            structural_basis.push((row, col));
        }
    }
    let y = engine.duals_for(cost2);
    let mut duals = vec![0.0; engine.m];
    for i in 0..engine.m {
        let mut v = y[i];
        if i < row_flipped.len() && row_flipped[i] {
            v = -v;
        }
        duals[i] = sign * v;
    }
    let objective = sign * engine.objective_for(cost2);
    Solution {
        status: Status::Optimal,
        objective,
        x,
        duals,
        basis: structural_basis,
    }
}

/// Solve `problem` with the sparse revised simplex.
///
/// Status classification, dual signs and the strong-duality identity
/// `objective == Σ dualsᵢ · rhsᵢ` all match the dense solver.
pub fn solve_sparse(problem: &Problem, options: &SolverOptions) -> Result<Solution, LpError> {
    stats::record_solve(stats::SolvePath::RevisedCold, problem.n_vars());
    let mut p = match prepare(problem, options) {
        Prep::Trivial(solution) => return Ok(solution),
        Prep::Ready(p) => *p,
    };
    let (n, m) = (p.n, p.m);
    let sign = p.sign;
    let max_iter = p.max_iter;

    if p.n_artificial > 0 {
        let cost1: Vec<f64> = p
            .engine
            .kind
            .iter()
            .map(|k| if *k == ColKind::Artificial { -1.0 } else { 0.0 })
            .collect();
        match p.engine.optimize(&cost1, max_iter, true)? {
            Status::Optimal => {
                let phase1 = p.engine.objective_for(&cost1);
                if phase1 < -1e-6 {
                    return Ok(infeasible_solution(n, m));
                }
            }
            // The phase-1 objective is bounded above by zero, so an
            // "unbounded" here can only mean accumulated round-off let a
            // sub-tolerance column pass the entering test; report it rather
            // than panicking the caller.
            Status::Unbounded => {
                return Err(LpError::NumericalInstability {
                    detail: "phase 1 reported an unbounded direction; \
                             the dense fallback solver may succeed"
                        .into(),
                })
            }
            Status::Infeasible => unreachable!("optimize never returns Infeasible"),
        }
    }

    let status = p.engine.optimize(&p.cost2, max_iter, false)?;
    if status == Status::Unbounded {
        return Ok(Solution {
            status,
            objective: f64::INFINITY * sign,
            x: vec![0.0; n],
            duals: vec![0.0; m],
            basis: vec![],
        });
    }

    Ok(extract_solution(
        &p.engine,
        &p.cost2,
        sign,
        &p.row_flipped,
        n,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;
    use crate::simplex::SolverKind;

    fn sparse_opts() -> SolverOptions {
        SolverOptions {
            solver: SolverKind::SparseRevised,
            ..SolverOptions::default()
        }
    }

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    #[test]
    fn matches_textbook_maximization() {
        let mut p = Problem::maximize(2);
        p.set_objective(0, 3.0);
        p.set_objective(1, 5.0);
        p.add_constraint(&[(0, 1.0)], Sense::Le, 4.0);
        p.add_constraint(&[(1, 2.0)], Sense::Le, 12.0);
        p.add_constraint(&[(0, 3.0), (1, 2.0)], Sense::Le, 18.0);
        let s = p.solve_with(&sparse_opts()).unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 36.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 6.0);
        let dual_obj = s.duals[0] * 4.0 + s.duals[1] * 12.0 + s.duals[2] * 18.0;
        assert_close(dual_obj, 36.0);
        assert!(!s.basis.is_empty());
    }

    #[test]
    fn handles_ge_and_eq_rows() {
        let mut p = Problem::minimize(2);
        p.set_objective(0, 2.0);
        p.set_objective(1, 3.0);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Sense::Ge, 4.0);
        p.add_constraint(&[(0, 1.0), (1, 2.0)], Sense::Ge, 6.0);
        let s = p.solve_with(&sparse_opts()).unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 10.0);
        assert_close(s.duals[0] * 4.0 + s.duals[1] * 6.0, 10.0);

        let mut p = Problem::maximize(2);
        p.set_objective(0, 1.0);
        p.set_objective(1, 1.0);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Sense::Eq, 3.0);
        p.add_constraint(&[(0, 1.0)], Sense::Le, 2.0);
        let s = p.solve_with(&sparse_opts()).unwrap();
        assert_close(s.objective, 3.0);
    }

    #[test]
    fn classifies_infeasible_and_unbounded() {
        let mut p = Problem::maximize(1);
        p.set_objective(0, 1.0);
        p.add_constraint(&[(0, 1.0)], Sense::Le, 1.0);
        p.add_constraint(&[(0, 1.0)], Sense::Ge, 2.0);
        assert_eq!(
            p.solve_with(&sparse_opts()).unwrap().status,
            Status::Infeasible
        );

        let mut p = Problem::maximize(1);
        p.set_objective(0, 1.0);
        p.add_constraint(&[(0, 1.0)], Sense::Ge, 1.0);
        assert_eq!(
            p.solve_with(&sparse_opts()).unwrap().status,
            Status::Unbounded
        );
    }

    #[test]
    fn eta_cap_triggers_refactorization_and_preserves_the_optimum() {
        // A problem with enough pivots that a tiny cap must trigger: maximize
        // Σ x_j over a chain of coupled rows.
        let n = 24usize;
        let mut p = Problem::maximize(n);
        for j in 0..n {
            p.set_objective(j, 1.0 + (j as f64) * 0.01);
            p.add_constraint(&[(j, 1.0)], Sense::Le, 1.0 + (j % 3) as f64);
        }
        for j in 0..n - 1 {
            p.add_constraint(&[(j, 1.0), (j + 1, 1.0)], Sense::Le, 2.5);
        }
        let capped_opts = SolverOptions {
            eta_refactor_cap: 4,
            ..sparse_opts()
        };
        let before = eta_refactorization_count();
        let capped = p.solve_with(&capped_opts).unwrap();
        let after = eta_refactorization_count();
        assert!(
            after > before,
            "a cap of 4 etas must refactorize at least once \
             (count {before} -> {after})"
        );
        let reference = p.solve_with(&sparse_opts()).unwrap();
        assert_eq!(capped.status, reference.status);
        assert_close(capped.objective, reference.objective);
        let dense = p.solve_with(&SolverOptions::dense()).unwrap();
        assert_close(capped.objective, dense.objective);
    }

    #[test]
    fn refactorized_engine_keeps_duals_and_basis_consistent() {
        let mut p = Problem::maximize(6);
        for j in 0..6 {
            p.set_objective(j, (j + 1) as f64);
            p.add_constraint(&[(j, 1.0)], Sense::Le, 3.0);
        }
        p.add_constraint(&[(0, 1.0), (2, 1.0), (4, 1.0)], Sense::Le, 5.0);
        p.add_constraint(&[(1, 1.0), (3, 1.0), (5, 1.0)], Sense::Le, 4.0);
        let capped = p
            .solve_with(&SolverOptions {
                eta_refactor_cap: 1,
                ..sparse_opts()
            })
            .unwrap();
        assert_eq!(capped.status, Status::Optimal);
        // Strong duality must survive refactorization.
        let dual_obj: f64 = p
            .rows_all()
            .zip(&capped.duals)
            .map(|((_, _, b), y)| b * y)
            .sum();
        assert_close(dual_obj, capped.objective);
    }

    #[test]
    fn degenerate_beale_terminates() {
        let mut p = Problem::maximize(4);
        p.set_objective(0, 0.75);
        p.set_objective(1, -150.0);
        p.set_objective(2, 0.02);
        p.set_objective(3, -6.0);
        p.add_constraint(
            &[(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)],
            Sense::Le,
            0.0,
        );
        p.add_constraint(
            &[(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)],
            Sense::Le,
            0.0,
        );
        p.add_constraint(&[(2, 1.0)], Sense::Le, 1.0);
        let s = p.solve_with(&sparse_opts()).unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 0.05);
    }
}
