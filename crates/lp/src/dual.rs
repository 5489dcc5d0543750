//! Dual simplex phase and warm-start handles for the sparse revised solver.
//!
//! The primal simplex keeps `x_B ≥ 0` and chases dual feasibility (all
//! reduced costs non-positive, in the internal maximization convention); the
//! dual simplex does the opposite: starting from a **dual-feasible** basis —
//! which is exactly what the optimal basis of a previous solve is — it keeps
//! the reduced costs non-positive while driving negative basic values out.
//! That makes it the natural way to absorb right-hand-side changes: when a
//! bound engine re-solves the same LP family with new statistics values,
//! the old optimal basis stays dual feasible and only a handful of dual
//! pivots are needed, instead of a basis replay plus a full primal run.
//!
//! Two consumers:
//!
//! * [`crate::solve_sparse`]'s basis-replay warm start calls
//!   [`dual_simplex`] when the replayed basis turns out primal infeasible
//!   for the new RHS (previously it fell back to a cold start);
//! * [`WarmHandle`] snapshots the entire factorized engine at an optimum and
//!   [`WarmHandle::resolve`]s same-matrix/new-RHS problems with one FTRAN
//!   plus dual pivots — no replay, no phase 1, no matrix rebuild.  This is
//!   what makes `BatchEstimator`'s warm starts profitable (`BENCH_lp.json`,
//!   `dual_warm_us`).

use crate::error::LpError;
use crate::problem::{Constraint, Direction, Problem, Sense, SharedRowBlock};
use crate::revised::{
    btran, extract_solution, ftran, infeasible_solution, solve_sparse, ColKind, Engine, Prepared,
    PRIMAL_FEAS_TOL,
};
use crate::simplex::{Solution, SolverOptions, Status};
use crate::sparse::CsrMatrix;
use crate::stats::{record_solve, SolvePath};
use std::sync::Arc;

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

/// True when every nonbasic, non-artificial column prices out non-positive
/// (the dual-feasibility invariant the dual simplex maintains).
pub(crate) fn is_dual_feasible(engine: &Engine, cost: &[f64]) -> bool {
    let y = engine.duals_for(cost);
    (0..engine.n_cols).all(|col| {
        engine.in_basis[col]
            || engine.kind[col] == ColKind::Artificial
            || engine.reduced_cost(col, cost, &y) <= engine.tol
    })
}

/// Run dual simplex iterations until the basis is primal feasible, the
/// problem is proven infeasible, or the iteration cap is hit.
///
/// Precondition: the current basis is dual feasible for `cost` (see
/// [`is_dual_feasible`]); artificial columns never enter.
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

/// A snapshot of the sparse solver's state at an optimal basis, reusable to
/// re-solve LPs that share the **same matrix, objective and senses** but
/// have different right-hand sides.
///
/// Obtained from [`crate::solve_sparse_with_handle`]; consumed by
/// [`resolve`](Self::resolve).  The snapshot owns its factorization (basis +
/// eta file) and only borrows shared tail blocks by `Arc`, so it is `Send +
/// Sync` and can back a cross-thread warm-start cache.  Every `resolve`
/// clones the factorization, so a handle can be reused any number of times
/// without accumulating etas.
#[derive(Clone)]
pub struct WarmHandle {
    engine: Engine,
    cost2: Vec<f64>,
    sign: f64,
    n: usize,
    m: usize,
    max_iter: usize,
    row_flipped: Vec<bool>,
    /// Normalized explicit rows in canonical CSR form, for the cheap
    /// matrix-identity check in [`resolve`](Self::resolve).
    rows: CsrMatrix,
    raw_senses: Vec<Sense>,
    tail: Option<Arc<SharedRowBlock>>,
    objective: Vec<f64>,
    direction: Direction,
    /// Row permutation for handles produced by
    /// [`resolve_grown`](Self::resolve_grown): `engine_row_of[i]` is the
    /// engine row holding problem row `i` (explicit rows first, then tail
    /// rows).  `None` means the identity (plain snapshots), where engine
    /// rows are problem rows.
    engine_row_of: Option<Vec<usize>>,
}

impl std::fmt::Debug for WarmHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarmHandle")
            .field("n_vars", &self.n)
            .field("n_rows", &self.m)
            .finish()
    }
}

impl WarmHandle {
    /// Capture the optimized engine of `prepared` (artificial-free problems
    /// only; enforced by the caller).
    pub(crate) fn snapshot(problem: &Problem, prepared: Prepared) -> WarmHandle {
        debug_assert_eq!(prepared.n_artificial, 0);
        let rows = CsrMatrix::from_rows(prepared.n, &prepared.rows);
        WarmHandle {
            engine: prepared.engine,
            cost2: prepared.cost2,
            sign: prepared.sign,
            n: prepared.n,
            m: prepared.m,
            max_iter: prepared.max_iter,
            row_flipped: prepared.row_flipped,
            rows,
            raw_senses: problem.constraints().iter().map(|c| c.sense).collect(),
            tail: prepared.tail,
            objective: problem.objective().to_vec(),
            direction: problem.direction(),
            engine_row_of: None,
        }
    }

    /// Engine row holding problem row `i` (explicit rows first, then tail).
    fn engine_row(&self, problem_row: usize) -> usize {
        self.engine_row_of
            .as_ref()
            .map_or(problem_row, |p| p[problem_row])
    }

    /// Number of structural variables of the snapshotted problem.
    pub fn n_vars(&self) -> usize {
        self.n
    }

    /// Total number of constraint rows of the snapshotted problem.
    pub fn n_rows(&self) -> usize {
        self.m
    }

    /// True when `problem` has the same matrix, senses, objective and
    /// direction as the snapshot, differing at most in right-hand sides —
    /// the precondition under which [`resolve`](Self::resolve) can reuse the
    /// factorization.
    pub fn matches(&self, problem: &Problem) -> bool {
        if problem.n_vars() != self.n
            || problem.n_constraints() != self.row_flipped.len()
            || problem.direction() != self.direction
            || problem.objective() != self.objective.as_slice()
        {
            return false;
        }
        match (problem.shared_tail(), &self.tail) {
            (None, None) => {}
            (Some(a), Some(b)) if Arc::ptr_eq(a, b) => {}
            _ => return false,
        }
        let constraints = problem.constraints();
        if constraints
            .iter()
            .zip(&self.raw_senses)
            .any(|(c, &s)| c.sense != s)
        {
            return false;
        }
        // Renormalize the new rows with the *snapshot's* flip pattern and
        // compare canonically — O(nnz), far below one simplex iteration.
        let rows: Vec<Vec<(usize, f64)>> = constraints
            .iter()
            .zip(&self.row_flipped)
            .map(|(c, &flip)| flip_row(c, flip))
            .collect();
        CsrMatrix::from_rows(self.n, &rows) == self.rows
    }

    /// Re-solve `problem` starting from the snapshotted optimal basis,
    /// absorbing right-hand-side changes with dual pivots.
    ///
    /// The answer always matches a cold solve: when the problem's matrix
    /// does not [`match`](Self::matches) the snapshot, or the dual phase
    /// loses feasibility numerically, this transparently falls back to
    /// [`solve_sparse`].  `options` is consulted by that fallback; the fast
    /// path keeps the snapshot's tolerances.
    pub fn resolve(&self, problem: &Problem, options: &SolverOptions) -> Result<Solution, LpError> {
        problem.validate()?;
        if !self.matches(problem) {
            return solve_sparse(problem, options);
        }
        record_solve(SolvePath::DualWarm, self.n);

        let mut engine = self.engine.clone();
        // New RHS in the snapshot's row orientation (and, for grown
        // handles, its row order): flipped explicit rows may yield negative
        // entries — exactly what dual pivots handle.
        let mut b = vec![0.0; self.m];
        for (i, con) in problem.constraints().iter().enumerate() {
            b[self.engine_row(i)] = if self.row_flipped[i] {
                -con.rhs
            } else {
                con.rhs
            };
        }
        if self.tail.is_some() {
            let offset = problem.n_constraints();
            let tail_rhs = problem.tail_rhs().expect("matched tail has rhs");
            for (t, &rhs) in tail_rhs.iter().enumerate() {
                b[self.engine_row(offset + t)] = rhs;
            }
        }
        let mut xb = b.clone();
        ftran(&engine.etas, &mut xb);
        engine.x_b = xb;
        engine.b = b;
        engine.pivots_since_recompute = 0;

        if engine.x_b.iter().any(|&v| v < -PRIMAL_FEAS_TOL) {
            match dual_simplex(&mut engine, &self.cost2, self.max_iter) {
                Ok(DualOutcome::PrimalFeasible) => {}
                Ok(DualOutcome::Infeasible) => {
                    return Ok(infeasible_solution(self.n, self.m));
                }
                Ok(DualOutcome::LostDualFeasibility) | Err(_) => {
                    return solve_sparse(problem, options);
                }
            }
        }
        for v in engine.x_b.iter_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }

        // Primal polish: from a primal- and dual-feasible basis this
        // normally prices one pass and stops; it also mops up tolerance
        // drift left by the dual phase.
        match engine.optimize(&self.cost2, self.max_iter, false) {
            Ok(Status::Optimal) => Ok(extract_permuted(
                &engine,
                &self.cost2,
                self.sign,
                &self.row_flipped,
                self.n,
                self.engine_row_of.as_deref(),
            )),
            // Unreachable from a dual-feasible basis unless numerics broke;
            // the cold path is the authority either way.
            Ok(Status::Unbounded) | Ok(Status::Infeasible) | Err(_) => {
                solve_sparse(problem, options)
            }
        }
    }

    /// True when `problem` *contains* the snapshot: every snapshot row
    /// appears among the problem's explicit rows (same coefficients and
    /// sense, any right-hand side), the extra rows are all `<=`, and
    /// variables, objective, direction and tail block are identical.  This
    /// is the precondition for [`resolve_grown`](Self::resolve_grown)'s
    /// fast path.
    pub fn matches_superset(&self, problem: &Problem) -> bool {
        self.superset_mapping(problem).is_some()
    }

    /// Map a superset problem onto the snapshot: for each problem explicit
    /// row, the engine row holding it (`Ok`) or its index in the appended
    /// list (`Err`); plus the appended rows themselves in append order.
    #[allow(clippy::type_complexity)]
    fn superset_mapping(
        &self,
        problem: &Problem,
    ) -> Option<(
        Vec<Result<(usize, bool), usize>>,
        Vec<(Vec<(usize, f64)>, f64)>,
    )> {
        let k_old = self.row_flipped.len();
        if problem.n_vars() != self.n
            || problem.n_constraints() < k_old
            || problem.direction() != self.direction
            || problem.objective() != self.objective.as_slice()
        {
            return None;
        }
        match (problem.shared_tail(), &self.tail) {
            (None, None) => {}
            (Some(a), Some(b)) if Arc::ptr_eq(a, b) => {}
            _ => return None,
        }
        // Key snapshot rows by their *raw* (unflipped) canonical
        // coefficients and sense; rows of the bound LPs are built
        // deterministically from the statistics, so bit-exact matching is
        // the right equality here.
        use std::collections::HashMap;
        let mut by_key: HashMap<(Vec<(usize, u64)>, Sense), Vec<usize>> = HashMap::new();
        for i in 0..k_old {
            let mult = if self.row_flipped[i] { -1.0 } else { 1.0 };
            let key: Vec<(usize, u64)> = self
                .rows
                .row(i)
                .map(|(j, c)| (j, (mult * c).to_bits()))
                .collect();
            by_key.entry((key, self.raw_senses[i])).or_default().push(i);
        }
        let mut assignment = Vec::with_capacity(problem.n_constraints());
        let mut appended: Vec<(Vec<(usize, f64)>, f64)> = Vec::new();
        let mut consumed = 0usize;
        for con in problem.constraints() {
            let canon = canonical_row(&con.coeffs);
            let key: Vec<(usize, u64)> = canon.iter().map(|&(j, c)| (j, c.to_bits())).collect();
            if let Some(slots) = by_key.get_mut(&(key, con.sense)) {
                if let Some(i) = slots.pop() {
                    assignment.push(Ok((self.engine_row(i), self.row_flipped[i])));
                    consumed += 1;
                    continue;
                }
            }
            // Extra row: only `<=` rows can be appended with a basic slack.
            if con.sense != Sense::Le {
                return None;
            }
            assignment.push(Err(appended.len()));
            appended.push((canon, con.rhs));
        }
        if consumed != k_old {
            // Some snapshot row is missing from the problem: the matrices
            // genuinely differ, a grown resolve would be wrong.
            return None;
        }
        Some((assignment, appended))
    }

    /// Re-solve a problem whose statistic rows are a **superset** of the
    /// snapshot's: the shared rows reuse the factorized basis with their
    /// new right-hand sides, the extra `<=` rows are appended with basic
    /// slacks (preserving dual feasibility exactly — the extended duals
    /// are `(y, 0)`), and dual pivots repair whatever the new rows
    /// violate.  This is how `BatchEstimator` stays warm while a planner
    /// walks subset lattices of growing sub-joins.
    ///
    /// Returns the solution plus, when the solve ended at a clean optimum,
    /// a new handle snapshotting the *grown* shape (its engine rows are a
    /// permutation of the new problem's rows; `resolve` on it handles
    /// that transparently).  Falls back to a cold
    /// [`solve_sparse_with_handle`] when the problem is not a superset or
    /// numerics fail — the answer always matches a cold solve.
    #[allow(clippy::type_complexity)]
    pub fn resolve_grown(
        &self,
        problem: &Problem,
        options: &SolverOptions,
    ) -> Result<(Solution, Option<WarmHandle>), LpError> {
        problem.validate()?;
        let Some((assignment, appended)) = self.superset_mapping(problem) else {
            return crate::solve_sparse_with_handle(problem, options);
        };
        if appended.is_empty() {
            // Identical matrix (possibly reordered): the plain dual-warm
            // resolve covers it.
            return Ok((self.resolve(problem, options)?, None));
        }

        let mut engine = self.engine.clone();
        // New RHS for the shared rows, in the engine's row order and the
        // snapshot's orientation; appended rows carry their own rhs.
        let mut b = engine.b.clone();
        let mut flip_new = vec![false; problem.n_constraints()];
        for (pi, (slot, con)) in assignment.iter().zip(problem.constraints()).enumerate() {
            if let Ok((engine_row, flipped)) = slot {
                b[*engine_row] = if *flipped { -con.rhs } else { con.rhs };
                flip_new[pi] = *flipped;
            }
        }
        if self.tail.is_some() {
            let k_old = self.row_flipped.len();
            let tail_rhs = problem.tail_rhs().expect("matched tail has rhs");
            for (t, &rhs) in tail_rhs.iter().enumerate() {
                b[self.engine_row(k_old + t)] = rhs;
            }
        }
        engine.b = b;
        let old_engine_m = engine.m;
        if !engine.append_le_rows(&appended) {
            return crate::solve_sparse_with_handle(problem, options);
        }
        record_solve(SolvePath::AppendWarm, self.n);
        let mut cost2 = self.cost2.clone();
        cost2.resize(engine.n_cols, 0.0);
        let max_iter = 200 * (engine.m + engine.n_cols).max(100);

        if engine.x_b.iter().any(|&v| v < -PRIMAL_FEAS_TOL) {
            match dual_simplex(&mut engine, &cost2, max_iter) {
                Ok(DualOutcome::PrimalFeasible) => {}
                Ok(DualOutcome::Infeasible) => {
                    return Ok((infeasible_solution(self.n, engine.m), None));
                }
                Ok(DualOutcome::LostDualFeasibility) | Err(_) => {
                    return crate::solve_sparse_with_handle(problem, options);
                }
            }
        }
        for v in engine.x_b.iter_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        let status = match engine.optimize(&cost2, max_iter, false) {
            Ok(Status::Optimal) => Status::Optimal,
            Ok(Status::Unbounded) | Ok(Status::Infeasible) | Err(_) => {
                return crate::solve_sparse_with_handle(problem, options);
            }
        };
        debug_assert_eq!(status, Status::Optimal);

        // Problem-row → engine-row map of the grown shape: shared rows keep
        // their snapshot rows, appended rows landed after the old engine
        // rows, tail rows keep theirs.
        let k_old = self.row_flipped.len();
        let n_tail = self.tail.as_ref().map_or(0, |t| t.n_rows());
        let mut engine_row_of = Vec::with_capacity(problem.n_constraints() + n_tail);
        for slot in &assignment {
            engine_row_of.push(match slot {
                Ok((engine_row, _)) => *engine_row,
                Err(app_idx) => old_engine_m + app_idx,
            });
        }
        for t in 0..n_tail {
            engine_row_of.push(self.engine_row(k_old + t));
        }

        let solution = extract_permuted(
            &engine,
            &cost2,
            self.sign,
            &flip_new,
            self.n,
            Some(&engine_row_of),
        );
        // Snapshot the grown shape so the cache can serve it directly (and
        // grow it further) next time.
        let rows: Vec<Vec<(usize, f64)>> = problem
            .constraints()
            .iter()
            .zip(&flip_new)
            .map(|(c, &flip)| flip_row(c, flip))
            .collect();
        let handle = WarmHandle {
            m: engine.m,
            engine,
            cost2,
            sign: self.sign,
            n: self.n,
            max_iter,
            row_flipped: flip_new,
            rows: CsrMatrix::from_rows(self.n, &rows),
            raw_senses: problem.constraints().iter().map(|c| c.sense).collect(),
            tail: self.tail.clone(),
            objective: self.objective.clone(),
            direction: self.direction,
            engine_row_of: Some(engine_row_of),
        };
        Ok((solution, Some(handle)))
    }
}

/// Sort by column, merge duplicates, drop zeros — the canonical form
/// [`CsrMatrix::from_rows`] also produces.
fn canonical_row(coeffs: &[(usize, f64)]) -> Vec<(usize, f64)> {
    let mut v: Vec<(usize, f64)> = coeffs.to_vec();
    v.sort_unstable_by_key(|&(j, _)| j);
    let mut out: Vec<(usize, f64)> = Vec::with_capacity(v.len());
    for (j, c) in v {
        match out.last_mut() {
            Some((last_j, last_c)) if *last_j == j => *last_c += c,
            _ => out.push((j, c)),
        }
    }
    out.retain(|&(_, c)| c != 0.0);
    out
}

/// [`extract_solution`] generalized to engines whose rows are a
/// permutation of the problem's rows (grown warm handles): `perm[i]` is
/// the engine row of problem row `i`.
fn extract_permuted(
    engine: &Engine,
    cost2: &[f64],
    sign: f64,
    row_flipped: &[bool],
    n: usize,
    perm: Option<&[usize]>,
) -> Solution {
    let Some(perm) = perm else {
        return extract_solution(engine, cost2, sign, row_flipped, n);
    };
    let mut x = vec![0.0; n];
    let mut structural_basis = Vec::new();
    for (row, &col) in engine.basis.iter().enumerate() {
        if col < n {
            x[col] = engine.x_b[row];
            structural_basis.push((row, col));
        }
    }
    let y = engine.duals_for(cost2);
    let mut duals = vec![0.0; perm.len()];
    for (i, &engine_row) in perm.iter().enumerate() {
        let mut v = y[engine_row];
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

/// One explicit row's coefficients, negated when its flip bit is set.
fn flip_row(con: &Constraint, flip: bool) -> Vec<(usize, f64)> {
    let mult = if flip { -1.0 } else { 1.0 };
    con.coeffs.iter().map(|&(j, c)| (j, mult * c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::revised::{prepare, Prep};
    use crate::simplex::SolverKind;
    use crate::solve_sparse_with_handle;

    fn sparse_opts() -> SolverOptions {
        SolverOptions {
            solver: SolverKind::SparseRevised,
            ..SolverOptions::default()
        }
    }

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    /// max 3x + 5y s.t. x ≤ c0, 2y ≤ c1, 3x + 2y ≤ c2.
    fn textbook(c: [f64; 3]) -> Problem {
        let mut p = Problem::maximize(2);
        p.set_objective(0, 3.0);
        p.set_objective(1, 5.0);
        p.add_constraint(&[(0, 1.0)], Sense::Le, c[0]);
        p.add_constraint(&[(1, 2.0)], Sense::Le, c[1]);
        p.add_constraint(&[(0, 3.0), (1, 2.0)], Sense::Le, c[2]);
        p
    }

    #[test]
    fn resolve_absorbs_rhs_changes() {
        let (base, handle) =
            solve_sparse_with_handle(&textbook([4.0, 12.0, 18.0]), &sparse_opts()).unwrap();
        let handle = handle.expect("optimal artificial-free solve yields a handle");
        assert_close(base.objective, 36.0);
        assert_eq!(handle.n_vars(), 2);
        assert_eq!(handle.n_rows(), 3);

        // Tighten and loosen the RHS; compare against cold solves.
        for rhs in [[4.0, 12.0, 14.0], [2.0, 20.0, 18.0], [6.0, 6.0, 30.0]] {
            let p = textbook(rhs);
            assert!(handle.matches(&p));
            let warm = handle.resolve(&p, &sparse_opts()).unwrap();
            let cold = solve_sparse(&p, &sparse_opts()).unwrap();
            assert_eq!(warm.status, cold.status, "rhs {rhs:?}");
            assert_close(warm.objective, cold.objective);
        }
    }

    #[test]
    fn resolve_detects_infeasibility_from_negative_rhs() {
        let (_, handle) =
            solve_sparse_with_handle(&textbook([4.0, 12.0, 18.0]), &sparse_opts()).unwrap();
        let handle = handle.unwrap();
        // x ≤ -1 is infeasible over x ≥ 0; the snapshot orientation keeps
        // the row as-is so the dual phase must certify infeasibility.
        let p = textbook([-1.0, 12.0, 18.0]);
        let warm = handle.resolve(&p, &sparse_opts()).unwrap();
        assert_eq!(warm.status, Status::Infeasible);
        let cold = solve_sparse(&p, &sparse_opts()).unwrap();
        assert_eq!(cold.status, Status::Infeasible);
    }

    #[test]
    fn resolve_falls_back_on_matrix_changes() {
        let (_, handle) =
            solve_sparse_with_handle(&textbook([4.0, 12.0, 18.0]), &sparse_opts()).unwrap();
        let handle = handle.unwrap();
        let mut changed = textbook([4.0, 12.0, 18.0]);
        changed.add_constraint(&[(0, 1.0), (1, 1.0)], Sense::Le, 7.0);
        assert!(!handle.matches(&changed));
        let warm = handle.resolve(&changed, &sparse_opts()).unwrap();
        let cold = solve_sparse(&changed, &sparse_opts()).unwrap();
        assert_eq!(warm.status, cold.status);
        assert_close(warm.objective, cold.objective);

        let mut objective_changed = textbook([4.0, 12.0, 18.0]);
        objective_changed.set_objective(0, 30.0);
        assert!(!handle.matches(&objective_changed));
    }

    #[test]
    fn resolve_absorbs_tail_rhs_overrides() {
        use crate::problem::SharedRowBlock;

        // All per-instance data in the tail rhs: max x + y, tail rows
        // x <= a, y <= b, x + y <= c.
        let tail = Arc::new(SharedRowBlock::new(
            2,
            vec![vec![(0, 1.0)], vec![(1, 1.0)], vec![(0, 1.0), (1, 1.0)]],
            vec![4.0, 12.0, 14.0],
        ));
        let build = |rhs: Option<Vec<f64>>| {
            let mut p = Problem::maximize(2);
            p.set_objective(0, 3.0);
            p.set_objective(1, 5.0);
            p.set_shared_tail(Arc::clone(&tail));
            if let Some(rhs) = rhs {
                p.set_shared_tail_rhs(rhs);
            }
            p
        };
        let (base, handle) = solve_sparse_with_handle(&build(None), &sparse_opts()).unwrap();
        let handle = handle.expect("tail-only problems never need phase 1");
        // y = 12, then x + y <= 14 pins x = 2: objective 3·2 + 5·12 = 66.
        assert_close(base.objective, 66.0);
        for rhs in [
            vec![2.0, 6.0, 7.0],
            vec![10.0, 1.0, 5.0],
            vec![0.0, 0.0, 9.0],
        ] {
            let p = build(Some(rhs.clone()));
            assert!(handle.matches(&p), "override must not break the match");
            let warm = handle.resolve(&p, &sparse_opts()).unwrap();
            let cold = solve_sparse(&p, &sparse_opts()).unwrap();
            assert_eq!(warm.status, cold.status, "rhs {rhs:?}");
            assert_close(warm.objective, cold.objective);
        }
    }

    #[test]
    fn no_handle_for_problems_needing_phase_one() {
        let mut p = Problem::minimize(2);
        p.set_objective(0, 2.0);
        p.set_objective(1, 3.0);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Sense::Ge, 4.0);
        let (solution, handle) = solve_sparse_with_handle(&p, &sparse_opts()).unwrap();
        assert_eq!(solution.status, Status::Optimal);
        assert!(handle.is_none());
    }

    #[test]
    fn resolve_grown_appends_rows_and_matches_cold() {
        let (base, handle) =
            solve_sparse_with_handle(&textbook([4.0, 12.0, 18.0]), &sparse_opts()).unwrap();
        let handle = handle.unwrap();
        assert_close(base.objective, 36.0);

        // Superset: the three snapshot rows (new RHS) plus two extra rows,
        // interleaved so the mapping is a genuine permutation.
        let build_grown = |extra1: f64, extra2: f64| {
            let mut p = Problem::maximize(2);
            p.set_objective(0, 3.0);
            p.set_objective(1, 5.0);
            p.add_constraint(&[(0, 1.0), (1, 1.0)], Sense::Le, extra1); // extra
            p.add_constraint(&[(0, 1.0)], Sense::Le, 5.0);
            p.add_constraint(&[(1, 2.0)], Sense::Le, 10.0);
            p.add_constraint(&[(0, 3.0), (1, 2.0)], Sense::Le, 20.0);
            p.add_constraint(&[(1, 1.0)], Sense::Le, extra2); // extra
            p
        };
        let grown = build_grown(7.0, 4.5);
        assert!(handle.matches_superset(&grown));
        assert!(!handle.matches(&grown));

        let (warm, grown_handle) = handle.resolve_grown(&grown, &sparse_opts()).unwrap();
        let cold = solve_sparse(&grown, &sparse_opts()).unwrap();
        assert_eq!(warm.status, Status::Optimal);
        assert_close(warm.objective, cold.objective);
        for (a, b) in warm.x.iter().zip(&cold.x) {
            assert_close(*a, *b);
        }
        // Duals come back in the *problem's* row order: strong duality over
        // the problem's rhs vector proves the permutation is undone.
        let dual_obj: f64 = grown
            .rows_all()
            .zip(&warm.duals)
            .map(|((_, _, b), y)| b * y)
            .sum();
        assert_close(dual_obj, warm.objective);

        // The grown handle serves the grown shape directly...
        let grown_handle = grown_handle.expect("optimal grown resolve yields a handle");
        assert!(grown_handle.matches(&grown));
        let perturbed = build_grown(6.0, 3.0);
        let re = grown_handle.resolve(&perturbed, &sparse_opts()).unwrap();
        let re_cold = solve_sparse(&perturbed, &sparse_opts()).unwrap();
        assert_eq!(re.status, re_cold.status);
        assert_close(re.objective, re_cold.objective);
        let dual_obj: f64 = perturbed
            .rows_all()
            .zip(&re.duals)
            .map(|((_, _, b), y)| b * y)
            .sum();
        assert_close(dual_obj, re.objective);

        // ...and can itself be grown again (chained permutations).
        let mut grown2 = perturbed.clone();
        grown2.add_constraint(&[(0, 2.0), (1, 1.0)], Sense::Le, 9.0);
        assert!(grown_handle.matches_superset(&grown2));
        let (warm2, h2) = grown_handle.resolve_grown(&grown2, &sparse_opts()).unwrap();
        let cold2 = solve_sparse(&grown2, &sparse_opts()).unwrap();
        assert_close(warm2.objective, cold2.objective);
        assert!(h2.is_some());
    }

    #[test]
    fn resolve_grown_falls_back_when_not_a_superset() {
        let (_, handle) =
            solve_sparse_with_handle(&textbook([4.0, 12.0, 18.0]), &sparse_opts()).unwrap();
        let handle = handle.unwrap();
        // Missing the second snapshot row: not a superset.
        let mut shrunk = Problem::maximize(2);
        shrunk.set_objective(0, 3.0);
        shrunk.set_objective(1, 5.0);
        shrunk.add_constraint(&[(0, 1.0)], Sense::Le, 4.0);
        shrunk.add_constraint(&[(0, 3.0), (1, 2.0)], Sense::Le, 18.0);
        assert!(!handle.matches_superset(&shrunk));
        let (sol, _) = handle.resolve_grown(&shrunk, &sparse_opts()).unwrap();
        let cold = solve_sparse(&shrunk, &sparse_opts()).unwrap();
        assert_close(sol.objective, cold.objective);

        // Extra `>=` rows cannot be appended with a basic slack.
        let mut with_ge = textbook([4.0, 12.0, 18.0]);
        with_ge.add_constraint(&[(0, 1.0)], Sense::Ge, 1.0);
        assert!(!handle.matches_superset(&with_ge));
        let (sol, _) = handle.resolve_grown(&with_ge, &sparse_opts()).unwrap();
        let cold = solve_sparse(&with_ge, &sparse_opts()).unwrap();
        assert_close(sol.objective, cold.objective);
    }

    #[test]
    fn resolve_grown_detects_infeasible_appends() {
        let (_, handle) =
            solve_sparse_with_handle(&textbook([4.0, 12.0, 18.0]), &sparse_opts()).unwrap();
        let handle = handle.unwrap();
        let mut grown = textbook([4.0, 12.0, 18.0]);
        grown.add_constraint(&[(0, 1.0)], Sense::Le, -1.0);
        let (sol, _) = handle.resolve_grown(&grown, &sparse_opts()).unwrap();
        assert_eq!(sol.status, Status::Infeasible);
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
        p.add_constraint(&[(0, -1.0), (1, -1.0)], Sense::Le, -4.0);
        p.add_constraint(&[(0, 1.0)], Sense::Le, 5.0);
        // prepare() with no flip override flips row 0; force the unflipped
        // orientation by preparing manually with an explicit pattern.
        let prep = match prepare(&p, &SolverOptions::default(), Some(&[false, false])) {
            Prep::Ready(prep) => *prep,
            Prep::Trivial(_) => unreachable!(),
        };
        let mut prepared = prep;
        assert_eq!(prepared.n_artificial, 0);
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
