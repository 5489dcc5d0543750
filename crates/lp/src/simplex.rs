//! Dense two-phase primal simplex with Bland's anti-cycling fallback and
//! dual-solution extraction: the crate's reference oracle.
//!
//! Nothing in the product solves through here.  [`Problem::solve`] runs the
//! sparse revised simplex on every materialized LP, and the normal cone is
//! solved from the witness side by [`crate::CoveringLp`].  The tableau
//! shares no code with either: it materializes the whole `m × (n + m)`
//! tableau and rewrites all of it on every pivot, which makes it slow and
//! easy to check.  The differential tests call [`solve_dense`] by name —
//! `tests/proptest_sparse_dense.rs` and the revised simplex's own tests in
//! this crate, `lp_agreement` on the e1–e8 polymatroid LPs in `lpb-bench` —
//! and so does the `lp_scaling` emitter for its `dense_rebuild_us` column.
//! It records no solver work ([`crate::SolverStats`]), so a counter delta
//! around a product call never includes an oracle solve.

use crate::error::LpError;
use crate::matrix::DenseMatrix;
use crate::problem::{Direction, Problem, Sense, Solution, SolverOptions, Status};

struct Tableau {
    /// Constraint rows, including slack/surplus/artificial columns and the
    /// right-hand side as the final column.
    t: DenseMatrix,
    /// Objective row for the phase currently being optimized: entry `j`
    /// holds the reduced cost `z_j - c_j`; the final entry holds the current
    /// objective value.
    zrow: Vec<f64>,
    /// Phase-2 objective row, maintained during phase 1 so that phase 2 can
    /// start from a consistent state.
    zrow2: Vec<f64>,
    /// Basis variable (column index) of each row.
    basis: Vec<usize>,
    /// Column index of each row's initial (identity) basis column; used to
    /// read `B⁻¹` and hence the duals out of the final tableau.
    init_basis_col: Vec<usize>,
    /// Whether the original row was negated to make its RHS non-negative.
    row_flipped: Vec<bool>,
    /// Columns that are artificial variables (never allowed to re-enter in
    /// phase 2).
    is_artificial: Vec<bool>,
    n_structural: usize,
    n_cols: usize,
    tol: f64,
}

/// Solve `problem` with the dense two-phase tableau simplex, the reference
/// oracle of the revised simplex (see the module docs).  Status
/// classification, dual signs and the strong-duality identity
/// `objective == Σ dualsᵢ · rhsᵢ` are the ones [`Problem::solve`] reports.
pub fn solve_dense(problem: &Problem, options: &SolverOptions) -> Result<Solution, LpError> {
    problem.validate()?;
    let n = problem.n_vars();
    let m = problem.n_rows_total();
    let tol = options.tolerance;

    // Internally always maximize.
    let sign = match problem.direction() {
        Direction::Maximize => 1.0,
        Direction::Minimize => -1.0,
    };
    let mut obj = vec![0.0; n];
    for (j, c) in problem.objective().iter().enumerate() {
        obj[j] = sign * c;
    }

    // With no constraints: optimum is 0 unless some objective coefficient is
    // positive (then unbounded, since x >= 0).
    if m == 0 {
        if obj.iter().any(|&c| c > tol) {
            return Ok(Solution {
                status: Status::Unbounded,
                objective: f64::INFINITY * sign,
                x: vec![0.0; n],
                duals: vec![],
                basis: vec![],
            });
        }
        return Ok(Solution {
            status: Status::Optimal,
            objective: 0.0,
            x: vec![0.0; n],
            duals: vec![],
            basis: vec![],
        });
    }

    let mut tab = build_tableau(problem, &obj, tol)?;
    let max_iter = options
        .max_iterations
        .unwrap_or_else(|| 200 * (m + tab.n_cols).max(100));

    // Phase 1: drive artificial variables to zero, if any are in the basis.
    let has_artificials = tab.is_artificial.iter().any(|&a| a);
    if has_artificials {
        match run_simplex(&mut tab, max_iter, true)? {
            Status::Optimal => {
                // Feasible iff the phase-1 objective (= -Σ artificials) is ~0.
                let phase1_value = tab.zrow[tab.n_cols - 1];
                if phase1_value < -1e-6 {
                    return Ok(Solution {
                        status: Status::Infeasible,
                        objective: f64::NAN,
                        x: vec![0.0; n],
                        duals: vec![0.0; m],
                        basis: vec![],
                    });
                }
                drive_out_artificials(&mut tab);
            }
            Status::Unbounded => unreachable!("phase-1 objective is bounded above by zero"),
            Status::Infeasible => unreachable!("phase 1 cannot be declared infeasible"),
        }
        // Switch to the phase-2 objective row.
        tab.zrow = tab.zrow2.clone();
    }

    // Phase 2.
    let status = run_simplex(&mut tab, max_iter, false)?;
    if status == Status::Unbounded {
        return Ok(Solution {
            status,
            objective: f64::INFINITY * sign,
            x: vec![0.0; n],
            duals: vec![0.0; m],
            basis: vec![],
        });
    }

    // Extract primal solution.
    let mut x = vec![0.0; n];
    let mut structural_basis = Vec::new();
    for (row, &b) in tab.basis.iter().enumerate() {
        if b < n {
            x[b] = tab.t.get(row, tab.n_cols - 1);
            structural_basis.push((row, b));
        }
    }
    // Extract duals: y_i = (z_j - c_j) at row i's initial identity column
    // (its cost is zero in the phase-2 objective), negated when the row was
    // flipped to make its RHS non-negative, and re-signed for minimization.
    let mut duals = vec![0.0; m];
    for (i, d) in duals.iter_mut().enumerate() {
        let col = tab.init_basis_col[i];
        let mut y = tab.zrow[col];
        if tab.row_flipped[i] {
            y = -y;
        }
        *d = sign * y;
    }
    let objective = sign * tab.zrow[tab.n_cols - 1];

    Ok(Solution {
        status: Status::Optimal,
        objective,
        x,
        duals,
        basis: structural_basis,
    })
}

fn build_tableau(problem: &Problem, obj: &[f64], tol: f64) -> Result<Tableau, LpError> {
    let n = problem.n_vars();
    let m = problem.n_rows_total();

    // Count extra columns over every row the solver sees, shared tail rows
    // included (those are always `<=` with non-negative rhs).
    let mut n_slack = 0usize;
    let mut n_artificial = 0usize;
    for (_, sense, rhs) in problem.rows_all() {
        let sense = effective_sense(sense, rhs < 0.0);
        match sense {
            Sense::Le => n_slack += 1,
            Sense::Ge => {
                n_slack += 1;
                n_artificial += 1;
            }
            Sense::Eq => n_artificial += 1,
        }
    }

    let n_cols = n + n_slack + n_artificial + 1; // + RHS column
    let mut t = DenseMatrix::zeros(m, n_cols);
    let mut basis = vec![usize::MAX; m];
    let mut init_basis_col = vec![usize::MAX; m];
    let mut row_flipped = vec![false; m];
    let mut is_artificial = vec![false; n_cols];

    let mut next_slack = n;
    let mut next_artificial = n + n_slack;

    for (i, (coeffs, sense, rhs)) in problem.rows_all().enumerate() {
        let flip = rhs < 0.0;
        row_flipped[i] = flip;
        let mult = if flip { -1.0 } else { 1.0 };
        for &(j, c) in coeffs {
            t.add(i, j, mult * c);
        }
        t.set(i, n_cols - 1, mult * rhs);
        let sense = effective_sense(sense, flip);
        match sense {
            Sense::Le => {
                t.set(i, next_slack, 1.0);
                basis[i] = next_slack;
                init_basis_col[i] = next_slack;
                next_slack += 1;
            }
            Sense::Ge => {
                t.set(i, next_slack, -1.0);
                next_slack += 1;
                t.set(i, next_artificial, 1.0);
                is_artificial[next_artificial] = true;
                basis[i] = next_artificial;
                init_basis_col[i] = next_artificial;
                next_artificial += 1;
            }
            Sense::Eq => {
                t.set(i, next_artificial, 1.0);
                is_artificial[next_artificial] = true;
                basis[i] = next_artificial;
                init_basis_col[i] = next_artificial;
                next_artificial += 1;
            }
        }
    }

    // Phase-2 objective row: z_j - c_j with the initial (slack/artificial)
    // basis, whose costs are all zero, so z_j = 0 and the row is just -c_j.
    let mut zrow2 = vec![0.0; n_cols];
    for j in 0..n {
        zrow2[j] = -obj[j];
    }
    // If any basic variable has a non-zero phase-2 cost we would need to
    // price it in; the initial basis is slack/artificial only, so this is
    // already consistent.

    // Phase-1 objective: maximize -(sum of artificials); reduced-cost row
    // starts as z_j - c_j with c = -1 on artificial columns and the basis
    // containing those artificial columns, so we must eliminate the basic
    // artificial costs: zrow[j] = Σ_{rows with artificial basis} t[i][j]
    // adjusted by +1 on artificial columns.
    let mut zrow1 = vec![0.0; n_cols];
    let has_artificials = is_artificial.iter().any(|&a| a);
    if has_artificials {
        for (i, &b) in basis.iter().enumerate() {
            if is_artificial[b] {
                // c_B[i] = -1 for this row's basic variable.
                for (j, z) in zrow1.iter_mut().enumerate() {
                    *z -= t.get(i, j);
                }
            }
        }
        // subtract c_j: c_j = -1 on artificial columns, 0 elsewhere.
        for (j, flag) in is_artificial.iter().enumerate() {
            if *flag {
                zrow1[j] += 1.0;
            }
        }
    }

    let zrow = if has_artificials {
        zrow1
    } else {
        zrow2.clone()
    };

    Ok(Tableau {
        t,
        zrow,
        zrow2,
        basis,
        init_basis_col,
        row_flipped,
        is_artificial,
        n_structural: n,
        n_cols,
        tol,
    })
}

/// A negative RHS flips the row sign and hence the sense.
fn effective_sense(sense: Sense, rhs_negative: bool) -> Sense {
    if !rhs_negative {
        return sense;
    }
    match sense {
        Sense::Le => Sense::Ge,
        Sense::Ge => Sense::Le,
        Sense::Eq => Sense::Eq,
    }
}

/// Run simplex iterations on the current objective row until optimality,
/// unboundedness, or the iteration cap.
fn run_simplex(tab: &mut Tableau, max_iter: usize, phase1: bool) -> Result<Status, LpError> {
    let tol = tab.tol;
    let rhs_col = tab.n_cols - 1;
    let mut iters_without_improvement = 0usize;
    let mut last_objective = tab.zrow[rhs_col];
    let bland_threshold = 2 * (tab.t.rows() + tab.n_cols);

    for _iter in 0..max_iter {
        let use_bland = iters_without_improvement > bland_threshold;
        let entering = choose_entering(tab, phase1, use_bland);
        let Some(col) = entering else {
            return Ok(Status::Optimal);
        };

        // Ratio test.
        let mut pivot_row: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..tab.t.rows() {
            let a = tab.t.get(i, col);
            if a > tol {
                let ratio = tab.t.get(i, rhs_col) / a;
                let better = ratio < best_ratio - tol
                    || (ratio < best_ratio + tol
                        && pivot_row.is_some_and(|r| tab.basis[i] < tab.basis[r]));
                if better {
                    best_ratio = ratio;
                    pivot_row = Some(i);
                }
            }
        }
        let Some(row) = pivot_row else {
            return Ok(Status::Unbounded);
        };

        pivot(tab, row, col);

        let current = tab.zrow[rhs_col];
        if current > last_objective + tol {
            iters_without_improvement = 0;
            last_objective = current;
        } else {
            iters_without_improvement += 1;
        }
    }
    Err(LpError::IterationLimit { limit: max_iter })
}

/// Pick the entering column: the most negative reduced cost (Dantzig), or the
/// lowest-index negative reduced cost when Bland's rule is active.
fn choose_entering(tab: &Tableau, phase1: bool, bland: bool) -> Option<usize> {
    let tol = tab.tol;
    let mut best: Option<(usize, f64)> = None;
    for j in 0..tab.n_cols - 1 {
        if !phase1 && tab.is_artificial[j] {
            continue;
        }
        let rc = tab.zrow[j];
        if rc < -tol {
            if bland {
                return Some(j);
            }
            if best.is_none_or(|(_, b)| rc < b) {
                best = Some((j, rc));
            }
        }
    }
    best.map(|(j, _)| j)
}

/// Pivot the tableau on `(row, col)`, updating both objective rows and the
/// basis bookkeeping.
fn pivot(tab: &mut Tableau, row: usize, col: usize) {
    let p = tab.t.get(row, col);
    debug_assert!(p.abs() > tab.tol, "pivot element too small");
    tab.t.scale_row(row, p);
    for i in 0..tab.t.rows() {
        if i != row {
            let factor = tab.t.get(i, col);
            tab.t.eliminate_row(i, row, factor);
        }
    }
    // Objective rows.
    let pivot_row: Vec<f64> = tab.t.row(row).to_vec();
    let f1 = tab.zrow[col];
    if f1 != 0.0 {
        for (z, r) in tab.zrow.iter_mut().zip(pivot_row.iter()) {
            *z -= f1 * r;
        }
    }
    let f2 = tab.zrow2[col];
    if f2 != 0.0 {
        for (z, r) in tab.zrow2.iter_mut().zip(pivot_row.iter()) {
            *z -= f2 * r;
        }
    }
    tab.basis[row] = col;
}

/// After phase 1, pivot any artificial variables that remain basic (at zero)
/// out of the basis when a usable pivot exists; rows where every structural
/// and slack coefficient is zero are redundant and left as-is.
fn drive_out_artificials(tab: &mut Tableau) {
    for row in 0..tab.t.rows() {
        let b = tab.basis[row];
        if !tab.is_artificial[b] {
            continue;
        }
        let mut pivot_col = None;
        for j in 0..tab.n_cols - 1 {
            if tab.is_artificial[j] {
                continue;
            }
            if tab.t.get(row, j).abs() > tab.tol {
                pivot_col = Some(j);
                break;
            }
        }
        if let Some(col) = pivot_col {
            pivot(tab, row, col);
        }
    }
    let _ = tab.n_structural;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle on default options; these tests pin the tableau itself.
    fn solve(p: &Problem) -> Solution {
        solve_dense(p, &SolverOptions::default()).unwrap()
    }

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    #[test]
    fn simple_two_variable_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic example,
        // optimum 36 at (2, 6)).
        let mut p = Problem::maximize(2);
        p.set_objective(0, 3.0);
        p.set_objective(1, 5.0);
        p.add_constraint(&[(0, 1.0)], Sense::Le, 4.0);
        p.add_constraint(&[(1, 2.0)], Sense::Le, 12.0);
        p.add_constraint(&[(0, 3.0), (1, 2.0)], Sense::Le, 18.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 36.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 6.0);
        // strong duality
        let dual_obj = s.duals[0] * 4.0 + s.duals[1] * 12.0 + s.duals[2] * 18.0;
        assert_close(dual_obj, 36.0);
        assert!(s.duals.iter().all(|&d| d >= -1e-9));
    }

    /// A three-row LP goes to the revised simplex like every other
    /// `Problem`, and shows up in the work counters; the oracle solving the
    /// same LP records nothing.
    #[test]
    fn small_lps_solve_revised_and_the_oracle_records_no_work() {
        let mut p = Problem::maximize(2);
        p.set_objective(0, 3.0);
        p.set_objective(1, 5.0);
        p.add_constraint(&[(0, 1.0)], Sense::Le, 4.0);
        p.add_constraint(&[(1, 2.0)], Sense::Le, 12.0);
        p.add_constraint(&[(0, 3.0), (1, 2.0)], Sense::Le, 18.0);
        let (revised, work) = crate::SolverStats::on_thread(|| p.solve().unwrap());
        assert_eq!(revised.status, Status::Optimal);
        assert!(work.primal_pivots > 0, "revised pivots went unrecorded");
        assert_eq!(work.total_pivots(), work.primal_pivots);
        assert_eq!((work.revised_cold_solves, work.total_solves()), (1, 1));
        assert_eq!(work.solve_columns, 2);
        let (oracle, work) = crate::SolverStats::on_thread(|| solve(&p));
        assert_close(oracle.objective, revised.objective);
        assert_eq!(work, crate::SolverStats::default());
    }

    #[test]
    fn minimization_with_ge_constraints() {
        // min 2x + 3y s.t. x + y >= 4, x + 2y >= 6; optimum 10 at (2, 2).
        let mut p = Problem::minimize(2);
        p.set_objective(0, 2.0);
        p.set_objective(1, 3.0);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Sense::Ge, 4.0);
        p.add_constraint(&[(0, 1.0), (1, 2.0)], Sense::Ge, 6.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 10.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 2.0);
        // duality identity: objective == Σ duals * rhs
        assert_close(s.duals[0] * 4.0 + s.duals[1] * 6.0, 10.0);
    }

    #[test]
    fn equality_constraints() {
        // max x + y s.t. x + y = 3, x <= 2 ; optimum 3.
        let mut p = Problem::maximize(2);
        p.set_objective(0, 1.0);
        p.set_objective(1, 1.0);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Sense::Eq, 3.0);
        p.add_constraint(&[(0, 1.0)], Sense::Le, 2.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 3.0);
        assert_close(s.x[0] + s.x[1], 3.0);
    }

    #[test]
    fn detects_infeasible() {
        // x <= 1 and x >= 2 simultaneously.
        let mut p = Problem::maximize(1);
        p.set_objective(0, 1.0);
        p.add_constraint(&[(0, 1.0)], Sense::Le, 1.0);
        p.add_constraint(&[(0, 1.0)], Sense::Ge, 2.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        // max x s.t. x >= 1 : unbounded above.
        let mut p = Problem::maximize(1);
        p.set_objective(0, 1.0);
        p.add_constraint(&[(0, 1.0)], Sense::Ge, 1.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Unbounded);
    }

    #[test]
    fn unconstrained_problem() {
        let mut p = Problem::maximize(2);
        p.set_objective(0, 1.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Unbounded);

        let mut p = Problem::maximize(2);
        p.set_objective(0, -1.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 0.0);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // max x s.t. -x <= -2 (i.e. x >= 2), x <= 5 → optimum 5, and the
        // constraint x >= 2 is slack so its dual must be 0.
        let mut p = Problem::maximize(1);
        p.set_objective(0, 1.0);
        p.add_constraint(&[(0, -1.0)], Sense::Le, -2.0);
        p.add_constraint(&[(0, 1.0)], Sense::Le, 5.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 5.0);
        assert_close(s.duals[0], 0.0);
        assert_close(s.duals[1], 1.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Known degenerate instance (Beale-like); simply require termination
        // at the correct optimum.
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
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 0.05);
    }

    #[test]
    fn duals_identify_binding_constraints() {
        // max x + y s.t. x <= 1, y <= 2, x + y <= 10 (non-binding).
        let mut p = Problem::maximize(2);
        p.set_objective(0, 1.0);
        p.set_objective(1, 1.0);
        p.add_constraint(&[(0, 1.0)], Sense::Le, 1.0);
        p.add_constraint(&[(1, 1.0)], Sense::Le, 2.0);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Sense::Le, 10.0);
        let s = solve(&p);
        assert_close(s.objective, 3.0);
        assert_close(s.duals[0], 1.0);
        assert_close(s.duals[1], 1.0);
        assert_close(s.duals[2], 0.0);
    }

    #[test]
    fn entropy_shaped_lp_triangle_agm() {
        // The AGM LP for the triangle query with |R|=|S|=|T|=N:
        // maximize h(XYZ) subject to
        //   h(XY) <= log N, h(YZ) <= log N, h(XZ) <= log N
        // and submodularity rows; the optimum is 1.5 log N.
        // Variables indexed by non-empty subsets of {X,Y,Z}: bit 0=X,1=Y,2=Z,
        // var index = subset-1.
        let logn = 10.0f64;
        let h = |s: usize| s - 1; // subset mask -> var index
        let n = 3usize;
        let full = (1usize << n) - 1;
        let mut p = Problem::maximize(full);
        p.set_objective(h(full), 1.0);
        for &pair in &[0b011usize, 0b110, 0b101] {
            p.add_constraint(&[(h(pair), 1.0)], Sense::Le, logn);
        }
        // Elemental monotonicity: h(full) - h(full \ {i}) >= 0.
        for i in 0..n {
            let rest = full & !(1 << i);
            p.add_constraint(&[(h(full), 1.0), (h(rest), -1.0)], Sense::Ge, 0.0);
        }
        // Elemental submodularity: h(U∪i) + h(U∪j) - h(U∪i∪j) - h(U) >= 0
        // for all i < j and U ⊆ [n] \ {i, j}.
        for i in 0..n {
            for j in (i + 1)..n {
                let others: Vec<usize> = (0..n).filter(|&k| k != i && k != j).collect();
                for sub in 0..(1usize << others.len()) {
                    let mut u = 0usize;
                    for (pos, &k) in others.iter().enumerate() {
                        if sub & (1 << pos) != 0 {
                            u |= 1 << k;
                        }
                    }
                    let ui = u | (1 << i);
                    let uj = u | (1 << j);
                    let uij = u | (1 << i) | (1 << j);
                    let mut coeffs = vec![(h(ui), 1.0), (h(uj), 1.0), (h(uij), -1.0)];
                    if u != 0 {
                        coeffs.push((h(u), -1.0));
                    }
                    p.add_constraint(&coeffs, Sense::Ge, 0.0);
                }
            }
        }
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 1.5 * logn);
    }
}
