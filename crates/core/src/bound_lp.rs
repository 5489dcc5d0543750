//! The bound LP: `Log-L-Bound_K(Σ, b) = max h(X)` over a cone `K` subject to
//! the statistics constraints (Theorem 5.2 / Example 5.3 of the paper).

use crate::error::CoreError;
use crate::query::JoinQuery;
use crate::skeleton::{normal_step_coefficient, BoundLpSkeleton, StepColumnPricer};
use crate::statistics::StatisticsSet;
use lpb_data::Norm;
use lpb_entropy::{VarRegistry, VarSet};
use lpb_lp::{CoveringLp, CoveringStatus, Problem, Sense, Solution, SolverStats, Status};

/// Maximum number of query variables supported by the polymatroid (Γₙ)
/// cone: the largest `n` whose materialized LP — `2^n − 1` variables, the
/// statistic rows and `n + C(n,2)·2^{n−2}` Shannon elemental rows (1 800 at
/// `n = 8`) — solves in under a second.  `BENCH_lp.json` `rows` reads
/// 13–15 ms at `n = 8`; the same path-query LP took 3.6 s at `n = 9` and
/// 237 s at `n = 10` when those sizes were still materialized.  Wider
/// queries with simple statistics get the same bound from [`Cone::Normal`]
/// (Theorem 6.1); any statistics above it fail on this cone with
/// [`CoreError::TooManyVariables`].
pub const POLYMATROID_VAR_LIMIT: usize = 8;

/// Maximum number of query variables supported by the normal (Nₙ) cone.  The
/// LP has one row per statistic and `2^n − 1` step-function columns, but the
/// columns are generated, never stored ([`compute_bound`] solves a
/// master LP over a few dozen of them): what grows with `n` is the pricing
/// pass over a `2^n`-entry table (2 MiB, `n·2^{n−1}` additions per round at
/// the limit) and [`BoundResult::primal`], which stays a dense
/// `2^n − 1`-vector.
pub const NORMAL_VAR_LIMIT: usize = 18;

/// The cone of entropy-like vectors over which `Log-L-Bound` is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cone {
    /// Γₙ — all polymatroids (Shannon inequalities).  Exact for every
    /// statistics set; exponential LP size in the number of variables.
    Polymatroid,
    /// Nₙ — normal polymatroids (positive combinations of step functions).
    /// Equal to the Γₙ bound whenever all statistics are simple (Theorem
    /// 6.1); one LP row per statistic and columns generated on demand, so it
    /// scales to wide acyclic queries.
    Normal,
    /// Mₙ — modular functions only.  This reproduces the LP of Jayaraman et
    /// al. (Appendix B) and is **not sound in general**; it is provided for
    /// the comparison experiments.
    Modular,
}

impl Cone {
    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Cone::Polymatroid => "polymatroid",
            Cone::Normal => "normal",
            Cone::Modular => "modular",
        }
    }

    /// Pick a cone for a one-shot bound.  Non-simple statistics require the
    /// polymatroid cone.  For simple statistics the normal cone gives the
    /// same bound (Theorem 6.1) with one LP row per statistic instead of
    /// exponentially many Shannon rows; `auto` switches to it above
    /// [`POLYMATROID_VAR_LIMIT`] variables.
    ///
    /// Up to that limit `auto` still sends simple statistics to the
    /// polymatroid cone, where the normal cone would give the same bound
    /// (Theorem 6.1).  **The rule is stale** — with generated columns the
    /// normal cone is ahead from n = 3 on (`BENCH_lp.json`: `normal_us` in
    /// `normal_rows` against `sparse_skeleton_us` in `rows`, same
    /// statistics) — and the planner no longer goes by it: `lpb-exec`'s
    /// `Optimizer` asks for [`Cone::Normal`] outright.  It stays for one-shot
    /// callers of `auto` because of how the benchmark of record measures
    /// them: its `bound-only` workload logs about 25 bytes per answered
    /// request, and with this rule gone it answers 18x as many (520 → 9 400
    /// 1/s), so the run's `peak_rss_mb` reads 6.0 → 9.6 MiB, against a bound
    /// of 15 %, while the bound engine's own footprint falls (4.6 MiB at an
    /// equal request count).  Deleting the rule — `auto` then routes by
    /// soundness alone — waits for that log to be bounded by its owner.
    ///
    /// Queries beyond *both* cones' limits — non-simple statistics above
    /// [`POLYMATROID_VAR_LIMIT`], or any statistics above
    /// [`NORMAL_VAR_LIMIT`] — still fail in [`compute_bound`] with
    /// [`CoreError::TooManyVariables`]; no cone choice can rescue those.
    pub fn auto(query: &JoinQuery, stats: &StatisticsSet) -> Cone {
        Cone::auto_for(query.n_vars(), stats)
    }

    /// [`Cone::auto`] for a query of `n_vars` variables.
    pub(crate) fn auto_for(n_vars: usize, stats: &StatisticsSet) -> Cone {
        if !stats.is_simple() || n_vars <= POLYMATROID_VAR_LIMIT {
            Cone::Polymatroid
        } else {
            Cone::Normal
        }
    }
}

/// Whether the LP had a finite optimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundStatus {
    /// The bound is finite.
    Bounded,
    /// The statistics do not bound the query output (e.g. some variable is
    /// not covered by any statistic); the bound is +∞.
    Unbounded,
}

/// The dual witness: the coefficients `w_i ≥ 0` of the witness information
/// inequality (8), one per statistic, with `Σ w_i·b_i = log₂ bound`.
#[derive(Debug, Clone, PartialEq)]
pub struct Witness {
    /// One weight per statistic, aligned with `StatisticsSet::as_slice`.
    pub weights: Vec<f64>,
}

impl Witness {
    /// Indices of the statistics with weight above `eps` — the statistics the
    /// optimal bound actually uses.
    pub fn used_statistics(&self, eps: f64) -> Vec<usize> {
        self.weights
            .iter()
            .enumerate()
            .filter(|(_, &w)| w > eps)
            .map(|(i, _)| i)
            .collect()
    }

    /// The distinct norms among the used statistics (the "Norms" column of
    /// Figure 1), sorted ascending with ∞ last.
    pub fn norms_used(&self, stats: &StatisticsSet, eps: f64) -> Vec<Norm> {
        let mut norms: Vec<Norm> = Vec::new();
        for i in self.used_statistics(eps) {
            let n = stats.as_slice()[i].stat.norm;
            if !norms.iter().any(|m| m == &n) {
                norms.push(n);
            }
        }
        norms.sort_by(|a, b| a.partial_cmp(b).expect("norms are comparable"));
        norms
    }
}

/// Result of a bound computation.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundResult {
    /// Whether the bound is finite.
    pub status: BoundStatus,
    /// `log₂` of the bound (`+∞` when unbounded).
    pub log2_bound: f64,
    /// The cone that was used.
    pub cone: Cone,
    /// Dual witness (all-zero when unbounded).
    pub witness: Witness,
    /// The primal LP solution: for [`Cone::Polymatroid`] the optimal vector
    /// `h(S)` indexed by `VarSet::index() − 1`; for [`Cone::Normal`] the
    /// step-function coefficients `α_W` (same indexing); for [`Cone::Modular`]
    /// the per-variable weights.  Empty when the LP is unbounded.  Used by
    /// [`crate::worst_case`] to build worst-case databases (§6).
    pub primal: Vec<f64>,
}

impl BoundResult {
    /// The bound itself, `2^{log2_bound}`.
    pub fn bound(&self) -> f64 {
        self.log2_bound.exp2()
    }

    /// True when the bound is finite.
    pub fn is_bounded(&self) -> bool {
        self.status == BoundStatus::Bounded
    }
}

/// Compute `Log-L-Bound_K(Σ, b)` for the query's variable set.
///
/// Every statistic must be guarded by its recorded atom (checked).  The
/// returned `log2_bound` upper-bounds `log₂ |Q(D)|` for every database `D`
/// satisfying the statistics (Theorem 1.1) when the cone is `Polymatroid`,
/// or `Normal`; the `Modular` cone is provided only for the Appendix-B
/// comparison and is not a sound bound in general.
///
/// One engine per cone, no knob: [`Cone::Normal`] is solved from its
/// witness side by [`lpb_lp::CoveringLp`] (`solve_normal`); the other two
/// cones are materialized as a [`Problem`] and solved by its revised
/// simplex, whose numerical failures come back as [`CoreError::Lp`].
pub fn compute_bound(
    query: &JoinQuery,
    stats: &StatisticsSet,
    cone: Cone,
) -> Result<BoundResult, CoreError> {
    let atom_vars: Vec<VarSet> = (0..query.n_atoms()).map(|j| query.atom_vars(j)).collect();
    bound_over(
        query.n_vars(),
        &atom_vars,
        stats,
        cone,
        Some(query.registry()),
    )
}

/// [`compute_bound`] on a query given by its variable count and the
/// variable set of each atom — all the LP reads of a query — so a sub-join
/// assembled from its atom list ([`crate::SubJoin`]) is bounded without
/// building a [`JoinQuery`] for it.  `names` renders an unguarded
/// statistic's variables in the error; without it they print as indices.
pub(crate) fn bound_over(
    n: usize,
    atom_vars: &[VarSet],
    stats: &StatisticsSet,
    cone: Cone,
    names: Option<&VarRegistry>,
) -> Result<BoundResult, CoreError> {
    validate_guards(atom_vars, stats, names)?;
    let sol = match cone {
        Cone::Normal => solve_normal(n, stats)?,
        Cone::Polymatroid | Cone::Modular => build_bound_problem(n, stats, cone)?.solve()?,
    };
    solution_to_result(sol, stats, cone)
}

/// Most columns one pricing pass adds to the master LP.  The cap only
/// matters when hundreds price out at once, where adding them all would
/// rebuild the wide LP this loop exists to avoid (1 296 columns in one
/// round at n = 16 uncapped).  Measured on 40 random cyclic instances per
/// size with mutual near-functional dependencies, n = 8..16 (harvested
/// statistics certify on the seed columns and never reach it): caps 16, 32
/// and 64 tie within noise (203 / 193 / 217 µs at n = 14, ~2.1 rounds),
/// 1 and 4 pay 3.5x and 1.8x the rounds, 256 and up only widen the master.
const MAX_COLUMNS_PER_ROUND: usize = 32;

/// A column enters the master only if `w·c(W) < 1 −` this: the solver's own
/// optimality tolerance ([`lpb_lp::SolverOptions::tolerance`]'s default), so
/// the loop never generates a column the master would decline to pivot on,
/// and the returned witness satisfies the witness inequality on every step
/// function to the accuracy the LP itself was solved to.
const PRICING_TOLERANCE: f64 = 1e-9;

/// The normal-cone bound LP `max Σ_W α_W  s.t.  Σ_W α_W·c_i(W) ≤ b_i, α ≥ 0`
/// over all `2^n − 1` step functions, solved from its dual side — the
/// witness inequality (8) — by row generation.
///
/// The dual has one weight `w_i` per statistic and one constraint
/// `w·c(W) ≥ 1` per step function: `min Σ w_i·b_i` over the witnesses valid
/// on every `h_W`.  One [`CoveringLp`] holds the constraints of a working
/// set — seeded with the `n` singletons and the full set — for the whole
/// solve; its optimum `w` is priced against *every* step function in one
/// zeta transform ([`StepColumnPricer`]); the most violated ones are
/// appended to the tableau in place and a few dual pivots repair it, until
/// none is left.  That last pass is the optimality certificate: `w`
/// satisfies the witness inequality on every extreme ray of `Nₙ`, so the
/// working set's optimum is the full LP's.  A step function no statistic
/// touches (a variable nothing covers) is a row nothing can cover — the
/// bound LP is unbounded; a negative log-bound makes it infeasible whatever
/// the working set, since no coefficient is negative.
///
/// An optimal solution comes back in the bound LP's coordinates:
/// `x[W − 1] = α_W` (the multiplier of `W`'s constraint), duals per
/// statistic (the witness); `basis` is empty.  On any other status the
/// other fields are placeholders.
pub(crate) fn solve_normal(n: usize, stats: &StatisticsSet) -> Result<Solution, CoreError> {
    if n == 0 {
        return Err(CoreError::InvalidQuery {
            reason: "the normal-cone LP needs at least one variable".into(),
        });
    }
    if n > NORMAL_VAR_LIMIT {
        return Err(CoreError::TooManyVariables {
            n_vars: n,
            limit: NORMAL_VAR_LIMIT,
            cone: "normal",
        });
    }
    let mut columns: Vec<VarSet> = (0..n).map(VarSet::singleton).collect();
    if n > 1 {
        columns.push(VarSet::full(n));
    }
    let no_optimum = |status: Status| Solution {
        status,
        objective: f64::NAN,
        x: Vec::new(),
        duals: vec![0.0; stats.len()],
        basis: Vec::new(),
    };
    let log_bounds: Vec<f64> = stats.iter().map(|s| s.log_bound).collect();
    let mut lp = CoveringLp::new(&log_bounds, columns.len())?;
    let mut row = Vec::with_capacity(stats.len());
    let mut push = |lp: &mut CoveringLp, w: VarSet| {
        row.clear();
        row.extend(stats.iter().map(|s| normal_step_coefficient(s, w)));
        lp.push_row(&row)
    };
    for &w in &columns {
        push(&mut lp, w)?;
    }
    let mut pricer = StepColumnPricer::new(n);
    loop {
        let status = match lp.solve()? {
            CoveringStatus::Optimal => Status::Optimal,
            CoveringStatus::Uncoverable => Status::Unbounded,
            CoveringStatus::NegativeCost => Status::Infeasible,
        };
        if status != Status::Optimal {
            SolverStats::record_generation_round(0);
            return Ok(no_optimum(status));
        }
        let mut weights = lp.weights();
        for w in &mut weights {
            *w = w.max(0.0);
        }
        pricer.price(stats, &weights);
        let entering = pricer.violated(&columns, PRICING_TOLERANCE, MAX_COLUMNS_PER_ROUND);
        SolverStats::record_generation_round(entering.len());
        if entering.is_empty() {
            let mut alpha = vec![0.0; (1usize << n) - 1];
            for (w, a) in columns.iter().zip(lp.row_duals()) {
                alpha[w.index() - 1] = *a;
            }
            return Ok(Solution {
                status,
                objective: lp.objective(),
                x: alpha,
                duals: weights,
                basis: Vec::new(),
            });
        }
        for &w in &entering {
            push(&mut lp, w)?;
        }
        columns.extend(entering);
    }
}

/// The master LP over `columns` in primal form: one row per statistic, in
/// statistics order (so the duals are the witness weights), log-bounds on
/// the right.  The product solves its dual ([`solve_normal`]); this is the
/// reference the tests solve with the general-purpose revised simplex.
#[cfg(test)]
pub(crate) fn normal_master(columns: &[VarSet], stats: &StatisticsSet) -> Problem {
    let mut p = Problem::maximize(columns.len());
    for j in 0..columns.len() {
        // Every non-empty W meets the full variable set: h_W(X) = 1.
        p.set_objective(j, 1.0);
    }
    let mut row: Vec<(usize, f64)> = Vec::with_capacity(columns.len());
    for s in stats.iter() {
        row.clear();
        row.extend(columns.iter().enumerate().filter_map(|(j, &w)| {
            let c = normal_step_coefficient(s, w);
            (c != 0.0).then_some((j, c))
        }));
        p.add_constraint(&row, Sense::Le, s.log_bound);
    }
    p
}

/// Build the *materialized* bound LP for `n` query variables without
/// solving it: statistic rows first (their duals are the witness weights),
/// cone structure after.
///
/// # Panics
///
/// Panics on [`Cone::Normal`], which has no materialized LP
/// ([`solve_normal`] generates its columns); the caller dispatches it first.
fn build_bound_problem(n: usize, stats: &StatisticsSet, cone: Cone) -> Result<Problem, CoreError> {
    match cone {
        Cone::Polymatroid => Ok(BoundLpSkeleton::polymatroid(n)?.instantiate(stats)),
        Cone::Normal => unreachable!("the normal cone has no materialized LP"),
        Cone::Modular => Ok(build_modular_problem(n, stats)),
    }
}

fn validate_guards(
    atom_vars: &[VarSet],
    stats: &StatisticsSet,
    names: Option<&VarRegistry>,
) -> Result<(), CoreError> {
    for s in stats.iter() {
        let conditional = &s.stat.conditional;
        let guarded = atom_vars
            .get(s.stat.guard_atom)
            .is_some_and(|&vars| conditional.all_vars().is_subset_of(vars));
        if !guarded {
            return Err(CoreError::UnguardedStatistic {
                conditional: names.map_or_else(
                    || conditional.to_string(),
                    |registry| conditional.render(registry),
                ),
            });
        }
    }
    Ok(())
}

/// LP over the modular cone: one variable `c_i ≥ 0` per query variable, one
/// row per statistic; `h(full) = Σ_i c_i`.  This is the (dual of the) LP of
/// Jayaraman et al. (Appendix B) and is not sound in general.
fn build_modular_problem(n: usize, stats: &StatisticsSet) -> Problem {
    let mut p = Problem::maximize(n);
    for i in 0..n {
        p.set_objective(i, 1.0);
    }
    for s in stats.iter() {
        let u = s.stat.conditional.u;
        let v = s.stat.conditional.v;
        let inv_p = s.stat.norm.reciprocal();
        let mut coeffs: Vec<(usize, f64)> = Vec::new();
        for i in 0..n {
            let mut c = 0.0;
            if u.contains(i) {
                c += inv_p;
            }
            if v.contains(i) {
                c += 1.0;
            }
            if c != 0.0 {
                coeffs.push((i, c));
            }
        }
        p.add_constraint(&coeffs, Sense::Le, s.log_bound);
    }
    p
}

/// Interpret an LP solution of a bound problem (statistic rows first) as a
/// [`BoundResult`].
fn solution_to_result(
    sol: Solution,
    stats: &StatisticsSet,
    cone: Cone,
) -> Result<BoundResult, CoreError> {
    match sol.status {
        Status::Optimal => {
            let weights: Vec<f64> = (0..stats.len())
                .map(|i| sol.duals.get(i).copied().unwrap_or(0.0).max(0.0))
                .collect();
            Ok(BoundResult {
                status: BoundStatus::Bounded,
                log2_bound: sol.objective,
                cone,
                witness: Witness { weights },
                primal: sol.x,
            })
        }
        Status::Unbounded => Ok(BoundResult {
            status: BoundStatus::Unbounded,
            log2_bound: f64::INFINITY,
            cone,
            witness: Witness {
                weights: vec![0.0; stats.len()],
            },
            primal: Vec::new(),
        }),
        Status::Infeasible => Err(CoreError::InconsistentStatistics),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statistics::ConcreteStatistic;
    use lpb_entropy::{Conditional, VarSet};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    /// Cardinality-only statistics on the triangle query reproduce the AGM
    /// bound: log-bound = 1.5·log N.
    #[test]
    fn triangle_cardinalities_give_agm_bound() {
        let q = JoinQuery::triangle("R", "S", "T");
        let reg = q.registry();
        let logn = 10.0;
        let mut stats = StatisticsSet::new();
        for (i, pair) in [["X", "Y"], ["Y", "Z"], ["Z", "X"]].iter().enumerate() {
            stats.push(ConcreteStatistic::new(
                Conditional::new(reg.set_of(&pair[..]).unwrap(), VarSet::EMPTY),
                Norm::L1,
                i,
                logn,
            ));
        }
        let r = compute_bound(&q, &stats, Cone::Polymatroid).unwrap();
        assert!(r.is_bounded());
        assert!(close(r.log2_bound, 1.5 * logn), "got {}", r.log2_bound);
        // Witness: Σ w_i b_i equals the bound.
        let dual: f64 = r.witness.weights.iter().map(|w| w * logn).sum();
        assert!(close(dual, r.log2_bound));
        assert_eq!(r.witness.norms_used(&stats, 1e-9), vec![Norm::L1]);
    }

    /// ℓ2 statistics on all three triangle edges give the bound of eq. (4):
    /// log-bound = 2·b where b = log‖deg‖₂ (both cones, since the
    /// statistics are simple).
    #[test]
    fn triangle_l2_statistics_give_eq4_bound() {
        let q = JoinQuery::triangle("R", "S", "T");
        let reg = q.registry();
        let b = 7.0;
        let conds = [("Y", "X", 0usize), ("Z", "Y", 1), ("X", "Z", 2)];
        let mut stats = StatisticsSet::new();
        for (v, u, atom) in conds {
            stats.push(ConcreteStatistic::new(
                Conditional::new(reg.set_of(&[v]).unwrap(), reg.set_of(&[u]).unwrap()),
                Norm::L2,
                atom,
                b,
            ));
        }
        for cone in [Cone::Polymatroid, Cone::Normal] {
            let r = compute_bound(&q, &stats, cone).unwrap();
            assert!(
                close(r.log2_bound, 2.0 * b),
                "{cone:?}: got {}",
                r.log2_bound
            );
            assert_eq!(r.witness.norms_used(&stats, 1e-9), vec![Norm::L2]);
            assert!(close(
                r.witness.weights.iter().map(|w| w * b).sum::<f64>(),
                r.log2_bound
            ));
        }
    }

    /// Example 6.7: ℓ4 statistics on the triangle edges plus unary
    /// cardinalities, all equal to b, give log-bound exactly b.
    #[test]
    fn example_6_7_bound_is_b() {
        let q = JoinQuery::new(
            "ex6.7",
            vec![
                Atom::new("R1", &["X", "Y"]),
                Atom::new("R2", &["Y", "Z"]),
                Atom::new("R3", &["Z", "X"]),
                Atom::new("S1", &["X"]),
                Atom::new("S2", &["Y"]),
                Atom::new("S3", &["Z"]),
            ],
        )
        .unwrap();
        use crate::query::Atom;
        let reg = q.registry();
        let b = 12.0;
        let mut stats = StatisticsSet::new();
        // ‖deg_{R1}(Y|X)‖₄ ≤ 2^{b/4} so the log-statistic (1/4)h(X)+h(Y|X) ≤ b/4;
        // the paper states the statistics as ‖…‖₄⁴ ≤ B = 2^b, i.e. log-norm b/4.
        let l4 = [("Y", "X", 0usize), ("Z", "Y", 1), ("X", "Z", 2)];
        for (v, u, atom) in l4 {
            stats.push(ConcreteStatistic::new(
                Conditional::new(reg.set_of(&[v]).unwrap(), reg.set_of(&[u]).unwrap()),
                Norm::Finite(4.0),
                atom,
                b / 4.0,
            ));
        }
        for (i, v) in ["X", "Y", "Z"].iter().enumerate() {
            stats.push(ConcreteStatistic::new(
                Conditional::new(reg.set_of(&[v]).unwrap(), VarSet::EMPTY),
                Norm::L1,
                3 + i,
                b,
            ));
        }
        for cone in [Cone::Polymatroid, Cone::Normal] {
            let r = compute_bound(&q, &stats, cone).unwrap();
            assert!(close(r.log2_bound, b), "{cone:?}: got {}", r.log2_bound);
        }
    }

    /// Statistics covering only some variables leave the LP unbounded.
    #[test]
    fn uncovered_variable_means_unbounded() {
        let q = JoinQuery::triangle("R", "S", "T");
        let reg = q.registry();
        let mut stats = StatisticsSet::new();
        stats.push(ConcreteStatistic::new(
            Conditional::new(reg.set_of(&["X", "Y"]).unwrap(), VarSet::EMPTY),
            Norm::L1,
            0,
            5.0,
        ));
        for cone in [Cone::Polymatroid, Cone::Normal, Cone::Modular] {
            let r = compute_bound(&q, &stats, cone).unwrap();
            assert_eq!(r.status, BoundStatus::Unbounded, "{cone:?}");
            assert!(r.log2_bound.is_infinite());
            assert!(!r.is_bounded());
        }
    }

    /// Example B.1: for the two-variable query R(U,V) ∧ S(V,U) with ℓ2
    /// statistics of value √N, the modular cone gives the (unsound)
    /// (2/3)·log N while the polymatroid cone correctly gives log N.
    #[test]
    fn modular_cone_reproduces_jayaraman_gap() {
        let q = JoinQuery::new(
            "B.1",
            vec![Atom::new("R", &["U", "V"]), Atom::new("S", &["V", "U"])],
        )
        .unwrap();
        use crate::query::Atom;
        let reg = q.registry();
        let logn = 12.0;
        let mut stats = StatisticsSet::new();
        stats.push(ConcreteStatistic::new(
            Conditional::new(reg.set_of(&["V"]).unwrap(), reg.set_of(&["U"]).unwrap()),
            Norm::L2,
            0,
            logn / 2.0,
        ));
        stats.push(ConcreteStatistic::new(
            Conditional::new(reg.set_of(&["U"]).unwrap(), reg.set_of(&["V"]).unwrap()),
            Norm::L2,
            1,
            logn / 2.0,
        ));
        let modular = compute_bound(&q, &stats, Cone::Modular).unwrap();
        let poly = compute_bound(&q, &stats, Cone::Polymatroid).unwrap();
        assert!(
            close(modular.log2_bound, 2.0 / 3.0 * logn),
            "got {}",
            modular.log2_bound
        );
        assert!(close(poly.log2_bound, logn), "got {}", poly.log2_bound);
        assert!(modular.log2_bound < poly.log2_bound);
    }

    /// Normal and polymatroid cones agree on simple statistics (Theorem 6.1)
    /// even with a mix of norms.
    #[test]
    fn normal_equals_polymatroid_for_simple_statistics() {
        let q = JoinQuery::single_join("R", "S");
        let reg = q.registry();
        let mut stats = StatisticsSet::new();
        stats.push(ConcreteStatistic::new(
            Conditional::new(reg.set_of(&["X"]).unwrap(), reg.set_of(&["Y"]).unwrap()),
            Norm::Finite(3.0),
            0,
            2.5,
        ));
        stats.push(ConcreteStatistic::new(
            Conditional::new(reg.set_of(&["Z"]).unwrap(), reg.set_of(&["Y"]).unwrap()),
            Norm::L2,
            1,
            3.25,
        ));
        stats.push(ConcreteStatistic::new(
            Conditional::new(reg.set_of(&["Y", "Z"]).unwrap(), VarSet::EMPTY),
            Norm::L1,
            1,
            6.0,
        ));
        stats.push(ConcreteStatistic::new(
            Conditional::new(reg.set_of(&["X", "Y"]).unwrap(), VarSet::EMPTY),
            Norm::L1,
            0,
            6.5,
        ));
        assert!(stats.is_simple());
        let a = compute_bound(&q, &stats, Cone::Polymatroid).unwrap();
        let b = compute_bound(&q, &stats, Cone::Normal).unwrap();
        assert!(
            close(a.log2_bound, b.log2_bound),
            "{} vs {}",
            a.log2_bound,
            b.log2_bound
        );
    }

    /// Two mutual functional dependencies `X → Y`, `Y → X` forbid every step
    /// function that separates X from Y, both singletons among them; with
    /// unit cardinalities on X, Y, Z the optimum `α_{XY} = α_Z = 1` needs
    /// the column `{X, Y}`, which is not a seed.  The seed master stops at
    /// `α_Z + α_{XYZ} ≤ 1`, so the loop must price, generate and re-solve.
    #[test]
    fn normal_bound_generates_the_column_its_optimum_needs() {
        use crate::query::Atom;
        let q = JoinQuery::new(
            "mutual-fd",
            vec![Atom::new("R", &["X", "Y"]), Atom::new("S", &["Z"])],
        )
        .unwrap();
        let reg = q.registry();
        let set = |names: &[&str]| reg.set_of(names).unwrap();
        let mut stats = StatisticsSet::new();
        for (v, u, norm, atom, b) in [
            (set(&["X"]), VarSet::EMPTY, Norm::L1, 0, 1.0),
            (set(&["Y"]), VarSet::EMPTY, Norm::L1, 0, 1.0),
            (set(&["Z"]), VarSet::EMPTY, Norm::L1, 1, 1.0),
            (set(&["Y"]), set(&["X"]), Norm::Infinity, 0, 0.0),
            (set(&["X"]), set(&["Y"]), Norm::Infinity, 0, 0.0),
        ] {
            stats.push(ConcreteStatistic::new(
                Conditional::new(v, u),
                norm,
                atom,
                b,
            ));
        }
        let (r, work) = SolverStats::on_thread(|| compute_bound(&q, &stats, Cone::Normal).unwrap());
        assert!(close(r.log2_bound, 2.0), "got {}", r.log2_bound);
        assert!(work.generation_rounds >= 2, "{work:?}");
        assert!(work.columns_generated >= 1, "{work:?}");
        assert_eq!(work.total_solves(), work.generation_rounds);
        // The primal is in the full LP's coordinates: α_W at index W − 1.
        assert_eq!(r.primal.len(), 7);
        let alpha = |names: &[&str]| r.primal[set(names).index() - 1];
        assert!(close(alpha(&["X", "Y"]), 1.0) && close(alpha(&["Z"]), 1.0));
        assert!(close(r.primal.iter().sum::<f64>(), 2.0));
        // Same bound as the polymatroid cone: the statistics are simple.
        let poly = compute_bound(&q, &stats, Cone::Polymatroid).unwrap();
        assert!(close(poly.log2_bound, 2.0));
    }

    /// What each cone answers when there is no finite bound to give, as
    /// measured on the primal master this cone used to pose: the kernel must
    /// answer the same, typed, and terminate on the dual-degenerate input.
    #[test]
    fn failure_paths_are_typed_and_the_same_on_both_cones() {
        use crate::query::Atom;
        use lpb_lp::LpError;
        let q = JoinQuery::new(
            "two-atoms",
            vec![Atom::new("R", &["X", "Y"]), Atom::new("S", &["Z"])],
        )
        .unwrap();
        let reg = q.registry();
        let set = |names: &[&str]| reg.set_of(names).unwrap();
        // Unit cardinalities on X, Y (and Z unless `cover_z` is off), with
        // `extra` as the log-bound of one more statistic on X.
        let stats_with = |extra: f64, cover_z: bool| {
            let mut stats = StatisticsSet::new();
            for (v, atom) in [("X", 0), ("Y", 0), ("Z", 1)] {
                if v != "Z" || cover_z {
                    stats.push(ConcreteStatistic::new(
                        Conditional::new(set(&[v]), VarSet::EMPTY),
                        Norm::L1,
                        atom,
                        1.0,
                    ));
                }
            }
            stats.push(ConcreteStatistic::new(
                Conditional::new(set(&["Y"]), set(&["X"])),
                Norm::L2,
                0,
                extra,
            ));
            stats
        };
        #[derive(Debug, PartialEq)]
        enum Outcome {
            NonFinite,
            Inconsistent,
            Unbounded,
            Bounded,
        }
        let table = [
            (f64::NAN, true, Outcome::NonFinite),
            (f64::INFINITY, true, Outcome::NonFinite),
            (f64::NEG_INFINITY, true, Outcome::NonFinite),
            (f64::NAN, false, Outcome::NonFinite),
            (-1.0, true, Outcome::Inconsistent),
            // Infeasible wins over unbounded, as phase 1 ran first.
            (-1.0, false, Outcome::Inconsistent),
            (0.5, false, Outcome::Unbounded),
            (0.5, true, Outcome::Bounded),
            // A functional dependency: a zero cost in the witness LP.
            (0.0, true, Outcome::Bounded),
        ];
        for (extra, cover_z, expected) in table {
            let stats = stats_with(extra, cover_z);
            for cone in [Cone::Normal, Cone::Polymatroid] {
                let got = match compute_bound(&q, &stats, cone) {
                    Err(CoreError::Lp(LpError::NonFiniteCoefficient { .. })) => Outcome::NonFinite,
                    Err(CoreError::InconsistentStatistics) => Outcome::Inconsistent,
                    Ok(r) if r.status == BoundStatus::Unbounded => Outcome::Unbounded,
                    Ok(r) => {
                        assert!(r.log2_bound.is_finite());
                        Outcome::Bounded
                    }
                    Err(other) => panic!("{cone:?} on {extra}: {other:?}"),
                };
                assert_eq!(
                    got, expected,
                    "{cone:?}, log-bound {extra}, Z covered: {cover_z}"
                );
            }
        }
        // Every statistic a functional dependency or a unit count: all the
        // witness LP's ratio tests tie at zero, and it still ends, at the
        // polymatroid bound.
        let mut cyclic = StatisticsSet::new();
        for (v, u) in [("Y", "X"), ("X", "Y")] {
            cyclic.push(ConcreteStatistic::new(
                Conditional::new(set(&[v]), set(&[u])),
                Norm::Infinity,
                0,
                0.0,
            ));
        }
        for (v, atom) in [("X", 0), ("Y", 0), ("Z", 1)] {
            cyclic.push(ConcreteStatistic::new(
                Conditional::new(set(&[v]), VarSet::EMPTY),
                Norm::L1,
                atom,
                0.0,
            ));
        }
        for cone in [Cone::Normal, Cone::Polymatroid] {
            let r = compute_bound(&q, &cyclic, cone).unwrap();
            assert!(
                r.is_bounded() && close(r.log2_bound, 0.0),
                "{cone:?}: {r:?}"
            );
        }
    }

    /// The column-generation loop over the primal master, as the product
    /// ran it before the witness-space kernel: the reference of the
    /// proptest below.
    fn solve_normal_on_primal_master(n: usize, stats: &StatisticsSet) -> Solution {
        let mut columns: Vec<VarSet> = (0..n).map(VarSet::singleton).collect();
        if n > 1 {
            columns.push(VarSet::full(n));
        }
        let mut pricer = StepColumnPricer::new(n);
        loop {
            let mut sol = normal_master(&columns, stats).solve().unwrap();
            if sol.status != Status::Optimal {
                return sol;
            }
            let weights: Vec<f64> = sol.duals.iter().map(|w| w.max(0.0)).collect();
            pricer.price(stats, &weights);
            let entering = pricer.violated(&columns, PRICING_TOLERANCE, MAX_COLUMNS_PER_ROUND);
            if entering.is_empty() {
                let mut alpha = vec![0.0; (1usize << n) - 1];
                for (w, a) in columns.iter().zip(&sol.x) {
                    alpha[w.index() - 1] = *a;
                }
                sol.x = alpha;
                return sol;
            }
            columns.extend(entering);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(160))]

        /// The witness-space kernel against the primal master on random
        /// statistics over 2–10 variables: simple and non-simple
        /// conditionals, a few norms many times over, zero log-bounds,
        /// mutual functional dependencies (which need a generated column)
        /// and variables nothing covers.  Same status, same bound, strong
        /// duality between `α` and `w`, and `w` a valid witness on every
        /// one of the `2^n − 1` step functions.
        #[test]
        fn kernel_agrees_with_the_primal_master(
            n in 2usize..11,
            words in proptest::collection::vec(0u64..u64::MAX, 1..14),
            cover in 0u8..4,
            mutual in 0u8..3,
        ) {
            let full = VarSet::full(n);
            let norms = [Norm::L1, Norm::L2, Norm::L2, Norm::finite(3.0), Norm::Infinity, Norm::Infinity];
            let bounds = [0.0, 0.0, 0.5, 1.0, 2.25, 3.0, 4.5, 6.0];
            let mut stats = StatisticsSet::new();
            for &word in &words {
                let v = VarSet(word as u32 & full.0);
                // Three 4-bit picks; one past the last variable adds
                // nothing, so |U| ranges over 0..=3.
                let u = VarSet::from_indices(
                    (0..3)
                        .map(|k| ((word >> (16 + 4 * k)) & 0xf) as usize)
                        .filter(|&i| i < n),
                );
                if v.minus(u).is_empty() {
                    continue;
                }
                stats.push(ConcreteStatistic::new(
                    Conditional::new(v.minus(u), u),
                    norms[(word >> 32) as usize % norms.len()],
                    0,
                    bounds[(word >> 40) as usize % bounds.len()],
                ));
            }
            // Mutual functional dependencies between neighbours.
            for i in 0..usize::from(mutual).min(n - 1) {
                for (a, b) in [(i, i + 1), (i + 1, i)] {
                    stats.push(ConcreteStatistic::new(
                        Conditional::new(VarSet::singleton(a), VarSet::singleton(b)),
                        Norm::Infinity,
                        0,
                        0.0,
                    ));
                }
            }
            // Three times in four every variable gets a unit count;
            // otherwise whatever the words left uncovered stays so.
            if cover > 0 {
                for i in 0..n {
                    stats.push(ConcreteStatistic::new(
                        Conditional::new(VarSet::singleton(i), VarSet::EMPTY),
                        Norm::L1,
                        0,
                        1.0 + (i % 3) as f64,
                    ));
                }
            }

            let kernel = solve_normal(n, &stats).unwrap();
            let primal = solve_normal_on_primal_master(n, &stats);
            proptest::prop_assert_eq!(kernel.status, primal.status);
            if kernel.status != Status::Optimal {
                return Ok(());
            }
            proptest::prop_assert!(
                (kernel.objective - primal.objective).abs() <= 1e-9,
                "kernel {} vs primal master {}", kernel.objective, primal.objective
            );
            let alpha: f64 = kernel.x.iter().sum();
            let witness: f64 = kernel.duals.iter().zip(stats.iter()).map(|(w, s)| w * s.log_bound).sum();
            proptest::prop_assert!(kernel.x.iter().chain(&kernel.duals).all(|&v| v >= -1e-12));
            proptest::prop_assert!((alpha - witness).abs() <= 1e-9, "Σα {alpha} vs Σwb {witness}");
            proptest::prop_assert!((alpha - kernel.objective).abs() <= 1e-9);
            let mut pricer = StepColumnPricer::new(n);
            pricer.price(&stats, &kernel.duals);
            for mask in 1..=full.0 {
                let price = pricer.price_of(VarSet(mask));
                proptest::prop_assert!(price >= 1.0 - 1e-9, "step function {mask:#b} priced {price}");
            }
        }
    }

    /// Guard validation rejects statistics not covered by their atom, and the
    /// variable limits reject oversized queries.
    #[test]
    fn guard_and_size_validation() {
        let q = JoinQuery::triangle("R", "S", "T");
        let reg = q.registry();
        let mut stats = StatisticsSet::new();
        // (Z | X) is not guarded by atom 0 = R(X, Y).
        stats.push(ConcreteStatistic::new(
            Conditional::new(reg.set_of(&["Z"]).unwrap(), reg.set_of(&["X"]).unwrap()),
            Norm::L2,
            0,
            3.0,
        ));
        assert!(matches!(
            compute_bound(&q, &stats, Cone::Polymatroid),
            Err(CoreError::UnguardedStatistic { .. })
        ));

        // A wide query exceeds the polymatroid limit.
        let atoms: Vec<crate::query::Atom> = (0..12)
            .map(|i| {
                crate::query::Atom::new(
                    format!("R{i}"),
                    &[format!("A{i}").as_str(), format!("A{}", i + 1).as_str()],
                )
            })
            .collect();
        let wide = JoinQuery::new("wide", atoms).unwrap();
        let empty = StatisticsSet::new();
        assert!(matches!(
            compute_bound(&wide, &empty, Cone::Polymatroid),
            Err(CoreError::TooManyVariables { .. })
        ));
    }

    /// `Cone::auto` picks the polymatroid cone for small queries and the
    /// normal cone for wide queries with simple statistics; one non-simple
    /// statistic sends either to the polymatroid cone.
    #[test]
    fn cone_auto_selection() {
        let wide_atoms: Vec<crate::query::Atom> = (0..11)
            .map(|i| {
                crate::query::Atom::new(
                    format!("R{i}"),
                    &[format!("A{i}").as_str(), format!("A{}", i + 1).as_str()],
                )
            })
            .collect();
        let wide = JoinQuery::new("wide", wide_atoms).unwrap();
        assert_eq!(wide.n_vars(), 12);
        for (query, on_simple) in [
            (JoinQuery::triangle("R", "S", "T"), Cone::Polymatroid),
            (wide, Cone::Normal),
        ] {
            let (first, second) = (query.atom_vars(0), query.atom_vars(1));
            let mut stats = StatisticsSet::new();
            assert_eq!(Cone::auto(&query, &stats), on_simple);
            stats.push(ConcreteStatistic::new(
                Conditional::new(second.minus(first), second.intersect(first)),
                Norm::L2,
                1,
                3.0,
            ));
            assert!(stats.is_simple());
            assert_eq!(Cone::auto(&query, &stats), on_simple);
            // Conditioned on two variables: not simple.
            stats.push(ConcreteStatistic::new(
                Conditional::new(second.minus(first), first),
                Norm::L2,
                0,
                1.0,
            ));
            assert!(!stats.is_simple());
            assert_eq!(Cone::auto(&query, &stats), Cone::Polymatroid);
        }
        assert_eq!(Cone::Polymatroid.name(), "polymatroid");
        assert_eq!(Cone::Normal.name(), "normal");
        assert_eq!(Cone::Modular.name(), "modular");
    }

    /// One variable past [`POLYMATROID_VAR_LIMIT`] the polymatroid cone
    /// refuses, typed and at once, whatever the statistics and whoever
    /// asks: a forced cone on simple or non-simple statistics, `auto` on
    /// non-simple ones, and `auto` on a run of queries, where the refusal
    /// is positional.
    #[test]
    fn the_polymatroid_ceiling_fails_typed_and_fast() {
        use crate::query::Atom;
        use std::time::{Duration, Instant};
        // R0(A0, A1, A2), then R1(A2, A3), …, R6(A7, A8): nine variables.
        let mut atoms = vec![Atom::new("R0", &["A0", "A1", "A2"])];
        for i in 2..8 {
            let (a, b) = (format!("A{i}"), format!("A{}", i + 1));
            atoms.push(Atom::new(format!("R{}", i - 1), &[a.as_str(), b.as_str()]));
        }
        let q = JoinQuery::new("nine", atoms).unwrap();
        assert_eq!(q.n_vars(), POLYMATROID_VAR_LIMIT + 1);
        let mut simple = StatisticsSet::new();
        for atom in 0..q.n_atoms() {
            simple.push(ConcreteStatistic::new(
                Conditional::new(q.atom_vars(atom), VarSet::EMPTY),
                Norm::L1,
                atom,
                10.0,
            ));
        }
        let mut non_simple = simple.clone();
        let reg = q.registry();
        non_simple.push(ConcreteStatistic::new(
            Conditional::new(
                reg.set_of(&["A2"]).unwrap(),
                reg.set_of(&["A0", "A1"]).unwrap(),
            ),
            Norm::L2,
            0,
            2.0,
        ));
        assert!(simple.is_simple() && !non_simple.is_simple());
        assert_eq!(Cone::auto(&q, &non_simple), Cone::Polymatroid);

        let refused = |r: &Result<BoundResult, CoreError>| {
            matches!(
                r,
                Err(CoreError::TooManyVariables {
                    n_vars: 9,
                    limit: 8,
                    cone: "polymatroid"
                })
            )
        };
        let small = JoinQuery::triangle("R", "S", "T");
        let small_stats = StatisticsSet::from_vec(
            (0..3)
                .map(|atom| {
                    ConcreteStatistic::new(
                        Conditional::new(small.atom_vars(atom), VarSet::EMPTY),
                        Norm::L1,
                        atom,
                        10.0,
                    )
                })
                .collect(),
        );
        let forced_simple = || vec![compute_bound(&q, &simple, Cone::Polymatroid)];
        let forced_non_simple = || vec![compute_bound(&q, &non_simple, Cone::Polymatroid)];
        let auto_non_simple = || vec![compute_bound(&q, &non_simple, Cone::auto(&q, &non_simple))];
        let batch = || {
            [
                (&small, &small_stats),
                (&q, &non_simple),
                (&small, &small_stats),
            ]
            .into_iter()
            .map(|(q, s)| compute_bound(q, s, Cone::auto(q, s)))
            .collect()
        };
        type Run<'a> = &'a dyn Fn() -> Vec<Result<BoundResult, CoreError>>;
        let cases: [(&str, Run, &[bool]); 4] = [
            ("forced, simple", &forced_simple, &[true]),
            ("forced, non-simple", &forced_non_simple, &[true]),
            ("auto, non-simple", &auto_non_simple, &[true]),
            ("batch", &batch, &[false, true, false]),
        ];
        for (name, run, expected) in cases {
            let started = Instant::now();
            let results = run();
            let elapsed = started.elapsed();
            assert!(
                elapsed < Duration::from_millis(250),
                "{name}: took {elapsed:?}"
            );
            let got: Vec<bool> = results.iter().map(refused).collect();
            assert_eq!(got, expected, "{name}: {results:?}");
            for r in results.iter().filter(|r| !refused(r)) {
                assert!(r.as_ref().unwrap().is_bounded(), "{name}");
            }
        }
        // The normal cone still bounds the simple statistics (Theorem 6.1).
        assert!(compute_bound(&q, &simple, Cone::auto(&q, &simple))
            .unwrap()
            .is_bounded());
    }
}
