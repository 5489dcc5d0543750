//! The structure of the polymatroid and normal bound LPs: a cached skeleton
//! for the rows worth storing, oracles for the rest.
//!
//! The polymatroid LP of Theorem 5.2 has two very different kinds of rows:
//!
//! * **Shannon elemental rows** — `n + C(n,2)·2^{n−2}` of them, with at most
//!   four nonzeros each. They depend *only* on the number of query
//!   variables `n`, not on the query or its statistics, yet the seed
//!   implementation regenerated all of them (including a formatted debug
//!   string per row) on every single `compute_bound` call.
//! * **Statistic rows** — one per harvested statistic (typically a few
//!   dozen), which are the only per-query part.
//!
//! [`BoundLpSkeleton`] splits the construction accordingly: the Shannon
//! block is built once per `n` and memoized in a global cache — including
//! its column-major (CSC) form, attached to each instantiated problem as a
//! [`lpb_lp::SharedRowBlock`] so the solver never transposes it again — and
//! [`BoundLpSkeleton::instantiate`] only has to append `O(#stats)` fresh
//! rows.  Together with the sparse revised solver this turns the
//! per-estimate cost from "rebuild + dense-pivot an exponential tableau"
//! into "fill statistic rows + pivot on a sparse, already transposed one".
//!
//! Past [`POLYMATROID_MATERIALIZE_LIMIT`] variables the Shannon block
//! itself is the problem — `n·2^{n−1}` rows (67 584 at `n = 12`) of which
//! an optimal basis uses a vanishing fraction — so no block is cached at
//! all.  [`LazyElementalOracle`] replaces it: a family-diverse **separation
//! oracle** that, given a candidate entropy vector (or unbounded ray),
//! enumerates the elemental inequalities arithmetically and returns only
//! the violated ones, which the constraint-generation driver in `cgen`
//! appends to a small core LP until optimality is certified.
//!
//! The normal-cone LP is the transposed problem — one row per statistic but
//! `2^n − 1` step-function *columns*, of which an optimal basis uses at most
//! one per statistic — and gets the transposed treatment: no column is ever
//! stored.  [`normal_step_coefficient`] is the whole matrix as a function,
//! and [`StepColumnPricer`] is the pricing oracle that, given a dual vector,
//! evaluates the witness inequality (8) on every step function with one
//! zeta transform and returns the violated columns, which the
//! column-generation driver in `bound_lp` adds to a small master LP until
//! none is left.

use crate::bound_lp::{NORMAL_VAR_LIMIT, POLYMATROID_MATERIALIZE_LIMIT, POLYMATROID_VAR_LIMIT};
use crate::error::CoreError;
use crate::statistics::{ConcreteStatistic, StatisticsSet};
use lpb_entropy::{elemental_inequalities, VarSet};
use lpb_lp::{Problem, Sense, SharedRowBlock};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, OnceLock};

/// The cached Shannon elemental rows for one variable count, in the LP's
/// `−(elemental form) ≤ 0` convention (so the all-slack basis stays
/// feasible and no phase-1 is needed).
#[derive(Debug)]
pub struct ShannonRowBlock {
    n: usize,
    /// The rows wrapped as a shareable solver tail: all `≤ 0`, with the CSC
    /// transpose precomputed once and reused verbatim by every solve.
    tail: Arc<SharedRowBlock>,
}

impl ShannonRowBlock {
    fn build(n: usize) -> Self {
        let var_of = |s: VarSet| -> usize { s.index() - 1 };
        let rows: Vec<Vec<(usize, f64)>> = elemental_inequalities(n)
            .iter()
            .map(|ineq| {
                ineq.terms
                    .iter()
                    .map(|&(set, c)| (var_of(set), -c))
                    .collect()
            })
            .collect();
        let rhs = vec![0.0; rows.len()];
        let tail = Arc::new(SharedRowBlock::new((1usize << n) - 1, rows, rhs));
        ShannonRowBlock { n, tail }
    }

    /// Number of query variables this block is for.
    pub fn n_vars(&self) -> usize {
        self.n
    }

    /// Number of Shannon rows.
    pub fn len(&self) -> usize {
        self.tail.n_rows()
    }

    /// True when the block has no rows (never happens for `n ≥ 1`).
    pub fn is_empty(&self) -> bool {
        self.tail.n_rows() == 0
    }

    /// The rows as a solver-ready shared tail block.
    pub fn shared_tail(&self) -> &Arc<SharedRowBlock> {
        &self.tail
    }
}

fn shannon_cache() -> &'static Mutex<HashMap<usize, Arc<ShannonRowBlock>>> {
    static CACHE: OnceLock<Mutex<HashMap<usize, Arc<ShannonRowBlock>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The shared Shannon block for `n` variables, building it on first use.
///
/// # Panics
///
/// Panics when `n` is 0 or exceeds [`POLYMATROID_MATERIALIZE_LIMIT`]: the
/// block has `n + C(n,2)·2^{n−2}` rows, so an unchecked large `n` would
/// exhaust memory while holding the global cache lock.  Sizes past the
/// materialization limit are served lazily by [`LazyElementalOracle`]
/// instead of ever building the block.  [`BoundLpSkeleton::polymatroid`] is
/// the checked, error-returning entry point.
pub fn shannon_rows(n: usize) -> Arc<ShannonRowBlock> {
    assert!(
        (1..=POLYMATROID_MATERIALIZE_LIMIT).contains(&n),
        "shannon_rows supports 1..={POLYMATROID_MATERIALIZE_LIMIT} variables, got {n}"
    );
    let mut cache = shannon_cache().lock().expect("shannon cache poisoned");
    Arc::clone(
        cache
            .entry(n)
            .or_insert_with(|| Arc::new(ShannonRowBlock::build(n))),
    )
}

/// The sparse row of one statistic `((V|U), p, b)` in the polymatroid LP:
/// `(1/p)·h(U) + h(U∪V) − h(U) ≤ b`.
pub(crate) fn polymatroid_stat_row(s: &ConcreteStatistic) -> Vec<(usize, f64)> {
    let var_of = |set: VarSet| -> usize { set.index() - 1 };
    let u = s.stat.conditional.u;
    let v = s.stat.conditional.v;
    let uv = u.union(v);
    let mut coeffs: Vec<(usize, f64)> = vec![(var_of(uv), 1.0)];
    if !u.is_empty() {
        let c = s.stat.norm.reciprocal() - 1.0;
        if u == uv {
            // `V ⊆ U`: both terms hit the same variable; merge them.
            coeffs[0].1 += c;
        } else if c != 0.0 {
            coeffs.push((var_of(u), c));
        }
    }
    coeffs.retain(|&(_, c)| c != 0.0);
    coeffs
}

/// A reusable skeleton of the polymatroid bound LP for one variable count.
///
/// Create once (cheap — the heavy Shannon block is globally memoized), then
/// [`instantiate`](Self::instantiate) per statistics set.
#[derive(Debug, Clone)]
pub struct BoundLpSkeleton {
    block: Arc<ShannonRowBlock>,
}

impl BoundLpSkeleton {
    /// Skeleton of the polymatroid LP over `n` query variables.
    ///
    /// Fails with [`CoreError::TooManyVariables`] beyond
    /// [`POLYMATROID_MATERIALIZE_LIMIT`] — the ceiling of the *materialized*
    /// Shannon block.  [`crate::compute_bound`] carries the polymatroid cone
    /// further (to [`POLYMATROID_VAR_LIMIT`]) by generating the block's rows
    /// lazily instead of instantiating this skeleton.
    pub fn polymatroid(n: usize) -> Result<Self, CoreError> {
        if n == 0 {
            return Err(CoreError::InvalidQuery {
                reason: "the polymatroid LP needs at least one variable".into(),
            });
        }
        if n > POLYMATROID_MATERIALIZE_LIMIT {
            return Err(CoreError::TooManyVariables {
                n_vars: n,
                limit: POLYMATROID_MATERIALIZE_LIMIT,
                cone: "polymatroid",
            });
        }
        Ok(BoundLpSkeleton {
            block: shannon_rows(n),
        })
    }

    /// Number of query variables.
    pub fn n_vars(&self) -> usize {
        self.block.n_vars()
    }

    /// Number of cached Shannon rows.
    pub fn shannon_row_count(&self) -> usize {
        self.block.len()
    }

    /// Build the full LP for one statistics set: statistic rows first (so
    /// their duals are the witness weights), then the cached Shannon block
    /// attached as a shared tail — its column-major form is reused by the
    /// solver as-is, so only the `O(#stats)` head is built per query.
    pub fn instantiate(&self, stats: &StatisticsSet) -> Problem {
        let n = self.n_vars();
        let n_subsets = (1usize << n) - 1;
        let full = VarSet::full(n);
        let mut p = Problem::maximize(n_subsets);
        p.set_objective(full.index() - 1, 1.0);
        for s in stats.iter() {
            let row = polymatroid_stat_row(s);
            p.add_constraint(&row, Sense::Le, s.log_bound);
        }
        p.set_shared_tail(Arc::clone(self.block.shared_tail()));
        p
    }
}

/// Lazy separation oracle over the Shannon elemental inequalities — the
/// constraint-generation counterpart of [`ShannonRowBlock`].
///
/// The polymatroid LP's cone structure is the full elemental family
/// (`n + C(n,2)·2^{n−2}` rows), but at an optimum only a handful bind.
/// Past [`POLYMATROID_MATERIALIZE_LIMIT`] variables the family is never
/// materialized; instead the bound is solved by constraint generation
/// (see [`crate::compute_bound_with`]):
///
/// * [`core_rows`](Self::core_rows) yields a small always-included core —
///   the `n` monotonicity rows `h(X) ≥ h(X∖i)` plus the `C(n,2)`
///   unconditioned submodularities `I(i;j) ≥ 0` — enough to pin the
///   objective whenever the statistics cover every variable;
/// * [`separate`](Self::separate) scans the remaining submodularity family
///   `h(W∪i) + h(W∪j) ≥ h(W∪ij) + h(W)` (for `i < j`, `W ⊆ X∖{i,j}`)
///   against the current LP point and returns the most violated rows, a
///   batch at a time.
///
/// The scan is lazy in *memory*, not work: it evaluates each candidate in
/// O(1) straight off the masks (67 584 candidates at `n = 12`, well under a
/// millisecond) and never allocates a row that is not violated.  Emitted
/// rows are remembered and never offered twice, so the generation loop adds
/// each inequality at most once.
///
/// All rows come out in the solver's negated `≤ 0` convention, matching
/// [`ShannonRowBlock`]: appending them to a maximization over the statistic
/// rows keeps the all-slack basis dual feasible.
#[derive(Debug)]
pub struct LazyElementalOracle {
    n: usize,
    /// Submodularity triples `(i, j, W mask)` already handed out, either as
    /// core seeds or as separated cuts.
    emitted: HashSet<(usize, usize, u32)>,
}

impl LazyElementalOracle {
    /// An oracle over `n` query variables (`1..=`[`POLYMATROID_VAR_LIMIT`]).
    ///
    /// # Panics
    ///
    /// Panics outside that range; [`crate::compute_bound`] checks first.
    pub fn new(n: usize) -> Self {
        assert!(
            (1..=POLYMATROID_VAR_LIMIT).contains(&n),
            "LazyElementalOracle supports 1..={POLYMATROID_VAR_LIMIT} variables, got {n}"
        );
        LazyElementalOracle {
            n,
            emitted: HashSet::new(),
        }
    }

    /// Number of query variables.
    pub fn n_vars(&self) -> usize {
        self.n
    }

    /// LP column of the subset with bit mask `mask` (`VarSet::index() − 1`).
    fn var_of(mask: u32) -> usize {
        mask as usize - 1
    }

    /// The negated submodularity row `h(W∪ij) + h(W) − h(W∪i) − h(W∪j) ≤ 0`.
    fn submodularity_row(i: usize, j: usize, w: u32) -> Vec<(usize, f64)> {
        let wi = w | (1u32 << i);
        let wj = w | (1u32 << j);
        let wij = wi | wj;
        let mut row = vec![
            (Self::var_of(wij), 1.0),
            (Self::var_of(wi), -1.0),
            (Self::var_of(wj), -1.0),
        ];
        if w != 0 {
            row.push((Self::var_of(w), 1.0));
        }
        row
    }

    /// The always-included core, as `(coefficients, rhs)` pairs of `≤` rows:
    /// `n` negated monotonicities `h(X∖i) − h(X) ≤ 0` and the `C(n,2)`
    /// unconditioned submodularity seeds `I(i;j|∅) ≥ 0` (negated).  Marks
    /// the seeds as emitted.
    pub fn core_rows(&mut self) -> Vec<(Vec<(usize, f64)>, f64)> {
        let n = self.n;
        let full = (1u32 << n) - 1;
        let mut rows = Vec::with_capacity(n + n * (n - 1) / 2);
        for i in 0..n {
            let rest = full & !(1u32 << i);
            let mut row = vec![(Self::var_of(full), -1.0)];
            if rest != 0 {
                row.push((Self::var_of(rest), 1.0));
            }
            rows.push((row, 0.0));
        }
        for i in 0..n {
            for j in (i + 1)..n {
                self.emitted.insert((i, j, 0));
                rows.push((Self::submodularity_row(i, j, 0), 0.0));
            }
        }
        rows
    }

    /// The not-yet-emitted submodularity rows violated by `x` (an LP point
    /// *or* an improving ray — `h(∅) = 0` holds for both) by more than
    /// `tol`, at most `max_cuts` of them.  Returned rows are marked
    /// emitted.
    ///
    /// When the backlog exceeds `max_cuts`, the batch is chosen for
    /// *family diversity* rather than raw depth: the deepest cut of each
    /// `(i, j)` pair first, then the deepest leftovers.  A budget spent on
    /// near-parallel cuts in one corner of the lattice pins the point far
    /// less than the same budget spread across every variable pair, and in
    /// practice diversity cuts the generation rounds (and the final LP
    /// size) by an order of magnitude at `n ≥ 10`.
    ///
    /// An empty result certifies that `x` satisfies every Shannon elemental
    /// inequality not already in the LP (up to `tol`): for an optimal point
    /// that proves optimality over the full polymatroid cone, for a ray it
    /// proves genuine unboundedness.
    pub fn separate(
        &mut self,
        x: &[f64],
        tol: f64,
        max_cuts: usize,
    ) -> Vec<(Vec<(usize, f64)>, f64)> {
        let n = self.n;
        let full = (1u32 << n) - 1;
        debug_assert_eq!(x.len(), full as usize);
        let h = |mask: u32| -> f64 {
            if mask == 0 {
                0.0
            } else {
                x[mask as usize - 1]
            }
        };
        let mut violated: Vec<(f64, usize, usize, u32)> = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let bi = 1u32 << i;
                let bj = 1u32 << j;
                let rest = full & !bi & !bj;
                // Subset enumeration of `rest`, including the empty set
                // (cheaply skipped via the emitted seeds).
                let mut w = rest;
                loop {
                    if !self.emitted.contains(&(i, j, w)) {
                        let v = h(w | bi | bj) + h(w) - h(w | bi) - h(w | bj);
                        if v > tol {
                            violated.push((v, i, j, w));
                        }
                    }
                    if w == 0 {
                        break;
                    }
                    w = (w - 1) & rest;
                }
            }
        }
        violated.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        if violated.len() > max_cuts {
            let mut taken = vec![false; violated.len()];
            let mut families = HashSet::new();
            let mut selected = Vec::with_capacity(max_cuts);
            for (idx, &(_, i, j, _)) in violated.iter().enumerate() {
                if selected.len() == max_cuts {
                    break;
                }
                if families.insert((i, j)) {
                    taken[idx] = true;
                    selected.push(violated[idx]);
                }
            }
            for (idx, &row) in violated.iter().enumerate() {
                if selected.len() == max_cuts {
                    break;
                }
                if !taken[idx] {
                    selected.push(row);
                }
            }
            violated = selected;
        }
        violated
            .into_iter()
            .map(|(_, i, j, w)| {
                self.emitted.insert((i, j, w));
                (Self::submodularity_row(i, j, w), 0.0)
            })
            .collect()
    }
}

/// Coefficient of the step-function column `W` in the normal-cone LP row of
/// statistic `((V|U), p)`: `(1/p)·h_W(U) + h_W(V|U)` — `1/p` when `W` meets
/// `U`, `1` when it meets `V` but not `U`, `0` when it misses `U∪V`.
///
/// This is the whole constraint matrix of the normal-cone bound: row `i`,
/// column `W` of `max Σ_W α_W  s.t.  Σ_W α_W·c_i(W) ≤ b_i`.  Nothing ever
/// stores that matrix; [`StepColumnPricer`] prices its `2^n − 1` columns in
/// one pass and the few that enter a master LP are evaluated here.
pub fn normal_step_coefficient(s: &ConcreteStatistic, w: VarSet) -> f64 {
    let u = s.stat.conditional.u;
    if !w.intersect(u).is_empty() {
        s.stat.norm.reciprocal()
    } else if !w.intersect(s.stat.conditional.v).is_empty() {
        1.0
    } else {
        0.0
    }
}

/// Prices every step-function column of the normal-cone LP against a dual
/// vector at once — the column-generation counterpart of
/// [`LazyElementalOracle`].
///
/// Writing `W̄` for the complement of `W`, the coefficient above is
///
/// ```text
/// c_i(W) = 1/p_i − (1/p_i − 1)·[U_i ⊆ W̄] − [U_i∪V_i ⊆ W̄]
/// ```
///
/// so for weights `w ≥ 0` the left-hand side of the witness inequality (8)
/// at `h_W` is `w·c(W) = Σ_i w_i/p_i + Σ_{T ⊆ W̄} β(T)` with
/// `β(U_i) += w_i·(1 − 1/p_i)` and `β(U_i∪V_i) −= w_i`: one scatter per
/// statistic and one subset-sum (zeta) transform, `n·2^{n−1}` additions,
/// whatever the statistics look like — simple or not.  A column with
/// `w·c(W) < 1` is a violated dual constraint, i.e. a step function on
/// which `w` is not yet a valid witness.
#[derive(Debug)]
pub struct StepColumnPricer {
    n: usize,
    /// After [`price`](Self::price): entry `S` is `w·c(W)` for `W = X∖S`.
    sums: Vec<f64>,
}

impl StepColumnPricer {
    /// A pricer over `n` query variables (`1..=`[`NORMAL_VAR_LIMIT`]).
    ///
    /// # Panics
    ///
    /// Panics outside that range (the table has `2^n` entries);
    /// [`crate::compute_bound`] checks first.
    pub fn new(n: usize) -> Self {
        assert!(
            (1..=NORMAL_VAR_LIMIT).contains(&n),
            "StepColumnPricer supports 1..={NORMAL_VAR_LIMIT} variables, got {n}"
        );
        StepColumnPricer {
            n,
            sums: vec![0.0; 1 << n],
        }
    }

    /// Price all `2^n − 1` columns against `weights` (one per statistic).
    ///
    /// # Panics
    ///
    /// Panics when a statistic mentions a variable outside `0..n`
    /// ([`crate::compute_bound`] validates guards first, which rules it out).
    pub fn price(&mut self, stats: &StatisticsSet, weights: &[f64]) {
        debug_assert_eq!(stats.len(), weights.len());
        self.sums.fill(0.0);
        for (s, &w) in stats.iter().zip(weights) {
            if w == 0.0 {
                continue;
            }
            let inv_p = s.stat.norm.reciprocal();
            let u = s.stat.conditional.u;
            // The constant term rides on β(∅), which every subset sum sees.
            self.sums[0] += w * inv_p;
            self.sums[u.0 as usize] += w * (1.0 - inv_p);
            self.sums[u.union(s.stat.conditional.v).0 as usize] -= w;
        }
        for bit in 0..self.n {
            let half = 1usize << bit;
            for block in self.sums.chunks_exact_mut(2 * half) {
                let (without, with) = block.split_at_mut(half);
                for (hi, lo) in with.iter_mut().zip(without.iter()) {
                    *hi += *lo;
                }
            }
        }
    }

    /// `w·c(W)` as of the last [`price`](Self::price) call.
    pub fn price_of(&self, w: VarSet) -> f64 {
        self.sums[self.sums.len() - 1 - w.0 as usize]
    }

    /// The columns outside `present` priced below `1 − tol`, most violated
    /// first (ties: smaller mask first, so the choice is a function of the
    /// prices alone), at most `max` of them.  An empty result certifies the
    /// weights as a dual-feasible witness on every extreme ray of `Nₙ`
    /// outside `present`.
    pub fn violated(&self, present: &[VarSet], tol: f64, max: usize) -> Vec<VarSet> {
        let full = self.sums.len() - 1;
        let mut found: Vec<(f64, u32)> = self.sums[..full]
            .iter()
            .enumerate()
            .filter(|(_, &price)| price < 1.0 - tol)
            .map(|(complement, &price)| (price, (full - complement) as u32))
            .collect();
        let by_violation = |a: &(f64, u32), b: &(f64, u32)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        // Only the head can be taken: `max` columns plus, at worst, every
        // present one ahead of them.
        let head = max + present.len();
        if found.len() > head {
            found.select_nth_unstable_by(head, by_violation);
            found.truncate(head);
        }
        found.sort_unstable_by(by_violation);
        found
            .into_iter()
            .map(|(_, w)| VarSet(w))
            .filter(|w| !present.contains(w))
            .take(max)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpb_entropy::shannon::elemental_count;

    #[test]
    fn block_is_cached_and_sized_by_formula() {
        let a = shannon_rows(4);
        let b = shannon_rows(4);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), elemental_count(4));
        assert_eq!(a.n_vars(), 4);
        assert!(!a.is_empty());
    }

    #[test]
    fn skeleton_rejects_oversized_and_empty() {
        assert!(BoundLpSkeleton::polymatroid(0).is_err());
        // The materialized skeleton stops at the materialization limit even
        // though the cone itself (via lazy generation) reaches further.
        assert!(BoundLpSkeleton::polymatroid(POLYMATROID_MATERIALIZE_LIMIT + 1).is_err());
        assert!(BoundLpSkeleton::polymatroid(POLYMATROID_VAR_LIMIT + 1).is_err());
        let s = BoundLpSkeleton::polymatroid(3).unwrap();
        assert_eq!(s.n_vars(), 3);
        assert_eq!(s.shannon_row_count(), elemental_count(3));
    }

    /// The lazy oracle's core plus everything it can ever separate is
    /// exactly the elemental family: core monotonicities + all `C(n,2)·
    /// 2^{n−2}` submodularities, each emitted at most once.
    #[test]
    fn lazy_oracle_enumerates_the_elemental_family_once() {
        for n in [2usize, 4, 5] {
            let mut oracle = LazyElementalOracle::new(n);
            assert_eq!(oracle.n_vars(), n);
            let core = oracle.core_rows();
            assert_eq!(core.len(), n + n * (n - 1) / 2);
            // A wildly infeasible point (h superadditive) violates every
            // remaining submodularity: ask for all of them.
            let x: Vec<f64> = (1u32..(1 << n))
                .map(|mask| (mask.count_ones() as f64).powi(2))
                .collect();
            let cuts = oracle.separate(&x, 1e-9, usize::MAX);
            let n_sub = n * (n - 1) / 2 * (1usize << (n - 2));
            assert_eq!(core.len() + cuts.len(), n + n_sub);
            assert_eq!(n + n_sub, elemental_count(n));
            // Everything emitted: nothing left to separate.
            assert!(oracle.separate(&x, 1e-9, usize::MAX).is_empty());
        }
    }

    /// A genuine polymatroid (here `h(S) = |S|`, modular) violates nothing.
    #[test]
    fn lazy_oracle_accepts_polymatroids() {
        let n = 5;
        let mut oracle = LazyElementalOracle::new(n);
        oracle.core_rows();
        let x: Vec<f64> = (1u32..(1 << n)).map(|m| m.count_ones() as f64).collect();
        assert!(oracle.separate(&x, 1e-9, usize::MAX).is_empty());
    }

    /// Cut rows agree coefficient-for-coefficient with the materialized
    /// Shannon block's negated convention.
    #[test]
    fn lazy_oracle_rows_match_the_materialized_block() {
        use std::collections::BTreeMap;
        let n = 4;
        let mut oracle = LazyElementalOracle::new(n);
        let mut lazy_rows: Vec<Vec<(usize, f64)>> =
            oracle.core_rows().into_iter().map(|(r, _)| r).collect();
        let x: Vec<f64> = (1u32..(1 << n))
            .map(|mask| (mask.count_ones() as f64).powi(2))
            .collect();
        lazy_rows.extend(
            oracle
                .separate(&x, 1e-9, usize::MAX)
                .into_iter()
                .map(|(r, _)| r),
        );
        let block = shannon_rows(n);
        let canon = |row: &[(usize, f64)]| -> BTreeMap<usize, i64> {
            row.iter().map(|&(j, c)| (j, c as i64)).collect()
        };
        let mut expected: Vec<BTreeMap<usize, i64>> = (0..block.len())
            .map(|i| canon(block.shared_tail().row(i)))
            .collect();
        let mut got: Vec<BTreeMap<usize, i64>> = lazy_rows.iter().map(|r| canon(r)).collect();
        expected.sort();
        got.sort();
        assert_eq!(expected, got);
    }

    #[test]
    fn instantiated_problem_has_stat_rows_first() {
        use crate::statistics::StatisticsSet;
        use lpb_entropy::Conditional;

        let mut stats = StatisticsSet::new();
        stats.push(ConcreteStatistic::new(
            Conditional::new(VarSet::from_indices([0, 1]), VarSet::EMPTY),
            lpb_data::Norm::L1,
            0,
            5.0,
        ));
        let skeleton = BoundLpSkeleton::polymatroid(3).unwrap();
        let p = skeleton.instantiate(&stats);
        assert_eq!(p.n_vars(), 7);
        // Explicit rows are the statistic rows; the Shannon block rides
        // along as the cached shared tail.
        assert_eq!(p.n_constraints(), 1);
        assert_eq!(p.n_rows_total(), 1 + skeleton.shannon_row_count());
        assert_eq!(p.constraints()[0].rhs, 5.0);
        let tail = p.shared_tail().expect("Shannon tail attached");
        assert_eq!(tail.n_rows(), skeleton.shannon_row_count());
        assert!(tail.rhs().iter().all(|&r| r == 0.0));
        // The tail block is the globally cached one, not a copy.
        assert!(Arc::ptr_eq(tail, shannon_rows(3).shared_tail()));
    }

    /// Statistics `((V|U), norm, log-bound)`, all guarded by atom 0.
    fn stats_of(cases: &[(VarSet, VarSet, lpb_data::Norm, f64)]) -> StatisticsSet {
        use lpb_entropy::Conditional;
        StatisticsSet::from_vec(
            cases
                .iter()
                .map(|&(v, u, norm, log_bound)| {
                    ConcreteStatistic::new(Conditional::new(v, u), norm, 0, log_bound)
                })
                .collect(),
        )
    }

    /// Four statistic shapes over four variables: conditioned and not,
    /// ℓ1 / ℓ2 / ℓ3 / ℓ∞, and one with `|U∪V| = 3`.
    fn coefficient_cases() -> StatisticsSet {
        use lpb_data::Norm;
        let set = |vars: &[usize]| VarSet::from_indices(vars.iter().copied());
        stats_of(&[
            (set(&[1]), set(&[0]), Norm::L2, 1.0),
            (set(&[2, 3]), VarSet::EMPTY, Norm::L1, 1.0),
            (set(&[3]), set(&[1]), Norm::Infinity, 1.0),
            (set(&[0, 2]), set(&[3]), Norm::finite(3.0), 1.0),
        ])
    }

    /// No support list is cached or shared any more: the support of a
    /// statistic's row is a function of `U∪V`, namely
    /// [`lpb_entropy::step_support`].
    #[test]
    fn normal_step_block_is_cached_and_supports_are_shared() {
        let n = 5;
        let stats = stats_of(&[(
            VarSet::from_indices([2]),
            VarSet::from_indices([0]),
            lpb_data::Norm::L2,
            1.0,
        )]);
        let stat = &stats.as_slice()[0];
        let support: Vec<u32> = (1u32..1 << n)
            .filter(|&mask| normal_step_coefficient(stat, VarSet(mask)) != 0.0)
            .collect();
        assert_eq!(
            support,
            lpb_entropy::step_support(n, VarSet::from_indices([0, 2]))
        );
        // |{W : W ∩ S ≠ ∅}| = 2^n − 2^(n−|S|).
        assert_eq!(support.len(), (1 << 5) - (1 << 3));
    }

    #[test]
    fn normal_skeleton_rejects_oversized_and_empty() {
        use crate::bound_lp::solve_normal;
        let none = StatisticsSet::new();
        assert!(matches!(
            solve_normal(0, &none),
            Err(CoreError::InvalidQuery { .. })
        ));
        assert!(matches!(
            solve_normal(NORMAL_VAR_LIMIT + 1, &none),
            Err(CoreError::TooManyVariables { .. })
        ));
        // In range, without statistics, nothing bounds the query.
        let open = solve_normal(4, &none).unwrap();
        assert_eq!(open.status, lpb_lp::Status::Unbounded);
    }

    /// The coefficient function is bit for bit the per-column step-function
    /// evaluation, and the zeta-transform pricing is the per-column dot
    /// product `Σ_i w_i·c_i(W)` on every one of the `2^n − 1` columns.
    #[test]
    fn normal_stat_row_matches_step_function_pricing() {
        use lpb_entropy::{step_conditional, step_value};

        let n = 4;
        let stats = coefficient_cases();
        for stat in stats.iter() {
            let (u, v) = (stat.stat.conditional.u, stat.stat.conditional.v);
            let inv_p = stat.stat.norm.reciprocal();
            for mask in 1u32..(1 << n) {
                let w = VarSet(mask);
                // Reference: the direct per-column enumeration the seed used.
                let expected = inv_p * step_value(w, u) + step_conditional(w, v, u);
                assert_eq!(
                    normal_step_coefficient(stat, w).to_bits(),
                    expected.to_bits(),
                    "({v:?}|{u:?}) at {w:?}"
                );
            }
        }
        let mut pricer = StepColumnPricer::new(n);
        for weights in [[0.5, 1.25, 0.0, 2.0], [1.0, 0.0, 3.0, 0.125]] {
            pricer.price(&stats, &weights);
            let mut below_one = Vec::new();
            for mask in 1u32..(1 << n) {
                let w = VarSet(mask);
                let direct: f64 = stats
                    .iter()
                    .zip(&weights)
                    .map(|(s, wt)| wt * normal_step_coefficient(s, w))
                    .sum();
                assert!(
                    (pricer.price_of(w) - direct).abs() < 1e-12,
                    "{w:?}: zeta {} vs direct {direct}",
                    pricer.price_of(w)
                );
                if direct < 1.0 - 1e-9 {
                    below_one.push((direct, w));
                }
            }
            // `violated` returns exactly those, most violated first, minus
            // the ones already present, capped.
            below_one.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let all: Vec<VarSet> = below_one.iter().map(|&(_, w)| w).collect();
            assert_eq!(pricer.violated(&[], 1e-9, usize::MAX >> 1), all);
            if let Some((first, rest)) = all.split_first() {
                assert_eq!(
                    pricer.violated(&[*first], 1e-9, 2),
                    rest[..rest.len().min(2)]
                );
            }
        }
    }

    fn two_stats() -> StatisticsSet {
        use lpb_data::Norm;
        stats_of(&[
            (VarSet::from_indices([0, 1]), VarSet::EMPTY, Norm::L1, 4.0),
            (
                VarSet::from_indices([2]),
                VarSet::from_indices([0]),
                Norm::L2,
                2.0,
            ),
        ])
    }

    /// The master LP carries one row per statistic, in statistics order,
    /// whose cells are the coefficient function and whose right-hand sides
    /// are the log-bounds — which are all that changes with them.
    #[test]
    fn normal_skeleton_instantiates_one_shared_row_per_statistic() {
        use crate::bound_lp::normal_master;
        let stats = two_stats();
        let columns: Vec<VarSet> = (0..3)
            .map(VarSet::singleton)
            .chain([VarSet::full(3), VarSet::from_indices([1, 2])])
            .collect();
        let p = normal_master(&columns, &stats);
        assert_eq!(p.n_vars(), columns.len());
        assert!(p.objective().iter().all(|&c| c == 1.0));
        assert_eq!(p.n_rows_total(), 2);
        assert!(p.shared_tail().is_none());
        for (row, s) in p.constraints().iter().zip(stats.iter()) {
            assert_eq!(row.sense, Sense::Le);
            assert_eq!(row.rhs, s.log_bound);
            let expected: Vec<(usize, f64)> = columns
                .iter()
                .enumerate()
                .map(|(j, &w)| (j, normal_step_coefficient(s, w)))
                .filter(|&(_, c)| c != 0.0)
                .collect();
            assert_eq!(row.coeffs, expected);
        }
        let q = normal_master(&columns, &stats.amplify(1.5));
        for (a, b) in p.constraints().iter().zip(q.constraints()) {
            assert_eq!(a.coeffs, b.coeffs);
            assert_eq!(b.rhs, 1.5 * a.rhs);
        }
    }

    /// Negative log-bounds need no second representation: the master is
    /// infeasible on its seed columns already (no coefficient is negative).
    /// On sign-safe data the generated solve returns the full LP's shape and,
    /// the statistics being simple, the polymatroid bound (Theorem 6.1).
    #[test]
    fn normal_skeleton_falls_back_to_explicit_rows_for_negative_bounds() {
        use crate::bound_lp::solve_normal;
        let negative = solve_normal(3, &two_stats().amplify(-1.0)).unwrap();
        assert_eq!(negative.status, lpb_lp::Status::Infeasible);

        let pos = two_stats();
        let generated = solve_normal(3, &pos).unwrap();
        let polymatroid = BoundLpSkeleton::polymatroid(3)
            .unwrap()
            .instantiate(&pos)
            .solve()
            .unwrap();
        assert_eq!(generated.status, polymatroid.status);
        assert!((generated.objective - polymatroid.objective).abs() < 1e-9);
        assert_eq!(generated.x.len(), 7);
        assert_eq!(generated.duals.len(), pos.len());
    }
}
