//! Lazy constraint generation for the polymatroid bound LP.
//!
//! The full polymatroid LP has `n + C(n,2)·2^{n−2}` Shannon elemental rows
//! — 67 584 of them at `n = 12` — of which only a handful bind at the
//! optimum.  [`solve_lazy`] never materializes the family.  It solves a
//! small core LP, asks
//! [`LazyElementalOracle`](crate::skeleton::LazyElementalOracle) for the
//! elemental inequalities the current point violates, appends them through
//! [`lpb_lp::IncrementalSolver`] — which extends the factorized basis in
//! place and repairs it with a few dual pivots instead of a cold restart —
//! and iterates until the separation oracle certifies the point feasible
//! for the *entire* family.  Because dropping rows can only enlarge the
//! feasible region of a maximization, the relaxation's optimum then equals
//! the full LP's optimum, and the relaxation's duals extend to the full LP
//! by zero — so the witness weights read off the statistic rows are exact.
//!
//! Two ingredients make the loop converge in a handful of rounds instead
//! of re-materializing the lattice one cut at a time:
//!
//! 1. **Composition seeding** ([`composition_rows`]): the core is seeded
//!    with the implied Shannon inequalities a dual witness proof would
//!    actually chain together — disjoint-cover subadditivity
//!    `h(g ∪ T) ≤ h(g) + h(T)` and guarded conditional steps
//!    `h(g ∪ V) ≤ h(g) + h(UV) − h(U)` (valid whenever `U ⊆ g`), generated
//!    over a breadth-first union closure of the statistics' sets.  For
//!    covering statistics the core relaxation's *value* then already
//!    equals the full LP's on the first solve.
//! 2. **Sandwich termination**: the caller passes the normal-cone bound as
//!    a lower anchor (`Nₙ ⊆ Γₙ`, so it never exceeds the polymatroid
//!    bound, and equals it for simple statistics by Theorem 6.1).  The
//!    relaxation's value is an upper bound, so as soon as it descends to
//!    the anchor the bound is certified exact and the loop stops — without
//!    grinding the relaxation's *point* all the way into Γₙ, which on
//!    degenerate optimal faces can take thousands of cuts that never move
//!    the value.
//!
//! Unbounded relaxations are handled the same way: the improving ray is
//! separated instead of the point, and an uncuttable ray certifies the
//! bound as genuinely infinite (statistics not covering some variable).
//!
//! Who comes through here: polymatroid bounds at n ≥ 9
//! ([`crate::POLYMATROID_LAZY_FROM`]) — which, [`crate::Cone::auto`] sending
//! simple statistics at that size to the normal cone, means queries with a
//! **non-simple** statistic (only the polymatroid cone is sound for those)
//! or a caller forcing the cone — and the agreement batteries that pin the
//! loop against the materialized skeleton.  The planner and the service
//! bound on the normal cone and never reach it.

use crate::error::CoreError;
use crate::skeleton::{polymatroid_stat_row, LazyElementalOracle};
use crate::statistics::StatisticsSet;
use lpb_entropy::VarSet;
use lpb_lp::{IncrementalSolver, LpError, Problem, Sense, Solution, SolverOptions, Status};

/// Hard cap on generation rounds.  Each round either terminates or adds at
/// least one row out of a finite family, so the loop provably stops; the
/// cap only guards against a cycling tolerance pathology.
const MAX_ROUNDS: usize = 200;

/// Most cuts appended per round, most-violated first.  Batching amortizes
/// the per-append refactorization; the deepest cuts tend to re-satisfy the
/// shallower ones, so flooding the LP with every violated row is wasteful.
const MAX_CUTS_PER_ROUND: usize = 256;

/// Violation tolerance of the separation oracle — aligned with the primal
/// feasibility tolerance of the simplex engine, so separation never chases
/// violations the engine cannot even represent.
const SEPARATION_TOL: f64 = 1e-7;

/// Times the driver rebuilds the whole LP from the accumulated rows after
/// the incremental engine reports numerical trouble, before giving up.
const MAX_REBUILDS: usize = 3;

/// Slack granted on the sandwich anchor: the relaxation value (an upper
/// bound on the polymatroid optimum) is accepted as exact once it is
/// within this of the anchor (a lower bound on the same optimum).
const SANDWICH_TOL: f64 = 1e-9;

/// Caps on the composition closure: distinct sets explored, rows emitted,
/// and disjoint-union "jumps" per construction.  All are safety valves —
/// correctness never depends on the closure being complete, only
/// convergence speed does.  The row cap also bounds the core LP's size:
/// thousands of redundant zero-rhs rows make every round's resolve crawl
/// through degenerate pivots, which costs more than the rows save.
const COMPOSITION_SET_CAP: usize = 512;
const COMPOSITION_ROW_CAP: usize = 2048;
const COMPOSITION_JUMP_CAP: usize = 8;

/// Implied bounding rows seeded into the core so the first relaxation is
/// already bounded whenever the full LP is.  Each is a *valid* polymatroid
/// inequality (a nonnegative combination of elementals) with zero
/// right-hand side, so adding it changes neither the optimum nor the
/// witness identity `Σ wᵢ·bᵢ = bound`:
///
/// * `h(X) ≤ h(X∖i) + h(i)` and `h(X) ≤ Σᵢ h(i)` tie the objective to the
///   lower lattice levels;
/// * for every set `S` named by a statistic (its `U` and `U∪V`),
///   subadditivity `h(S) ≤ Σ_{i∈S} h(i)` and monotonicity `h(i) ≤ h(S)`
///   close the loop between the statistic rows and the singletons.
///
/// Without these the core relaxation is almost always unbounded, and ray
/// separation pins one escape direction per round — a slow re-
/// materialization of the whole elemental family.  With them, the common
/// covering-statistics case starts bounded and every round separates a
/// *point*, which converges in a handful of rounds.
fn bounding_helper_rows(n: usize, stats: &StatisticsSet) -> Vec<(Vec<(usize, f64)>, f64)> {
    let full = (1u32 << n) - 1;
    let var_of = |m: u32| m as usize - 1;
    let mut rows: Vec<(Vec<(usize, f64)>, f64)> = Vec::new();
    if n > 1 {
        let mut subadd = vec![(var_of(full), 1.0)];
        for i in 0..n {
            subadd.push((var_of(1u32 << i), -1.0));
        }
        rows.push((subadd, 0.0));
        for i in 0..n {
            let rest = full & !(1u32 << i);
            rows.push((
                vec![
                    (var_of(full), 1.0),
                    (var_of(rest), -1.0),
                    (var_of(1u32 << i), -1.0),
                ],
                0.0,
            ));
        }
    }
    let mut seen = std::collections::HashSet::new();
    for s in stats.iter() {
        let u = s.stat.conditional.u.0;
        let uv = u | s.stat.conditional.v.0;
        for m in [u, uv] {
            if m == 0 || m.count_ones() < 2 || !seen.insert(m) {
                continue;
            }
            let bits: Vec<usize> = (0..n).filter(|&i| m >> i & 1 == 1).collect();
            if m != full {
                let mut subadd = vec![(var_of(m), 1.0)];
                for &i in &bits {
                    subadd.push((var_of(1u32 << i), -1.0));
                }
                rows.push((subadd, 0.0));
            }
            for &i in &bits {
                rows.push((vec![(var_of(1u32 << i), 1.0), (var_of(m), -1.0)], 0.0));
            }
        }
    }
    rows
}

/// Implied composition rows: the Shannon steps a witness proof chains
/// together, seeded up front so the core relaxation's value is already
/// tight for covering statistics.
///
/// A breadth-first closure grows set masks from the statistics' `U∪V`
/// sets.  From a reached set `g` and a statistic `((V|U), p)` with
/// `T = U∪V`, two kinds of (always valid) moves are emitted:
///
/// * **disjoint cover** (`g ∩ T = ∅`): `h(g∪T) ≤ h(g) + h(T)` —
///   subadditivity, the move of AGM-style fractional edge cover proofs.
///   To keep the closure near-linear in the number of covers, disjoint
///   moves are built in canonical (ascending statistic index) order, so
///   every disjoint union is reached exactly once via its sorted chain.
/// * **conditional chain** (`∅ ≠ U ⊆ g`): `h(g∪V) ≤ h(g) + h(UV) − h(U)`,
///   i.e. extending by `h(V|U)`; valid because `h(V|U) ≥ h(V|g)` by
///   submodularity — the move of degree-/chain-style proofs.
///
/// Overlapping unguarded unions are deliberately *not* expanded (plain
/// subadditivity is slack there; if the optimum needs genuine submodular
/// overlap the elemental separation loop supplies it).  The closure is
/// explored in tiers by the number of disjoint jumps a construction used:
/// all chain-reachable (connected) structure — the backbone of witness
/// proofs — is emitted before fragment breadth can exhaust the caps.
/// Every emitted row has zero right-hand side, so the witness identity
/// `Σ wᵢ·bᵢ = bound` is untouched.
fn composition_rows(stats: &StatisticsSet) -> Vec<(Vec<(usize, f64)>, f64)> {
    use std::collections::{HashSet, VecDeque};
    let var_of = |m: u32| m as usize - 1;
    // Disjoint-cover moves only care about the statistic's full set; chain
    // moves need the (guard, set) pair.  Deduplicating separately keeps a
    // statistics set with several norms per relation from multiplying the
    // closure's breadth.
    let mut cover_sets: Vec<u32> = Vec::new();
    let mut chain_pairs: Vec<(u32, u32)> = Vec::new();
    let mut seen_covers = HashSet::new();
    let mut seen_chains = HashSet::new();
    for s in stats.iter() {
        let u = s.stat.conditional.u.0;
        let uv = u | s.stat.conditional.v.0;
        if uv == 0 {
            continue;
        }
        if seen_covers.insert(uv) {
            cover_sets.push(uv);
        }
        if u != 0 && seen_chains.insert((u, uv)) {
            chain_pairs.push((u, uv));
        }
    }
    let mut rows: Vec<(Vec<(usize, f64)>, f64)> = Vec::new();
    let mut emitted: HashSet<(u32, u32, u32)> = HashSet::new();
    let emit = |rows: &mut Vec<(Vec<(usize, f64)>, f64)>,
                emitted: &mut HashSet<(u32, u32, u32)>,
                g: u32,
                cond_u: u32,
                uv: u32| {
        if !emitted.insert((g, cond_u, uv)) {
            return;
        }
        let t = g | uv;
        let mut terms = vec![(var_of(t), 1.0), (var_of(g), -1.0), (var_of(uv), -1.0)];
        if cond_u != 0 {
            terms.push((var_of(cond_u), 1.0));
        }
        // Coalesce index collisions (e.g. `g ⊂ uv` makes `t = uv`).
        terms.sort_by_key(|&(v, _)| v);
        let mut row: Vec<(usize, f64)> = Vec::with_capacity(terms.len());
        for (v, c) in terms {
            match row.last_mut() {
                Some(last) if last.0 == v => last.1 += c,
                _ => row.push((v, c)),
            }
        }
        row.retain(|&(_, c)| c != 0.0);
        if !row.is_empty() {
            rows.push((row, 0.0));
        }
    };
    // Phase 1 — the connected chain closure, with its own budget.  Witness
    // proofs lean hardest on long conditional chains (grow one connected
    // set a variable at a time), so these sets must all exist before
    // disjoint-union breadth is allowed to eat into the caps.
    let mut known: HashSet<u32> = HashSet::new();
    let mut chain_queue: VecDeque<u32> = VecDeque::new();
    let mut chain_sets: Vec<u32> = Vec::new();
    for &uv in &cover_sets {
        if known.insert(uv) {
            chain_queue.push_back(uv);
            chain_sets.push(uv);
        }
    }
    while let Some(g) = chain_queue.pop_front() {
        if rows.len() >= COMPOSITION_ROW_CAP {
            return rows;
        }
        for &(u, uv) in &chain_pairs {
            if g | uv == g || u & !g != 0 {
                continue;
            }
            emit(&mut rows, &mut emitted, g, u, uv);
            if known.len() < COMPOSITION_SET_CAP && known.insert(g | uv) {
                chain_queue.push_back(g | uv);
                chain_sets.push(g | uv);
            }
        }
    }
    // Phase 2 — disjoint unions, explored in tiers by the number of jumps
    // a construction used.  `tiers[j]` entries carry the minimum cover
    // index a further jump may use (canonical ascending build order, so
    // every disjoint union is reached exactly once via its sorted chain).
    // Chain moves on jump-produced sets stay in-tier and reset the cover
    // floor: guards may need sets a sorted build would not produce.
    let mut tiers: Vec<VecDeque<(u32, usize)>> = vec![VecDeque::new(); COMPOSITION_JUMP_CAP + 1];
    for (i, &g) in chain_sets.iter().enumerate() {
        // The first entries are the cover seeds themselves and keep their
        // canonical floor; chain-grown sets may jump with any cover.
        tiers[0].push_back((g, if i < cover_sets.len() { i + 1 } else { 0 }));
    }
    for jump in 0..tiers.len() {
        while let Some((g, min_idx)) = tiers[jump].pop_front() {
            if rows.len() >= COMPOSITION_ROW_CAP {
                return rows;
            }
            for &(u, uv) in &chain_pairs {
                if g | uv == g || u & !g != 0 {
                    continue;
                }
                emit(&mut rows, &mut emitted, g, u, uv);
                if known.len() < COMPOSITION_SET_CAP && known.insert(g | uv) {
                    tiers[jump].push_back((g | uv, 0));
                }
            }
            if jump == COMPOSITION_JUMP_CAP {
                continue;
            }
            for (idx, &uv) in cover_sets.iter().enumerate().skip(min_idx) {
                if g & uv != 0 {
                    continue;
                }
                emit(&mut rows, &mut emitted, g, 0, uv);
                if known.len() < COMPOSITION_SET_CAP && known.insert(g | uv) {
                    tiers[jump + 1].push_back((g | uv, idx + 1));
                }
            }
        }
    }
    rows
}

/// The core relaxation: statistic rows **first** (their duals are the
/// witness weights, exactly as in the materialized path), then the implied
/// bounding helpers and composition rows, then the oracle's core rows, all
/// explicit so the incremental engine owns every row.
fn build_core_problem(
    n: usize,
    stats: &StatisticsSet,
    oracle: &mut LazyElementalOracle,
) -> Problem {
    let n_subsets = (1usize << n) - 1;
    let mut p = Problem::maximize(n_subsets);
    p.set_objective(VarSet::full(n).index() - 1, 1.0);
    for s in stats.iter() {
        p.add_constraint(&polymatroid_stat_row(s), Sense::Le, s.log_bound);
    }
    for (row, rhs) in bounding_helper_rows(n, stats) {
        p.add_constraint(&row, Sense::Le, rhs);
    }
    for (row, rhs) in composition_rows(stats) {
        p.add_constraint(&row, Sense::Le, rhs);
    }
    for (row, rhs) in oracle.core_rows() {
        p.add_constraint(&row, Sense::Le, rhs);
    }
    p
}

/// Drive one constraint-generation loop to certified termination: solve,
/// separate (point or ray), append, repeat.  `base` is the relaxation
/// `inc` was built from, so a numerical rebuild can reconstruct
/// `base + accumulated` from scratch.  Terminates when the point/ray
/// admits no further cuts (full-LP optimality by separation), when the
/// value reaches `anchor` (a certified lower bound on the full LP's
/// optimum — the sandwich `anchor ≤ V ≤ relaxation` pins the value to
/// within [`SANDWICH_TOL`]), or on `Infeasible`.
fn drive(
    mut inc: IncrementalSolver,
    base: &Problem,
    oracle: &mut LazyElementalOracle,
    accumulated: &mut Vec<(Vec<(usize, f64)>, f64)>,
    options: &SolverOptions,
    anchor: Option<f64>,
) -> Result<IncrementalSolver, CoreError> {
    let mut rebuilds = 0usize;
    // Once any relaxation has been bounded, every later (row-superset)
    // relaxation is bounded too, so a subsequent `Unbounded` can only be
    // numerical degradation of the incrementally-extended basis.
    let mut bounded_once = false;
    let rebuild =
        |accumulated: &Vec<(Vec<(usize, f64)>, f64)>| -> Result<IncrementalSolver, CoreError> {
            let mut p = base.clone();
            for (row, rhs) in accumulated {
                p.add_constraint(row, Sense::Le, *rhs);
            }
            Ok(IncrementalSolver::solve(&p, options)?)
        };
    for _round in 0..MAX_ROUNDS {
        if std::env::var_os("LPB_CGEN_TRACE").is_some() {
            eprintln!(
                "cgen round {_round}: status {:?}, rows {}, obj {:?} anchor {anchor:?}",
                inc.status(),
                inc.n_rows(),
                (inc.status() == Status::Optimal).then(|| inc.solution().objective),
            );
        }
        if inc.status() == Status::Optimal {
            bounded_once = true;
        } else if inc.status() == Status::Unbounded && bounded_once {
            if rebuilds >= MAX_REBUILDS {
                return Err(CoreError::Lp(LpError::NumericalInstability {
                    detail: "a bounded relaxation turned unbounded after appending cuts".into(),
                }));
            }
            rebuilds += 1;
            inc = rebuild(accumulated)?;
            continue;
        }
        let cuts = match inc.status() {
            // Constraints cannot restore feasibility; inconsistent
            // statistics are final.
            Status::Infeasible => return Ok(inc),
            Status::Optimal => {
                let sol = inc.solution();
                if anchor.is_some_and(|a| sol.objective <= a + SANDWICH_TOL) {
                    // Sandwiched: the relaxation (an upper bound) has met a
                    // certified lower bound, so the value is exact and the
                    // statistic duals already certify it — no need to cut
                    // the point all the way into the polymatroid cone.
                    return Ok(inc);
                }
                let cuts = oracle.separate(&sol.x, SEPARATION_TOL, MAX_CUTS_PER_ROUND);
                if cuts.is_empty() {
                    // The point satisfies every Shannon elemental row:
                    // optimal over the full polymatroid cone.
                    return Ok(inc);
                }
                cuts
            }
            Status::Unbounded => {
                let ray = inc.unbounded_ray().ok_or_else(|| {
                    CoreError::Lp(LpError::NumericalInstability {
                        detail: "unbounded relaxation exposed no ray".into(),
                    })
                })?;
                let cuts = oracle.separate(&ray, SEPARATION_TOL, MAX_CUTS_PER_ROUND);
                if cuts.is_empty() {
                    // No elemental inequality cuts the ray either: the full
                    // LP is unbounded (statistics do not bound the query).
                    return Ok(inc);
                }
                cuts
            }
        };
        match inc.append_le_rows(&cuts) {
            Ok(_) => accumulated.extend(cuts),
            Err(LpError::NumericalInstability { .. }) if rebuilds < MAX_REBUILDS => {
                // Refactorization or dual repair degraded: rebuild the whole
                // relaxation (base + every accumulated cut + this batch)
                // from scratch and continue generating.
                rebuilds += 1;
                accumulated.extend(cuts);
                inc = rebuild(accumulated)?;
            }
            Err(e) => return Err(e.into()),
        }
    }
    Err(CoreError::Lp(LpError::IterationLimit { limit: MAX_ROUNDS }))
}

/// Solve the polymatroid bound LP for `n` variables by lazy constraint
/// generation.  Returns the same [`Solution`] shape as a full-skeleton
/// solve: the entropy vector as `x`, the statistic duals in rows
/// `0..stats.len()`, statuses `Optimal` / `Unbounded` / `Infeasible` with
/// their usual bound-LP meanings.
///
/// `anchor` is an optional certified lower bound on the full LP's optimum
/// (the normal-cone bound in practice; see the module docs).  When the
/// relaxation's value reaches it, generation stops with the value pinned
/// to within [`SANDWICH_TOL`] — on the high, i.e. sound, side.  Without an
/// anchor (or when the anchor has a genuine gap to the polymatroid bound,
/// as non-Shannon-tight statistics can) the loop runs to full
/// separation-certified optimality.
pub(crate) fn solve_lazy(
    n: usize,
    stats: &StatisticsSet,
    options: &SolverOptions,
    anchor: Option<f64>,
) -> Result<Solution, CoreError> {
    if n == 0 {
        return Err(CoreError::InvalidQuery {
            reason: "the polymatroid LP needs at least one variable".into(),
        });
    }
    let mut oracle = LazyElementalOracle::new(n);
    let core = build_core_problem(n, stats, &mut oracle);
    // Cuts appended so far, kept so a numerical rebuild can reconstruct
    // the exact current relaxation from scratch.
    let mut accumulated: Vec<(Vec<(usize, f64)>, f64)> = Vec::new();
    let inc = IncrementalSolver::solve(&core, options)?;
    let inc = drive(inc, &core, &mut oracle, &mut accumulated, options, anchor)?;
    Ok(inc.solution())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound_lp::{compute_bound_with, BoundOptions, BoundStatus, Cone};
    use crate::query::JoinQuery;
    use crate::statistics::ConcreteStatistic;
    use lpb_data::Norm;
    use lpb_entropy::Conditional;

    fn lazy_opts(lazy: Option<bool>) -> BoundOptions {
        BoundOptions {
            lazy,
            ..BoundOptions::default()
        }
    }

    /// Forced-lazy and full-skeleton solves agree on the paper's triangle
    /// benchmarks (statistics with genuinely active Shannon structure).
    #[test]
    fn lazy_matches_materialized_on_triangle_queries() {
        let q = JoinQuery::triangle("R", "S", "T");
        let reg = q.registry();
        let b = 7.0;
        let mut stats = StatisticsSet::new();
        for (v, u, atom) in [("Y", "X", 0usize), ("Z", "Y", 1), ("X", "Z", 2)] {
            stats.push(ConcreteStatistic::new(
                Conditional::new(reg.set_of(&[v]).unwrap(), reg.set_of(&[u]).unwrap()),
                Norm::L2,
                atom,
                b,
            ));
        }
        let lazy =
            compute_bound_with(&q, &stats, Cone::Polymatroid, &lazy_opts(Some(true))).unwrap();
        let full =
            compute_bound_with(&q, &stats, Cone::Polymatroid, &lazy_opts(Some(false))).unwrap();
        assert!((lazy.log2_bound - full.log2_bound).abs() < 1e-9);
        assert!((lazy.log2_bound - 2.0 * b).abs() < 1e-6);
        // The witness duals certify the same bound through the statistics.
        let dual: f64 = lazy.witness.weights.iter().map(|w| w * b).sum();
        assert!((dual - lazy.log2_bound).abs() < 1e-6);
    }

    /// Statistics that do not cover every variable leave the lazy LP
    /// genuinely unbounded: the ray survives every elemental cut.
    #[test]
    fn lazy_detects_unbounded_bounds() {
        let q = JoinQuery::triangle("R", "S", "T");
        let reg = q.registry();
        let mut stats = StatisticsSet::new();
        stats.push(ConcreteStatistic::new(
            Conditional::new(reg.set_of(&["X", "Y"]).unwrap(), VarSet::EMPTY),
            Norm::L1,
            0,
            5.0,
        ));
        let r = compute_bound_with(&q, &stats, Cone::Polymatroid, &lazy_opts(Some(true))).unwrap();
        assert_eq!(r.status, BoundStatus::Unbounded);
        assert!(r.log2_bound.is_infinite());
    }

    /// Mutually inconsistent statistics surface as the usual
    /// `InconsistentStatistics` error through the lazy path too.
    #[test]
    fn lazy_reports_inconsistent_statistics() {
        let q = JoinQuery::single_join("R", "S");
        let reg = q.registry();
        let mut stats = StatisticsSet::new();
        // h(XY) <= -1 contradicts h >= 0 (monotonicity chain to the full
        // set makes the LP infeasible outright).
        stats.push(ConcreteStatistic::new(
            Conditional::new(reg.set_of(&["X", "Y"]).unwrap(), VarSet::EMPTY),
            Norm::L1,
            0,
            -1.0,
        ));
        stats.push(ConcreteStatistic::new(
            Conditional::new(reg.set_of(&["Y", "Z"]).unwrap(), VarSet::EMPTY),
            Norm::L1,
            1,
            3.0,
        ));
        let err =
            compute_bound_with(&q, &stats, Cone::Polymatroid, &lazy_opts(Some(true))).unwrap_err();
        assert!(matches!(err, CoreError::InconsistentStatistics));
    }

    /// Twelve-variable cycle with per-edge cardinalities: the lazy bound
    /// matches the normal cone (Theorem 6.1 — the statistics are simple)
    /// even though the Shannon block was never built.
    #[test]
    fn lazy_carries_the_polymatroid_cone_to_twelve_variables() {
        let n = 12usize;
        let q = JoinQuery::cycle(&vec!["E"; n]);
        assert_eq!(q.n_vars(), n);
        let reg = q.registry();
        let logn = 9.0;
        let mut stats = StatisticsSet::new();
        for atom in 0..n {
            let vars = q.atom_vars(atom);
            let named: Vec<&str> = reg
                .names()
                .iter()
                .enumerate()
                .filter(|(i, _)| vars.contains(*i))
                .map(|(_, s)| s.as_str())
                .collect();
            stats.push(ConcreteStatistic::new(
                Conditional::new(reg.set_of(&named).unwrap(), VarSet::EMPTY),
                Norm::L1,
                atom,
                logn,
            ));
        }
        let lazy = compute_bound_with(&q, &stats, Cone::Polymatroid, &lazy_opts(None)).unwrap();
        let normal = compute_bound_with(&q, &stats, Cone::Normal, &lazy_opts(None)).unwrap();
        assert!(lazy.is_bounded());
        // AGM bound of an even cycle with equal edges: (n/2)·log N.
        assert!((lazy.log2_bound - (n as f64) / 2.0 * logn).abs() < 1e-6);
        assert!((lazy.log2_bound - normal.log2_bound).abs() < 1e-6);
    }

    /// Twelve-variable path with per-edge cardinalities: the lazy bound is
    /// the AGM bound (six disjoint edges) and matches the normal cone.
    #[test]
    fn lazy_handles_a_twelve_variable_path() {
        let q = JoinQuery::path(&["E"; 11]);
        let n = q.n_vars();
        assert_eq!(n, 12);
        let reg = q.registry();
        let logn = 9.0;
        let mut stats = StatisticsSet::new();
        for atom in 0..11 {
            let vars = q.atom_vars(atom);
            let named: Vec<&str> = reg
                .names()
                .iter()
                .enumerate()
                .filter(|(i, _)| vars.contains(*i))
                .map(|(_, s)| s.as_str())
                .collect();
            stats.push(ConcreteStatistic::new(
                Conditional::new(reg.set_of(&named).unwrap(), VarSet::EMPTY),
                Norm::L1,
                atom,
                logn,
            ));
        }
        let lazy =
            compute_bound_with(&q, &stats, Cone::Polymatroid, &lazy_opts(Some(true))).unwrap();
        let normal = compute_bound_with(&q, &stats, Cone::Normal, &lazy_opts(None)).unwrap();
        assert!((lazy.log2_bound - 6.0 * logn).abs() < 1e-6);
        assert!((lazy.log2_bound - normal.log2_bound).abs() < 1e-6);
    }

    /// `lazy: Some(false)` restores the hard materialization ceiling.
    #[test]
    fn forbidding_lazy_restores_the_materialize_ceiling() {
        use crate::bound_lp::POLYMATROID_MATERIALIZE_LIMIT;
        let n = POLYMATROID_MATERIALIZE_LIMIT + 1;
        let q = JoinQuery::cycle(&vec!["E"; n]);
        let err = compute_bound_with(
            &q,
            &StatisticsSet::new(),
            Cone::Polymatroid,
            &lazy_opts(Some(false)),
        )
        .unwrap_err();
        assert!(
            matches!(err, CoreError::TooManyVariables { limit, .. } if limit == POLYMATROID_MATERIALIZE_LIMIT)
        );
    }
}
