//! Parallel batch evaluation of cardinality bounds.
//!
//! A query optimizer does not ask for one bound — it asks for bounds on
//! *every candidate plan's* subqueries, often hundreds per optimization
//! call. [`BatchEstimator`] evaluates many `(query, statistics)` pairs at
//! once:
//!
//! * items are fanned out across cores with `rayon`'s parallel iterators,
//!   one *lane* per core: items that can warm each other — the same variable
//!   count and cone — stay together and in input order on one lane, so a
//!   parallel batch does exactly the solver work, and returns bit for bit
//!   the bounds, of the same batch on one thread, however the threads are
//!   scheduled (a batch of a single such family is not split);
//! * all items share the globally cached Shannon skeleton of
//!   [`crate::skeleton`], so the exponential row block for each variable
//!   count is built at most once per process;
//! * **warm starting is on by default** for the materialized LPs
//!   (polymatroid up to [`POLYMATROID_MATERIALIZE_LIMIT`] variables,
//!   modular): the first solve of each LP *shape* publishes a
//!   [`lpb_lp::WarmHandle`] — a snapshot of the factorized simplex engine
//!   at the optimum — and every later item of the same shape re-solves from
//!   it with a single FTRAN plus a few dual pivots instead of a cold solve
//!   (measured well under the cold cost; see `BENCH_lp.json`,
//!   `dual_warm_us` vs `sparse_skeleton_us`);
//! * **normal-cone items are solved cold, each on its own**: their bound
//!   is column-generated over a master LP of a few dozen query-specific
//!   columns (see [`crate::compute_bound_with`]), which costs less cold
//!   than re-solving a snapshotted `2^n`-column engine cost warm, so they
//!   neither read nor write the cache and count as neither hit nor miss.
//!
//! The warm cache lives inside the estimator (shared by clones via `Arc`),
//! so it persists across [`BatchEstimator::estimate`] calls: a query
//! optimizer keeps one configured instance (or clones per thread) and every
//! planning call warms the next.  [`BatchEstimator::bound_subqueries`] is
//! the planner entry point: all sub-joins of a DP enumeration, bounded in
//! one batch.  Cache effectiveness is observable through
//! [`BatchEstimator::shape_cache_hits`] /
//! [`shape_cache_misses`](BatchEstimator::shape_cache_misses).
//!
//! Shapes are keyed by the **full statistic shape** — variable count, cone,
//! and the multiset of `(conditioning set, dependent set, norm)` triples —
//! not merely by the statistic *count*: two LPs share a key exactly when
//! their constraint matrices are identical up to row order, and only the
//! right-hand sides (the statistics' log-bounds) differ — the precondition
//! for dual warm starts.  A same-key collision that nevertheless produces a
//! different matrix (the key sorts the multiset, but rows follow statistic
//! *order*) is caught by the handle's exact matrix comparison: the item is
//! solved cold and its handle replaces the stale one, so results never
//! depend on the cache.  Negative log-bounds pass the matrix check
//! unchanged (they alter only `b`) and are absorbed by the dual pivots
//! themselves, including their infeasibility certificate.
//!
//! ```
//! use lpb_core::{BatchEstimator, BatchItem, CollectConfig, JoinQuery};
//! use lpb_core::{collect_simple_statistics, Catalog, RelationBuilder};
//!
//! let mut catalog = Catalog::new();
//! catalog.insert(RelationBuilder::binary_from_pairs(
//!     "E", "src", "dst",
//!     (0..40u64).map(|i| (i % 7, (i * 3 + 1) % 9)),
//! ));
//! let items: Vec<BatchItem> = ["R", "S", "T"]
//!     .iter()
//!     .map(|_| {
//!         let query = JoinQuery::triangle("E", "E", "E");
//!         let stats = collect_simple_statistics(
//!             &query, &catalog, &CollectConfig::with_max_norm(3)).unwrap();
//!         BatchItem::new(query, stats)
//!     })
//!     .collect();
//! let results = BatchEstimator::new().estimate(&items);
//! assert_eq!(results.len(), 3);
//! for r in results {
//!     assert!(r.unwrap().is_bounded());
//! }
//! ```

use crate::bound_lp::{
    build_bound_problem, compute_bound_with, solution_to_result, validate_guards, BoundOptions,
    BoundResult, Cone, POLYMATROID_MATERIALIZE_LIMIT,
};
use crate::collect::{collect_simple_statistics, CollectConfig};
use crate::error::CoreError;
use crate::query::JoinQuery;
use crate::statistics::StatisticsSet;
use lpb_data::Catalog;
use lpb_lp::{solve_sparse_with_handle, LpError, SolverKind, SolverOptions, WarmHandle};
use rayon::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Warm-start cache key: the variable count, the cone, and the sorted
/// multiset of statistic shapes `(U mask, V mask, norm bits)`.  Two items
/// with equal keys instantiate LPs over the same columns with the same
/// objective and — up to row order and right-hand sides — the same
/// constraint matrix, so a [`WarmHandle`] recorded under the key is
/// (almost always; see the module docs) directly reusable.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct LpShape {
    n_vars: usize,
    cone: &'static str,
    stats: Vec<(u32, u32, u64)>,
}

impl LpShape {
    fn of(n_vars: usize, cone: Cone, stats: &StatisticsSet) -> LpShape {
        let mut shapes: Vec<(u32, u32, u64)> = stats
            .iter()
            .map(|s| {
                let norm_bits = match s.stat.norm {
                    lpb_data::Norm::Finite(p) => p.to_bits(),
                    lpb_data::Norm::Infinity => u64::MAX,
                };
                (s.stat.conditional.u.0, s.stat.conditional.v.0, norm_bits)
            })
            .collect();
        shapes.sort_unstable();
        LpShape {
            n_vars,
            cone: cone.name(),
            stats: shapes,
        }
    }
}

/// Whether sorted multiset `a` is contained in sorted multiset `b`
/// (respecting multiplicities) — the shape-level precondition for growing a
/// cached warm handle by appending the statistics in `b ∖ a`.
fn is_sorted_multiset_subset<T: Ord>(a: &[T], b: &[T]) -> bool {
    let mut it = b.iter();
    'outer: for x in a {
        for y in it.by_ref() {
            match y.cmp(x) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// The work of bounding `n_vars` variables from `n_stats` statistics cold,
/// in matrix cells.  On the materialized cones that is columns × rows of
/// the LP: one column per non-empty variable set (per variable on the
/// modular cone), one row per statistic, plus the elemental Shannon rows
/// `n + C(n,2)·2^(n−2)` on the polymatroid cone.  The normal cone stores no
/// `2^n`-wide matrix: a generation round is one `n`-pass sweep of a
/// `2^n`-entry pricing table plus a master LP of about `n` columns.
fn lp_size(n_vars: usize, cone: Cone, n_stats: usize) -> f64 {
    let (n, stats) = (n_vars as f64, n_stats as f64);
    match cone {
        Cone::Modular => n * stats,
        Cone::Normal => n.exp2() * n + stats * (stats + n),
        Cone::Polymatroid => n.exp2() * (stats + n + n * (n - 1.0) / 2.0 * (n - 2.0).exp2()),
    }
}

/// One unit of work for [`BatchEstimator::estimate`].
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// The query whose output size is being bounded.
    pub query: JoinQuery,
    /// The statistics to bound it with.
    pub stats: StatisticsSet,
}

impl BatchItem {
    /// Bundle a query with its statistics.
    pub fn new(query: JoinQuery, stats: StatisticsSet) -> Self {
        BatchItem { query, stats }
    }
}

/// The estimator's persistent warm-start state: factorization snapshots per
/// LP shape plus hit/miss instrumentation.  Lives behind an `Arc` so that
/// cloned estimators — e.g. one configured instance shared across planner
/// threads — pool their warm starts instead of each re-solving every shape
/// cold.
///
/// **Locking discipline:** the `handles` mutex covers map lookups and
/// inserts only — never an LP solve, and never the row-for-row matrix
/// comparisons of grown-candidate matching.  Concurrent
/// [`BatchEstimator::bound_subqueries`] calls on clones sharing this cache
/// therefore overlap their solves; the `concurrent_bound_subqueries_overlap`
/// rendezvous test proves it (both threads must sit inside a cold solve at
/// the same instant, or the test times out).
#[derive(Default)]
struct WarmCache {
    /// Ordered, so [`BatchEstimator::grown_candidate`] meets equally large
    /// candidates in key order rather than in a per-instance hash order.
    handles: Mutex<BTreeMap<LpShape, Arc<WarmHandle>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    lps_estimated: AtomicUsize,
    /// Test seam: invoked on every cold solve, *after* every cache lock is
    /// released and immediately before the LP runs.  The overlap test
    /// installs a two-party rendezvous here; anything holding the cache
    /// mutex across a solve would deadlock it.
    #[cfg(test)]
    cold_solve_hook: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
}

impl std::fmt::Debug for WarmCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarmCache")
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .field("lps_estimated", &self.lps_estimated.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Evaluates many bound computations in parallel with shared skeleton and
/// dual warm-start caches; see the module docs for an example.
///
/// The warm-start cache persists across [`estimate`](Self::estimate) calls
/// and is shared by clones, so a query optimizer can keep one configured
/// estimator alive (or hand clones to worker threads) and every
/// optimization call warms the next.
#[derive(Debug, Clone)]
pub struct BatchEstimator {
    cone: Option<Cone>,
    solver: SolverKind,
    parallel: bool,
    warm_start: bool,
    cache: Arc<WarmCache>,
}

impl Default for BatchEstimator {
    fn default() -> Self {
        BatchEstimator {
            cone: None,
            solver: SolverKind::default(),
            parallel: true,
            warm_start: true,
            cache: Arc::new(WarmCache::default()),
        }
    }
}

impl BatchEstimator {
    /// An estimator with automatic cone selection, the sparse solver,
    /// parallel execution and dual warm starting (see
    /// [`without_warm_start`](Self::without_warm_start) to disable).
    pub fn new() -> Self {
        Self::default()
    }

    /// Force one cone for every item instead of [`Cone::auto`].
    pub fn with_cone(mut self, cone: Cone) -> Self {
        self.cone = Some(cone);
        self
    }

    /// Use a specific LP solver (e.g. [`SolverKind::Dense`] to cross-check;
    /// the dense solver has no factorization snapshot, so warm starting is
    /// bypassed for it).
    pub fn with_solver(mut self, solver: SolverKind) -> Self {
        self.solver = solver;
        self
    }

    /// Evaluate items on the calling thread only (for benchmarking the
    /// parallel speedup, or inside an already-parallel caller).
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Enable cross-item warm starting (the default; see the module docs).
    pub fn with_warm_start(mut self) -> Self {
        self.warm_start = true;
        self
    }

    /// Disable cross-item warm starting: every item is solved cold.  Useful
    /// for benchmarking the warm-start win and as the reference path in
    /// correctness tests — results are identical either way.
    pub fn without_warm_start(mut self) -> Self {
        self.warm_start = false;
        self
    }

    /// Number of times an item's LP shape found a reusable factorization
    /// snapshot in the warm-start cache (cumulative over this estimator and
    /// every clone sharing its cache).
    pub fn shape_cache_hits(&self) -> usize {
        self.cache.hits.load(Ordering::Relaxed)
    }

    /// Number of items whose shape had no reusable snapshot and solved cold.
    pub fn shape_cache_misses(&self) -> usize {
        self.cache.misses.load(Ordering::Relaxed)
    }

    /// Total LP bound computations this estimator (and every clone sharing
    /// its cache) has been asked for, cumulative across
    /// [`estimate`](Self::estimate) calls.  A **delta** re-plan
    /// ([`bound_subqueries`](Self::bound_subqueries) over only the sub-joins
    /// touching refreshed atoms) is observable here: the counter grows by
    /// the fresh-subset count instead of the full connected-subset count.
    pub fn lps_estimated(&self) -> usize {
        self.cache.lps_estimated.load(Ordering::Relaxed)
    }

    /// Number of distinct LP shapes currently holding a snapshot.
    pub fn shape_cache_len(&self) -> usize {
        self.cache
            .handles
            .lock()
            .expect("warm-start cache poisoned")
            .len()
    }

    /// Largest cached snapshot whose statistic shape is a strict multiset
    /// subset of `shape` and whose matrix actually embeds into `problem`
    /// (checked row-for-row by [`WarmHandle::matches_superset`]).  Growing
    /// the biggest subset appends the fewest rows; among equally large ones
    /// the smallest shape key wins (the stable sort keeps the map's order),
    /// so the basis a solve starts from — hence its pivots, its cost and
    /// the last bits of its bound — is a function of the cache's content.
    ///
    /// The cache mutex is held only while collecting candidate handles; the
    /// per-candidate matrix comparisons run on cloned `Arc`s after it is
    /// released, so a slow match never stalls concurrent estimators.
    fn grown_candidate(
        &self,
        shape: &LpShape,
        problem: &lpb_lp::Problem,
    ) -> Option<Arc<WarmHandle>> {
        let mut candidates: Vec<(usize, Arc<WarmHandle>)> = {
            let handles = self
                .cache
                .handles
                .lock()
                .expect("warm-start cache poisoned");
            handles
                .iter()
                .filter(|(k, _)| {
                    k.n_vars == shape.n_vars
                        && k.cone == shape.cone
                        && k.stats.len() < shape.stats.len()
                        && is_sorted_multiset_subset(&k.stats, &shape.stats)
                })
                .map(|(k, h)| (k.stats.len(), Arc::clone(h)))
                .collect()
        };
        candidates.sort_by_key(|(len, _)| std::cmp::Reverse(*len));
        candidates
            .into_iter()
            .map(|(_, h)| h)
            .find(|h| h.matches_superset(problem))
    }

    /// Compute the bound for every item, in input order.
    ///
    /// Per-item failures (unguarded statistics, oversized queries,
    /// inconsistent statistics) are reported positionally and do not abort
    /// the rest of the batch.
    pub fn estimate(&self, items: &[BatchItem]) -> Vec<Result<BoundResult, CoreError>> {
        let workers = if self.parallel {
            rayon::current_num_threads()
        } else {
            1
        };
        self.estimate_on(items, workers)
    }

    /// [`estimate`](Self::estimate) over at most `workers` lanes.
    fn estimate_on(
        &self,
        items: &[BatchItem],
        workers: usize,
    ) -> Vec<Result<BoundResult, CoreError>> {
        self.cache
            .lps_estimated
            .fetch_add(items.len(), Ordering::Relaxed);
        let run_one = |item: &BatchItem| -> Result<BoundResult, CoreError> {
            let cone = self.cone_of(item);
            if !self.uses_shape_cache(item, cone) {
                // The normal cone and, past the materialized sizes, the
                // polymatroid cone are bounded by generation loops whose
                // LPs are too query-specific for the per-shape snapshot
                // cache.  Otherwise (warm starts off, dense solver) keep
                // the cold reference on the same materialized LP as the
                // warm-started path below, for bit-comparable results.
                let lazy_size = cone == Cone::Polymatroid
                    && item.query.n_vars() > POLYMATROID_MATERIALIZE_LIMIT;
                let options = BoundOptions {
                    solver: self.solver,
                    warm_start: None,
                    lazy: if lazy_size { None } else { Some(false) },
                };
                return compute_bound_with(&item.query, &item.stats, cone, &options);
            }

            validate_guards(&item.query, &item.stats)?;
            let problem = build_bound_problem(item.query.n_vars(), &item.stats, cone)?;
            let shape = LpShape::of(item.query.n_vars(), cone, &item.stats);
            let handle = self
                .cache
                .handles
                .lock()
                .expect("warm-start cache poisoned")
                .get(&shape)
                .cloned();
            let lp_options = SolverOptions {
                solver: SolverKind::SparseRevised,
                ..SolverOptions::default()
            };
            let solved = match &handle {
                // The handle re-solves from the cached factorization with
                // dual pivots.  On a matrix mismatch (same multiset key,
                // differently ordered rows) solve cold instead and let the
                // fresh handle replace the stale one below.
                Some(h) if h.matches(&problem) => {
                    self.cache.hits.fetch_add(1, Ordering::Relaxed);
                    h.resolve(&problem, &lp_options).map(|sol| (sol, None))
                }
                _ => match self.grown_candidate(&shape, &problem) {
                    // Exact miss, but a cached snapshot of a statistic
                    // *subset* shape exists: append the extra rows to its
                    // factorized basis and repair dually instead of solving
                    // cold.  `resolve_grown` publishes a handle for the
                    // grown shape, installed under the new key below.
                    Some(h) => {
                        self.cache.hits.fetch_add(1, Ordering::Relaxed);
                        h.resolve_grown(&problem, &lp_options)
                    }
                    None => {
                        self.cache.misses.fetch_add(1, Ordering::Relaxed);
                        #[cfg(test)]
                        {
                            let hook = self
                                .cache
                                .cold_solve_hook
                                .lock()
                                .expect("hook lock poisoned")
                                .clone();
                            if let Some(hook) = hook {
                                hook();
                            }
                        }
                        solve_sparse_with_handle(&problem, &lp_options)
                    }
                },
            };
            let (solution, new_handle) = match solved {
                Ok(ok) => ok,
                // Mirror `SolverKind::Auto`: if the sparse path degrades
                // numerically, the dense tableau is the authority.
                Err(LpError::NumericalInstability { .. }) => {
                    let options = BoundOptions {
                        solver: SolverKind::Dense,
                        warm_start: None,
                        lazy: Some(false),
                    };
                    return compute_bound_with(&item.query, &item.stats, cone, &options);
                }
                Err(e) => return Err(e.into()),
            };
            if let Some(new_handle) = new_handle {
                self.cache
                    .handles
                    .lock()
                    .expect("warm-start cache poisoned")
                    .insert(shape, Arc::new(new_handle));
            }
            solution_to_result(solution, &item.stats, cone)
        };
        if workers < 2 || items.len() < 2 {
            return items.iter().map(run_one).collect();
        }
        let solved: Vec<Vec<(usize, Result<BoundResult, CoreError>)>> = self
            .lanes(items, workers)
            .par_iter()
            .map(|lane| lane.iter().map(|&i| (i, run_one(&items[i]))).collect())
            .collect();
        let mut out: Vec<Option<Result<BoundResult, CoreError>>> =
            items.iter().map(|_| None).collect();
        for (i, result) in solved.into_iter().flatten() {
            out[i] = Some(result);
        }
        out.into_iter()
            .map(|r| r.expect("every item is in exactly one lane"))
            .collect()
    }

    fn cone_of(&self, item: &BatchItem) -> Cone {
        self.cone
            .unwrap_or_else(|| Cone::auto(&item.query, &item.stats))
    }

    /// Whether `item`'s LP is solved through the per-shape warm-start cache
    /// (as opposed to cold, touching no state shared with other items).
    fn uses_shape_cache(&self, item: &BatchItem, cone: Cone) -> bool {
        self.warm_start
            && self.solver != SolverKind::Dense
            && cone != Cone::Normal
            && !(cone == Cone::Polymatroid && item.query.n_vars() > POLYMATROID_MATERIALIZE_LIMIT)
    }

    /// Split a batch into at most `workers` lanes of item indices that share
    /// no warm-start state, so that running the lanes concurrently gives
    /// every item the result, and the solver the work, of running the whole
    /// batch in input order on one thread.
    ///
    /// A cached handle is only ever read or replaced by items of its own
    /// variable count and cone (see [`grown_candidate`](Self::grown_candidate)
    /// and the exact-shape lookup), so the items of one `(n_vars, cone)`
    /// *family* must stay together and in input order, and nothing else
    /// must: families — and items that bypass the cache (every normal-cone
    /// item among them), each a family of its own — are independent.  Which
    /// lane a family lands in therefore only decides wall-clock time.
    /// Families go heaviest first onto the lightest lane, weighed by the
    /// size ([`lp_size`]) of the LPs they solve cold — one per distinct
    /// shape; the re-solves from a snapshot are an order cheaper and not
    /// counted.
    fn lanes(&self, items: &[BatchItem], workers: usize) -> Vec<Vec<usize>> {
        struct Family {
            shapes: BTreeSet<LpShape>,
            weight: f64,
            items: Vec<usize>,
        }
        let mut families: BTreeMap<(usize, &'static str, Option<usize>), Family> = BTreeMap::new();
        for (i, item) in items.iter().enumerate() {
            let (n, cone) = (item.query.n_vars(), self.cone_of(item));
            let alone = (!self.uses_shape_cache(item, cone)).then_some(i);
            let family = families
                .entry((n, cone.name(), alone))
                .or_insert_with(|| Family {
                    shapes: BTreeSet::new(),
                    weight: 0.0,
                    items: Vec::new(),
                });
            family.items.push(i);
            if family.shapes.insert(LpShape::of(n, cone, &item.stats)) {
                family.weight += lp_size(n, cone, item.stats.len());
            }
        }
        let mut families: Vec<Family> = families.into_values().collect();
        families.sort_by(|a, b| b.weight.total_cmp(&a.weight));
        let mut lanes: Vec<(f64, Vec<usize>)> = vec![(0.0, Vec::new()); workers.max(1)];
        for family in families {
            let lightest = lanes
                .iter_mut()
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .expect("at least one lane");
            lightest.0 += family.weight;
            lightest.1.extend(family.items);
        }
        lanes
            .into_iter()
            .map(|(_, lane)| lane)
            .filter(|lane| !lane.is_empty())
            .collect()
    }

    /// Bound every sub-join of a plan enumeration in one warm-started batch:
    /// for each atom subset, build the [`JoinQuery::subquery`], harvest its
    /// statistics with `config`, and estimate all of them together.
    ///
    /// This is the optimizer entry point: a dynamic-programming join-order
    /// enumeration asks for bounds on *every* connected sub-join at once —
    /// exactly the heavy same-shaped fan-out the per-shape dual warm starts
    /// were built for (sub-joins of a self-join workload collapse onto a few
    /// shapes).  Results are positional; a subset whose statistics cannot be
    /// harvested or whose LP exceeds the cone limits reports its error
    /// without aborting the rest.
    pub fn bound_subqueries(
        &self,
        query: &JoinQuery,
        catalog: &Catalog,
        subsets: &[Vec<usize>],
        config: &CollectConfig,
    ) -> Vec<Result<BoundResult, CoreError>> {
        self.bound_subqueries_multi(&[(query, catalog)], subsets, config)
            .pop()
            .expect("one result group per run")
    }

    /// Bound the **cross product** of runs × sub-joins in one warm-started
    /// batch: every `(query, catalog)` run is bounded on every atom subset,
    /// and all resulting LPs share this estimator's per-shape skeleton and
    /// warm-start caches.
    ///
    /// This is the partition-aware planner entry point.  The runs of a
    /// degree partition pose the *same* query over per-part sub-catalogs:
    /// their sub-join LPs have identical constraint matrices and differ only
    /// in the right-hand sides (each part's statistics), so after the first
    /// run warms a shape, every further part re-solves with a handful of
    /// dual pivots (see [`lpb_lp::WarmHandle`]).  Results are positional:
    /// `out[r][s]` is run `r`'s bound on subset `s`.
    pub fn bound_subqueries_multi(
        &self,
        runs: &[(&JoinQuery, &Catalog)],
        subsets: &[Vec<usize>],
        config: &CollectConfig,
    ) -> Vec<Vec<Result<BoundResult, CoreError>>> {
        let groups: Vec<(&JoinQuery, &Catalog, &[Vec<usize>])> =
            runs.iter().map(|&(q, c)| (q, c, subsets)).collect();
        self.bound_subqueries_grouped(&groups, config)
    }

    /// Bound several **independent** `(query, catalog, subsets)` groups in
    /// one warm-started batch — each group brings its *own* subset list, so
    /// the queries need not share a join graph.
    ///
    /// This is the cross-query coalescing entry point: a query service that
    /// gathers concurrent cache-missing plan requests folds every request's
    /// sub-join fan-out into this single batch, so LP shapes shared
    /// *between users' queries* re-solve via dual warm starts exactly like
    /// shapes shared between one query's subsets.  Results are positional:
    /// `out[g][s]` is group `g`'s bound on its subset `s`, and per-item
    /// preparation failures are reported in place without aborting the
    /// batch.
    pub fn bound_subqueries_grouped(
        &self,
        groups: &[(&JoinQuery, &Catalog, &[Vec<usize>])],
        config: &CollectConfig,
    ) -> Vec<Vec<Result<BoundResult, CoreError>>> {
        let total: usize = groups.iter().map(|(_, _, s)| s.len()).sum();
        let mut items = Vec::with_capacity(total);
        // One slot per (group, subset): the preparation error, or `None`
        // meaning "the next estimated bound in order" — preserves positional
        // reporting without cloning the prepared items.
        let mut slots: Vec<Option<CoreError>> = Vec::with_capacity(total);
        for (query, catalog, subsets) in groups {
            for atoms in subsets.iter() {
                let prepared = query.subquery(atoms).and_then(|sub| {
                    let stats = collect_simple_statistics(&sub, catalog, config)?;
                    Ok(BatchItem::new(sub, stats))
                });
                match prepared {
                    Ok(item) => {
                        items.push(item);
                        slots.push(None);
                    }
                    Err(e) => slots.push(Some(e)),
                }
            }
        }
        let mut bounds = self.estimate(&items).into_iter();
        let mut flat = slots.into_iter().map(|slot| match slot {
            None => bounds.next().expect("one bound per prepared item"),
            Some(e) => Err(e),
        });
        groups
            .iter()
            .map(|(_, _, subsets)| flat.by_ref().take(subsets.len()).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{collect_simple_statistics, CollectConfig};
    use crate::compute_bound;
    use crate::statistics::ConcreteStatistic;
    use lpb_data::{Catalog, Norm, RelationBuilder};
    use lpb_entropy::Conditional;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.insert(RelationBuilder::binary_from_pairs(
            "E",
            "src",
            "dst",
            (0..200u64).map(|i| (i % 17, (i * 7 + 3) % 23)),
        ));
        c
    }

    fn items() -> Vec<BatchItem> {
        let catalog = catalog();
        let mut out = Vec::new();
        for len in [2usize, 3, 4] {
            let query = JoinQuery::path(&vec!["E"; len]);
            let stats =
                collect_simple_statistics(&query, &catalog, &CollectConfig::with_max_norm(3))
                    .unwrap();
            out.push(BatchItem::new(query, stats));
        }
        // Repeat the shapes so warm starting has something to reuse.
        let again = out.clone();
        out.extend(again);
        out
    }

    #[test]
    fn batch_matches_one_at_a_time() {
        let items = items();
        let batch = BatchEstimator::new().estimate(&items);
        assert_eq!(batch.len(), items.len());
        for (item, result) in items.iter().zip(&batch) {
            let single = compute_bound(
                &item.query,
                &item.stats,
                Cone::auto(&item.query, &item.stats),
            )
            .unwrap();
            let got = result.as_ref().unwrap();
            assert!(
                (got.log2_bound - single.log2_bound).abs() < 1e-6,
                "{}: batch {} vs single {}",
                item.query.name(),
                got.log2_bound,
                single.log2_bound
            );
        }
    }

    #[test]
    fn sequential_parallel_warm_cold_and_dense_all_agree() {
        let items = items();
        let parallel = BatchEstimator::new().estimate(&items);
        let sequential = BatchEstimator::new().sequential().estimate(&items);
        let cold = BatchEstimator::new().without_warm_start().estimate(&items);
        let dense = BatchEstimator::new()
            .with_solver(SolverKind::Dense)
            .estimate(&items);
        for (((p, s), c), d) in parallel.iter().zip(&sequential).zip(&cold).zip(&dense) {
            let (p, s, c, d) = (
                p.as_ref().unwrap(),
                s.as_ref().unwrap(),
                c.as_ref().unwrap(),
                d.as_ref().unwrap(),
            );
            assert!((p.log2_bound - s.log2_bound).abs() < 1e-6);
            assert!((p.log2_bound - c.log2_bound).abs() < 1e-6);
            assert!((p.log2_bound - d.log2_bound).abs() < 1e-6);
        }
    }

    /// Same statistic *count* but different norm multisets must not share a
    /// warm-start entry: a heterogeneous batch alternating between the two
    /// shapes equals the cold sequential reference on every item.
    #[test]
    fn shape_key_separates_same_count_different_norms() {
        let catalog = catalog();
        let query = JoinQuery::path(&["E"; 3]);
        let base =
            collect_simple_statistics(&query, &catalog, &CollectConfig::with_max_norm(2)).unwrap();
        // A second statistics set with the same length but one norm swapped
        // from ℓ2 to ℓ3: same #stats, different shape, different matrix.
        let mut swapped_stats: Vec<ConcreteStatistic> = base.as_slice().to_vec();
        let swap_at = swapped_stats
            .iter()
            .position(|s| s.stat.norm == Norm::L2)
            .expect("harvest includes an ℓ2 statistic");
        swapped_stats[swap_at] = ConcreteStatistic::new(
            Conditional::new(
                swapped_stats[swap_at].stat.conditional.v,
                swapped_stats[swap_at].stat.conditional.u,
            ),
            Norm::finite(3.0),
            swapped_stats[swap_at].stat.guard_atom,
            swapped_stats[swap_at].log_bound,
        );
        let swapped = StatisticsSet::from_vec(swapped_stats);
        assert_eq!(base.len(), swapped.len());
        assert_ne!(
            LpShape::of(query.n_vars(), Cone::Polymatroid, &base),
            LpShape::of(query.n_vars(), Cone::Polymatroid, &swapped),
            "different norm multisets must produce different shape keys"
        );

        let mut items = Vec::new();
        for _ in 0..3 {
            items.push(BatchItem::new(query.clone(), base.clone()));
            items.push(BatchItem::new(query.clone(), swapped.clone()));
        }
        let warm = BatchEstimator::new().sequential().estimate(&items);
        let cold = BatchEstimator::new()
            .sequential()
            .without_warm_start()
            .estimate(&items);
        for (i, (w, c)) in warm.iter().zip(&cold).enumerate() {
            let (w, c) = (w.as_ref().unwrap(), c.as_ref().unwrap());
            assert!(
                (w.log2_bound - c.log2_bound).abs() < 1e-9,
                "item {i}: warm {} vs cold {}",
                w.log2_bound,
                c.log2_bound
            );
        }
    }

    /// Amplified log-bounds change only the RHS, so they share a shape key
    /// with the original — precisely the dual warm-start sweet spot — and
    /// still match the cold path exactly.
    #[test]
    fn rhs_only_changes_share_shapes_and_stay_exact() {
        let catalog = catalog();
        let query = JoinQuery::path(&["E"; 4]);
        let stats =
            collect_simple_statistics(&query, &catalog, &CollectConfig::with_max_norm(3)).unwrap();
        let items: Vec<BatchItem> = [1.0, 1.1, 0.9, 1.05, 1.0]
            .iter()
            .map(|&k| BatchItem::new(query.clone(), stats.amplify(k)))
            .collect();
        assert!(items.iter().all(
            |i| LpShape::of(i.query.n_vars(), Cone::Polymatroid, &i.stats)
                == LpShape::of(query.n_vars(), Cone::Polymatroid, &stats)
        ));
        let warm = BatchEstimator::new().sequential().estimate(&items);
        let cold = BatchEstimator::new()
            .sequential()
            .without_warm_start()
            .estimate(&items);
        for (w, c) in warm.iter().zip(&cold) {
            let (w, c) = (w.as_ref().unwrap(), c.as_ref().unwrap());
            assert!((w.log2_bound - c.log2_bound).abs() < 1e-6);
        }
    }

    #[test]
    fn warm_cache_persists_across_calls_and_is_shared_by_clones() {
        let items = items();
        let est = BatchEstimator::new().sequential();
        let first = est.estimate(&items);
        // Three shapes, each appearing twice: second occurrences hit.
        assert!(
            est.shape_cache_hits() >= 3,
            "hits {}",
            est.shape_cache_hits()
        );
        assert!(est.shape_cache_misses() >= 3);
        assert!(est.shape_cache_len() >= 3);
        let after_first = est.shape_cache_hits();

        // A clone shares the cache: every item of the repeat batch hits, and
        // results stay identical.
        let clone = est.clone();
        let second = clone.estimate(&items);
        assert!(
            est.shape_cache_hits() >= after_first + items.len(),
            "expected all {} repeat items to hit, hits {} -> {}",
            items.len(),
            after_first,
            est.shape_cache_hits()
        );
        for (a, b) in first.iter().zip(&second) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert!((a.log2_bound - b.log2_bound).abs() < 1e-9);
        }

        // The shared cache is also usable from worker threads.
        let before = est.shape_cache_hits();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let est = est.clone();
                let items = items.clone();
                std::thread::spawn(move || {
                    for r in est.estimate(&items) {
                        r.unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(est.shape_cache_hits() >= before + 2 * items.len());
    }

    /// Two threads calling `bound_subqueries` on clones sharing one warm
    /// cache must *overlap* their LP solves — the cache mutex covers only
    /// lookup/insert, never a solve.  Proven by rendezvous (the pattern of
    /// the rayon shim's `join_runs_both_sides_concurrently`): the cold-solve
    /// test seam makes each thread wait until BOTH threads sit inside a cold
    /// solve at the same instant.  If any lock were held across a solve the
    /// second thread could never arrive and the rendezvous would time out.
    #[test]
    fn concurrent_bound_subqueries_overlap() {
        use std::sync::Condvar;
        use std::time::Duration;

        struct Rendezvous {
            arrived: Mutex<usize>,
            cv: Condvar,
        }
        let rendezvous = Arc::new(Rendezvous {
            arrived: Mutex::new(0),
            cv: Condvar::new(),
        });
        let est = BatchEstimator::new().sequential();
        {
            let rendezvous = Arc::clone(&rendezvous);
            *est.cache.cold_solve_hook.lock().unwrap() = Some(Arc::new(move || {
                let mut arrived = rendezvous.arrived.lock().unwrap();
                *arrived += 1;
                if *arrived >= 2 {
                    rendezvous.cv.notify_all();
                    return;
                }
                let deadline = Duration::from_secs(30);
                let (guard, timeout) = rendezvous
                    .cv
                    .wait_timeout_while(arrived, deadline, |n| *n < 2)
                    .unwrap();
                assert!(
                    !timeout.timed_out(),
                    "only {} thread(s) reached a cold solve concurrently — \
                     a lock is being held across an LP solve",
                    *guard
                );
            }));
        }

        let catalog = Arc::new(catalog());
        let handles: Vec<_> = [2usize, 3]
            .into_iter()
            .map(|len| {
                // Distinct path lengths → distinct LP shapes → both threads
                // take the cold path and meet inside the seam.
                let est = est.clone();
                let catalog = Arc::clone(&catalog);
                std::thread::spawn(move || {
                    let query = JoinQuery::path(&vec!["E"; len]);
                    let subsets: Vec<Vec<usize>> = vec![(0..len).collect()];
                    let bounds = est.bound_subqueries(
                        &query,
                        &catalog,
                        &subsets,
                        &CollectConfig::with_max_norm(2),
                    );
                    bounds.into_iter().for_each(|b| {
                        assert!(b.unwrap().is_bounded());
                    });
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*rendezvous.arrived.lock().unwrap(), 2);
    }

    /// Grouped batches over queries with *different* join graphs agree with
    /// per-query `bound_subqueries` calls, and shapes shared across groups
    /// warm each other inside the one batch.
    #[test]
    fn bound_subqueries_grouped_matches_per_query_calls() {
        let catalog = catalog();
        let triangle = JoinQuery::triangle("E", "E", "E");
        let path = JoinQuery::path(&["E", "E", "E"]);
        let tri_subsets = vec![vec![0, 1], vec![0, 1, 2]];
        let path_subsets = vec![vec![0, 1], vec![1, 2], vec![0, 1, 2]];
        let est = BatchEstimator::new().sequential();
        let grouped = est.bound_subqueries_grouped(
            &[
                (&triangle, &catalog, &tri_subsets),
                (&path, &catalog, &path_subsets),
            ],
            &CollectConfig::with_max_norm(3),
        );
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0].len(), tri_subsets.len());
        assert_eq!(grouped[1].len(), path_subsets.len());
        // The triangle's pair sub-join and the path's pair sub-joins share
        // an LP shape, so the cross-query batch warms across groups.
        assert!(
            est.shape_cache_hits() >= 2,
            "hits {}",
            est.shape_cache_hits()
        );
        for ((query, subsets), group) in [(&triangle, &tri_subsets), (&path, &path_subsets)]
            .iter()
            .zip(&grouped)
        {
            let single = BatchEstimator::new().sequential().bound_subqueries(
                query,
                &catalog,
                subsets,
                &CollectConfig::with_max_norm(3),
            );
            for (a, b) in group.iter().zip(&single) {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                assert!((a.log2_bound - b.log2_bound).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn bound_subqueries_bounds_every_subset_positionally() {
        let catalog = catalog();
        let query = JoinQuery::triangle("E", "E", "E");
        let subsets = vec![
            vec![0, 1],
            vec![1, 2],
            vec![0, 2],
            vec![0, 1, 2],
            vec![0, 7], // out of range: positional error
        ];
        let est = BatchEstimator::new().sequential();
        let bounds =
            est.bound_subqueries(&query, &catalog, &subsets, &CollectConfig::with_max_norm(3));
        assert_eq!(bounds.len(), subsets.len());
        for b in &bounds[..4] {
            assert!(b.as_ref().unwrap().is_bounded());
        }
        assert!(matches!(bounds[4], Err(CoreError::InvalidQuery { .. })));
        // Sub-joins {0,1} and {1,2} intern their variables onto identical
        // bit patterns, so the DP fan-out exercises the warm cache.
        assert!(
            est.shape_cache_hits() >= 1,
            "hits {}",
            est.shape_cache_hits()
        );
        // Every pair bound coincides (identical sub-join up to renaming).
        let (a, b, c) = (
            bounds[0].as_ref().unwrap().log2_bound,
            bounds[1].as_ref().unwrap().log2_bound,
            bounds[2].as_ref().unwrap().log2_bound,
        );
        assert!((a - b).abs() < 1e-6 && (b - c).abs() < 1e-6);
    }

    #[test]
    fn bound_subqueries_multi_covers_runs_times_subsets_in_one_batch() {
        // Two "parts" of E (derived sub-catalogs rebinding E to a subset of
        // its rows) plus the base: same query shape, different RHS — the
        // exact cross product the partition-aware planner batches.
        let catalog = catalog();
        let rows: Vec<Vec<u64>> = catalog.get("E").unwrap().rows().collect();
        // Parts keep the original name so the query binds them.
        let part = |range: std::ops::Range<usize>| {
            let mut b = RelationBuilder::new("E", ["src", "dst"]).unwrap();
            for row in &rows[range] {
                b.push_codes(row).unwrap();
            }
            catalog.derive_with(b.build())
        };
        let light = part(0..40);
        let heavy = part(40..rows.len());
        let query = JoinQuery::triangle("E", "E", "E");
        let subsets = vec![vec![0, 1], vec![0, 1, 2]];
        let est = BatchEstimator::new().sequential();
        let runs: Vec<(&JoinQuery, &Catalog)> =
            vec![(&query, &catalog), (&query, &light), (&query, &heavy)];
        let grouped = est.bound_subqueries_multi(&runs, &subsets, &CollectConfig::with_max_norm(3));
        assert_eq!(grouped.len(), 3);
        assert!(grouped.iter().all(|g| g.len() == subsets.len()));
        // Same-shape LPs across runs warm each other inside the one batch.
        assert!(
            est.shape_cache_hits() >= 2,
            "hits {}",
            est.shape_cache_hits()
        );
        // Positional results match per-run bound_subqueries calls.
        for ((q, c), group) in runs.iter().zip(&grouped) {
            let single = BatchEstimator::new().sequential().bound_subqueries(
                q,
                c,
                &subsets,
                &CollectConfig::with_max_norm(3),
            );
            for (a, b) in group.iter().zip(&single) {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                assert!((a.log2_bound - b.log2_bound).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn multiset_subset_respects_multiplicities() {
        assert!(is_sorted_multiset_subset(&[1, 2], &[1, 2, 3]));
        assert!(is_sorted_multiset_subset(&[1, 1], &[1, 1, 2]));
        assert!(!is_sorted_multiset_subset(&[1, 1], &[1, 2, 3]));
        assert!(!is_sorted_multiset_subset(&[4], &[1, 2, 3]));
        assert!(is_sorted_multiset_subset::<u32>(&[], &[1]));
        assert!(!is_sorted_multiset_subset(&[1], &[]));
    }

    /// A statistics *superset* of a cached shape grows the snapshot by
    /// appending rows instead of solving cold, matches the cold reference,
    /// and publishes a handle that then serves the grown shape exactly.
    #[test]
    fn growing_a_cached_shape_appends_instead_of_solving_cold() {
        let catalog = catalog();
        let query = JoinQuery::path(&["E", "E"]);
        let base =
            collect_simple_statistics(&query, &catalog, &CollectConfig::with_max_norm(2)).unwrap();
        let mut grown: Vec<ConcreteStatistic> = base.as_slice().to_vec();
        grown.push(ConcreteStatistic::new(
            Conditional::new(query.atom_vars(0), lpb_entropy::VarSet::EMPTY),
            Norm::L1,
            0,
            3.0,
        ));
        let grown = StatisticsSet::from_vec(grown);

        let est = BatchEstimator::new().sequential();
        for r in est.estimate(&[BatchItem::new(query.clone(), base.clone())]) {
            r.unwrap();
        }
        let misses = est.shape_cache_misses();
        let hits = est.shape_cache_hits();

        let warm = est.estimate(&[BatchItem::new(query.clone(), grown.clone())]);
        assert_eq!(
            est.shape_cache_misses(),
            misses,
            "a superset shape should grow the cached handle, not solve cold"
        );
        assert_eq!(est.shape_cache_hits(), hits + 1);
        let cold = BatchEstimator::new()
            .sequential()
            .without_warm_start()
            .estimate(&[BatchItem::new(query.clone(), grown.clone())]);
        let (w, c) = (warm[0].as_ref().unwrap(), cold[0].as_ref().unwrap());
        assert!(
            (w.log2_bound - c.log2_bound).abs() < 1e-9,
            "grown-append {} vs cold {}",
            w.log2_bound,
            c.log2_bound
        );

        // The grown shape published its own snapshot: an RHS-only variant
        // hits the exact path and still matches cold.
        let variant = grown.amplify(1.1);
        let again = est.estimate(&[BatchItem::new(query.clone(), variant.clone())]);
        assert_eq!(est.shape_cache_hits(), hits + 2);
        let cold_again = BatchEstimator::new()
            .sequential()
            .without_warm_start()
            .estimate(&[BatchItem::new(query.clone(), variant)]);
        let (a, b) = (again[0].as_ref().unwrap(), cold_again[0].as_ref().unwrap());
        assert!((a.log2_bound - b.log2_bound).abs() < 1e-9);
    }

    /// Paths of 2–4 atoms, each as harvested, with one statistic more (a
    /// shape that grows from the harvested one) and with other right-hand
    /// sides (an exact hit), interleaved so every family's items are spread
    /// over the whole batch.
    fn mixed_items() -> Vec<BatchItem> {
        let mut out = Vec::new();
        for round in 0..3 {
            for item in items().into_iter().take(3) {
                let stats = match round {
                    0 => item.stats.clone(),
                    1 => {
                        let mut grown = item.stats.as_slice().to_vec();
                        grown.push(ConcreteStatistic::new(
                            Conditional::new(item.query.atom_vars(0), lpb_entropy::VarSet::EMPTY),
                            Norm::L1,
                            0,
                            3.0,
                        ));
                        StatisticsSet::from_vec(grown)
                    }
                    _ => item.stats.amplify(1.1),
                };
                out.push(BatchItem::new(item.query, stats));
            }
        }
        out
    }

    /// Lanes never split a family, keep its input order, cover every item
    /// once, and put the heaviest family first on its own lane.
    #[test]
    fn lanes_keep_families_whole_and_in_input_order() {
        let items = mixed_items();
        let est = BatchEstimator::new();
        for workers in [1, 2, 3, 8] {
            let lanes = est.lanes(&items, workers);
            assert!(
                lanes.len() <= workers.min(3),
                "three families, {workers} workers"
            );
            let mut seen: Vec<usize> = lanes.iter().flatten().copied().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..items.len()).collect::<Vec<_>>());
            for n_vars in [3, 4, 5] {
                let of_family = |lane: &Vec<usize>| -> Vec<usize> {
                    lane.iter()
                        .copied()
                        .filter(|&i| items[i].query.n_vars() == n_vars)
                        .collect()
                };
                let holders: Vec<Vec<usize>> = lanes
                    .iter()
                    .map(of_family)
                    .filter(|l| !l.is_empty())
                    .collect();
                assert_eq!(holders.len(), 1, "family {n_vars} is on one lane");
                assert!(holders[0].windows(2).all(|w| w[0] < w[1]));
            }
            assert_eq!(items[lanes[0][0]].query.n_vars(), 5, "the widest LPs lead");
        }
        // Items that bypass the shape cache share nothing: each is a lane.
        let cold = BatchEstimator::new().without_warm_start();
        assert_eq!(cold.lanes(&items, 64).len(), items.len());
        // So is every normal-cone item, warm starts on or not: its master LP
        // is its own.
        let normal = BatchEstimator::new().with_cone(Cone::Normal);
        assert_eq!(normal.lanes(&items, 64).len(), items.len());
    }

    /// Normal-cone items never touch the shape cache — no hit, no miss, no
    /// snapshot — and a batch of them, sequential or in lanes, returns bit
    /// for bit what `compute_bound` returns one at a time.
    #[test]
    fn normal_items_bypass_the_shape_cache() {
        let items = mixed_items();
        let expected: Vec<u64> = items
            .iter()
            .map(|i| {
                compute_bound(&i.query, &i.stats, Cone::Normal)
                    .unwrap()
                    .log2_bound
                    .to_bits()
            })
            .collect();
        for workers in [1, 2, 8] {
            let est = BatchEstimator::new().with_cone(Cone::Normal);
            let got: Vec<u64> = est
                .estimate_on(&items, workers)
                .into_iter()
                .map(|r| r.unwrap().log2_bound.to_bits())
                .collect();
            assert_eq!(got, expected, "{workers} lanes");
            assert_eq!(est.lps_estimated(), items.len());
            assert_eq!(
                (
                    est.shape_cache_hits(),
                    est.shape_cache_misses(),
                    est.shape_cache_len()
                ),
                (0, 0, 0)
            );
        }
        // A 2^n-entry pricing table swept n times, not a 2^n-column matrix.
        assert!(lp_size(12, Cone::Normal, 90) < lp_size(12, Cone::Normal, 9_000));
        assert!(lp_size(12, Cone::Normal, 90) < 1e-2 * lp_size(12, Cone::Polymatroid, 90));
        assert!(lp_size(12, Cone::Normal, 90) < lp_size(13, Cone::Normal, 90));
    }

    /// However many lanes a batch runs on, every item gets bit for bit the
    /// bound of the one-thread run, from the same number of cold solves and
    /// snapshot re-solves.
    #[test]
    fn lanes_do_the_work_and_return_the_bits_of_one_thread() {
        let items = mixed_items();
        let reference = BatchEstimator::new().sequential();
        let expected: Vec<u64> = reference
            .estimate(&items)
            .into_iter()
            .map(|r| r.unwrap().log2_bound.to_bits())
            .collect();
        assert!(
            reference.shape_cache_hits() >= 6,
            "grown and exact re-solves"
        );
        for workers in [2, 3, 8] {
            for _ in 0..3 {
                let est = BatchEstimator::new();
                let got: Vec<u64> = est
                    .estimate_on(&items, workers)
                    .into_iter()
                    .map(|r| r.unwrap().log2_bound.to_bits())
                    .collect();
                assert_eq!(got, expected, "{workers} lanes");
                assert_eq!(est.shape_cache_misses(), reference.shape_cache_misses());
                assert_eq!(est.shape_cache_hits(), reference.shape_cache_hits());
            }
        }
    }

    /// Among equally large cached sub-shapes the grown solve starts from the
    /// smallest shape key, whatever order they were cached in.
    #[test]
    fn equally_large_grow_candidates_are_tried_in_key_order() {
        let catalog = catalog();
        let query = JoinQuery::path(&["E", "E"]);
        let base =
            collect_simple_statistics(&query, &catalog, &CollectConfig::with_max_norm(2)).unwrap();
        let with = |extra: &[Norm]| {
            let mut stats = base.as_slice().to_vec();
            for &norm in extra {
                stats.push(ConcreteStatistic::new(
                    Conditional::new(query.atom_vars(0), lpb_entropy::VarSet::EMPTY),
                    norm,
                    0,
                    3.0,
                ));
            }
            BatchItem::new(query.clone(), StatisticsSet::from_vec(stats))
        };
        let (a, b) = (with(&[Norm::L1]), with(&[Norm::Finite(3.0)]));
        let both = with(&[Norm::L1, Norm::Finite(3.0)]);
        let mut bounds = Vec::new();
        for first_two in [[&a, &b], [&b, &a]] {
            let est = BatchEstimator::new().sequential();
            for item in first_two {
                est.estimate(std::slice::from_ref(item))[0]
                    .as_ref()
                    .unwrap();
            }
            let (grown, work) = lpb_lp::SolverStats::on_thread(|| {
                est.estimate(std::slice::from_ref(&both))
                    .pop()
                    .unwrap()
                    .unwrap()
            });
            bounds.push((grown.log2_bound.to_bits(), work));
        }
        assert_eq!(bounds[0], bounds[1]);
    }

    /// Polymatroid items past the materialization limit route through lazy
    /// constraint generation and agree with the normal cone on simple
    /// statistics (Theorem 6.1).
    #[test]
    fn oversized_polymatroid_items_route_through_lazy_generation() {
        let catalog = catalog();
        let query = JoinQuery::path(&["E"; 10]);
        assert!(query.n_vars() > crate::bound_lp::POLYMATROID_MATERIALIZE_LIMIT);
        let stats =
            collect_simple_statistics(&query, &catalog, &CollectConfig::with_max_norm(2)).unwrap();
        let item = BatchItem::new(query.clone(), stats.clone());
        let poly = BatchEstimator::new()
            .sequential()
            .with_cone(Cone::Polymatroid)
            .estimate(std::slice::from_ref(&item));
        let normal = BatchEstimator::new()
            .sequential()
            .with_cone(Cone::Normal)
            .estimate(std::slice::from_ref(&item));
        let (p, n) = (poly[0].as_ref().unwrap(), normal[0].as_ref().unwrap());
        assert!(p.is_bounded());
        assert!(
            (p.log2_bound - n.log2_bound).abs() < 1e-6,
            "lazy polymatroid {} vs normal {}",
            p.log2_bound,
            n.log2_bound
        );
    }

    #[test]
    fn per_item_errors_are_positional() {
        let catalog = catalog();
        let good_query = JoinQuery::path(&["E", "E"]);
        let good_stats =
            collect_simple_statistics(&good_query, &catalog, &CollectConfig::with_max_norm(2))
                .unwrap();
        // A wide query that exceeds the polymatroid limit.
        let atoms: Vec<crate::query::Atom> = (0..12)
            .map(|i| {
                crate::query::Atom::new(
                    format!("R{i}"),
                    &[format!("A{i}").as_str(), format!("A{}", i + 1).as_str()],
                )
            })
            .collect();
        let wide = JoinQuery::new("wide", atoms).unwrap();
        let items = vec![
            BatchItem::new(good_query, good_stats),
            BatchItem::new(wide, StatisticsSet::new()),
        ];
        let results = BatchEstimator::new()
            .with_cone(Cone::Polymatroid)
            .estimate(&items);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(CoreError::TooManyVariables { .. })
        ));
    }
}
