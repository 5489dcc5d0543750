//! Batch evaluation of cardinality bounds.
//!
//! A query optimizer does not ask for one bound — it asks for bounds on
//! *every candidate plan's* subqueries, often hundreds per optimization
//! call.  [`BatchEstimator`] is that entry point: a cone override, a solver
//! choice, and [`crate::compute_bound_with`] applied to one item after the
//! other, in input order, on the calling thread.
//!
//! There is no state shared between items and none carried between calls.
//! The planner's statistics are simple
//! ([`collect_simple_statistics`](crate::collect_simple_statistics)
//! harvests nothing else), so `lpb-exec`'s optimizer builds its estimator
//! [`with_cone`](BatchEstimator::with_cone)`(`[`Cone::Normal`]`)`: a bound
//! there is one small dual-simplex tableau over a few dozen step functions
//! of the sub-join, grown in place across its pricing rounds, and costs
//! ten to twenty microseconds, so there is nothing in it for a cache to
//! keep.  Items on the polymatroid cone ([`Cone::auto`] up to 8 variables,
//! a forced cone, non-simple statistics) are each solved cold as well.  A
//! server gets its parallelism from concurrent requests, each planning on
//! its own thread.
//!
//! [`BatchEstimator::bound_subqueries`] is the planner entry point: the
//! statistics of the query are read from the catalog once per atom
//! ([`AtomStatistics`]), and then each sub-join of the DP enumeration in
//! turn is assembled from them, bounded and dropped — at no point do the
//! sub-queries of an enumeration exist side by side.
//! [`BatchEstimator::estimate`] bounds items a caller already holds.
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

use crate::bound_lp::{compute_bound_with, BoundOptions, BoundResult, Cone};
use crate::collect::{AtomStatistics, CollectConfig};
use crate::error::CoreError;
use crate::query::JoinQuery;
use crate::statistics::StatisticsSet;
use lpb_data::Catalog;
use lpb_lp::SolverKind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

/// Bounds many `(query, statistics)` pairs in input order; see the module
/// docs for an example.
///
/// Clones share one [`lps_estimated`](Self::lps_estimated) counter and
/// nothing else.
#[derive(Debug, Clone, Default)]
pub struct BatchEstimator {
    cone: Option<Cone>,
    solver: SolverKind,
    lps_estimated: Arc<AtomicUsize>,
}

impl BatchEstimator {
    /// An estimator with automatic cone ([`Cone::auto`]) and solver
    /// ([`SolverKind::Auto`]) selection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Force one cone for every item instead of [`Cone::auto`].
    pub fn with_cone(mut self, cone: Cone) -> Self {
        self.cone = Some(cone);
        self
    }

    /// Use a specific LP solver (e.g. [`SolverKind::Dense`] to cross-check).
    pub fn with_solver(mut self, solver: SolverKind) -> Self {
        self.solver = solver;
        self
    }

    /// Total LP bound computations this estimator (and every clone of it)
    /// has been asked for, cumulative across [`estimate`](Self::estimate)
    /// calls.  A **delta** re-plan
    /// ([`bound_subqueries`](Self::bound_subqueries) over only the sub-joins
    /// touching refreshed atoms) is observable here: the counter grows by
    /// the fresh-subset count instead of the full connected-subset count.
    pub fn lps_estimated(&self) -> usize {
        self.lps_estimated.load(Ordering::Relaxed)
    }

    /// Always zero: no solve starts from another's factorization any more.
    /// Kept, with [`shape_cache_misses`](Self::shape_cache_misses), only
    /// because the driver-owned `benchmark/` package reads both by name.
    pub fn shape_cache_hits(&self) -> usize {
        0
    }

    /// The LPs solved, each of them cold: [`lps_estimated`](Self::lps_estimated).
    /// See [`shape_cache_hits`](Self::shape_cache_hits) for why it exists.
    pub fn shape_cache_misses(&self) -> usize {
        self.lps_estimated()
    }

    /// Compute the bound for every item, in input order.
    ///
    /// Per-item failures (unguarded statistics, oversized queries,
    /// inconsistent statistics) are reported positionally and do not abort
    /// the rest of the batch.
    pub fn estimate(&self, items: &[BatchItem]) -> Vec<Result<BoundResult, CoreError>> {
        items
            .iter()
            .map(|item| self.bound(&item.query, &item.stats))
            .collect()
    }

    /// One LP: `query` bounded with `stats` on the forced or automatic cone.
    fn bound(&self, query: &JoinQuery, stats: &StatisticsSet) -> Result<BoundResult, CoreError> {
        self.lps_estimated.fetch_add(1, Ordering::Relaxed);
        let cone = self.cone.unwrap_or_else(|| Cone::auto(query, stats));
        let options = BoundOptions {
            solver: self.solver,
            ..BoundOptions::default()
        };
        compute_bound_with(query, stats, cone, &options)
    }

    /// Bound every sub-join of a plan enumeration: harvest the query's
    /// per-atom statistics with `config` once, then for each atom subset in
    /// turn build the [`JoinQuery::subquery`] with its share of them and
    /// bound it.
    ///
    /// This is the optimizer entry point: a dynamic-programming join-order
    /// enumeration asks for bounds on *every* connected sub-join at once.
    /// Results are positional; a subset whose statistics cannot be
    /// harvested or whose LP exceeds the cone limits reports its error
    /// without aborting the rest.
    pub fn bound_subqueries(
        &self,
        query: &JoinQuery,
        catalog: &Catalog,
        subsets: &[Vec<usize>],
        config: &CollectConfig,
    ) -> Vec<Result<BoundResult, CoreError>> {
        let harvested = AtomStatistics::collect(query, catalog, config);
        subsets
            .iter()
            .map(|atoms| {
                let (sub, stats) = harvested.subquery(atoms)?;
                self.bound(&sub, &stats)
            })
            .collect()
    }

    /// Bound the **cross product** of runs × sub-joins: every
    /// `(query, catalog)` run is bounded on every atom subset, run by run
    /// through [`bound_subqueries`](Self::bound_subqueries).
    ///
    /// This is the partition-aware planner entry point.  The runs of a
    /// degree partition pose the *same* query over per-part sub-catalogs:
    /// their sub-join LPs differ only in the right-hand sides (each part's
    /// statistics).  Results are positional: `out[r][s]` is run `r`'s bound
    /// on subset `s`.
    pub fn bound_subqueries_multi(
        &self,
        runs: &[(&JoinQuery, &Catalog)],
        subsets: &[Vec<usize>],
        config: &CollectConfig,
    ) -> Vec<Vec<Result<BoundResult, CoreError>>> {
        runs.iter()
            .map(|&(query, catalog)| self.bound_subqueries(query, catalog, subsets, config))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{collect_simple_statistics, compute_bound};
    use lpb_data::RelationBuilder;

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
        out
    }

    /// A batch returns bit for bit what `compute_bound` returns one item at
    /// a time, under the automatic cone and under each forced one, and the
    /// counters the benchmark's probe reads say "that many LPs, all cold".
    #[test]
    fn batch_matches_one_at_a_time() {
        let items = items();
        for forced in [None, Some(Cone::Normal), Some(Cone::Polymatroid)] {
            let est = forced.map_or_else(BatchEstimator::new, |cone| {
                BatchEstimator::new().with_cone(cone)
            });
            let batch = est.estimate(&items);
            assert_eq!(batch.len(), items.len());
            for (item, result) in items.iter().zip(&batch) {
                let cone = forced.unwrap_or_else(|| Cone::auto(&item.query, &item.stats));
                let single = compute_bound(&item.query, &item.stats, cone).unwrap();
                assert_eq!(
                    result.as_ref().unwrap().log2_bound.to_bits(),
                    single.log2_bound.to_bits(),
                    "{} on {cone:?}",
                    item.query.name()
                );
            }
            assert_eq!(est.lps_estimated(), items.len());
            assert_eq!(est.clone().lps_estimated(), items.len());
            assert_eq!(
                (est.shape_cache_hits(), est.shape_cache_misses()),
                (0, items.len())
            );
        }
    }

    /// The solver choices and — the statistics being simple (Theorem 6.1) —
    /// the two sound cones all give the same bounds.
    #[test]
    fn solvers_and_cones_agree() {
        let items = items();
        let reference = BatchEstimator::new().estimate(&items);
        for other in [
            BatchEstimator::new().with_solver(SolverKind::SparseRevised),
            BatchEstimator::new().with_solver(SolverKind::Dense),
            BatchEstimator::new().with_cone(Cone::Polymatroid),
            BatchEstimator::new()
                .with_cone(Cone::Polymatroid)
                .with_solver(SolverKind::Dense),
        ] {
            for (r, o) in reference.iter().zip(&other.estimate(&items)) {
                let (r, o) = (r.as_ref().unwrap(), o.as_ref().unwrap());
                assert!(
                    (r.log2_bound - o.log2_bound).abs() < 1e-6,
                    "{other:?}: {} vs {}",
                    o.log2_bound,
                    r.log2_bound
                );
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
        let est = BatchEstimator::new();
        let bounds =
            est.bound_subqueries(&query, &catalog, &subsets, &CollectConfig::with_max_norm(3));
        assert_eq!(bounds.len(), subsets.len());
        for b in &bounds[..4] {
            assert!(b.as_ref().unwrap().is_bounded());
        }
        assert!(matches!(bounds[4], Err(CoreError::InvalidQuery { .. })));
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
        let est = BatchEstimator::new();
        let runs: Vec<(&JoinQuery, &Catalog)> =
            vec![(&query, &catalog), (&query, &light), (&query, &heavy)];
        let grouped = est.bound_subqueries_multi(&runs, &subsets, &CollectConfig::with_max_norm(3));
        assert_eq!(grouped.len(), 3);
        assert!(grouped.iter().all(|g| g.len() == subsets.len()));
        // Positional results match per-run bound_subqueries calls.
        for ((q, c), group) in runs.iter().zip(&grouped) {
            let single = BatchEstimator::new().bound_subqueries(
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
            .with_cone(Cone::Polymatroid)
            .estimate(std::slice::from_ref(&item));
        let normal = BatchEstimator::new()
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
