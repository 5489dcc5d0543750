//! Batch evaluation of cardinality bounds over a plan enumeration.
//!
//! A query optimizer does not ask for one bound — it asks for bounds on
//! *every candidate plan's* sub-joins, often hundreds per optimization
//! call.  [`BatchEstimator::bound_subqueries`] is that entry point: the
//! statistics of the query are read from the catalog once per atom
//! ([`AtomStatistics`]), and then each sub-join of the enumeration in turn
//! is assembled from them straight from its atom list — its variable count,
//! its atoms' variable sets and its statistics ([`SubJoin`]) — and bounded
//! on the calling thread, in input order, under [`Cone::auto`] or a forced
//! cone.  No [`JoinQuery`] is built for a sub-join (no cloned atom names,
//! no variable registry).  There is no solver choice: each cone has one
//! engine, the one behind [`crate::compute_bound`], which also bounds one
//! query on its own.
//!
//! The planner's statistics are simple ([`AtomStatistics`] harvests nothing
//! else), so `lpb-exec`'s optimizer builds its estimator
//! [`with_cone`](BatchEstimator::with_cone)`(`[`Cone::Normal`]`)`: a bound
//! there is one small dual-simplex tableau over a few dozen step functions
//! of the sub-join, grown in place across its pricing rounds.  Sub-joins on
//! the polymatroid cone ([`Cone::auto`] up to 8 variables, a forced cone)
//! are each solved cold as well.  A server gets its parallelism from
//! concurrent requests, each planning on its own thread.
//!
//! Within one call each distinct LP is solved once, and nothing is carried
//! from one call to the next.  A sub-join's bound is a function of its
//! [`SubJoin`] alone — the variable count, each atom's variable set and
//! each statistic's conditional, norm, guard and `log₂` bound — and
//! self-joins and symmetric stars pose the same one again and again (the
//! variables are numbered in order of first appearance, so the leaves of a
//! star over one relation coincide).  A sub-join equal bit for bit to an
//! earlier one of the call gets a clone of that one's result, which is what
//! a fresh solve would return: the solvers' pivot sequences are functions
//! of their input.  The memo lives for the one call and holds a 64-bit
//! fingerprint per distinct sub-join, neither the sub-join nor its result:
//! a fingerprint match is confirmed by assembling the earlier sub-join
//! again and comparing the two, and every result is stored once, in the
//! output.
//!
//! ```
//! use lpb_core::{BatchEstimator, CollectConfig, JoinQuery};
//! use lpb_core::{Catalog, RelationBuilder};
//!
//! let mut catalog = Catalog::new();
//! catalog.insert(RelationBuilder::binary_from_pairs(
//!     "E", "src", "dst",
//!     (0..40u64).map(|i| (i % 7, (i * 3 + 1) % 9)),
//! ));
//! let query = JoinQuery::triangle("E", "E", "E");
//! // The three pairs and the whole triangle, positionally.
//! let subsets = [vec![0, 1], vec![1, 2], vec![0, 2], vec![0, 1, 2]];
//! let estimator = BatchEstimator::new();
//! let batch = estimator.bound_subqueries(
//!     &query, &catalog, &subsets, &CollectConfig::with_max_norm(3));
//! assert_eq!(batch.results.len(), 4);
//! for r in &batch.results {
//!     assert!(r.as_ref().unwrap().is_bounded());
//! }
//! // `E(X,Y) ⋈ E(Y,Z)` and `E(Y,Z) ⋈ E(Z,X)` are one LP, solved once.
//! assert_eq!(batch.solved, 3);
//! assert_eq!(estimator.lps_estimated(), 4);
//! ```

use crate::bound_lp::{bound_over, BoundResult, Cone};
use crate::collect::{AtomStatistics, CollectConfig, SubJoin};
use crate::error::CoreError;
use crate::query::JoinQuery;
use lpb_data::Catalog;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// What one [`BatchEstimator::bound_subqueries`] call produced.
#[derive(Debug, Clone)]
pub struct SubqueryBounds {
    /// One result per requested subset, positional.
    pub results: Vec<Result<BoundResult, CoreError>>,
    /// The LPs the call solved: the results not cloned from an identical
    /// earlier sub-join of the call, nor failed before reaching an LP.
    pub solved: usize,
}

/// Bounds the sub-joins of a plan enumeration in input order; see the
/// module docs for an example.
///
/// Clones share the LP counters ([`lps_estimated`](Self::lps_estimated),
/// [`shape_cache_hits`](Self::shape_cache_hits),
/// [`shape_cache_misses`](Self::shape_cache_misses)) and nothing else.
#[derive(Debug, Clone, Default)]
pub struct BatchEstimator {
    cone: Option<Cone>,
    shape_cache_hits: Arc<AtomicUsize>,
    shape_cache_misses: Arc<AtomicUsize>,
}

impl BatchEstimator {
    /// An estimator with automatic cone selection ([`Cone::auto`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Force one cone for every sub-join instead of [`Cone::auto`].
    pub fn with_cone(mut self, cone: Cone) -> Self {
        self.cone = Some(cone);
        self
    }

    /// Total LP bound computations this estimator (and every clone of it)
    /// has been asked for, cumulative across
    /// [`bound_subqueries`](Self::bound_subqueries) calls: one per sub-join
    /// that reached the memo, solved or answered from it
    /// ([`shape_cache_hits`](Self::shape_cache_hits) +
    /// [`shape_cache_misses`](Self::shape_cache_misses)).  For a planner
    /// that is every sub-join its enumeration bounds plus every sub-join its
    /// partition search bounds on a part.
    pub fn lps_estimated(&self) -> usize {
        self.shape_cache_hits() + self.shape_cache_misses()
    }

    /// Sub-joins answered without an LP: each was equal, bit for bit, to an
    /// earlier sub-join of the same [`bound_subqueries`](Self::bound_subqueries)
    /// call and got a clone of its result (see the module docs).
    /// Cumulative over every call of this estimator and its clones.
    pub fn shape_cache_hits(&self) -> usize {
        self.shape_cache_hits.load(Ordering::Relaxed)
    }

    /// LPs actually solved, each of them cold: every distinct sub-join of a
    /// [`bound_subqueries`](Self::bound_subqueries) call.  Cumulative over
    /// every call of this estimator and its clones.
    pub fn shape_cache_misses(&self) -> usize {
        self.shape_cache_misses.load(Ordering::Relaxed)
    }

    /// One LP: a sub-join bounded on the forced or automatic cone, by the
    /// routine behind [`crate::compute_bound`].
    fn bound_subjoin(&self, sub: &SubJoin) -> Result<BoundResult, CoreError> {
        self.shape_cache_misses.fetch_add(1, Ordering::Relaxed);
        let cone = self
            .cone
            .unwrap_or_else(|| Cone::auto_for(sub.n_vars, &sub.stats));
        bound_over(sub.n_vars, &sub.atom_vars, &sub.stats, cone, None)
    }

    /// Bound every sub-join of a plan enumeration: harvest the query's
    /// per-atom statistics with `config` once, then for each atom subset in
    /// turn assemble its [`SubJoin`] from them
    /// ([`AtomStatistics::subjoin`]) and bound it — by cloning the result
    /// of an identical sub-join earlier in this call when there is one (see
    /// the module docs), by its LP otherwise.
    ///
    /// A dynamic-programming join-order enumeration asks for bounds on
    /// *every* connected sub-join at once; a degree-partitioned plan asks
    /// again once per part, with the same sub-joins over the part's
    /// sub-catalog (the same LPs, other right-hand sides).  Results are
    /// positional; a subset whose statistics cannot be harvested or whose
    /// LP exceeds the cone limits reports its error without aborting the
    /// rest.
    pub fn bound_subqueries(
        &self,
        query: &JoinQuery,
        catalog: &Catalog,
        subsets: &[Vec<usize>],
        config: &CollectConfig,
    ) -> SubqueryBounds {
        let harvested = AtomStatistics::collect(query, catalog, config);
        // Per distinct sub-join solved so far, its fingerprint → its index
        // in `subsets` and in `results`.  A fingerprint match is a hit once
        // the earlier sub-join, assembled again, is the same LP bit for bit;
        // a collision is solved afresh and leaves the slot to the first.
        let mut first: HashMap<u64, usize> = HashMap::with_capacity(subsets.len());
        let mut results: Vec<Result<BoundResult, CoreError>> = Vec::with_capacity(subsets.len());
        let mut solved = 0;
        for (s, atoms) in subsets.iter().enumerate() {
            let result = harvested.subjoin(atoms).and_then(|sub| {
                let print = fingerprint(&sub);
                if let Some(&i) = first.get(&print) {
                    if same_lp(&harvested.subjoin(&subsets[i])?, &sub) {
                        self.shape_cache_hits.fetch_add(1, Ordering::Relaxed);
                        return results[i].clone();
                    }
                } else {
                    first.insert(print, s);
                }
                solved += 1;
                self.bound_subjoin(&sub)
            });
            results.push(result);
        }
        SubqueryBounds { results, solved }
    }
}

/// Whether two sub-joins pose the same LP: every field the bound reads is
/// equal — the variable count, each atom's variable set, and each
/// statistic's conditional, norm and guard atom, and its `log₂` bound bit
/// for bit, in order.  (A norm compares by value; for the positive `p` of
/// every valid norm that is bit equality too.)
fn same_lp(a: &SubJoin, b: &SubJoin) -> bool {
    a.n_vars == b.n_vars
        && a.atom_vars == b.atom_vars
        && a.stats.len() == b.stats.len()
        && a.stats
            .iter()
            .zip(b.stats.iter())
            .all(|(s, t)| s.stat == t.stat && s.log_bound.to_bits() == t.log_bound.to_bits())
}

/// A 64-bit digest of the shape and the right-hand sides of a sub-join's
/// LP, equal whenever [`same_lp`] holds (a multiply-rotate hash, FxHash's
/// recipe).
fn fingerprint(sub: &SubJoin) -> u64 {
    let words = [sub.n_vars as u64, sub.stats.len() as u64]
        .into_iter()
        .chain(sub.atom_vars.iter().map(|v| u64::from(v.0)))
        .chain(sub.stats.iter().map(|s| s.log_bound.to_bits()));
    words.fold(0, |h, w| {
        (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{collect_simple_statistics, compute_bound, StatisticsSet};
    use lpb_data::RelationBuilder;
    use lpb_entropy::VarSet;

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

    /// Paths of two to four `E` atoms with their simple statistics.
    fn paths() -> Vec<(JoinQuery, StatisticsSet)> {
        let catalog = catalog();
        [2usize, 3, 4]
            .into_iter()
            .map(|len| {
                let query = JoinQuery::path(&vec!["E"; len]);
                let stats =
                    collect_simple_statistics(&query, &catalog, &CollectConfig::with_max_norm(3))
                        .unwrap();
                (query, stats)
            })
            .collect()
    }

    /// The automatic cone and — the statistics being simple (Theorem 6.1)
    /// — each of the two sound cones forced give the same bounds, one query
    /// at a time through `compute_bound` and per sub-join through
    /// `bound_subqueries`, whose counters say "that many LPs, all cold" when
    /// no two sub-joins coincide.
    #[test]
    fn solvers_and_cones_agree() {
        for (query, stats) in paths() {
            let reference = compute_bound(&query, &stats, Cone::auto(&query, &stats)).unwrap();
            for cone in [Cone::Normal, Cone::Polymatroid] {
                let other = compute_bound(&query, &stats, cone).unwrap();
                assert!(
                    (reference.log2_bound - other.log2_bound).abs() < 1e-6,
                    "{} on {cone:?}: {} vs {}",
                    query.name(),
                    other.log2_bound,
                    reference.log2_bound
                );
            }
        }

        let catalog = catalog();
        let query = JoinQuery::path(&["E"; 4]);
        // Three prefixes of the path: three distinct LPs.
        let subsets = vec![vec![0, 1], vec![0, 1, 2], vec![0, 1, 2, 3]];
        let config = CollectConfig::with_max_norm(3);
        let reference = BatchEstimator::new().bound_subqueries(&query, &catalog, &subsets, &config);
        for est in [
            BatchEstimator::new(),
            BatchEstimator::new().with_cone(Cone::Normal),
            BatchEstimator::new().with_cone(Cone::Polymatroid),
        ] {
            let batch = est.bound_subqueries(&query, &catalog, &subsets, &config);
            for (r, o) in reference.results.iter().zip(&batch.results) {
                let (r, o) = (r.as_ref().unwrap(), o.as_ref().unwrap());
                assert!(
                    (r.log2_bound - o.log2_bound).abs() < 1e-6,
                    "{est:?}: {} vs {}",
                    o.log2_bound,
                    r.log2_bound
                );
            }
            assert_eq!(batch.solved, subsets.len());
            assert_eq!(est.lps_estimated(), subsets.len());
            assert_eq!(est.clone().lps_estimated(), subsets.len());
            assert_eq!(
                (est.shape_cache_hits(), est.shape_cache_misses()),
                (0, subsets.len())
            );
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
        let batch =
            est.bound_subqueries(&query, &catalog, &subsets, &CollectConfig::with_max_norm(3));
        let bounds = &batch.results;
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
        // Numbered by first appearance, `E(X,Y) ⋈ E(Y,Z)` and
        // `E(Y,Z) ⋈ E(Z,X)` are one LP: the second is a hit, with the
        // first's bits.  `E(X,Y) ⋈ E(Z,X)` joins on the other column.
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(batch.solved, 3);
        assert_eq!((est.shape_cache_hits(), est.shape_cache_misses()), (1, 3));
        assert_eq!(est.lps_estimated(), 4);
        assert_eq!(est.clone().shape_cache_hits(), 1);
    }

    /// A sub-join the cone cannot bound reports its error in its own slot
    /// and leaves its neighbours bounded: on the polymatroid cone a 12-atom
    /// path (13 variables) is past the ceiling, and an atom index out of
    /// range never reaches an LP.
    #[test]
    fn per_item_errors_are_positional() {
        let catalog = catalog();
        let wide = JoinQuery::path(&["E"; 12]);
        let subsets = vec![vec![0, 1], (0..12).collect(), vec![0, 12], vec![1, 2, 3]];
        let est = BatchEstimator::new().with_cone(Cone::Polymatroid);
        let batch =
            est.bound_subqueries(&wide, &catalog, &subsets, &CollectConfig::with_max_norm(2));
        let results = &batch.results;
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(CoreError::TooManyVariables { .. })
        ));
        assert!(matches!(results[2], Err(CoreError::InvalidQuery { .. })));
        assert!(results[3].is_ok());
    }

    /// A catalog of three binary relations of different shapes, from
    /// which the differential test below draws its atoms.
    fn pool_catalog() -> Catalog {
        let mut c = catalog();
        c.insert(RelationBuilder::binary_from_pairs(
            "F",
            "src",
            "dst",
            (0..90u64).map(|i| (i % 5, (i * 11 + 2) % 31)),
        ));
        c.insert(RelationBuilder::binary_from_pairs(
            "G",
            "a",
            "b",
            (0..60u64).map(|i| ((i * i) % 13, i % 4)),
        ));
        c
    }

    /// Whether the atoms of `mask` form a connected sub-join of `query`.
    fn connected(query: &JoinQuery, mask: u32) -> bool {
        let vars_of = |atoms: u32| {
            (0..query.n_atoms())
                .filter(|&j| atoms >> j & 1 == 1)
                .fold(VarSet::EMPTY, |acc, j| acc.union(query.atom_vars(j)))
        };
        let mut joined = mask & mask.wrapping_neg();
        loop {
            let reached = vars_of(joined);
            let grown = (0..query.n_atoms())
                .filter(|&j| {
                    mask >> j & 1 == 1 && !query.atom_vars(j).intersect(reached).is_empty()
                })
                .fold(joined, |acc, j| acc | 1 << j);
            if grown == joined {
                return joined == mask;
            }
            joined = grown;
        }
    }

    /// The same results, bit for bit: statuses, bounds, witnesses and
    /// primal solutions, or equal errors.
    fn same_result(a: &Result<BoundResult, CoreError>, b: &Result<BoundResult, CoreError>) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        match (a, b) {
            (Ok(a), Ok(b)) => {
                a.status == b.status
                    && a.cone == b.cone
                    && a.log2_bound.to_bits() == b.log2_bound.to_bits()
                    && bits(&a.witness.weights) == bits(&b.witness.weights)
                    && bits(&a.primal) == bits(&b.primal)
            }
            (Err(a), Err(b)) => a == b,
            _ => false,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(48))]

        /// The memo changes no result.  Random connected queries of 3–6
        /// binary atoms over a pool of 2–3 relations (so atoms repeat) and
        /// one atom over a relation the catalog lacks: every connected
        /// sub-join bounded in one memoized call equals, bit for bit, the
        /// same sub-join bounded alone — on the planner's normal cone and on
        /// the automatic one — and the counters add up.
        #[test]
        fn the_memo_returns_what_a_fresh_solve_returns(
            words in proptest::collection::vec(0u64..u64::MAX, 3..7),
            pool in 2usize..4,
            unknown in 0usize..6,
        ) {
            let catalog = pool_catalog();
            let relations = ["E", "F", "G"];
            let m = words.len();
            let mut n_vars = 2;
            let mut atoms = Vec::with_capacity(m);
            for (j, &word) in words.iter().enumerate() {
                let relation = if j == unknown % m {
                    "MISSING"
                } else {
                    relations[(word % pool as u64) as usize]
                };
                let (a, b) = if j == 0 {
                    (0, 1)
                } else {
                    // Attach to a variable seen so far; the other end is a
                    // new variable or, one time in three, another old one
                    // (closing a cycle).
                    let a = (word >> 8) as usize % n_vars;
                    let old = (word >> 16) as usize % n_vars;
                    if (word >> 24) % 3 == 0 && old != a {
                        (a, old)
                    } else {
                        n_vars += 1;
                        (a, n_vars - 1)
                    }
                };
                let (a, b) = if (word >> 32) & 1 == 1 { (b, a) } else { (a, b) };
                let names = [format!("V{a}"), format!("V{b}")];
                atoms.push(crate::query::Atom::new(relation, &[&names[0], &names[1]]));
            }
            let query = JoinQuery::new("random", atoms).unwrap();
            let subsets: Vec<Vec<usize>> = (1u32..1 << m)
                .filter(|&mask| connected(&query, mask))
                .map(|mask| (0..m).filter(|&j| mask >> j & 1 == 1).collect())
                .collect();
            let config = CollectConfig::with_max_norm(3);
            for cone in [Some(Cone::Normal), None] {
                let estimator = || {
                    cone.map_or_else(BatchEstimator::new, |c| BatchEstimator::new().with_cone(c))
                };
                let est = estimator();
                let batch = est.bound_subqueries(&query, &catalog, &subsets, &config);
                proptest::prop_assert_eq!(batch.results.len(), subsets.len());
                let alone = estimator();
                for (atoms, memoized) in subsets.iter().zip(&batch.results) {
                    let atoms = std::slice::from_ref(atoms);
                    let single = alone.bound_subqueries(&query, &catalog, atoms, &config);
                    proptest::prop_assert!(
                        same_result(memoized, &single.results[0]),
                        "sub-join {:?}: {:?} vs {:?}", atoms, memoized, single.results[0]
                    );
                }
                proptest::prop_assert_eq!(alone.shape_cache_hits(), 0);
                proptest::prop_assert_eq!(est.shape_cache_misses(), batch.solved);
                proptest::prop_assert_eq!(est.lps_estimated(), alone.lps_estimated());
                // Every sub-join but those over the missing relation reached
                // the memo: a hit or a solve.
                let assembled = batch
                    .results
                    .iter()
                    .filter(|r| !matches!(r, Err(CoreError::Data(_))))
                    .count();
                proptest::prop_assert_eq!(est.shape_cache_hits() + batch.solved, assembled);
            }
        }
    }
}
