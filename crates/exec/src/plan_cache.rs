//! A concurrent plan cache: [`OptimizedPlan`]s keyed by canonicalized
//! query shape + catalog statistics epoch.
//!
//! Planning is the expensive half of a request — an LP batch over every
//! connected sub-join plus the bottleneck DP — and fleet workloads repeat a
//! small set of query *shapes* endlessly.  This cache lets a repeat shape
//! skip LP and DP entirely: the hit path is one canonicalization, one
//! `HashMap` probe and an `Arc` clone.
//!
//! ## Keying discipline
//!
//! The key is `(canonical shape, statistics epoch)`:
//!
//! * **Canonical shape** ([`canonical_shape`]): relation names in atom
//!   order, each prefixed with its length (relation names are arbitrary
//!   strings, so no delimiter could keep the encoding injective), with
//!   variables renamed `v0, v1, …` by first appearance.  Two
//!   queries with the same canon join the same relations over the same
//!   variable-sharing pattern, so the optimizer would derive the same
//!   bounds and pick the same plan — and an [`OptimizedPlan`] references
//!   atoms by *index*, so replaying it against any query with the same
//!   canon executes correctly regardless of what the variables are called
//!   (output columns take their names from the executed query, not the
//!   cached plan).  Query *names* are deliberately excluded.
//! * **Statistics epoch** ([`lpb_data::Catalog::epoch`]): bounds are only
//!   as good as the statistics behind them, so any epoch bump — a relation
//!   replaced via [`lpb_data::Catalog::successor_with`], observed
//!   intermediates absorbed via [`lpb_data::Catalog::absorb_observed`] —
//!   changes the key and every stale entry misses from then on.  Epochs are
//!   compared, never dereferenced, so stale entries are merely dead weight
//!   until evicted, not a correctness hazard.  The corollary: one
//!   `PlanCache` must serve **one catalog lineage** (e.g. one
//!   [`lpb_data::SnapshotCatalog`] cell).  Epoch numbers from unrelated
//!   catalogs are incomparable, and mixing them in one cache could alias.
//!   Same-epoch *views* ([`lpb_data::Catalog::derive_with`]) intentionally
//!   share entries — they are defined to carry the same statistics.
//!
//! Capacity is bounded: inserts past [`PlanCache::with_capacity`]'s limit
//! evict the oldest entry (insertion order), which under an epoch bump
//! naturally cycles the dead generation out as the new one fills in.

use crate::error::ExecError;
use crate::optimizer::{OptimizedPlan, Optimizer};
use lpb_core::JoinQuery;
use lpb_data::Catalog;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The canonical shape of a query: length-prefixed relation names in atom
/// order with variables interned as `v0, v1, …` by first appearance.
/// Queries with equal canons are interchangeable to the planner (same
/// relations, same sharing pattern ⇒ same statistics ⇒ same plan) and to
/// the executor (plans address atoms by index) — and only those are: the
/// length prefix says where a name ends whatever characters it contains,
/// so the encoding reads back to exactly one atom list.
pub(crate) fn canonical_shape(query: &JoinQuery) -> String {
    let mut interned: HashMap<&str, usize> = HashMap::new();
    let mut out = String::new();
    for atom in query.atoms() {
        out.push_str(&atom.relation.len().to_string());
        out.push(':');
        out.push_str(&atom.relation);
        out.push('(');
        for (i, var) in atom.vars.iter().enumerate() {
            let next = interned.len();
            let id = *interned.entry(var.as_str()).or_insert(next);
            if i > 0 {
                out.push(',');
            }
            out.push('v');
            out.push_str(&id.to_string());
        }
        out.push(')');
        out.push(';');
    }
    out
}

/// Map + insertion queue behind the one short-lived lock.  The lock covers
/// lookup/insert/evict only — never planning; see [`PlanCache::get_or_plan`].
#[derive(Debug, Default)]
struct Inner {
    map: HashMap<(String, u64), Arc<OptimizedPlan>>,
    order: VecDeque<(String, u64)>,
}

/// A bounded, concurrent `(shape, epoch) → Arc<OptimizedPlan>` cache; see
/// the module docs for the keying discipline.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::with_capacity(1024)
    }
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (oldest-insert eviction).
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Look up the plan cached for `query`'s shape at `catalog`'s epoch.
    /// Counts toward [`hits`](Self::hits) / [`misses`](Self::misses).
    pub fn get(&self, query: &JoinQuery, catalog: &Catalog) -> Option<Arc<OptimizedPlan>> {
        let key = (canonical_shape(query), catalog.epoch());
        let found = {
            let inner = self.inner.lock().expect("plan cache lock poisoned");
            inner.map.get(&key).cloned()
        };
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Cache `plan` for `query`'s shape at `catalog`'s epoch, returning the
    /// shared handle.  A concurrent insert of the same key wins the race
    /// once — later inserts return the already-cached plan, so every caller
    /// agrees on one handle per key.
    pub fn insert(
        &self,
        query: &JoinQuery,
        catalog: &Catalog,
        plan: OptimizedPlan,
    ) -> Arc<OptimizedPlan> {
        let key = (canonical_shape(query), catalog.epoch());
        let mut inner = self.inner.lock().expect("plan cache lock poisoned");
        match inner.map.entry(key.clone()) {
            Entry::Occupied(e) => Arc::clone(e.get()),
            Entry::Vacant(e) => {
                let arc = Arc::new(plan);
                e.insert(Arc::clone(&arc));
                inner.order.push_back(key);
                while inner.map.len() > self.capacity {
                    if let Some(old) = inner.order.pop_front() {
                        inner.map.remove(&old);
                    } else {
                        break;
                    }
                }
                arc
            }
        }
    }

    /// The hit path composed: probe the cache, and on a miss plan with
    /// `optimizer` and cache the result.  Returns the plan plus whether it
    /// was a hit.  The cache lock is **never** held while planning, so a
    /// slow cold plan never blocks other requests' hits; two concurrent
    /// misses of the same shape may both plan, and the insert race then
    /// converges them on one cached handle.
    pub fn get_or_plan(
        &self,
        optimizer: &Optimizer,
        query: &JoinQuery,
        catalog: &Catalog,
    ) -> Result<(Arc<OptimizedPlan>, bool), ExecError> {
        if let Some(plan) = self.get(query, catalog) {
            return Ok((plan, true));
        }
        let plan = optimizer.plan(query, catalog)?;
        Ok((self.insert(query, catalog, plan), false))
    }

    /// Cache probes that found a plan.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache probes that found nothing (including stale-epoch probes).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of plans currently cached (all epochs).
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("plan cache lock poisoned")
            .map
            .len()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpb_data::RelationBuilder;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.insert(RelationBuilder::binary_from_pairs(
            "E",
            "a",
            "b",
            (0..40u64).flat_map(|i| [(i % 8, (i + 1) % 8), ((i + 3) % 8, i % 8)]),
        ));
        c
    }

    #[test]
    fn canonical_shape_ignores_names_and_variable_spelling() {
        let a = JoinQuery::triangle("E", "E", "E");
        // Same shape, different query name and variable names.
        let b = JoinQuery::new(
            "renamed",
            vec![
                lpb_core::Atom::new("E", &["p", "q"]),
                lpb_core::Atom::new("E", &["q", "r"]),
                lpb_core::Atom::new("E", &["r", "p"]),
            ],
        )
        .unwrap();
        assert_eq!(canonical_shape(&a), canonical_shape(&b));
        // A path shares relations but not the sharing pattern.
        let c = JoinQuery::path(&["E", "E", "E"]);
        assert_ne!(canonical_shape(&a), canonical_shape(&c));
        // Relation identity matters.
        let d = JoinQuery::triangle("E", "E", "F");
        assert_ne!(canonical_shape(&a), canonical_shape(&d));
    }

    /// Relation names are arbitrary strings, delimiters included: a name
    /// that spells out the rest of another query's canon must not make the
    /// two queries one cache entry.  Different atom counts first (the hit
    /// would not even execute), then equal ones (it would, under the other
    /// query's certificates).
    #[test]
    fn relation_names_containing_the_delimiters_do_not_collide() {
        let unary = |relation: &str| lpb_core::Atom::new(relation, &["x"]);
        let pairs = [
            (
                JoinQuery::new("one", vec![lpb_core::Atom::new("E(v0,v1);E", &["x", "y"])])
                    .unwrap(),
                JoinQuery::new(
                    "self-join",
                    vec![
                        lpb_core::Atom::new("E", &["x", "y"]),
                        lpb_core::Atom::new("E", &["x", "y"]),
                    ],
                )
                .unwrap(),
            ),
            (
                JoinQuery::new("left", vec![unary("A(v0);B"), unary("C")]).unwrap(),
                JoinQuery::new("right", vec![unary("A"), unary("B(v0);C")]).unwrap(),
            ),
        ];
        for (odd, plain) in &pairs {
            assert_ne!(canonical_shape(odd), canonical_shape(plain));
            let mut catalog = Catalog::new();
            for atom in odd.atoms().iter().chain(plain.atoms()) {
                let arity = atom.vars.len();
                let mut builder = RelationBuilder::new(
                    atom.relation.as_str(),
                    ["c0", "c1"][..arity].iter().copied(),
                )
                .unwrap();
                for i in 0..6u64 {
                    builder.push_codes(&[i % 3, i % 2][..arity]).unwrap();
                }
                catalog.insert(builder.build());
            }
            let cache = PlanCache::default();
            let optimizer = Optimizer::new();
            let (first, hit) = cache.get_or_plan(&optimizer, plain, &catalog).unwrap();
            assert!(!hit);
            let (second, hit) = cache.get_or_plan(&optimizer, odd, &catalog).unwrap();
            assert!(!hit, "{} answered with {}'s plan", odd.name(), plain.name());
            assert!(!Arc::ptr_eq(&first, &second));
            assert_eq!(cache.len(), 2);
            crate::morsel::execute_physical_mode(
                odd,
                &catalog,
                &second.physical,
                crate::morsel::ExecMode::Vectorized,
            )
            .unwrap();
        }
    }

    #[test]
    fn hit_path_reuses_the_cached_plan_for_isomorphic_queries() {
        let catalog = catalog();
        let cache = PlanCache::default();
        let optimizer = Optimizer::new();
        let q = JoinQuery::triangle("E", "E", "E");
        let (first, hit) = cache.get_or_plan(&optimizer, &q, &catalog).unwrap();
        assert!(!hit);
        let (again, hit) = cache.get_or_plan(&optimizer, &q, &catalog).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &again));
        // An isomorphic query (different variable spelling) hits too, and
        // its execution against its own variables is correct.
        let iso = JoinQuery::new(
            "other_user",
            vec![
                lpb_core::Atom::new("E", &["x1", "x2"]),
                lpb_core::Atom::new("E", &["x2", "x3"]),
                lpb_core::Atom::new("E", &["x3", "x1"]),
            ],
        )
        .unwrap();
        let (shared, hit) = cache.get_or_plan(&optimizer, &iso, &catalog).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &shared));
        let run = crate::morsel::execute_physical_mode(
            &iso,
            &catalog,
            &shared.physical,
            crate::morsel::ExecMode::Vectorized,
        )
        .unwrap();
        let direct = crate::morsel::execute_physical_mode(
            &q,
            &catalog,
            &first.physical,
            crate::morsel::ExecMode::Vectorized,
        )
        .unwrap();
        assert_eq!(run.output_size(), direct.output_size());
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    /// S3 invalidation, write path: plan → hit → replace a relation through
    /// an epoch-bumping successor → the stale plan must miss and a re-plan
    /// must be cached under the new epoch.
    #[test]
    fn epoch_bump_from_relation_replace_invalidates() {
        let base = catalog();
        let cache = PlanCache::default();
        let optimizer = Optimizer::new();
        let q = JoinQuery::triangle("E", "E", "E");
        let (cold, hit) = cache.get_or_plan(&optimizer, &q, &base).unwrap();
        assert!(!hit);
        assert!(cache.get_or_plan(&optimizer, &q, &base).unwrap().1);

        // A same-epoch derived view intentionally still hits: same stats.
        let view = base.derive_with(RelationBuilder::binary_from_pairs(
            "F",
            "a",
            "b",
            vec![(1, 1)],
        ));
        assert!(cache.get_or_plan(&optimizer, &q, &view).unwrap().1);

        // An epoch-bumping successor must miss and re-plan.
        let successor = base.successor_with(RelationBuilder::binary_from_pairs(
            "E",
            "a",
            "b",
            (0..4u64).map(|i| (i, i + 1)),
        ));
        assert_eq!(successor.epoch(), base.epoch() + 1);
        let (fresh, hit) = cache.get_or_plan(&optimizer, &q, &successor).unwrap();
        assert!(!hit, "stale-epoch plan served after a relation replace");
        assert!(!Arc::ptr_eq(&cold, &fresh));
        // Both generations coexist; each epoch hits its own entry.
        assert!(cache.get_or_plan(&optimizer, &q, &base).unwrap().1);
        assert!(cache.get_or_plan(&optimizer, &q, &successor).unwrap().1);
        assert_eq!(cache.len(), 2);
    }

    /// S3 invalidation, feedback path: an `absorb_observed` epoch bump
    /// (the adaptive executor's mid-flight statistics feedback) must
    /// invalidate exactly like a relation replace.
    #[test]
    fn epoch_bump_from_absorb_observed_invalidates() {
        let base = catalog();
        let cache = PlanCache::default();
        let optimizer = Optimizer::new();
        let q = JoinQuery::triangle("E", "E", "E");
        cache.get_or_plan(&optimizer, &q, &base).unwrap();
        assert!(cache.get_or_plan(&optimizer, &q, &base).unwrap().1);

        let absorbed = base
            .absorb_observed(
                RelationBuilder::binary_from_pairs("Obs", "a", "b", (0..6u64).map(|i| (i, i))),
                optimizer.config().max_norm,
            )
            .unwrap();
        assert_eq!(absorbed.epoch(), base.epoch() + 1);
        let (_, hit) = cache.get_or_plan(&optimizer, &q, &absorbed).unwrap();
        assert!(!hit, "stale-epoch plan served after absorb_observed");
        assert!(cache.get_or_plan(&optimizer, &q, &absorbed).unwrap().1);
    }

    #[test]
    fn capacity_evicts_oldest_inserts_first() {
        let catalog = catalog();
        let cache = PlanCache::with_capacity(2);
        let optimizer = Optimizer::new();
        let queries = [
            JoinQuery::triangle("E", "E", "E"),
            JoinQuery::path(&["E", "E"]),
            JoinQuery::path(&["E", "E", "E"]),
        ];
        for q in &queries {
            cache.get_or_plan(&optimizer, q, &catalog).unwrap();
        }
        assert_eq!(cache.len(), 2);
        // The oldest (triangle) was evicted; the two newest survive.
        assert!(cache.get(&queries[0], &catalog).is_none());
        assert!(cache.get(&queries[1], &catalog).is_some());
        assert!(cache.get(&queries[2], &catalog).is_some());
    }
}
