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
//!   as good as the statistics behind them, and a catalog's statistics are
//!   a function of its rows, so any epoch bump — a relation replaced via
//!   [`lpb_data::Catalog::successor_with`] — changes the key and every
//!   stale entry misses from then on.  Epochs are
//!   compared, never dereferenced, so stale entries are merely dead weight
//!   until evicted, not a correctness hazard.  The corollary: one
//!   `PlanCache` must serve **one catalog lineage** (e.g. one
//!   [`lpb_data::SnapshotCatalog`] cell).  Epoch numbers from unrelated
//!   catalogs are incomparable, and mixing them in one cache could alias.
//!   Same-epoch *views* (the planner's per-part sub-catalogs) intentionally
//!   share entries — they are defined to carry the same statistics
//!   (`tests/planner_quality.rs` pins the hit).
//!
//! Capacity is bounded, and so is how far back the cache keeps epochs: an
//! insert evicts, oldest insert first, while the cache holds more than
//! [`PlanCache::with_capacity`]'s limit or its oldest entry is two or more
//! epochs behind the plan being inserted.  A request admitted just before a
//! publish still hits the previous epoch's plan; only one admitted two
//! publishes ago plans again.  Without the epoch rule a lineage that
//! publishes often fills the cache with plans nothing asks for again (on
//! the benchmark's `serve-churn`, ~1,000 plans and 4 MiB, 40 % of the
//! process).  The rule looks only behind the inserted epoch, so a lineage
//! whose epoch goes back (a [`lpb_data::SnapshotCatalog::publish_with`] of
//! an older catalog) keeps caching its plans; the entries ahead of it leave
//! by capacity.
//!
//! ## Single-flight planning
//!
//! A plan is a function of its key, so concurrent misses share work only
//! when they miss the *same* key.  [`PlanCache::get_or_plan`] makes the
//! first miss of a key the key's **flight**: it plans on its own thread,
//! outside the lock.  A concurrent miss of that key joins the flight — probe
//! and join under one acquisition of the lock — and blocks until the flight
//! lands; misses of other keys never wait on it.  A flight lands with its
//! plan, which is cached, or with its planner's error, which every request
//! of the flight receives and nothing caches, so the next miss plans again.
//! A planner that unwinds lands its flight with
//! [`ExecError::PlanningPanicked`] from a drop guard.  Flights are not
//! entries: they never count against capacity and are never evicted.
//!
//! No planning or other caller code runs under the lock, and the map, the
//! queue and the flights are consistent at every unlock, so a poisoned lock
//! is recovered rather than propagated.

use crate::error::ExecError;
use crate::optimizer::OptimizedPlan;
use lpb_core::JoinQuery;
use lpb_data::Catalog;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

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

type Key = (String, u64);

/// What a flight lands with: its plan or its planner's error, and the number
/// of requests it served (the planner included).
type Landing = (Result<Arc<OptimizedPlan>, ExecError>, usize);

/// Map + insertion queue + in-flight keys behind the one short-lived lock.
/// The lock covers lookup/join/insert/evict only — never planning; see
/// [`PlanCache::get_or_plan`].
#[derive(Debug, Default)]
struct Inner {
    map: HashMap<Key, Arc<OptimizedPlan>>,
    order: VecDeque<Key>,
    /// Each in-flight key's landing slot and the requests joined so far.
    flights: HashMap<Key, (Arc<OnceLock<Landing>>, usize)>,
    flight_stats: FlightStats,
}

impl Inner {
    /// Cache `plan` under `key`, then evict from the oldest insert on while
    /// the cache is past `capacity` or its oldest entry is two or more
    /// epochs behind `key`'s.
    fn insert(&mut self, key: Key, plan: Arc<OptimizedPlan>, capacity: usize) {
        let kept_from = key.1.saturating_sub(1);
        if self.map.insert(key.clone(), plan).is_none() {
            self.order.push_back(key);
        }
        while let Some((_, epoch)) = self.order.front() {
            if self.map.len() <= capacity && *epoch >= kept_from {
                break;
            }
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&oldest);
            }
        }
    }
}

/// Counters over the flights that have landed; see the module docs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlightStats {
    /// Flights landed: planning calls made, failed ones included.
    pub flights: u64,
    /// Requests those flights served (their sizes summed).
    pub requests: u64,
    /// Flights that served two or more requests.
    pub shared: u64,
    /// The largest flight.
    pub largest: u64,
}

/// A bounded, concurrent `(shape, epoch) → Arc<OptimizedPlan>` cache with
/// single-flight planning; see the module docs.
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

/// Held by the request that plans a flight: lands the flight with
/// [`ExecError::PlanningPanicked`] if the planning closure unwinds, so the
/// flight's waiters fail at once instead of waiting forever.
struct Pilot<'a> {
    cache: &'a PlanCache,
    key: Key,
    slot: Arc<OnceLock<Landing>>,
    landed: bool,
}

impl Pilot<'_> {
    /// Take the flight out of the in-flight set, cache a plan, and wake the
    /// waiters.  The flight's size is final once it leaves the set: a later
    /// request of the key hits, or plans again after a failure.
    fn land(&mut self, outcome: Result<Arc<OptimizedPlan>, ExecError>) -> Landing {
        self.landed = true;
        let requests = {
            let mut inner = self.cache.lock();
            let requests = inner.flights.remove(&self.key).map_or(1, |(_, n)| n);
            if let Ok(plan) = &outcome {
                inner.insert(self.key.clone(), Arc::clone(plan), self.cache.capacity);
            }
            let stats = &mut inner.flight_stats;
            stats.flights += 1;
            stats.requests += requests as u64;
            stats.shared += u64::from(requests >= 2);
            stats.largest = stats.largest.max(requests as u64);
            requests
        };
        let landing = (outcome, requests);
        // The pilot is the slot's only writer.
        let _ = self.slot.set(landing.clone());
        landing
    }
}

impl Drop for Pilot<'_> {
    fn drop(&mut self) {
        if !self.landed {
            let _ = self.land(Err(ExecError::PlanningPanicked));
        }
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

    /// The lock, recovered if a panicking thread poisoned it: see the
    /// module docs for why its contents are consistent anyway.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up the plan cached for `query`'s shape at `catalog`'s epoch.
    /// Counts toward [`hits`](Self::hits) / [`misses`](Self::misses).
    pub fn get(&self, query: &JoinQuery, catalog: &Catalog) -> Option<Arc<OptimizedPlan>> {
        let key = (canonical_shape(query), catalog.epoch());
        let found = self.lock().map.get(&key).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// The plan for `query`'s shape at `catalog`'s epoch, and the number of
    /// requests the flight that computed it served — zero on a hit.
    ///
    /// A hit is one canonicalization, one lock, one map probe and one `Arc`
    /// clone.  A miss of a key already in flight joins that flight and
    /// blocks until it lands; any other miss calls `plan` on this thread,
    /// outside the lock, and lands the flight with the result.  Every
    /// request of a flight gets the same plan, or the same error.
    pub fn get_or_plan(
        &self,
        query: &JoinQuery,
        catalog: &Catalog,
        plan: impl FnOnce() -> Result<OptimizedPlan, ExecError>,
    ) -> Result<(Arc<OptimizedPlan>, usize), ExecError> {
        let key = (canonical_shape(query), catalog.epoch());
        let mut inner = self.lock();
        if let Some(plan) = inner.map.get(&key).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((plan, 0));
        }
        // Counted under the lock, so a caller that reads `misses` knows
        // every request it counts has joined or opened its flight.
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some((slot, requests)) = inner.flights.get_mut(&key) {
            *requests += 1;
            let slot = Arc::clone(slot);
            drop(inner);
            let (plan, requests) = slot.wait();
            return plan.clone().map(|plan| (plan, *requests));
        }
        let slot = Arc::new(OnceLock::new());
        inner.flights.insert(key.clone(), (Arc::clone(&slot), 1));
        drop(inner);
        let mut pilot = Pilot {
            cache: self,
            key,
            slot,
            landed: false,
        };
        let (plan, requests) = pilot.land(plan().map(Arc::new));
        plan.map(|plan| (plan, requests))
    }

    /// Cache probes that found a plan.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache probes that found nothing (including stale-epoch probes and
    /// joins of a flight).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Counters over the flights landed so far.
    pub fn flight_stats(&self) -> FlightStats {
        self.lock().flight_stats
    }

    /// Number of plans currently cached (all epochs).
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Optimizer;
    use lpb_data::RelationBuilder;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

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

    /// [`PlanCache::get_or_plan`] with `optimizer`'s planning call, and
    /// whether it hit.
    fn plan_through(
        cache: &PlanCache,
        optimizer: &Optimizer,
        query: &JoinQuery,
        catalog: &Catalog,
    ) -> Result<(Arc<OptimizedPlan>, bool), ExecError> {
        let (plan, flight) =
            cache.get_or_plan(query, catalog, || optimizer.plan(query, catalog))?;
        Ok((plan, flight == 0))
    }

    /// Block until `n` probes have missed, each of which has then opened or
    /// joined its flight.
    fn await_misses(cache: &PlanCache, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while cache.misses() < n {
            assert!(Instant::now() < deadline, "only {} misses", cache.misses());
            std::thread::yield_now();
        }
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
            let (first, hit) = plan_through(&cache, &optimizer, plain, &catalog).unwrap();
            assert!(!hit);
            let (second, hit) = plan_through(&cache, &optimizer, odd, &catalog).unwrap();
            assert!(!hit, "{} answered with {}'s plan", odd.name(), plain.name());
            assert!(!Arc::ptr_eq(&first, &second));
            assert_eq!(cache.len(), 2);
            crate::run::execute_physical_mode(
                odd,
                &catalog,
                &second.physical,
                crate::run::ExecMode::Vectorized,
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
        let (first, hit) = plan_through(&cache, &optimizer, &q, &catalog).unwrap();
        assert!(!hit);
        let (again, hit) = plan_through(&cache, &optimizer, &q, &catalog).unwrap();
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
        let (shared, hit) = plan_through(&cache, &optimizer, &iso, &catalog).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &shared));
        let run = crate::run::execute_physical_mode(
            &iso,
            &catalog,
            &shared.physical,
            crate::run::ExecMode::Vectorized,
        )
        .unwrap();
        let direct = crate::run::execute_physical_mode(
            &q,
            &catalog,
            &first.physical,
            crate::run::ExecMode::Vectorized,
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
        let (cold, hit) = plan_through(&cache, &optimizer, &q, &base).unwrap();
        assert!(!hit);
        assert!(plan_through(&cache, &optimizer, &q, &base).unwrap().1);

        // An epoch-bumping successor must miss and re-plan.
        let successor = base.successor_with(RelationBuilder::binary_from_pairs(
            "E",
            "a",
            "b",
            (0..4u64).map(|i| (i, i + 1)),
        ));
        assert_eq!(successor.epoch(), base.epoch() + 1);
        let (fresh, hit) = plan_through(&cache, &optimizer, &q, &successor).unwrap();
        assert!(!hit, "stale-epoch plan served after a relation replace");
        assert!(!Arc::ptr_eq(&cold, &fresh));
        // Both generations coexist; each epoch hits its own entry.
        assert!(plan_through(&cache, &optimizer, &q, &base).unwrap().1);
        assert!(plan_through(&cache, &optimizer, &q, &successor).unwrap().1);
        assert_eq!(cache.len(), 2);

        // A third generation retires the first, which only a request
        // admitted two publishes ago could still ask for.
        let third = successor.successor_with(RelationBuilder::binary_from_pairs(
            "E",
            "a",
            "b",
            (0..5u64).map(|i| (i, i + 1)),
        ));
        assert!(!plan_through(&cache, &optimizer, &q, &third).unwrap().1);
        assert!(cache.get(&q, &base).is_none());
        assert!(cache.get(&q, &successor).is_some());
        assert_eq!(cache.len(), 2);
    }

    /// The epoch rule evicts only behind the epoch being inserted: after
    /// plans of a newer catalog, plans of an older one of the lineage still
    /// stay cached once capacity has pushed the newer plans out.
    #[test]
    fn an_epoch_that_goes_back_keeps_caching_its_plans() {
        let base = catalog();
        let newer = base
            .successor_with(RelationBuilder::binary_from_pairs(
                "E",
                "a",
                "b",
                (0..4u64).map(|i| (i, i + 1)),
            ))
            .successor_with(RelationBuilder::binary_from_pairs(
                "E",
                "a",
                "b",
                (0..5u64).map(|i| (i, i + 1)),
            ));
        assert_eq!(newer.epoch(), base.epoch() + 2);
        let cache = PlanCache::with_capacity(2);
        let optimizer = Optimizer::new();
        let q = JoinQuery::triangle("E", "E", "E");
        let path = JoinQuery::path(&["E", "E"]);
        plan_through(&cache, &optimizer, &q, &newer).unwrap();
        plan_through(&cache, &optimizer, &q, &base).unwrap();
        plan_through(&cache, &optimizer, &path, &base).unwrap();
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&q, &newer).is_none());
        assert!(plan_through(&cache, &optimizer, &q, &base).unwrap().1);
        assert!(plan_through(&cache, &optimizer, &path, &base).unwrap().1);
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
            plan_through(&cache, &optimizer, q, &catalog).unwrap();
        }
        assert_eq!(cache.len(), 2);
        // The oldest (triangle) was evicted; the two newest survive.
        assert!(cache.get(&queries[0], &catalog).is_none());
        assert!(cache.get(&queries[1], &catalog).is_some());
        assert!(cache.get(&queries[2], &catalog).is_some());
    }

    /// Four threads miss one key while its planning call is held open: one
    /// call runs, all four get the one plan and report a flight of four,
    /// and a request after the landing hits.
    #[test]
    fn concurrent_misses_of_one_key_share_one_flight() {
        let catalog = catalog();
        let cache = PlanCache::default();
        let optimizer = Optimizer::new();
        let q = JoinQuery::triangle("E", "E", "E");
        let (open, gate) = mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        let runs = AtomicUsize::new(0);
        let plan = || {
            runs.fetch_add(1, Ordering::Relaxed);
            let gate = gate.lock().unwrap();
            gate.recv_timeout(Duration::from_secs(5))
                .expect("the gate opened");
            optimizer.plan(&q, &catalog)
        };
        let served: Vec<(Arc<OptimizedPlan>, usize)> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| cache.get_or_plan(&q, &catalog, plan).unwrap()))
                .collect();
            await_misses(&cache, 4);
            open.send(()).unwrap();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        for (plan, flight) in &served {
            assert!(Arc::ptr_eq(plan, &served[0].0));
            assert_eq!(*flight, 4);
        }
        let landed = FlightStats {
            flights: 1,
            requests: 4,
            shared: 1,
            largest: 4,
        };
        assert_eq!(cache.flight_stats(), landed);
        let (again, flight) = cache
            .get_or_plan(&q, &catalog, || unreachable!("a hit plans nothing"))
            .unwrap();
        assert_eq!(flight, 0);
        assert!(Arc::ptr_eq(&again, &served[0].0));
        assert_eq!(cache.len(), 1);
    }

    /// Key A's planning call returns only after key B's request has: B
    /// neither joins A's flight nor waits behind it.
    #[test]
    fn distinct_keys_never_wait_on_each_other() {
        let catalog = &catalog();
        let cache = &PlanCache::default();
        let optimizer = &Optimizer::new();
        let a = &JoinQuery::triangle("E", "E", "E");
        let b = &JoinQuery::path(&["E", "E"]);
        let (b_returned, b_done) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let planning_a = scope.spawn(move || {
                cache.get_or_plan(a, catalog, move || {
                    b_done
                        .recv_timeout(Duration::from_secs(5))
                        .expect("B returned while A was planning");
                    optimizer.plan(a, catalog)
                })
            });
            await_misses(cache, 1);
            let (_, flight) = cache
                .get_or_plan(b, catalog, || optimizer.plan(b, catalog))
                .unwrap();
            b_returned.send(()).unwrap();
            assert_eq!(flight, 1, "B planned on its own");
            assert_eq!(planning_a.join().unwrap().unwrap().1, 1);
        });
        assert_eq!(cache.flight_stats().flights, 2);
        assert_eq!(cache.len(), 2);
    }

    /// A planner's error reaches every request of its flight, and nothing
    /// is cached: the next request plans again.
    #[test]
    fn a_failed_flight_fails_its_waiters_and_is_not_cached() {
        let catalog = &catalog();
        let cache = &PlanCache::default();
        let q = &JoinQuery::path(&["E", "E"]);
        let injected = ExecError::NotApplicable {
            reason: "injected".into(),
        };
        let (open, gate) = mpsc::channel::<()>();
        let (planner, waiter) = std::thread::scope(|scope| {
            let failing = injected.clone();
            let planner = scope.spawn(move || {
                cache.get_or_plan(q, catalog, move || {
                    gate.recv_timeout(Duration::from_secs(5))
                        .expect("the gate opened");
                    Err(failing)
                })
            });
            await_misses(cache, 1);
            let waiter = scope
                .spawn(|| cache.get_or_plan(q, catalog, || unreachable!("a waiter never plans")));
            await_misses(cache, 2);
            open.send(()).unwrap();
            (planner.join().unwrap(), waiter.join().unwrap())
        });
        assert_eq!(planner.unwrap_err(), injected);
        assert_eq!(waiter.unwrap_err(), injected);
        assert!(cache.is_empty());
        assert_eq!(cache.flight_stats().requests, 2);

        let (_, flight) = cache
            .get_or_plan(q, catalog, || Optimizer::new().plan(q, catalog))
            .unwrap();
        assert_eq!(flight, 1, "the failure was not cached");
        assert_eq!(cache.len(), 1);
    }

    /// A planning call that panics lands its flight from the drop guard: the
    /// waiter gets the typed error at once, the panic reaches the caller
    /// that planned, and the next request plans again.
    #[test]
    fn a_waiter_of_a_panicking_planner_fails_at_once_and_the_next_request_replans() {
        let catalog = &catalog();
        let cache = &PlanCache::default();
        let q = &JoinQuery::path(&["E", "E"]);
        let panicked_at: Mutex<Option<Instant>> = Mutex::new(None);
        let (planner, waiter, returned_at) = std::thread::scope(|scope| {
            let panicked_at = &panicked_at;
            let planner = scope.spawn(move || {
                cache.get_or_plan(q, catalog, || {
                    await_misses(cache, 2);
                    *panicked_at.lock().unwrap() = Some(Instant::now());
                    panic!("injected planner failure")
                })
            });
            await_misses(cache, 1);
            let waiter = cache.get_or_plan(q, catalog, || unreachable!("a waiter never plans"));
            let returned_at = Instant::now();
            (planner.join(), waiter, returned_at)
        });
        assert!(
            planner.is_err(),
            "the panic reaches the caller that planned"
        );
        assert_eq!(waiter.unwrap_err(), ExecError::PlanningPanicked);
        let panicked_at = panicked_at.lock().unwrap().expect("the planner ran");
        assert!(
            returned_at - panicked_at < Duration::from_secs(1),
            "the waiter returned {:?} after the panic",
            returned_at - panicked_at
        );
        assert!(cache.is_empty());

        let (_, flight) = cache
            .get_or_plan(q, catalog, || Optimizer::new().plan(q, catalog))
            .unwrap();
        assert_eq!(flight, 1);
        assert_eq!(cache.flight_stats().flights, 2);
    }

    /// A thread that panics holding the lock poisons it; the cache recovers
    /// the lock and keeps answering.
    #[test]
    fn a_poisoned_lock_is_recovered() {
        let catalog = catalog();
        let cache = PlanCache::default();
        let optimizer = Optimizer::new();
        let q = JoinQuery::triangle("E", "E", "E");
        plan_through(&cache, &optimizer, &q, &catalog).unwrap();
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _held = cache.inner.lock().unwrap();
                panic!("poison the plan cache lock");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(cache.inner.is_poisoned());

        assert!(cache.get(&q, &catalog).is_some());
        assert!(plan_through(&cache, &optimizer, &q, &catalog).unwrap().1);
        let path = JoinQuery::path(&["E", "E"]);
        assert!(!plan_through(&cache, &optimizer, &path, &catalog).unwrap().1);
        assert_eq!(cache.len(), 2);
    }

    /// Characters relation names are drawn from: the canon's own delimiters
    /// and digits, plus two letters.
    const NAME_ALPHABET: [char; 10] = ['E', 'v', '(', ')', ';', ',', ':', '0', '1', '9'];

    /// One atom per word: a name of 0–3 characters from [`NAME_ALPHABET`]
    /// and 1–3 distinct variables from `x0..x3`.
    fn random_query(words: &[u64]) -> JoinQuery {
        let atoms = words
            .iter()
            .map(|&w| {
                let name: String = (0..w % 4)
                    .map(|k| NAME_ALPHABET[((w >> (2 + 4 * k)) % 10) as usize])
                    .collect();
                let mut pool = [0, 1, 2, 3];
                for i in (1..4).rev() {
                    pool.swap(i, ((w >> (20 + 3 * i)) % (i as u64 + 1)) as usize);
                }
                let arity = 1 + ((w >> 16) % 3) as usize;
                let vars: Vec<String> = pool[..arity].iter().map(|v| format!("x{v}")).collect();
                let refs: Vec<&str> = vars.iter().map(String::as_str).collect();
                lpb_core::Atom::new(name, &refs)
            })
            .collect();
        JoinQuery::new("random", atoms).unwrap()
    }

    /// The query with every variable renamed by `rename`.
    fn renamed(query: &JoinQuery, rename: impl Fn(&str) -> String) -> JoinQuery {
        let atoms = query
            .atoms()
            .iter()
            .map(|atom| {
                let vars: Vec<String> = atom.vars.iter().map(|v| rename(v)).collect();
                let refs: Vec<&str> = vars.iter().map(String::as_str).collect();
                lpb_core::Atom::new(atom.relation.clone(), &refs)
            })
            .collect();
        JoinQuery::new("renamed", atoms).unwrap()
    }

    /// What the canon must capture, computed from the definition: the
    /// relation-name list, the arities, and for every pair of argument
    /// positions `(atom i, position a)`, `(atom j, position b)` whether they
    /// hold the same variable.
    fn shape_by_definition(query: &JoinQuery) -> (Vec<&str>, Vec<usize>, Vec<bool>) {
        let atoms = query.atoms();
        let names = atoms.iter().map(|a| a.relation.as_str()).collect();
        let arities = atoms.iter().map(|a| a.vars.len()).collect();
        let vars: Vec<&String> = atoms.iter().flat_map(|a| &a.vars).collect();
        let same = vars
            .iter()
            .flat_map(|x| vars.iter().map(move |y| x == y))
            .collect();
        (names, arities, same)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(512))]

        /// `canonical_shape` is sound and complete for plan-cache keys: two
        /// queries get one canon iff their relation-name lists and their
        /// variable-equality patterns are equal, and a bijective renaming
        /// of the variables never changes a canon.  The second query is
        /// derived from the first — renamed, one name redrawn, one argument
        /// rebound, two neighbours spliced under a name that spells one's
        /// canon, two names swapped — or drawn independently.
        #[test]
        fn canonical_shapes_are_equal_iff_names_and_sharing_are(
            words in proptest::collection::vec(0u64..u64::MAX, 1..7),
            others in proptest::collection::vec(0u64..u64::MAX, 1..7),
            mode in 0u8..6,
            edit in 0u64..u64::MAX,
        ) {
            let q = random_query(&words);
            let offset = 1 + edit % 3;
            let rename = |v: &str| {
                let i: u64 = v[1..].parse().unwrap();
                format!("y{}", (i + offset) % 4)
            };
            let r = renamed(&q, rename);
            proptest::prop_assert_eq!(canonical_shape(&q), canonical_shape(&r));

            let atom = (edit >> 8) as usize % q.n_atoms();
            let mut atoms = q.atoms().to_vec();
            let other = match mode {
                0 => r,
                1 => {
                    atoms[atom].relation = random_query(&[edit >> 16]).atoms()[0].relation.clone();
                    JoinQuery::new("redrawn", atoms).unwrap()
                }
                2 => {
                    let position = (edit >> 16) as usize % atoms[atom].vars.len();
                    let var = format!("x{}", (edit >> 24) % 4);
                    if !atoms[atom].vars.contains(&var) {
                        atoms[atom].vars[position] = var;
                    }
                    JoinQuery::new("rebound", atoms).unwrap()
                }
                3 => random_query(&others),
                4 if atoms.len() > 1 => {
                    // Splice two neighbours into one atom whose name spells
                    // the first one's canon between their names.
                    let i = atom % (atoms.len() - 1);
                    let vars: Vec<&str> = atoms[i].vars.iter().map(String::as_str).collect();
                    let alone = JoinQuery::new("alone", vec![lpb_core::Atom::new("", &vars)]);
                    let second = atoms.remove(i + 1);
                    atoms[i].relation += &(canonical_shape(&alone.unwrap()) + &second.relation);
                    atoms[i].vars = second.vars;
                    JoinQuery::new("spliced", atoms).unwrap()
                }
                _ => {
                    let swap = (edit >> 16) as usize % atoms.len();
                    let name = atoms[atom].relation.clone();
                    atoms[atom].relation = std::mem::replace(&mut atoms[swap].relation, name);
                    JoinQuery::new("swapped", atoms).unwrap()
                }
            };
            let expected = shape_by_definition(&q) == shape_by_definition(&other);
            proptest::prop_assert_eq!(
                canonical_shape(&q) == canonical_shape(&other),
                expected,
                "{:?} vs {:?}: {} vs {}",
                q.atoms(),
                other.atoms(),
                canonical_shape(&q),
                canonical_shape(&other)
            );
        }
    }
}
