//! The query service: snapshot admission, plan-cache probe, single-flight
//! planning, certified execution.
//!
//! A request's life: grab **one** catalog snapshot (lock-free via a
//! worker's [`SnapshotReader`], or a pointer-store-guarded load otherwise)
//! → probe the plan cache under `(shape canon, snapshot epoch)` → on a hit,
//! execute immediately (zero LP work) → on a miss, plan on this thread, or
//! wait for the request already planning the same key → execute the
//! certified plan **on the admission snapshot**, on the request's own
//! thread.  A response carries the output's size, not its rows, so
//! execution stops there: the plan's root is counted ([`count_physical`])
//! and the output is never materialized.  A Yannakakis root — every
//! JOB-like served shape has one, directly or in each partition branch —
//! counts its whole chain after the full reducer, on frontier-grouped
//! multiplicities, so none of its intermediates is materialized either.
//! Every certificate below and at the root is checked as in a
//! materializing run, step for step.  Writers never disturb any of this:
//! they build successor catalogs aside and publish through the
//! [`SnapshotCatalog`] cell, which bumps the statistics epoch and thereby
//! invalidates every stale plan-cache entry.

use crate::ServeError;
use lpb_core::JoinQuery;
use lpb_data::{Catalog, Relation, SnapshotCatalog, SnapshotReader};
use lpb_exec::{count_physical, OptimizedPlan, Optimizer, PlanCache};
use lpb_lp::SolverStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one served request reports back.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// Output cardinality of the executed query.
    pub output_size: usize,
    /// Bound-certificate violations observed while executing — zero
    /// whenever the plan ran on the snapshot it was planned for, which the
    /// service guarantees by construction.
    pub certificate_violations: usize,
    /// Statistics epoch of the snapshot this request planned and ran on.
    pub epoch: u64,
    /// True when the plan came straight from the cache (no LP, no DP).
    pub cache_hit: bool,
    /// Number of requests the planning flight that produced this plan
    /// served (≥ 1, the request that planned included); zero on the
    /// cache-hit path, which joins no flight.
    pub coalesced_batch: usize,
    /// Solver work of the planning call that produced this plan
    /// ([`OptimizedPlan::lp_stats`]), the same for every request of its
    /// flight; all-zero on the cache-hit path — the bench's "hit path does
    /// no LP work" assertion.
    pub plan_stats: SolverStats,
    /// Wall-clock time from admission to plan-in-hand (cache probe, plus
    /// planning, or waiting for the flight of the same key, on a miss).
    pub plan_time: Duration,
    /// Wall-clock time from plan-in-hand to the output counted — the
    /// nodes below the root executed, and the root counted without being
    /// written (a Yannakakis root: its full reducer, then its chain on
    /// frontier-grouped multiplicities); zero for a plan-only request.
    pub exec_time: Duration,
    /// The (shared) plan that served this request.
    pub plan: Arc<OptimizedPlan>,
}

/// A point-in-time view of the service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests admitted (plan-only and executed).
    pub requests: u64,
    /// Plan-cache probes that found a plan.
    pub cache_hits: u64,
    /// Plan-cache probes that missed (stale-epoch probes and joins of a
    /// flight included).
    pub cache_misses: u64,
    /// Plans currently cached.
    pub cached_plans: u64,
    /// Plans the service computed: planning flights landed, failed ones
    /// included.
    pub batches: u64,
    /// Requests those flights served (flight sizes summed).
    pub coalesced_requests: u64,
    /// Flights that served ≥ 2 requests.
    pub multi_request_batches: u64,
    /// Largest flight.
    pub max_batch: u64,
    /// Certificate violations summed over all executed requests.
    pub certificate_violations: u64,
    /// Catalog versions published (writer side): the snapshot cell's
    /// [`generation`](SnapshotCatalog::generation).
    pub publishes: u64,
    /// Statistics epoch of the currently published snapshot.
    pub epoch: u64,
}

/// The shared, long-lived query service; see the crate docs for the three
/// layers.  `Arc` one instance across serving threads; every method takes
/// `&self`.
#[derive(Debug)]
pub struct QueryService {
    cell: Arc<SnapshotCatalog>,
    optimizer: Optimizer,
    plan_cache: PlanCache,
    requests: AtomicU64,
    violations: AtomicU64,
}

impl QueryService {
    /// A service over `catalog`: the default planner ([`Optimizer::new`])
    /// and a plan cache of 1 024 plans ([`PlanCache::default`]).
    ///
    /// Concurrency lives *across* requests (worker threads), not within
    /// one: a miss plans on the thread that took it, so the plan's
    /// [`SolverStats::on_thread`] delta accounts it exactly, and every
    /// request executes on the thread that submitted it.
    pub fn new(catalog: Catalog) -> Self {
        QueryService {
            cell: Arc::new(SnapshotCatalog::new(catalog)),
            optimizer: Optimizer::new(),
            plan_cache: PlanCache::default(),
            requests: AtomicU64::new(0),
            violations: AtomicU64::new(0),
        }
    }

    /// The snapshot cell (for building per-thread [`SnapshotReader`]s or
    /// driving writes directly).
    pub fn snapshot_cell(&self) -> &Arc<SnapshotCatalog> {
        &self.cell
    }

    /// The currently published snapshot.
    pub fn snapshot(&self) -> Arc<Catalog> {
        self.cell.load()
    }

    /// The shared optimizer (its estimator counts the LPs the service's
    /// cache misses have asked for).
    pub fn optimizer(&self) -> &Optimizer {
        &self.optimizer
    }

    /// Plan `query` against the current snapshot (cache, or planning),
    /// without executing it.
    pub fn plan(&self, query: &JoinQuery) -> Result<QueryResponse, ServeError> {
        let snapshot = self.cell.load();
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.plan_on(query, &snapshot)
    }

    /// Plan **and execute** `query` on one snapshot of the current catalog
    /// (a [`Worker`] does the same with a lock-free snapshot grab).
    pub fn execute(&self, query: &JoinQuery) -> Result<QueryResponse, ServeError> {
        let snapshot = self.cell.load();
        self.execute_on(query, &snapshot)
    }

    /// Replace one relation: publishes an epoch-bumped successor snapshot.
    /// In-flight requests finish on their admission snapshots; the epoch
    /// bump invalidates every cached plan built on the old statistics.
    /// Returns the new epoch.
    pub fn replace_relation(&self, relation: impl Into<Arc<Relation>>) -> u64 {
        self.cell.replace_relation(relation)
    }

    /// Current service counters.
    pub fn stats(&self) -> ServeStats {
        let flights = self.plan_cache.flight_stats();
        ServeStats {
            requests: self.requests.load(Ordering::Relaxed),
            cache_hits: self.plan_cache.hits(),
            cache_misses: self.plan_cache.misses(),
            cached_plans: self.plan_cache.len() as u64,
            batches: flights.flights,
            coalesced_requests: flights.requests,
            multi_request_batches: flights.shared,
            max_batch: flights.largest,
            certificate_violations: self.violations.load(Ordering::Relaxed),
            publishes: self.cell.generation(),
            epoch: self.cell.epoch(),
        }
    }

    /// Execute on an explicit admission snapshot (the [`Worker`] fast
    /// path).  The service answers with the output's size, so the plan is
    /// run to that size and the output itself is never materialized.
    fn execute_on(
        &self,
        query: &JoinQuery,
        snapshot: &Arc<Catalog>,
    ) -> Result<QueryResponse, ServeError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let mut response = self.plan_on(query, snapshot)?;
        let planned = Instant::now();
        let run = count_physical(query, snapshot, &response.plan.physical)?;
        response.output_size = run.output_size;
        response.certificate_violations = run.certificate_violations();
        response.exec_time = planned.elapsed();
        self.violations
            .fetch_add(response.certificate_violations as u64, Ordering::Relaxed);
        Ok(response)
    }

    /// The plan half of a request: cache probe, then on a miss the
    /// key's planning flight — planned here, or joined and waited for.
    fn plan_on(
        &self,
        query: &JoinQuery,
        snapshot: &Arc<Catalog>,
    ) -> Result<QueryResponse, ServeError> {
        let admitted = Instant::now();
        let (plan, flight) = self
            .plan_cache
            .get_or_plan(query, snapshot, || self.optimizer.plan(query, snapshot))?;
        Ok(QueryResponse {
            output_size: 0,
            certificate_violations: 0,
            epoch: snapshot.epoch(),
            cache_hit: flight == 0,
            coalesced_batch: flight,
            plan_stats: if flight == 0 {
                SolverStats::default()
            } else {
                plan.lp_stats
            },
            plan_time: admitted.elapsed(),
            exec_time: Duration::ZERO,
            plan,
        })
    }
}

/// One serving thread's handle: an `Arc`'d service plus a
/// [`SnapshotReader`] the thread keeps to itself across requests, so
/// steady-state snapshot acquisition is lock-free.  Deliberately not
/// `Sync` — build one per thread.
#[derive(Debug)]
pub struct Worker {
    service: Arc<QueryService>,
    reader: SnapshotReader,
}

impl Worker {
    /// A worker over `service`.
    pub fn new(service: Arc<QueryService>) -> Self {
        let reader = SnapshotReader::new(Arc::clone(service.snapshot_cell()));
        Worker { service, reader }
    }

    /// The shared service.
    pub fn service(&self) -> &Arc<QueryService> {
        &self.service
    }

    /// Plan and execute `query` on this worker's current snapshot (grabbed
    /// lock-free when no publish happened since the last request).
    pub fn execute(&self, query: &JoinQuery) -> Result<QueryResponse, ServeError> {
        let snapshot = self.reader.snapshot();
        self.service.execute_on(query, &snapshot)
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
            (0..80u64).map(|i| (i % 12, (i * 5 + 2) % 12)),
        ));
        c
    }

    #[test]
    fn hit_path_skips_lp_work_entirely() {
        let service = QueryService::new(catalog());
        let q = JoinQuery::triangle("E", "E", "E");
        let cold = service.execute(&q).unwrap();
        assert!(!cold.cache_hit);
        assert_eq!(cold.coalesced_batch, 1);
        assert!(cold.plan_stats.total_pivots() > 0);
        assert_eq!(cold.certificate_violations, 0);

        let hot = service.execute(&q).unwrap();
        assert!(hot.cache_hit);
        assert_eq!(hot.coalesced_batch, 0);
        assert_eq!(hot.plan_stats, SolverStats::default());
        assert!(Arc::ptr_eq(&cold.plan, &hot.plan));
        assert_eq!(hot.output_size, cold.output_size);

        let stats = service.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.certificate_violations, 0);
        // One lone miss: one plan computed, a flight of one.
        let flights = (stats.batches, stats.coalesced_requests, stats.max_batch);
        assert_eq!(flights, (1, 1, 1));
        assert_eq!(stats.multi_request_batches, 0);
    }

    /// Two concurrent misses of distinct shapes are two flights, each
    /// planned on its own thread, and each gets exactly what a fresh
    /// optimizer plans for that request alone.
    #[test]
    fn two_concurrent_distinct_shape_misses_each_equal_a_fresh_plan() {
        let service = QueryService::new(catalog());
        let shapes = [
            JoinQuery::triangle("E", "E", "E"),
            JoinQuery::path(&["E", "E", "E"]),
        ];
        let served: Vec<QueryResponse> = std::thread::scope(|scope| {
            let threads: Vec<_> = shapes
                .iter()
                .map(|q| scope.spawn(|| service.plan(q).unwrap()))
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        let snapshot = service.snapshot();
        for (query, served) in shapes.iter().zip(served) {
            assert_eq!(
                served.coalesced_batch,
                1,
                "{}: a flight of its own",
                query.name()
            );
            assert!(!served.cache_hit);
            let alone = Optimizer::new().plan(query, &snapshot).unwrap();
            assert_eq!(served.plan.physical, alone.physical, "{}", query.name());
            assert_eq!(
                served.plan.predicted_log2_cost.to_bits(),
                alone.predicted_log2_cost.to_bits(),
                "{}",
                query.name()
            );
            assert_eq!(
                served.plan.subqueries_bounded,
                alone.subqueries_bounded,
                "{}",
                query.name()
            );
            assert_eq!(served.plan_stats, alone.lp_stats, "{}", query.name());
        }
        let stats = service.stats();
        assert_eq!((stats.batches, stats.max_batch), (2, 1));
    }

    /// S3 end-to-end at the service layer: hit → publish a replace (epoch
    /// bump) → the same shape must re-plan, and the new answer reflects the
    /// new data.
    #[test]
    fn relation_replace_invalidates_served_plans() {
        let service = QueryService::new(catalog());
        let q = JoinQuery::path(&["E", "E"]);
        let before = service.execute(&q).unwrap();
        assert!(service.execute(&q).unwrap().cache_hit);

        let epoch = service.replace_relation(RelationBuilder::binary_from_pairs(
            "E",
            "a",
            "b",
            (0..3u64).map(|i| (i, i + 1)),
        ));
        assert_eq!(epoch, before.epoch + 1);
        let after = service.execute(&q).unwrap();
        assert!(!after.cache_hit, "stale plan served after a replace");
        assert_eq!(after.epoch, epoch);
        // 0→1→2, 1→2→3: two 2-paths on the replacement data.
        assert_eq!(after.output_size, 2);
        assert_ne!(after.output_size, before.output_size);
        // Old and new generations both cached now.
        assert!(service.execute(&q).unwrap().cache_hit);
    }

    /// Every other pair of 40 nodes is an edge, loops included: 800 rows,
    /// 20 per node, in two cliques of 20 — 16 000 triangles, 320 000
    /// 3-paths.
    fn dense_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.insert(RelationBuilder::binary_from_pairs(
            "E",
            "a",
            "b",
            (0..40u64).flat_map(|a| {
                (0..40)
                    .filter(move |b| (a + b) % 2 == 0)
                    .map(move |b| (a, b))
            }),
        ));
        c
    }

    /// A triangle with a two-edge tail.  The planner joins the triangle by
    /// WCOJ and the tail by a hash chain whose first step — 320 000 rows —
    /// is materialized below the counted output.
    fn tadpole() -> JoinQuery {
        let atom = |a: &str, b: &str| lpb_core::Atom::new("E", &[a, b]);
        let atoms = vec![
            atom("A", "B"),
            atom("B", "C"),
            atom("C", "A"),
            atom("C", "D"),
            atom("D", "F"),
        ];
        JoinQuery::new("tadpole", atoms).unwrap()
    }

    /// A worker rotating over shapes that materialize large intermediates
    /// below their counted outputs answers every rotation from the cache
    /// with the sizes the set-up requests counted, zero violations and a
    /// measured execution time; a plan-only request executes nothing.
    #[test]
    fn workers_rotate_over_cached_shapes_with_exact_counts() {
        let service = Arc::new(QueryService::new(dense_catalog()));
        let shapes = [
            tadpole(),
            JoinQuery::path(&["E", "E", "E"]),
            JoinQuery::triangle("E", "E", "E"),
        ];
        // Warm-up without a worker, as a set-up thread would do it.
        let sizes: Vec<usize> = shapes
            .iter()
            .map(|q| service.execute(q).unwrap().output_size)
            .collect();
        assert_eq!(sizes, [6_400_000, 320_000, 16_000]);

        let worker = Worker::new(Arc::clone(&service));
        for _ in 0..2 {
            for (q, &size) in shapes.iter().zip(&sizes) {
                let r = worker.execute(q).unwrap();
                assert!(r.cache_hit);
                assert_eq!(r.output_size, size);
                assert_eq!(r.certificate_violations, 0);
                assert!(r.exec_time > Duration::ZERO);
            }
        }
        assert_eq!(service.stats().certificate_violations, 0);

        // Plan-only requests execute nothing.
        assert_eq!(service.plan(&shapes[0]).unwrap().exec_time, Duration::ZERO);
    }

    /// The served path counts every JOB-like shape's Yannakakis chain
    /// instead of materializing it: a worker answers what a materializing
    /// run counts, and its counters equal that run's step for step — every
    /// size and certificate — with zero violations.  That no chain step is
    /// allocated is `lpb-exec`'s `counted_runs` test.
    #[test]
    fn workers_count_job_like_outputs_without_materializing_them() {
        let catalog = lpb_datagen::job_like_catalog(&lpb_datagen::JobLikeConfig {
            movies: 1000,
            link_fanout: 2,
            seed: 23,
            ..lpb_datagen::JobLikeConfig::default()
        });
        let service = Arc::new(QueryService::new(catalog));
        let snapshot = service.snapshot();
        let worker = Worker::new(Arc::clone(&service));
        for q in lpb_datagen::job_like_queries().into_iter().take(6) {
            let q = q.query;
            let served = [worker.execute(&q).unwrap(), worker.execute(&q).unwrap()];
            let run = lpb_exec::execute_physical_mode(
                &q,
                &snapshot,
                &served[0].plan.physical,
                lpb_exec::ExecMode::Vectorized,
            )
            .unwrap();
            for r in &served {
                assert_eq!(r.output_size, run.output_size(), "{}", q.name());
                assert_eq!(r.certificate_violations, 0, "{}", q.name());
            }
            let counted =
                lpb_exec::count_physical(&q, &snapshot, &served[0].plan.physical).unwrap();
            assert_eq!(counted.counters, run.counters, "{}", q.name());
            assert!(run.counters.certificates_checked() > 0, "{}", q.name());
        }
    }

    /// Writers never disturb in-flight readers: a worker that grabbed a
    /// snapshot keeps executing on it (same answers, zero violations)
    /// across publishes, and sees the new data on its next admission.
    #[test]
    fn workers_finish_on_their_admission_snapshot() {
        let service = Arc::new(QueryService::new(catalog()));
        let worker = Worker::new(Arc::clone(&service));
        let q = JoinQuery::path(&["E", "E"]);
        let first = worker.execute(&q).unwrap();

        // Publish mid-"session"; the worker's next request admits the new
        // snapshot (generation check) and answers from the new data.
        service.replace_relation(RelationBuilder::binary_from_pairs(
            "E",
            "a",
            "b",
            (0..3u64).map(|i| (i, i + 1)),
        ));
        let second = worker.execute(&q).unwrap();
        assert_eq!(second.epoch, first.epoch + 1);
        assert_eq!(second.output_size, 2);
        assert_eq!(first.certificate_violations, 0);
        assert_eq!(second.certificate_violations, 0);
        assert_eq!(service.stats().publishes, 1);
    }
}
