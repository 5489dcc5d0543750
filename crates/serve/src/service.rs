//! The query service: snapshot admission, plan-cache probe, coalesced
//! planning, certified execution.
//!
//! A request's life: grab **one** catalog snapshot (lock-free via a
//! worker's [`SnapshotReader`], or a pointer-store-guarded load otherwise)
//! → probe the plan cache under `(shape canon, snapshot epoch)` → on a hit,
//! execute immediately (zero LP work) → on a miss, enter the
//! [`Coalescer`]'s gather window and receive the plan from the round's
//! leader → execute the certified plan **on the admission snapshot**, on the
//! request's own thread, with the large columns of every intermediate
//! drawn from (and afterwards returned to) the serving [`Worker`]'s
//! [`ColumnBuffers`] free list.  Writers never disturb any of this: they build
//! successor catalogs aside and publish through the
//! [`SnapshotCatalog`] cell, which bumps the statistics epoch and thereby
//! invalidates every stale plan-cache entry.

use crate::coalesce::Coalescer;
use crate::ServeError;
use lpb_core::JoinQuery;
use lpb_data::{Catalog, Relation, SnapshotCatalog, SnapshotReader};
use lpb_exec::{
    execute_physical_with_buffers, BufferCounters, ColumnBuffers, OptimizedPlan, Optimizer,
    PlanCache, PlannerConfig,
};
use lpb_lp::SolverStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Service knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Planner configuration for the shared [`Optimizer`].
    pub planner: PlannerConfig,
    /// The coalescer's gather window: how long a round's leader waits for
    /// followers before planning the round.  Zero disables coalescing.
    pub gather_window: Duration,
    /// Plan-cache capacity (plans, across epochs; oldest-insert eviction).
    pub plan_cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            planner: PlannerConfig::default(),
            gather_window: Duration::from_micros(500),
            plan_cache_capacity: 1024,
        }
    }
}

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
    /// Size of the coalescing round this request's plan was solved in
    /// (≥ 1); zero on the cache-hit path, which joins no round.
    pub coalesced_batch: usize,
    /// Solver work of the whole round that produced this plan, measured on
    /// the leader's thread ([`SolverStats::on_thread`]); all-zero on the
    /// cache-hit path — the bench's "hit path does no LP work" assertion.
    pub plan_stats: SolverStats,
    /// Wall-clock time from admission to plan-in-hand (cache probe, or
    /// probe + round wait + the leader planning the round).
    pub plan_time: Duration,
    /// Wall-clock time from plan-in-hand to the output counted and its
    /// columns released; zero for a plan-only request.
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
    /// Plan-cache probes that missed (stale-epoch probes included).
    pub cache_misses: u64,
    /// Plans currently cached.
    pub cached_plans: u64,
    /// Coalescing rounds planned.
    pub batches: u64,
    /// Requests that went through a coalescing round.
    pub coalesced_requests: u64,
    /// Rounds that gathered ≥ 2 requests.
    pub multi_request_batches: u64,
    /// Largest batch any round gathered.
    pub max_batch: u64,
    /// Certificate violations summed over all executed requests.
    pub certificate_violations: u64,
    /// Catalog versions published (writer side).
    pub publishes: u64,
    /// Statistics epoch of the currently published snapshot.
    pub epoch: u64,
    /// Large column buffers the workers' free lists served (summed over
    /// workers, like the next two).
    pub buffers_reused: u64,
    /// Large column buffers no free list could serve, so the allocator —
    /// and behind it the kernel — did.  Flat in steady state.
    pub buffers_fresh: u64,
    /// Bytes sitting in live workers' free lists right now (bounded per
    /// worker; a dropped worker's share is gone).
    pub bytes_retained: u64,
}

/// The shared, long-lived query service; see the crate docs for the three
/// layers.  `Arc` one instance across serving threads; every method takes
/// `&self`.
#[derive(Debug)]
pub struct QueryService {
    cell: Arc<SnapshotCatalog>,
    optimizer: Optimizer,
    plan_cache: PlanCache,
    coalescer: Coalescer,
    requests: AtomicU64,
    violations: AtomicU64,
    /// What every [`Worker`]'s free list reports into.
    buffer_counters: Arc<BufferCounters>,
}

impl QueryService {
    /// A service over `catalog` with the default [`ServeConfig`].
    pub fn new(catalog: Catalog) -> Self {
        Self::with_config(ServeConfig::default(), catalog)
    }

    /// A service over `catalog` with explicit knobs.
    ///
    /// Concurrency lives *across* requests (worker threads), not within
    /// one: a round's leader plans its requests one after the other on its
    /// own thread, so [`SolverStats::thread_snapshot`] deltas account the
    /// round exactly, and every request executes on the thread that
    /// submitted it.
    pub fn with_config(config: ServeConfig, catalog: Catalog) -> Self {
        let optimizer = Optimizer::new().with_config(config.planner);
        QueryService {
            cell: Arc::new(SnapshotCatalog::new(catalog)),
            optimizer,
            plan_cache: PlanCache::with_capacity(config.plan_cache_capacity),
            coalescer: Coalescer::new(config.gather_window),
            requests: AtomicU64::new(0),
            violations: AtomicU64::new(0),
            buffer_counters: Arc::default(),
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

    /// Plan `query` against the current snapshot (cache → coalescer),
    /// without executing it.
    pub fn plan(&self, query: &JoinQuery) -> Result<QueryResponse, ServeError> {
        let snapshot = self.cell.load();
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.plan_on(query, &snapshot)
    }

    /// Plan **and execute** `query` on one snapshot of the current catalog.
    /// Without a [`Worker`] there is no free list: every column comes from
    /// the allocator and nothing is retained after the call.
    pub fn execute(&self, query: &JoinQuery) -> Result<QueryResponse, ServeError> {
        let snapshot = self.cell.load();
        self.execute_on(query, &snapshot, &ColumnBuffers::default())
    }

    /// Replace one relation: publishes an epoch-bumped successor snapshot.
    /// In-flight requests finish on their admission snapshots; the epoch
    /// bump invalidates every cached plan built on the old statistics.
    /// Returns the new epoch.
    pub fn replace_relation(&self, relation: impl Into<Arc<Relation>>) -> u64 {
        self.cell.replace_relation(relation)
    }

    /// Absorb an observed relation (exact statistics, epoch bump) into a
    /// new published snapshot — the adaptive-execution feedback path.
    /// Returns the new epoch.
    pub fn absorb_observed(&self, relation: impl Into<Arc<Relation>>) -> Result<u64, ServeError> {
        self.cell
            .absorb_observed(relation, self.optimizer.config().max_norm)
            .map_err(Into::into)
    }

    /// Current service counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            requests: self.requests.load(Ordering::Relaxed),
            cache_hits: self.plan_cache.hits(),
            cache_misses: self.plan_cache.misses(),
            cached_plans: self.plan_cache.len() as u64,
            batches: self.coalescer.batches(),
            coalesced_requests: self.coalescer.coalesced_requests(),
            multi_request_batches: self.coalescer.multi_request_batches(),
            max_batch: self.coalescer.max_batch(),
            certificate_violations: self.violations.load(Ordering::Relaxed),
            publishes: self.cell.publishes(),
            epoch: self.cell.epoch(),
            buffers_reused: self.buffer_counters.reused(),
            buffers_fresh: self.buffer_counters.fresh(),
            bytes_retained: self.buffer_counters.bytes_retained(),
        }
    }

    /// Execute on an explicit admission snapshot (the [`Worker`] fast
    /// path), columns from `buffers`.  The service answers with the output's
    /// size, so the run — and with it every column still out — is dropped
    /// back into `buffers` before the response leaves.
    fn execute_on(
        &self,
        query: &JoinQuery,
        snapshot: &Arc<Catalog>,
        buffers: &ColumnBuffers,
    ) -> Result<QueryResponse, ServeError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let mut response = self.plan_on(query, snapshot)?;
        let planned = Instant::now();
        let run = execute_physical_with_buffers(query, snapshot, &response.plan.physical, buffers)?;
        response.output_size = run.output_size();
        response.certificate_violations = run.certificate_violations();
        drop(run);
        response.exec_time = planned.elapsed();
        self.violations
            .fetch_add(response.certificate_violations as u64, Ordering::Relaxed);
        Ok(response)
    }

    /// The plan half of a request: cache probe, then a coalescing round on a
    /// miss, whose leader plans the round's requests in arrival order.
    /// Duplicate shapes inside one round are each planned — to the same
    /// plan, planning being a function of its input — and converge on one
    /// cached handle at insert.
    fn plan_on(
        &self,
        query: &JoinQuery,
        snapshot: &Arc<Catalog>,
    ) -> Result<QueryResponse, ServeError> {
        let admitted = Instant::now();
        if let Some(plan) = self.plan_cache.get(query, snapshot) {
            return Ok(QueryResponse {
                output_size: 0,
                certificate_violations: 0,
                epoch: snapshot.epoch(),
                cache_hit: true,
                coalesced_batch: 0,
                plan_stats: SolverStats::default(),
                plan_time: admitted.elapsed(),
                exec_time: Duration::ZERO,
                plan,
            });
        }
        let coalesced = self
            .coalescer
            .submit(query.clone(), Arc::clone(snapshot), |round| {
                round
                    .iter()
                    .map(|(q, c)| {
                        let plan = self.optimizer.plan(q, c)?;
                        Ok(self.plan_cache.insert(q, c, plan))
                    })
                    .collect()
            })?;
        Ok(QueryResponse {
            output_size: 0,
            certificate_violations: 0,
            epoch: snapshot.epoch(),
            cache_hit: false,
            coalesced_batch: coalesced.batch_size,
            plan_stats: coalesced.batch_stats,
            plan_time: admitted.elapsed(),
            exec_time: Duration::ZERO,
            plan: coalesced.plan,
        })
    }
}

/// One serving thread's handle: an `Arc`'d service plus what the thread
/// keeps to itself across requests — a [`SnapshotReader`], so steady-state
/// snapshot acquisition is lock-free, and a [`ColumnBuffers`] free list, so
/// steady-state execution maps no new memory (bounded; released when the
/// worker is dropped).  Deliberately not `Sync` — build one per thread.
#[derive(Debug)]
pub struct Worker {
    service: Arc<QueryService>,
    reader: SnapshotReader,
    buffers: ColumnBuffers,
}

impl Worker {
    /// A worker over `service`.
    pub fn new(service: Arc<QueryService>) -> Self {
        let reader = SnapshotReader::new(Arc::clone(service.snapshot_cell()));
        let buffers = ColumnBuffers::recycling(Arc::clone(&service.buffer_counters));
        Worker {
            service,
            reader,
            buffers,
        }
    }

    /// The shared service.
    pub fn service(&self) -> &Arc<QueryService> {
        &self.service
    }

    /// Plan and execute `query` on this worker's current snapshot (grabbed
    /// lock-free when no publish happened since the last request).
    pub fn execute(&self, query: &JoinQuery) -> Result<QueryResponse, ServeError> {
        let snapshot = self.reader.snapshot();
        self.service.execute_on(query, &snapshot, &self.buffers)
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
        let service = QueryService::with_config(
            ServeConfig {
                gather_window: Duration::ZERO,
                ..ServeConfig::default()
            },
            catalog(),
        );
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
    }

    /// Two requests of distinct shapes planned in one coalescing round get,
    /// each, exactly what a fresh optimizer plans for that request alone:
    /// the leader maps `Optimizer::plan` over its round, nothing more.
    #[test]
    fn a_two_request_round_returns_what_planning_each_request_alone_returns() {
        let service = QueryService::with_config(
            ServeConfig {
                gather_window: Duration::from_millis(300),
                ..ServeConfig::default()
            },
            catalog(),
        );
        let shapes = [
            JoinQuery::triangle("E", "E", "E"),
            JoinQuery::path(&["E", "E", "E"]),
        ];
        let [first, second] = &shapes;
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| service.plan(first).unwrap());
            // Submit the second once the first has missed the cache and is
            // on its way into (or already waiting out) the gather window.
            while service.stats().cache_misses == 0 {
                std::thread::yield_now();
            }
            let b = service.plan(second).unwrap();
            (a.join().unwrap(), b)
        });
        let snapshot = service.snapshot();
        for (query, served) in shapes.iter().zip([a, b]) {
            assert_eq!(served.coalesced_batch, 2, "{}: one round", query.name());
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
        }
        let stats = service.stats();
        assert_eq!((stats.batches, stats.max_batch), (1, 2));
    }

    /// S3 end-to-end at the service layer: hit → publish a replace (epoch
    /// bump) → the same shape must re-plan, and the new answer reflects the
    /// new data.
    #[test]
    fn relation_replace_invalidates_served_plans() {
        let service = QueryService::with_config(
            ServeConfig {
                gather_window: Duration::ZERO,
                ..ServeConfig::default()
            },
            catalog(),
        );
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

    /// S3, feedback path: an `absorb_observed` publish must invalidate
    /// exactly like a replace.
    #[test]
    fn absorb_observed_invalidates_served_plans() {
        let service = QueryService::with_config(
            ServeConfig {
                gather_window: Duration::ZERO,
                ..ServeConfig::default()
            },
            catalog(),
        );
        let q = JoinQuery::triangle("E", "E", "E");
        let before = service.execute(&q).unwrap();
        assert!(service.execute(&q).unwrap().cache_hit);
        let epoch = service
            .absorb_observed(RelationBuilder::binary_from_pairs(
                "Obs",
                "x",
                "y",
                (0..5u64).map(|i| (i, i)),
            ))
            .unwrap();
        assert_eq!(epoch, before.epoch + 1);
        let after = service.execute(&q).unwrap();
        assert!(!after.cache_hit, "stale plan served after absorb_observed");
        // Same base data, so the answer is unchanged — only the plan was
        // re-proved against the new statistics epoch.
        assert_eq!(after.output_size, before.output_size);
    }

    /// Every other pair of 40 nodes is an edge: 800 rows, 20 per node, so a
    /// 2-path has 16 000 rows and a 3-path 320 000 — columns well above the
    /// size from which a worker recycles them.
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

    /// The buffer layer, read from the service alone: a worker's second
    /// rotation over its shapes allocates no large buffer, what it keeps is
    /// bounded, requests without a worker keep nothing, and dropping the
    /// worker releases everything.
    #[test]
    fn workers_recycle_column_buffers_and_release_them_on_drop() {
        let service = Arc::new(QueryService::with_config(
            ServeConfig {
                gather_window: Duration::ZERO,
                ..ServeConfig::default()
            },
            dense_catalog(),
        ));
        let shapes = [
            JoinQuery::path(&["E", "E", "E"]),
            JoinQuery::path(&["E", "E"]),
            JoinQuery::triangle("E", "E", "E"),
        ];
        // Warm-up without a worker, as a set-up thread would do it.
        let sizes: Vec<usize> = shapes
            .iter()
            .map(|q| service.execute(q).unwrap().output_size)
            .collect();
        assert_eq!(sizes[..2], [320_000, 16_000]);
        let idle = service.stats();
        assert_eq!(
            (idle.buffers_reused, idle.buffers_fresh, idle.bytes_retained),
            (0, 0, 0),
            "no worker, no free list"
        );

        let worker = Worker::new(Arc::clone(&service));
        let rotate = || {
            for (q, &size) in shapes.iter().zip(&sizes) {
                let r = worker.execute(q).unwrap();
                assert!(r.cache_hit);
                assert_eq!(r.output_size, size);
                assert_eq!(r.certificate_violations, 0);
                assert!(r.exec_time > Duration::ZERO);
            }
            service.stats()
        };
        let first = rotate();
        assert!(first.buffers_fresh > 0);
        let second = rotate();
        assert_eq!(second.buffers_fresh, first.buffers_fresh, "steady state");
        assert!(second.buffers_reused > first.buffers_reused);
        // The private per-worker bound is 24 MiB.
        assert!(second.bytes_retained > 0 && second.bytes_retained <= 24 << 20);

        // Plan-only requests execute nothing.
        assert_eq!(service.plan(&shapes[0]).unwrap().exec_time, Duration::ZERO);
        drop(worker);
        assert_eq!(service.stats().bytes_retained, 0);
    }

    /// Writers never disturb in-flight readers: a worker that grabbed a
    /// snapshot keeps executing on it (same answers, zero violations)
    /// across publishes, and sees the new data on its next admission.
    #[test]
    fn workers_finish_on_their_admission_snapshot() {
        let service = Arc::new(QueryService::with_config(
            ServeConfig {
                gather_window: Duration::ZERO,
                ..ServeConfig::default()
            },
            catalog(),
        ));
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
