//! # lpb-serve — a long-lived, concurrent query service
//!
//! Everything below this crate is a one-shot library call: every request
//! pays full planning (an LP per connected sub-join plus the bottleneck
//! DP) even when an identical query shape was planned
//! microseconds ago.  This crate adds the resident process the "millions
//! of users" north star needs — a thread-per-worker service in front of the
//! planner/executor stack that turns *per-query* amortization into
//! *per-fleet* amortization.  Four layers:
//!
//! 1. **Plan cache** ([`lpb_exec::PlanCache`], owned by [`QueryService`]) —
//!    [`lpb_exec::OptimizedPlan`]s keyed by canonicalized query shape +
//!    catalog statistics epoch.  The hit path skips LP and DP entirely:
//!    one canonicalization, one map probe, one `Arc` clone.
//!
//!    *Cache keying discipline*: the shape canon renames variables by
//!    first appearance and drops query names, so isomorphic queries from
//!    different users share one entry; the epoch half of the key means any
//!    statistics change — a relation replaced, observed intermediates
//!    absorbed by the adaptive executor — invalidates every stale entry by
//!    construction (stale keys simply never match again).  One cache
//!    serves one catalog lineage; see `lpb_exec::plan_cache` for the full
//!    argument.
//!
//! 2. **Snapshot catalog** ([`lpb_data::SnapshotCatalog`]) — readers grab
//!    an `Arc<Catalog>` from an epoch-swapped cell and run their whole
//!    request against it; writers build a successor catalog off to the
//!    side and publish it with a single pointer store (the Noria
//!    left-right/epoch-swap idiom).
//!
//!    *Snapshot lifetime rules*: a request plans **and executes** on the
//!    one snapshot it grabbed at admission, so its bound certificates are
//!    judged against exactly the statistics that produced them — a
//!    concurrent publish can never induce a certificate violation.  Old
//!    snapshots stay alive until their last in-flight request drops the
//!    `Arc`; readers never block on writers (proven by rendezvous tests,
//!    not wall-clock).
//!
//! 3. **Cross-query coalescing** ([`Coalescer`]) — concurrent
//!    cache-missing plan requests that arrive within a short gather window
//!    form one *round*, and one thread plans the round's requests one after
//!    the other ([`lpb_exec::Optimizer::plan`] each) while the others wait
//!    for their share of the result instead of competing for cores.
//!
//!    *Coalescing window semantics*: the first cache-missing request opens
//!    a round and becomes its **leader**; requests arriving during the
//!    window join as **followers**.  When the window closes the round is
//!    sealed (later arrivals open a new round), the leader plans its
//!    requests in arrival order on its own thread — the optimizer solves
//!    every LP on the calling thread, so
//!    [`lpb_lp::SolverStats::thread_snapshot`] deltas give exact
//!    pivots-per-round — and followers are woken with their shared `Arc`'d
//!    plans.  A leader that panics while planning wakes its followers with
//!    a [`ServeError`]; the next request opens a fresh round.  A window of
//!    zero disables gathering without changing semantics.
//!
//!    A request, once planned, executes on the thread that submitted it:
//!    one request, one thread, stages in order.
//!
//! 4. **Per-worker column buffers** ([`lpb_exec::ColumnBuffers`], owned by
//!    each [`Worker`]) — a served join materializes its intermediates and
//!    its output into columns of up to a few MB each, and the service
//!    answers with the output's *size*.  Left to the allocator, every one
//!    of those columns is mapped, page-faulted and unmapped per request,
//!    which on an all-cache-hit workload was ~60 % of the executor's
//!    wall-clock.  A worker instead keeps a free list across requests:
//!    every large column of a request is taken from it and drops back into
//!    it, so steady-state execution maps no new memory.
//!
//!    *Retention rules*: only columns large enough for the allocator to go
//!    to the kernel are recycled (small ones use `malloc` as before); a
//!    list holds at most a fixed number of bytes (24 MiB, see
//!    `lpb_exec`'s `buffers` module) and never more than the largest set
//!    of buffers one request held at once; it belongs to the worker, never
//!    to the service or the thread, so [`QueryService::execute`] without a
//!    worker retains nothing and dropping the worker releases everything.
//!    [`ServeStats::buffers_reused`] / [`ServeStats::buffers_fresh`] /
//!    [`ServeStats::bytes_retained`] (summed over workers) and
//!    [`QueryResponse::exec_time`] make the mechanism readable from the
//!    service: in steady state `buffers_fresh` stops moving.
//!
//! Entry points: [`QueryService`] (shared, `Arc` it across threads) and
//! [`Worker`] (one per serving thread; adds the lock-free
//! [`lpb_data::SnapshotReader`] fast path for snapshot acquisition and the
//! column-buffer free list).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coalesce;
mod service;

pub use coalesce::{CoalescedPlan, Coalescer};
pub use service::{QueryResponse, QueryService, ServeConfig, ServeStats, Worker};

/// A serve-layer failure, cloneable so one failed coalescing round can be
/// reported to every request that joined it.  Wraps the underlying
/// planner/executor/data error message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    message: String,
}

impl ServeError {
    /// An error carrying `message`.
    pub fn new(message: impl Into<String>) -> Self {
        ServeError {
            message: message.into(),
        }
    }

    /// The failure description.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serve error: {}", self.message)
    }
}

impl std::error::Error for ServeError {}

impl From<lpb_exec::ExecError> for ServeError {
    fn from(e: lpb_exec::ExecError) -> Self {
        ServeError::new(e.to_string())
    }
}

impl From<lpb_data::DataError> for ServeError {
    fn from(e: lpb_data::DataError) -> Self {
        ServeError::new(e.to_string())
    }
}
