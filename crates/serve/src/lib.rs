//! # lpb-serve — a long-lived, concurrent query service
//!
//! Everything below this crate is a one-shot library call: every request
//! pays full planning (an LP per connected sub-join plus the bottleneck
//! DP) even when an identical query shape was planned
//! microseconds ago.  This crate adds the resident process the "millions
//! of users" north star needs — a thread-per-worker service in front of the
//! planner/executor stack that turns *per-query* amortization into
//! *per-fleet* amortization.  Three layers:
//!
//! 1. **Plan cache** ([`lpb_exec::PlanCache`], owned by [`QueryService`]) —
//!    up to 1 024 [`lpb_exec::OptimizedPlan`]s keyed by canonicalized query
//!    shape + catalog statistics epoch.  The hit path skips LP and DP
//!    entirely: one canonicalization, one map probe, one `Arc` clone.
//!
//!    *Cache keying discipline*: the shape canon renames variables by
//!    first appearance and drops query names, so isomorphic queries from
//!    different users share one entry; the epoch half of the key means any
//!    statistics change — a relation replaced — invalidates every stale
//!    entry by construction (stale keys simply never match again).  One cache
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
//! 3. **Single-flight planning** (inside
//!    [`lpb_exec::PlanCache::get_or_plan`]) — a cache miss plans on the
//!    thread that took it ([`lpb_exec::Optimizer::plan`], every LP solved
//!    cold on that thread, so the plan's own
//!    [`lpb_exec::OptimizedPlan::lp_stats`] delta is exact).  A plan is a
//!    function of its key, so only misses of the *same* `(shape, epoch)` key
//!    have work to share: a concurrent miss of a key already being planned
//!    joins that key's **flight** and waits for its plan, while misses of
//!    other keys plan side by side and never wait on each other.
//!
//!    *Flight semantics*: a flight lands once, with its plan (cached, and
//!    handed to every request of the flight) or with its planner's error
//!    (handed to every request of the flight, never cached, so the next
//!    miss plans again).  A planner that panics lands its flight with a
//!    typed error from a drop guard, so its waiters fail at once.
//!    [`QueryResponse::coalesced_batch`] is the flight's size, final when it
//!    lands; a request arriving after that is a hit.
//!
//!    A request, once planned, executes on the thread that submitted it:
//!    one request, one thread, the plan walked depth-first.  The service answers with
//!    the output's *size*, so the plan's root is counted
//!    ([`lpb_exec::count_physical`]) and the output is never
//!    materialized; a Yannakakis root counts its whole chain and
//!    materializes none of its steps either.  Every certificate is checked
//!    as in a materializing run.
//!
//! Entry points: [`QueryService`] (shared, `Arc` it across threads) and
//! [`Worker`] (one per serving thread; adds the lock-free
//! [`lpb_data::SnapshotReader`] fast path for snapshot acquisition).  The
//! service has no settings: [`QueryService::new`] takes the catalog and
//! plans with the default planner ([`lpb_exec::Optimizer::new`]), the same
//! one a library caller gets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod service;

pub use service::{QueryResponse, QueryService, ServeStats, Worker};

/// A serve-layer failure.  Wraps the underlying planner/executor/data error
/// message.
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
