//! # lpb-exec — the join evaluation engine
//!
//! The reproduction of *Join Size Bounds using ℓp-Norms on Degree Sequences*
//! (PODS 2024) needs to evaluate queries for two reasons: every experiment
//! compares a bound against the **true** output cardinality, and the paper's
//! second contribution (§2.2) is an evaluation *algorithm* whose running time
//! matches the new bounds.  This crate provides **one executor** and the
//! planner that drives it:
//!
//! * a two-level plan IR: [`LogicalPlan`] (the join graph over atoms, with
//!   connected-subset enumeration and cyclic-core detection) lowered to a
//!   [`PhysicalPlan`] strategy tree (hash chains, **bushy** binary hash
//!   joins, leapfrog WCOJ cores, Yannakakis-reduced residues,
//!   degree-partitioned unions); a left-deep [`JoinPlan`] is the hash chain
//!   `PhysicalPlan::hash_chain(plan.order().to_vec())`;
//! * **one engine, one schedule** — [`execute_physical_mode`] is the single
//!   entry point.  Every intermediate is a columnar [`ColumnTable`] and
//!   every operator is columnar: batch-at-a-time hash joins, galloping
//!   leapfrog over CSR run tries, bitmap semi-joins.  A plan's stages run
//!   in plan order on the calling thread and record into one
//!   [`IntermediateCounters`]; a request is served by one thread, and a
//!   server gets its parallelism from concurrent requests ([`ExecMode`] has
//!   one variant and selects nothing);
//! * **recycled column buffers** — every operator sizes its output columns
//!   exactly and takes them from a [`ColumnBuffers`] handle, and a dropped
//!   table gives them back.  The default handle is the allocator;
//!   [`execute_physical_with_buffers`] runs on a caller-owned, bounded free
//!   list instead (one per serving worker in `lpb-serve`), so a steady
//!   stream of requests stops mapping and unmapping its multi-megabyte
//!   intermediates;
//! * [`Optimizer`] — the bound-driven planner: every connected sub-join is
//!   bounded through one [`lpb_core::BatchEstimator`] call (normal-cone
//!   LPs, each solved cold, in enumeration order on the calling thread) and
//!   a bottleneck DP over **bushy trees** (left-deep
//!   extension *and* connected two-way splits) picks the
//!   shape/order/strategy whose largest provable intermediate is smallest —
//!   then whose next-largest is, and so on, reading the bounds off a fixed
//!   grid so that ties are ties for every LP solver — costing the
//!   Yannakakis reducer's semi-join passes rather than assuming them free;
//!   when a skewed relation makes the monolithic bound loose, the planner
//!   splits it light/heavy ([`split_light_heavy`]), re-runs the same DP per
//!   part on per-part statistics (the parts' full-query bounds first, then
//!   one batch over parts × the sub-joins through the split atom), and
//!   emits a [`PhysicalNode::PartitionedUnion`] whenever the
//!   max-over-parts bottleneck beats the monolithic one;
//! * **bound certificates** — the DP's sub-join bounds are attached to the
//!   emitted plan nodes, and execution checks every observed intermediate
//!   against them ([`IntermediateCounters::certificate_violations`] stays
//!   zero exactly because the paper's bounds are guarantees);
//! * the **truth counters** the experiments compare bounds against:
//!   [`yannakakis_count`] (weighted message passing over a GYO join tree,
//!   for the JOB-like acyclic suite whose outputs are too large to
//!   materialize), [`wcoj_count`] (the generic worst-case-optimal join),
//!   [`true_cardinality`] (dispatching between the two), and the
//!   specialized [`triangle_count`], [`path2_count`], [`cycle_count`];
//! * [`partition_by_degree`] (Lemma 2.5) and [`partitioned_join_count`]
//!   (Theorem 2.6) — the paper's reduction from ℓp statistics to ℓ1 + ℓ∞
//!   statistics by degree bucketing, evaluated part-by-part with the WCOJ;
//! * [`oracle::nested_loop_join`] — the **differential reference**: a naive
//!   nested-loop join that shares no code with any operator, against which
//!   the unit, integration and property tests compare every plan's output;
//! * **adaptive execution** — the state-machine layering that turns the
//!   bound certificates into a mid-query feedback controller:
//!   - [`ExecState`] (the `state` module): every plan is lowered to a flat
//!     stage DAG and executed resumably, one stage at a time in stage
//!     order — [`ExecState::run_until`] suspends at any stage boundary and
//!     resumes bit-identically;
//!   - [`CertificatePolicy`]: `Ignore` records sizes only, `Count` (the
//!     default, in **every** build profile — release benches included)
//!     tallies violations, and `React { slack_log2 }` suspends with a typed
//!     [`BoundViolation`] as soon as an intermediate exceeds its
//!     certificate by more than the slack;
//!   - [`AdaptiveExecutor`]: on suspension, the completed intermediates
//!     ([`ExecState::live_slots`]) are fed back into the catalog as exact
//!     statistics (`Catalog::absorb_observed`), only the sub-joins touching
//!     the refreshed atoms are re-bounded through the delta bound API
//!     ([`Optimizer::plan_delta`]), and the re-planned sub-plan is spliced
//!     over the remaining frontier — under a re-plan budget and
//!     a monotonic-progress guard, falling back to plain `Count` execution
//!     when either trips.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffers;
mod columns;
mod counters;
mod error;
mod hash_join;
mod logical;
mod morsel;
mod optimizer;
pub mod oracle;
mod panda_eval;
mod partition;
mod physical;
mod plan_cache;
mod state;
mod trie;
mod wcoj;
mod yannakakis;

pub use buffers::{BufferCounters, ColumnBuffers};
pub use columns::ColumnTable;
pub use counters::{
    cycle_count, join2_count, path2_count, triangle_count, BoundViolation, CertificatePolicy,
    IntermediateCounters, StepCount, CERTIFICATE_SLACK,
};
pub use error::ExecError;
pub use logical::{JoinPlan, LogicalPlan};
pub use morsel::{execute_physical_mode, execute_physical_with_buffers, ColumnRun, ExecMode};
pub use optimizer::{
    AdaptiveExecutor, AdaptiveRun, DeltaPlan, OptimizedPlan, Optimizer, PlannerConfig,
    SubjoinBounds,
};
pub use panda_eval::{partitioned_join_count, PartitionSpec, PartitionedRun};
pub use partition::{partition_by_degree, partition_for_statistic, split_light_heavy, DegreePart};
pub use physical::{PartitionBranch, PhysicalNode, PhysicalPlan};
pub use plan_cache::PlanCache;
pub use state::{ExecState, ExecStatus, LiveSlot};
pub use wcoj::wcoj_count;
pub use yannakakis::{is_acyclic, yannakakis_count};

/// Compute the true output cardinality of a query with the most appropriate
/// algorithm: the Yannakakis counter for α-acyclic queries, the generic
/// worst-case-optimal join otherwise.
pub fn true_cardinality(
    query: &lpb_core::JoinQuery,
    catalog: &lpb_data::Catalog,
) -> Result<u128, ExecError> {
    if is_acyclic(query) {
        yannakakis_count(query, catalog)
    } else {
        wcoj_count(query, catalog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpb_core::JoinQuery;
    use lpb_data::{Catalog, RelationBuilder};

    #[test]
    fn true_cardinality_dispatches_on_acyclicity() {
        let mut catalog = Catalog::new();
        catalog.insert(RelationBuilder::binary_from_pairs(
            "E",
            "a",
            "b",
            (0..50u64).map(|i| (i % 8, (i * 3) % 10)),
        ));
        let acyclic = JoinQuery::path(&["E", "E", "E"]);
        let cyclic = JoinQuery::triangle("E", "E", "E");
        assert_eq!(
            true_cardinality(&acyclic, &catalog).unwrap(),
            yannakakis_count(&acyclic, &catalog).unwrap()
        );
        assert_eq!(
            true_cardinality(&cyclic, &catalog).unwrap(),
            wcoj_count(&cyclic, &catalog).unwrap()
        );
    }
}
