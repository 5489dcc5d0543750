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
//! * **one engine, one schedule** — [`execute_physical_mode`] runs a plan
//!   to its output.  Every intermediate is a columnar [`ColumnTable`] and
//!   every operator is columnar: batch-at-a-time hash joins, galloping
//!   leapfrog over CSR run tries (built from the relations' columns, one
//!   per relation and level order), bitmap semi-joins.  A plan runs by one
//!   depth-first walk over its [`PhysicalNode`] tree on the calling thread
//!   (children before their parent, each intermediate dropped as soon as
//!   its consumer returns) and records into one [`IntermediateCounters`]; a
//!   request is served by one thread, and a server gets its parallelism
//!   from concurrent requests ([`ExecMode`] has one variant and selects
//!   nothing);
//! * **counting the output** — [`count_physical`] runs a plan
//!   to its output's *size*, the quantity the paper bounds: every node
//!   below the root runs as in [`execute_physical_mode`], the root stops at
//!   its count (a hash join's probe pass, a WCOJ's emissions, a
//!   partitioned union's summed branches), and a Yannakakis root counts
//!   its whole chain after the full reducer — a sum-product over the
//!   counting semiring that keeps each prefix grouped on the variables a
//!   later join reads, with one multiplicity per distinct tuple, so no
//!   chain intermediate is materialized.  The recorded counters are the
//!   materializing run's, every size and certificate.  It is what
//!   `lpb-serve` answers with;
//! * [`Optimizer`] — the bound-driven planner: every connected sub-join is
//!   bounded through one [`lpb_core::BatchEstimator`] call (normal-cone
//!   LPs, each distinct one solved cold once, in enumeration order on the
//!   calling thread) and a bottleneck DP over **bushy trees** (left-deep
//!   extension *and* connected two-way splits) picks the
//!   shape/order/strategy whose largest provable intermediate is smallest —
//!   then whose next-largest is, and so on, reading the bounds off a fixed
//!   grid so that ties are ties for every LP solver — costing the
//!   Yannakakis reducer's semi-join passes rather than assuming them free;
//!   when a skewed relation makes the monolithic bound loose, the planner
//!   splits it light/heavy ([`split_light_heavy`], which counts each
//!   part's statistics while it routes the rows), re-runs the same DP per
//!   part on per-part statistics (the parts' full-query bounds first, then
//!   one batch over parts × the sub-joins through the split atom), and
//!   emits a [`PhysicalNode::PartitionedUnion`] whenever the
//!   max-over-parts bottleneck beats the monolithic one;
//! * **bound certificates** — the DP's sub-join bounds are attached to the
//!   emitted plan nodes, and execution checks every observed intermediate
//!   against them ([`IntermediateCounters::certificate_violations`] stays
//!   zero exactly because the paper's bounds are guarantees).  A violation
//!   would mean the statistics no longer describe the data; it is counted,
//!   in every build profile, and nothing re-plans mid-query — a service
//!   plans and executes each request on one snapshot, and a publish
//!   re-plans;
//! * the **truth counters** the experiments compare bounds against:
//!   [`yannakakis_count`] (weighted message passing over a GYO join tree,
//!   each message keyed through the join kernels' key index, for the
//!   JOB-like acyclic suite whose outputs are too large to materialize),
//!   [`wcoj_count`] (the generic worst-case-optimal join),
//!   [`true_cardinality`] (dispatching between the two), and the
//!   specialized [`triangle_count`], [`path2_count`], [`cycle_count`];
//! * [`partition_by_degree`] / [`partition_for_statistic`] (Lemma 2.5) and
//!   [`partitioned_join_count`] (Theorem 2.6) — the paper's reduction from
//!   ℓp statistics to ℓ1 + ℓ∞ statistics by degree bucketing, evaluated
//!   part-by-part with the WCOJ.  The partition is one
//!   [`lpb_data::Relation::grouping`] and one gather per part, the same
//!   routine [`split_light_heavy`] coarsens into two parts;
//! * [`oracle::nested_loop_join`] — the **differential reference**: a naive
//!   nested-loop join that shares no code with any operator, against which
//!   the unit, integration and property tests compare every plan's output;

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod columns;
mod counters;
mod error;
mod hash_join;
mod logical;
mod optimizer;
pub mod oracle;
mod panda_eval;
mod partition;
mod physical;
mod plan_cache;
mod run;
mod state;
mod trie;
mod wcoj;
mod yannakakis;

pub use columns::ColumnTable;
pub use counters::{
    cycle_count, join2_count, path2_count, triangle_count, IntermediateCounters, StepCount,
    CERTIFICATE_SLACK,
};
pub use error::ExecError;
pub use logical::{JoinPlan, LogicalPlan};
pub use optimizer::{OptimizedPlan, Optimizer, PlannerConfig};
pub use panda_eval::{partitioned_join_count, PartitionSpec, PartitionedRun};
pub use partition::{
    partition_by_degree, partition_for_statistic, split_light_heavy, DegreePart, SplitPart,
};
pub use physical::{PartitionBranch, PhysicalNode, PhysicalPlan};
pub use plan_cache::{FlightStats, PlanCache};
pub use run::{count_physical, execute_physical_mode, ColumnRun, CountedRun, ExecMode};
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
