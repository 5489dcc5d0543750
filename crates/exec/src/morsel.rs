//! The executor's front end: [`execute_physical_mode`] runs a certified
//! [`PhysicalPlan`] to completion in one of two [`ExecMode`]s.
//!
//! There is one engine — columnar operators over [`ColumnTable`]
//! intermediates: scans copy relation columns
//! ([`ColumnTable::from_atom`]), hash joins probe batch-at-a-time with
//! columnar gathers, the WCOJ leapfrogs over CSR run tries with galloping
//! seeks, and Yannakakis reduction filters through bitmaps.  The mode only
//! picks the **scheduling policy** over those kernels:
//!
//! * [`ExecMode::Vectorized`] — one worker, stages in plan order.
//! * [`ExecMode::Parallel`] — morsel-driven parallelism: the stage
//!   machine's **ready set** (stages whose inputs are all complete — bushy
//!   [`crate::PhysicalNode::HashJoin`] branches,
//!   [`crate::PhysicalNode::PartitionedUnion`] parts) fans out as one
//!   morsel batch onto the thread-backed rayon shim.  Every worker records
//!   into its **own** [`IntermediateCounters`], and the per-stage
//!   recordings are assembled in stage (= plan) order, so the merged
//!   recording is identical to the sequential one.
//!
//! Both modes are thin front ends over the resumable [`crate::ExecState`]
//! stage machine (see the `state` module), run to completion under the
//! default [`crate::CertificatePolicy::Count`].  They produce the same
//! output schema, the same result multiset, and bit-identical counter
//! recordings; `tests/proptest_exec_modes.rs` pins the output against the
//! nested-loop oracle ([`crate::oracle`]) and the two recordings against
//! each other on random skewed inputs, and
//! `tests/proptest_suspend_resume.rs` does the same across every
//! suspension point.

use crate::buffers::ColumnBuffers;
use crate::columns::ColumnTable;
use crate::counters::{CertificatePolicy, IntermediateCounters};
use crate::error::ExecError;
use crate::physical::PhysicalPlan;
use crate::state::ExecState;
use lpb_core::JoinQuery;
use lpb_data::Catalog;

/// How the stages of a [`PhysicalPlan`] are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Columnar batch-at-a-time execution on one worker.
    Vectorized,
    /// Columnar execution with independent sub-plans (partition parts,
    /// bushy join branches) on separate morsel workers.
    Parallel,
}

/// Result of a plan execution: the output in columnar form plus the
/// recorded (and, under [`ExecMode::Parallel`], merged) counters.
#[derive(Debug, Clone)]
pub struct ColumnRun {
    /// The materialized output (columns in the order the plan produced).
    pub output: ColumnTable,
    /// What every plan node materialized; identical steps across modes.
    pub counters: IntermediateCounters,
}

impl ColumnRun {
    /// Number of output rows.
    pub fn output_size(&self) -> usize {
        self.output.len()
    }

    /// The largest intermediate any node materialized.
    pub fn max_intermediate(&self) -> usize {
        self.counters.max_intermediate()
    }

    /// How many executed steps exceeded their bound certificate (always
    /// zero when the planner's bounds are sound).
    pub fn certificate_violations(&self) -> usize {
        self.counters.certificate_violations()
    }
}

/// Execute a physical plan under the chosen [`ExecMode`].  One-shot front
/// end over the resumable [`ExecState`] stage machine (default `Count`
/// policy).  Every column comes from the allocator and goes back to it:
/// nothing is retained once the returned [`ColumnRun`] is dropped.
pub fn execute_physical_mode(
    query: &JoinQuery,
    catalog: &Catalog,
    plan: &PhysicalPlan,
    mode: ExecMode,
) -> Result<ColumnRun, ExecError> {
    execute_physical_with_buffers(query, catalog, plan, mode, &ColumnBuffers::default())
}

/// [`execute_physical_mode`] with every intermediate's and the output's
/// large columns drawn from `buffers` and returned to it when they are
/// dropped — the entry point of a serving worker that keeps one
/// [`ColumnBuffers`] free list across requests.  Same operators, same
/// output, same counters.
pub fn execute_physical_with_buffers(
    query: &JoinQuery,
    catalog: &Catalog,
    plan: &PhysicalPlan,
    mode: ExecMode,
    buffers: &ColumnBuffers,
) -> Result<ColumnRun, ExecError> {
    let mut state =
        ExecState::new(plan, mode, CertificatePolicy::default()).with_buffers(buffers.clone());
    state.run(query, catalog)?;
    let counters = state.counters();
    let output = state
        .take_output()
        .expect("an unlimited Count run completes");
    Ok(ColumnRun { output, counters })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::nested_loop_join;
    use crate::physical::PhysicalNode;
    use lpb_data::RelationBuilder;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.insert(RelationBuilder::binary_from_pairs(
            "R",
            "a",
            "b",
            (0..80u64).map(|i| (i % 13, (i * 7) % 17)),
        ));
        c.insert(RelationBuilder::binary_from_pairs(
            "S",
            "a",
            "b",
            (0..90u64).map(|i| ((i * 3) % 17, i % 11)),
        ));
        c.insert(RelationBuilder::binary_from_pairs(
            "T",
            "a",
            "b",
            (0..70u64).map(|i| (i % 11, (i * 5) % 13)),
        ));
        c
    }

    /// Both modes must produce the oracle's rows, and agree with each
    /// other step for step: same output, same counter labels and sizes.
    fn assert_modes_agree(query: &JoinQuery, catalog: &Catalog, plan: &PhysicalPlan) {
        let vectorized = execute_physical_mode(query, catalog, plan, ExecMode::Vectorized).unwrap();
        let parallel = execute_physical_mode(query, catalog, plan, ExecMode::Parallel).unwrap();
        let truth = nested_loop_join(query, catalog, vectorized.output.vars()).unwrap();
        assert_eq!(vectorized.output.sorted_rows(), truth, "output differs");
        assert_eq!(
            parallel.output, vectorized.output,
            "parallel output differs"
        );
        assert_eq!(
            parallel.counters, vectorized.counters,
            "parallel counters differ"
        );
    }

    #[test]
    fn all_strategies_agree_across_modes() {
        let catalog = catalog();
        let tri = JoinQuery::triangle("R", "S", "T");
        assert_modes_agree(&tri, &catalog, &PhysicalPlan::hash_chain(vec![0, 1, 2]));
        assert_modes_agree(&tri, &catalog, &PhysicalPlan::wcoj(vec![0, 1, 2]));
        let path = JoinQuery::path(&["R", "S", "T"]);
        assert_modes_agree(&path, &catalog, &PhysicalPlan::reduced(vec![0, 1, 2]));
        assert_modes_agree(
            &path,
            &catalog,
            &PhysicalPlan::wcoj_then_chain(vec![0, 1], vec![2]),
        );
    }

    #[test]
    fn bushy_joins_agree_and_fork_under_parallel() {
        let catalog = catalog();
        let q = JoinQuery::path(&["R", "S", "T", "R"]);
        let scan = |atom| {
            Box::new(PhysicalNode::Scan {
                atom,
                log2_bound: None,
            })
        };
        let pair = |a, b| {
            Box::new(PhysicalNode::HashJoin {
                left: scan(a),
                right: scan(b),
                log2_bound: Some(30.0),
            })
        };
        let bushy = PhysicalPlan::from_root(PhysicalNode::HashJoin {
            left: pair(0, 1),
            right: pair(2, 3),
            log2_bound: Some(40.0),
        });
        assert_modes_agree(&q, &catalog, &bushy);
        let run = execute_physical_mode(&q, &catalog, &bushy, ExecMode::Parallel).unwrap();
        assert_eq!(run.counters.certificates_checked(), 3);
        assert_eq!(run.certificate_violations(), 0);
    }

    #[test]
    fn partitioned_union_agrees_and_rolls_up_across_modes() {
        let mut catalog = Catalog::new();
        let mut edges: Vec<(u64, u64)> = Vec::new();
        for j in 0..12u64 {
            edges.push((0, j));
        }
        for i in 1..9u64 {
            edges.push((i, i + 1));
        }
        catalog.insert(RelationBuilder::binary_from_pairs("E", "a", "b", edges));
        let q = JoinQuery::path(&["E", "E"]);
        let rel = catalog.get("E").unwrap();
        let (light, heavy) = crate::partition::split_light_heavy(&rel, &["b"], &["a"])
            .unwrap()
            .expect("skewed relation splits");
        let branch = |relation: lpb_data::Relation| crate::physical::PartitionBranch {
            relation: relation.into(),
            plan: PhysicalPlan::hash_chain(vec![0, 1]),
            log2_bound: Some(20.0),
        };
        let union = PhysicalPlan::from_root(PhysicalNode::PartitionedUnion {
            atom: 0,
            parts: vec![branch(light), branch(heavy)],
            log2_bound: Some(21.0),
        });
        assert_modes_agree(&q, &catalog, &union);
        let run = execute_physical_mode(&q, &catalog, &union, ExecMode::Parallel).unwrap();
        assert_eq!(run.counters.parts_planned(), 2);
        assert_eq!(run.counters.parts_executed(), 2);
        assert_eq!(run.certificate_violations(), 0);
        assert!(run
            .counters
            .steps()
            .iter()
            .any(|s| s.label.starts_with("[E#light]")));
    }
}
