//! The executor's front ends: [`execute_physical_mode`] runs a certified
//! [`PhysicalPlan`] to completion and returns its output;
//! [`count_physical`] runs it to its output's size.
//!
//! There is one engine — columnar operators over [`ColumnTable`]
//! intermediates: scans copy relation columns
//! ([`ColumnTable::from_atom`]), hash joins probe batch-at-a-time with
//! columnar gathers, the WCOJ leapfrogs over CSR run tries with galloping
//! seeks, and Yannakakis reduction filters through bitmaps — and one
//! schedule: the plan's nodes depth-first, on the calling thread.  A
//! morsel-parallel mode that fanned independent sub-plans out over a thread
//! pool was measured against this schedule on the seven
//! `BENCH_planner.json` workloads, tied or lost on five of them, and was
//! deleted; concurrency comes from serving many requests at once.
//!
//! Both entry points are thin front ends over the crate-private walk (the
//! `state` module): one depth-first recursion over the plan tree.
//! `tests/proptest_exec_oracle.rs` pins the output, and the counted size,
//! against the nested-loop oracle ([`crate::oracle`]) on random skewed
//! inputs, and `tests/counted_runs.rs` pins the recording of every root
//! kind step by step.

use crate::columns::{ColumnTable, RelationView};
use crate::counters::IntermediateCounters;
use crate::error::ExecError;
use crate::physical::PhysicalPlan;
use crate::state::walk;
use lpb_core::JoinQuery;
use lpb_data::Catalog;

/// The one way a [`PhysicalPlan`] is executed.  Nothing selects on it: the
/// type and [`execute_physical_mode`]'s fourth argument exist only because
/// the driver-owned `benchmark/` package names both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Columnar batch-at-a-time execution, the plan's nodes depth-first on
    /// the calling thread.
    Vectorized,
}

/// Result of a plan execution: the output in columnar form plus the
/// recorded counters.
#[derive(Debug, Clone)]
pub struct ColumnRun {
    /// The materialized output (columns in the order the plan produced).
    pub output: ColumnTable,
    /// What every plan node materialized, in plan order.
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

/// Result of a counted execution: the output's size and the counters,
/// which equal a materializing run's — every step, size and certificate
/// check, the output's included.
#[derive(Debug, Clone, PartialEq)]
pub struct CountedRun {
    /// Number of output rows.
    pub output_size: usize,
    /// What every plan node recorded, in plan order.
    pub counters: IntermediateCounters,
}

impl CountedRun {
    /// How many executed steps exceeded their bound certificate (always
    /// zero when the planner's bounds are sound).
    pub fn certificate_violations(&self) -> usize {
        self.counters.certificate_violations()
    }
}

/// Execute a physical plan to its output.  See [`ExecMode`] for the last
/// argument.
pub fn execute_physical_mode(
    query: &JoinQuery,
    catalog: &Catalog,
    plan: &PhysicalPlan,
    _mode: ExecMode,
) -> Result<ColumnRun, ExecError> {
    let mut counters = IntermediateCounters::new();
    let view = RelationView::new(catalog);
    let output = walk(plan.root(), query, &view, false, &mut counters)?.table;
    Ok(ColumnRun { output, counters })
}

/// The size of a physical plan's output, computed without materializing
/// it: every node below the root runs as in [`execute_physical_mode`], and
/// the root only counts — a hash-join root (a hash chain's last step, a
/// bushy join) stops after its probe pass, a WCOJ root counts its
/// emissions, a scan root reads the relation's length, a Yannakakis root
/// runs its full reducer and then counts its whole chain on
/// frontier-grouped multiplicities, materializing none of its steps, and a
/// partitioned union sums its branches' counted roots.  The counters equal
/// the materializing run's: every step, size and certificate.  It is what a
/// serving worker runs.
pub fn count_physical(
    query: &JoinQuery,
    catalog: &Catalog,
    plan: &PhysicalPlan,
) -> Result<CountedRun, ExecError> {
    let mut counters = IntermediateCounters::new();
    let view = RelationView::new(catalog);
    let output_size = walk(plan.root(), query, &view, true, &mut counters)?.rows;
    Ok(CountedRun {
        output_size,
        counters,
    })
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

    /// Execute `plan` and check its rows against the nested-loop oracle,
    /// and a counted run's size and counters against the materializing
    /// run's.
    fn run_against_oracle(query: &JoinQuery, catalog: &Catalog, plan: &PhysicalPlan) -> ColumnRun {
        let run = execute_physical_mode(query, catalog, plan, ExecMode::Vectorized).unwrap();
        let truth = nested_loop_join(query, catalog, run.output.vars()).unwrap();
        assert_eq!(run.output.sorted_rows(), truth, "output differs");
        let counted = count_physical(query, catalog, plan).unwrap();
        assert_eq!(counted.output_size, truth.len(), "counted size differs");
        assert_eq!(counted.counters, run.counters, "counters differ");
        run
    }

    #[test]
    fn all_strategies_match_the_oracle() {
        let catalog = catalog();
        let tri = JoinQuery::triangle("R", "S", "T");
        run_against_oracle(&tri, &catalog, &PhysicalPlan::hash_chain(vec![0, 1, 2]));
        run_against_oracle(&tri, &catalog, &PhysicalPlan::wcoj(vec![0, 1, 2]));
        let path = JoinQuery::path(&["R", "S", "T"]);
        run_against_oracle(&path, &catalog, &PhysicalPlan::reduced(vec![0, 1, 2]));
        run_against_oracle(
            &path,
            &catalog,
            &PhysicalPlan::wcoj_then_chain(vec![0, 1], vec![2]),
        );
        let one = JoinQuery::path(&["R"]);
        run_against_oracle(&one, &catalog, &PhysicalPlan::hash_chain(vec![0]));
        run_against_oracle(&one, &catalog, &PhysicalPlan::reduced(vec![0]));
    }

    #[test]
    fn bushy_joins_match_the_oracle_and_check_every_certificate() {
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
        let run = run_against_oracle(&q, &catalog, &bushy);
        assert_eq!(run.counters.certificates_checked(), 3);
        assert_eq!(run.certificate_violations(), 0);
    }

    #[test]
    fn partitioned_union_matches_the_oracle_and_rolls_up_its_parts() {
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
        let branch = |part: crate::SplitPart| crate::physical::PartitionBranch {
            relation: part.relation.into(),
            plan: PhysicalPlan::hash_chain(vec![0, 1]),
            log2_bound: Some(20.0),
        };
        let union = PhysicalPlan::from_root(PhysicalNode::PartitionedUnion {
            atom: 0,
            parts: vec![branch(light), branch(heavy)],
            log2_bound: Some(21.0),
        });
        let run = run_against_oracle(&q, &catalog, &union);
        assert_eq!(run.counters.parts_planned(), 2);
        assert_eq!(run.counters.parts_executed(), 2);
        assert_eq!(run.certificate_violations(), 0);
        assert!(run
            .counters
            .steps()
            .iter()
            .any(|s| s.label.starts_with("[E#light]")));
    }

    /// A partitioned union without parts has nothing to union: both entry
    /// points return a typed error instead of panicking.
    #[test]
    fn an_empty_partitioned_union_is_not_applicable() {
        let catalog = catalog();
        let q = JoinQuery::path(&["R", "S"]);
        let empty = PhysicalPlan::from_root(PhysicalNode::PartitionedUnion {
            atom: 0,
            parts: Vec::new(),
            log2_bound: None,
        });
        let not_applicable = |e: ExecError| matches!(e, ExecError::NotApplicable { .. });
        let run = execute_physical_mode(&q, &catalog, &empty, ExecMode::Vectorized);
        assert!(run.is_err_and(not_applicable));
        assert!(count_physical(&q, &catalog, &empty).is_err_and(not_applicable));
    }
}
