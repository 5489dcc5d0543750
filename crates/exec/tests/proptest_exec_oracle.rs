//! Differential executor property tests: on random skewed inputs, the
//! executor's output must be exactly what the naive nested-loop oracle
//! computes — same schema coverage, identical multiset of result tuples —
//! and its recording must check the certificates the plan carries,
//! violating none that is sound — across every plan shape, including
//! degree-partitioned unions and bushy hash-join trees.

use lpb_core::JoinQuery;
use lpb_data::{Catalog, RelationBuilder};
use lpb_datagen::skewed_pairs;
use lpb_exec::oracle::nested_loop_join;
use lpb_exec::{
    execute_physical_mode, split_light_heavy, ExecMode, Optimizer, PartitionBranch, PhysicalNode,
    PhysicalPlan,
};
use proptest::prelude::*;

/// Strategy over skewed pair sets: planted hubs on a uniform background,
/// generated deterministically by `lpb_datagen::skewed_pairs`.
fn arb_skewed_pairs() -> impl Strategy<Value = Vec<(u64, u64)>> {
    (1u64..4, 8u64..40, 0usize..120, 0u64..1 << 32)
        .prop_map(|(hubs, fanout, background, seed)| skewed_pairs(hubs, fanout, background, seed))
}

/// Execute `plan` and assert the output is the oracle's (the oracle
/// rejects a schema that is not a permutation of the query's variables).
/// Returns how many certificates the run checked and how many it violated.
fn run_against_oracle(
    query: &JoinQuery,
    catalog: &Catalog,
    plan: &PhysicalPlan,
) -> Result<(usize, usize), TestCaseError> {
    let run = execute_physical_mode(query, catalog, plan, ExecMode::Vectorized).unwrap();
    let truth = nested_loop_join(query, catalog, run.output.vars()).unwrap();
    prop_assert_eq!(run.output.sorted_rows(), truth, "output multiset");
    Ok((
        run.counters.certificates_checked(),
        run.certificate_violations(),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever plan the bound-driven optimizer picks on a random skewed
    /// chain — hash chain, yannakakis, bushy, or partitioned — it computes
    /// the oracle's answer within every certificate the planner attached.
    #[test]
    fn optimizer_plans_match_the_oracle(
        rpairs in arb_skewed_pairs(),
        spairs in arb_skewed_pairs(),
        tpairs in proptest::collection::vec((0u64..12, 0u64..30), 1..80)
    ) {
        let mut catalog = Catalog::new();
        catalog.insert(RelationBuilder::binary_from_pairs("R", "x", "y", rpairs));
        catalog.insert(RelationBuilder::binary_from_pairs("S", "y", "z", spairs));
        catalog.insert(RelationBuilder::binary_from_pairs("T", "z", "w", tpairs));
        let query = JoinQuery::path(&["R", "S", "T"]);
        let plan = Optimizer::new().plan(&query, &catalog).unwrap();
        let (checked, violated) = run_against_oracle(&query, &catalog, &plan.physical)?;
        prop_assert!(checked > 0, "the planner certifies its plans");
        prop_assert_eq!(violated, 0, "a bound is a guarantee");
    }

    /// Explicit degree-partitioned plans: split the skewed relation into
    /// light/heavy parts and union per-part chains — the union of the
    /// parts' outputs is the oracle's answer, and the roll-up checks one
    /// certificate per part output plus the union's.
    #[test]
    fn partitioned_plans_match_the_oracle(
        rpairs in arb_skewed_pairs(),
        spairs in proptest::collection::vec((0u64..12, 0u64..30), 1..80)
    ) {
        let r = RelationBuilder::binary_from_pairs("R", "x", "y", rpairs);
        let mut catalog = Catalog::new();
        catalog.insert(r.clone());
        catalog.insert(RelationBuilder::binary_from_pairs("S", "y", "z", spairs));
        let query = JoinQuery::single_join("R", "S");
        let Some((light, heavy)) = split_light_heavy(&r, &["x"], &["y"]).unwrap() else {
            // Unsplittable (single degree bucket): nothing partitioned to test.
            return Ok(());
        };
        let branch = |relation: lpb_data::Relation| PartitionBranch {
            relation: relation.into(),
            plan: PhysicalPlan::hash_chain(vec![0, 1]),
            log2_bound: Some(40.0),
        };
        let union = PhysicalPlan::from_root(PhysicalNode::PartitionedUnion {
            atom: 0,
            parts: vec![branch(light), branch(heavy)],
            log2_bound: Some(41.0),
        });
        prop_assert_eq!(run_against_oracle(&query, &catalog, &union)?, (3, 0));
    }

    /// Explicit bushy trees over a 4-atom path: both hash-join branches
    /// materialize before the join on top, which no hash chain does.
    #[test]
    fn bushy_plans_match_the_oracle(
        apairs in arb_skewed_pairs(),
        bpairs in proptest::collection::vec((0u64..12, 0u64..15), 1..60),
        cpairs in proptest::collection::vec((0u64..15, 0u64..10), 1..60)
    ) {
        let mut catalog = Catalog::new();
        catalog.insert(RelationBuilder::binary_from_pairs("A", "a", "b", apairs));
        catalog.insert(RelationBuilder::binary_from_pairs("B", "b", "c", bpairs));
        catalog.insert(RelationBuilder::binary_from_pairs("C", "c", "d", cpairs));
        let query = JoinQuery::path(&["A", "B", "C", "A"]);
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
                log2_bound: None,
            })
        };
        let bushy = PhysicalPlan::from_root(PhysicalNode::HashJoin {
            left: pair(0, 1),
            right: pair(2, 3),
            log2_bound: None,
        });
        prop_assert_eq!(run_against_oracle(&query, &catalog, &bushy)?, (0, 0));
    }
}
