//! Differential executor property tests: on random skewed inputs, the
//! executor's output must be exactly what the naive nested-loop oracle
//! computes — same schema coverage, identical multiset of result tuples —
//! and the two scheduling modes must agree bit for bit on the output and on
//! the full counter recording (same step labels, same sizes, hence the same
//! intermediate peaks and certificate tallies) — across every plan shape,
//! including degree-partitioned unions and bushy hash-join trees.

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

/// Execute `plan` in both modes; assert the vectorized output is the
/// oracle's (the oracle rejects a schema that is not a permutation of the
/// query's variables), and that the parallel run reproduces the vectorized
/// one exactly: output columns and the full counter recording (labels,
/// sizes, certificate tallies, part peaks).
fn assert_modes_match(
    query: &JoinQuery,
    catalog: &Catalog,
    plan: &PhysicalPlan,
) -> Result<(), TestCaseError> {
    let vectorized = execute_physical_mode(query, catalog, plan, ExecMode::Vectorized).unwrap();
    let truth = nested_loop_join(query, catalog, vectorized.output.vars()).unwrap();
    prop_assert_eq!(vectorized.output.sorted_rows(), truth, "output multiset");
    let parallel = execute_physical_mode(query, catalog, plan, ExecMode::Parallel).unwrap();
    prop_assert_eq!(&parallel.output, &vectorized.output, "parallel output");
    prop_assert_eq!(
        &parallel.counters,
        &vectorized.counters,
        "parallel counters"
    );
    prop_assert_eq!(
        parallel.counters.max_intermediate(),
        vectorized.counters.max_intermediate(),
        "parallel peak"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever plan the bound-driven optimizer picks on a random skewed
    /// chain — hash chain, yannakakis, bushy, or partitioned — it computes
    /// the oracle's answer in both modes.
    #[test]
    fn optimizer_plans_agree_across_modes(
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
        assert_modes_match(&query, &catalog, &plan.physical)?;
    }

    /// Explicit degree-partitioned plans: split the skewed relation into
    /// light/heavy parts and union per-part chains — the partitioned
    /// executor's roll-up (per-worker counters, absorb in branch order)
    /// must reproduce the sequential recording bit for bit.
    #[test]
    fn partitioned_plans_agree_across_modes(
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
        assert_modes_match(&query, &catalog, &union)?;
    }

    /// Explicit bushy trees over a 4-atom path: both hash-join branches are
    /// independent morsels under `ExecMode::Parallel`, and the left-then-
    /// right merge must reproduce the sequential recording.
    #[test]
    fn bushy_plans_agree_across_modes(
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
        assert_modes_match(&query, &catalog, &bushy)?;
    }
}
