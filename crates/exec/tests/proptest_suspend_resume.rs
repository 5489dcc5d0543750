//! Suspend/resume differential property tests: executing a plan through
//! [`ExecState::run_until`] with a breakpoint injected at **every** stage
//! boundary, then resuming to completion, must produce exactly what the
//! uninterrupted run produces — the same output rows and the bit-identical
//! counter recording (labels, sizes, certificate tallies, part roll-ups).
//! This is what makes the adaptive controller's mid-query suspensions safe:
//! a resumed state is indistinguishable from one that never stopped.

use lpb_core::JoinQuery;
use lpb_data::{Catalog, RelationBuilder};
use lpb_datagen::skewed_pairs;
use lpb_exec::{
    split_light_heavy, CertificatePolicy, ExecState, ExecStatus, Optimizer, PartitionBranch,
    PhysicalNode, PhysicalPlan,
};
use proptest::prelude::*;

/// Strategy over skewed pair sets: planted hubs on a uniform background,
/// generated deterministically by `lpb_datagen::skewed_pairs`.
fn arb_skewed_pairs() -> impl Strategy<Value = Vec<(u64, u64)>> {
    (1u64..4, 8u64..40, 0usize..120, 0u64..1 << 32)
        .prop_map(|(hubs, fanout, background, seed)| skewed_pairs(hubs, fanout, background, seed))
}

/// Run the plan uninterrupted, then re-run it suspending at every stage
/// boundary `k` (complete stages `0..k`, check the `Paused` contract,
/// resume) and assert the resumed run is bit-identical — output columns and
/// the full counter recording.
fn assert_suspend_resume_is_lossless(
    query: &JoinQuery,
    catalog: &Catalog,
    plan: &PhysicalPlan,
) -> Result<(), TestCaseError> {
    let mut straight = ExecState::new(plan, CertificatePolicy::default());
    let status = straight.run(query, catalog).unwrap();
    prop_assert_eq!(status, ExecStatus::Done, "uninterrupted");
    let want_output = straight.output_columns().expect("done run has output");
    let want_counters = straight.counters();

    let n = straight.n_stages();
    for k in 0..=n {
        let mut state = ExecState::new(plan, CertificatePolicy::default());
        let status = state.run_until(query, catalog, k).unwrap();
        if k < n {
            prop_assert_eq!(status, ExecStatus::Paused, "breakpoint {}", k);
            prop_assert_eq!(
                state.completed_stages(),
                k,
                "breakpoint {}: exactly the stages below the limit complete",
                k
            );
        }
        let status = state.run(query, catalog).unwrap();
        prop_assert_eq!(status, ExecStatus::Done, "resume from {}", k);
        prop_assert_eq!(
            &state.output_columns().expect("resumed run has output"),
            &want_output,
            "output after breakpoint {}",
            k
        );
        prop_assert_eq!(
            &state.counters(),
            &want_counters,
            "counters after breakpoint {}",
            k
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever plan the bound-driven optimizer picks on a random skewed
    /// chain, suspending at every boundary and resuming is lossless.
    #[test]
    fn optimizer_plans_survive_suspension_at_every_boundary(
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
        assert_suspend_resume_is_lossless(&query, &catalog, &plan.physical)?;
    }

    /// Bushy trees: a breakpoint can land between the two independent
    /// branches, with one materialized and the other not started.
    #[test]
    fn bushy_plans_survive_suspension_at_every_boundary(
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
        assert_suspend_resume_is_lossless(&query, &catalog, &bushy)?;
    }

    /// Partitioned unions: breakpoints land between branch stages, and the
    /// counter roll-up (absorb in branch order, `parts_planned` at the
    /// union) must come out identical however the run was chopped up.
    #[test]
    fn partitioned_plans_survive_suspension_at_every_boundary(
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
        assert_suspend_resume_is_lossless(&query, &catalog, &union)?;
    }
}
