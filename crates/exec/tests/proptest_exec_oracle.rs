//! Differential executor property tests: on random skewed inputs, the
//! executor's output must be exactly what the naive nested-loop oracle
//! computes — same schema coverage, identical multiset of result tuples —
//! and its recording must check the certificates the plan carries,
//! violating none that is sound — across every plan shape, including
//! degree-partitioned unions and bushy hash-join trees.  The counting entry
//! point must agree with both on every plan: its size is the oracle's row
//! count and its counters are the materializing run's.

use lpb_core::{Atom, JoinQuery};
use lpb_data::{Catalog, RelationBuilder};
use lpb_datagen::skewed_pairs;
use lpb_exec::oracle::nested_loop_join;
use lpb_exec::{
    count_physical, execute_physical_mode, split_light_heavy, ExecMode, Optimizer, PartitionBranch,
    PhysicalNode, PhysicalPlan,
};
use proptest::prelude::*;

/// Strategy over skewed pair sets: planted hubs on a uniform background,
/// generated deterministically by `lpb_datagen::skewed_pairs`.
fn arb_skewed_pairs() -> impl Strategy<Value = Vec<(u64, u64)>> {
    (1u64..4, 8u64..40, 0usize..120, 0u64..1 << 32)
        .prop_map(|(hubs, fanout, background, seed)| skewed_pairs(hubs, fanout, background, seed))
}

/// Execute `plan` and assert the output is the oracle's (the oracle
/// rejects a schema that is not a permutation of the query's variables),
/// then count it and assert the size is the oracle's row count and the
/// counters are the materializing run's.  Returns how many certificates
/// the run checked and how many it violated.
fn run_against_oracle(
    query: &JoinQuery,
    catalog: &Catalog,
    plan: &PhysicalPlan,
) -> Result<(usize, usize), TestCaseError> {
    let run = execute_physical_mode(query, catalog, plan, ExecMode::Vectorized).unwrap();
    let truth = nested_loop_join(query, catalog, run.output.vars()).unwrap();
    let counted = count_physical(query, catalog, plan).unwrap();
    prop_assert_eq!(counted.output_size, truth.len(), "counted size");
    prop_assert_eq!(&counted.counters, &run.counters, "counted run's counters");
    prop_assert_eq!(run.output.sorted_rows(), truth, "output multiset");
    Ok((
        run.counters.certificates_checked(),
        run.certificate_violations(),
    ))
}

/// Plan the path `R(x, y) ⋈ S(y, z) ⋈ T(z, w)` over the given pairs with
/// the bound-driven optimizer and run it against the oracle: the plan must
/// certify itself and violate none of its certificates.
fn optimizer_plan_against_oracle(
    rpairs: Vec<(u64, u64)>,
    spairs: Vec<(u64, u64)>,
    tpairs: Vec<(u64, u64)>,
) -> Result<(), TestCaseError> {
    let mut catalog = Catalog::new();
    catalog.insert(RelationBuilder::binary_from_pairs("R", "x", "y", rpairs));
    catalog.insert(RelationBuilder::binary_from_pairs("S", "y", "z", spairs));
    catalog.insert(RelationBuilder::binary_from_pairs("T", "z", "w", tpairs));
    let query = JoinQuery::path(&["R", "S", "T"]);
    let plan = Optimizer::new().plan(&query, &catalog).unwrap();
    let (checked, violated) = run_against_oracle(&query, &catalog, &plan.physical)?;
    prop_assert!(checked > 0, "the planner certifies its plans");
    prop_assert_eq!(violated, 0, "a bound is a guarantee");
    Ok(())
}

/// An odd multiplier: `v ↦ v · SCATTER` permutes `u64`, keeps `0` and sends
/// small codes all over the range.
const SCATTER: u64 = 0x9e37_79b9_7f4a_7c15;

/// `pairs` with both codes scattered over `u64`.
fn scattered(pairs: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    pairs
        .into_iter()
        .map(|(a, b)| (a.wrapping_mul(SCATTER), b.wrapping_mul(SCATTER)))
        .collect()
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
        optimizer_plan_against_oracle(rpairs, spairs, tpairs)?;
    }

    /// The same chains with every code scattered over `u64`: one-variable
    /// join keys that span far more values than rows, so a key index hashes
    /// them instead of addressing them directly (unless its column holds a
    /// single code).  The hash join's unit tests show which index each
    /// kernel builds.
    #[test]
    fn optimizer_plans_on_sparse_codes_match_the_oracle(
        rpairs in arb_skewed_pairs(),
        spairs in arb_skewed_pairs(),
        tpairs in proptest::collection::vec((0u64..12, 0u64..30), 1..80)
    ) {
        optimizer_plan_against_oracle(scattered(rpairs), scattered(spairs), scattered(tpairs))?;
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
        let branch = |part: lpb_exec::SplitPart| PartitionBranch {
            relation: part.relation.into(),
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

    /// Every kind of root the counting path distinguishes — a scan, a hash
    /// chain's last step, a bushy join, a WCOJ, a counted Yannakakis chain,
    /// and a partitioned union over counted branch roots — counts the
    /// oracle's rows and records what materializing records.  The
    /// Yannakakis chains run over 3–5 atoms, in and out of path order, on a
    /// star, and across a cross product (a query of two components: the
    /// chain's prefix keeps no variable, or keeps variables of the other
    /// component).  That a counted chain allocates none of its steps is
    /// `tests/counted_runs.rs`.
    #[test]
    fn every_root_kind_counts_what_it_materializes(
        rpairs in arb_skewed_pairs(),
        spairs in arb_skewed_pairs(),
        tpairs in proptest::collection::vec((0u64..12, 0u64..30), 1..80),
        upairs in proptest::collection::vec((0u64..30, 0u64..12), 1..40)
    ) {
        let r = RelationBuilder::binary_from_pairs("R", "x", "y", rpairs);
        let mut catalog = Catalog::new();
        catalog.insert(r.clone());
        catalog.insert(RelationBuilder::binary_from_pairs("S", "y", "z", spairs));
        catalog.insert(RelationBuilder::binary_from_pairs("T", "z", "w", tpairs));
        catalog.insert(RelationBuilder::binary_from_pairs("U", "w", "v", upairs));
        let path = JoinQuery::path(&["R", "S", "T"]);
        let path5 = JoinQuery::path(&["R", "S", "T", "U", "T"]);
        let query = |name: &str, atoms: &[(&str, [&str; 2])]| {
            let atoms = atoms.iter().map(|(rel, vars)| Atom::new(*rel, vars)).collect();
            JoinQuery::new(name, atoms).unwrap()
        };
        let star = query(
            "star",
            &[("R", ["X", "A"]), ("T", ["X", "B"]), ("U", ["X", "C"]), ("S", ["X", "D"])],
        );
        let apart = query(
            "two-components",
            &[("R", ["A", "B"]), ("S", ["B", "C"]), ("U", ["D", "E"])],
        );
        let scan = |atom| {
            Box::new(PhysicalNode::Scan {
                atom,
                log2_bound: None,
            })
        };
        let bushy = PhysicalPlan::from_root(PhysicalNode::HashJoin {
            left: Box::new(PhysicalNode::HashJoin {
                left: scan(0),
                right: scan(1),
                log2_bound: Some(40.0),
            }),
            right: scan(2),
            log2_bound: Some(41.0),
        });
        let mut cases = vec![
            (JoinQuery::path(&["R"]), PhysicalPlan::hash_chain(vec![0])),
            (path.clone(), PhysicalPlan::hash_chain(vec![2, 1, 0])),
            (path.clone(), bushy),
            (JoinQuery::triangle("R", "S", "T"), PhysicalPlan::wcoj(vec![0, 1, 2])),
            (path.clone(), PhysicalPlan::wcoj_then_chain(vec![0, 1], vec![2])),
            (path.clone(), PhysicalPlan::reduced(vec![0, 1, 2])),
            (path5.clone(), PhysicalPlan::reduced(vec![0, 1, 2, 3, 4])),
            (path5.clone(), PhysicalPlan::reduced(vec![4, 3, 2, 1, 0])),
            (path5, PhysicalPlan::reduced(vec![2, 1, 3, 0, 4])),
            (star, PhysicalPlan::reduced(vec![0, 1, 2, 3])),
            (apart.clone(), PhysicalPlan::reduced(vec![0, 1, 2])),
            (apart, PhysicalPlan::reduced(vec![2, 0, 1])),
        ];
        if let Some((light, heavy)) = split_light_heavy(&r, &["x"], &["y"]).unwrap() {
            let branch = |part: lpb_exec::SplitPart, plan| PartitionBranch {
                relation: part.relation.into(),
                plan,
                log2_bound: Some(40.0),
            };
            let union = PhysicalPlan::from_root(PhysicalNode::PartitionedUnion {
                atom: 0,
                parts: vec![
                    branch(light, PhysicalPlan::reduced(vec![0, 1, 2])),
                    branch(heavy, PhysicalPlan::hash_chain(vec![1, 2, 0])),
                ],
                log2_bound: Some(41.0),
            });
            cases.push((path, union));
        }
        for (query, plan) in &cases {
            let (_, violated) = run_against_oracle(query, &catalog, plan)?;
            prop_assert_eq!(violated, 0, "{} on {}", plan.strategy(), query.name());
        }
    }
}
