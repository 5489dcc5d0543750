//! Property tests for degree sequences, norms and relation invariants.

use lpb_data::{Catalog, DegreeSequence, Norm, Relation, RelationBuilder, Schema};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn arb_pairs() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..50, 0u64..50), 0..200)
}

fn arb_degrees() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(1u64..1000, 1..60)
}

/// A raw relation of arity 1–3 over attributes `a, b, c`: rows in random
/// order, duplicates kept, possibly empty — nothing the builder would have
/// normalized.
fn arb_raw_relation() -> impl Strategy<Value = Relation> {
    (1usize..4).prop_flat_map(|arity| {
        proptest::collection::vec(proptest::collection::vec(0u64..6, arity), 0..60).prop_map(
            move |rows| {
                let attrs = &["a", "b", "c"][..arity];
                let columns = (0..arity)
                    .map(|c| rows.iter().map(|r| r[c]).collect())
                    .collect();
                Relation::from_columns("T", Schema::new(attrs.iter().copied()).unwrap(), columns)
                    .unwrap()
            },
        )
    })
}

/// The attribute names selected by the low bits of `mask`, in schema order.
fn attrs_of(rel: &Relation, mask: usize) -> Vec<&str> {
    (0..rel.arity())
        .filter(|i| mask & (1 << i) != 0)
        .map(|i| rel.schema().name(i))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `degree_sequence`, `row_degrees` and `distinct_row_order` against the
    /// definitions, on unsorted duplicate-bearing relations: group the
    /// distinct `(U, V)` pairs by `U`; every `U ⊆ attrs` (including `∅`) and
    /// every non-empty `V`.
    #[test]
    fn degree_sequence_matches_the_definition(
        rel in arb_raw_relation(),
        v_mask in 1usize..8,
        u_mask in 0usize..8,
    ) {
        let all = (1usize << rel.arity()) - 1;
        // V must be non-empty: an out-of-schema pick falls back to all attributes.
        let v_mask = if v_mask & all == 0 { all } else { v_mask & all };
        let u_mask = u_mask & all;
        let v = attrs_of(&rel, v_mask);
        let u = attrs_of(&rel, u_mask);
        let key = |row: &[u64], mask: usize| -> Vec<u64> {
            (0..row.len()).filter(|i| mask & (1 << i) != 0).map(|i| row[i]).collect()
        };
        let mut groups: BTreeMap<Vec<u64>, BTreeSet<Vec<u64>>> = BTreeMap::new();
        for row in rel.rows() {
            groups.entry(key(&row, u_mask)).or_default().insert(key(&row, v_mask));
        }
        let expected =
            DegreeSequence::from_counts(groups.values().map(|vs| vs.len() as u64).collect());
        prop_assert_eq!(rel.degree_sequence(&v, &u).unwrap(), expected);

        let per_row: Vec<u64> = rel
            .rows()
            .map(|row| groups[&key(&row, u_mask)].len() as u64)
            .collect();
        prop_assert_eq!(rel.row_degrees(&v, &u).unwrap(), per_row);

        // The distinct rows in builder order.
        let gathered: Vec<Vec<u64>> =
            rel.distinct_row_order().into_iter().map(|r| rel.row(r)).collect();
        let distinct: Vec<Vec<u64>> = rel.rows().collect::<BTreeSet<_>>().into_iter().collect();
        prop_assert_eq!(gathered, distinct);
    }

    /// `log_norms` answers every norm bit-for-bit like the per-norm
    /// `log_norm`, caches the same entries, and serves a second call from
    /// the cache.
    #[test]
    fn log_norms_equals_per_norm_log_norm(pairs in arb_pairs()) {
        let norms = Norm::standard_set(4);
        let mut one_by_one = Catalog::new();
        let mut batched = Catalog::new();
        one_by_one.insert(RelationBuilder::binary_from_pairs("R", "x", "y", pairs.clone()));
        batched.insert(RelationBuilder::binary_from_pairs("R", "x", "y", pairs));
        for (v, u) in [(&["y"][..], &["x"][..]), (&["x"][..], &["y"][..]), (&["x", "y"][..], &[][..])] {
            let expected: Vec<u64> = norms
                .iter()
                .map(|&n| one_by_one.log_norm("R", v, u, n).unwrap().to_bits())
                .collect();
            let got: Vec<u64> =
                batched.log_norms("R", v, u, &norms).unwrap().iter().map(|b| b.to_bits()).collect();
            prop_assert_eq!(&got, &expected);
            prop_assert_eq!(batched.cached_stats(), one_by_one.cached_stats());
            let again: Vec<u64> =
                batched.log_norms("R", v, u, &norms).unwrap().iter().map(|b| b.to_bits()).collect();
            prop_assert_eq!(&again, &expected);
            prop_assert_eq!(batched.cached_stats(), one_by_one.cached_stats());
        }
        prop_assert!(batched.log_norms("R", &["y"], &["x"], &[]).unwrap().is_empty());
    }

    /// ‖d‖_p is non-increasing in p and bounded between max-degree and total.
    #[test]
    fn lp_norms_monotone_in_p(degrees in arb_degrees()) {
        let d = DegreeSequence::from_counts(degrees);
        let mut last = f64::INFINITY;
        for p in [1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 25.0] {
            let n = d.lp_norm(Norm::Finite(p));
            prop_assert!(n <= last * (1.0 + 1e-9));
            prop_assert!(n + 1e-9 >= d.max_degree() as f64);
            prop_assert!(n <= d.total() as f64 + 1e-6);
            last = n;
        }
        prop_assert!(d.lp_norm(Norm::Infinity) <= last * (1.0 + 1e-9));
    }

    /// log2_lp_norm agrees with the direct linear-space computation when the
    /// latter does not overflow.
    #[test]
    fn log_norm_matches_linear_computation(degrees in arb_degrees(), p in 1u32..6) {
        let d = DegreeSequence::from_counts(degrees);
        let direct: f64 = d.as_slice().iter().map(|&x| (x as f64).powi(p as i32)).sum::<f64>()
            .powf(1.0 / p as f64);
        let via_log = d.lp_norm(Norm::Finite(p as f64));
        prop_assert!((direct - via_log).abs() <= 1e-6 * direct.max(1.0),
            "direct {} vs log-space {}", direct, via_log);
    }

    /// The degree sequence of a binary relation: the l1 norm of deg(y|x)
    /// equals the number of distinct (x, y) pairs, the length equals the
    /// number of distinct x values, and the max degree equals the largest
    /// fan-out.
    #[test]
    fn degree_sequence_of_edge_relation_is_consistent(pairs in arb_pairs()) {
        let r = RelationBuilder::binary_from_pairs("R", "x", "y", pairs.clone());
        let mut dedup: Vec<(u64, u64)> = pairs;
        dedup.sort_unstable();
        dedup.dedup();
        if dedup.is_empty() {
            prop_assert!(r.is_empty());
            return Ok(());
        }
        let d = r.degree_sequence(&["y"], &["x"]).unwrap();
        prop_assert_eq!(d.total() as usize, dedup.len());
        let distinct_x = r.distinct_count(&["x"]).unwrap();
        prop_assert_eq!(d.len(), distinct_x);
        let mut max_fanout = 0usize;
        let xs: std::collections::HashSet<u64> = dedup.iter().map(|p| p.0).collect();
        for x in xs {
            let c = dedup.iter().filter(|p| p.0 == x).count();
            max_fanout = max_fanout.max(c);
        }
        prop_assert_eq!(d.max_degree() as usize, max_fanout);
    }

    /// Projections deduplicate and never grow the relation.
    #[test]
    fn projection_never_grows(pairs in arb_pairs()) {
        let r = RelationBuilder::binary_from_pairs("R", "x", "y", pairs);
        let px = r.project(&["x"]).unwrap();
        let pxy = r.project(&["x", "y"]).unwrap();
        prop_assert!(px.len() <= r.len());
        prop_assert_eq!(pxy.len(), r.len());
    }

    /// Building a relation through the builder is equivalent to
    /// from_columns + deduplicated().
    #[test]
    fn builder_equals_dedup_of_raw_columns(pairs in arb_pairs()) {
        let via_builder = RelationBuilder::binary_from_pairs("R", "x", "y", pairs.clone());
        let schema = Schema::new(["x", "y"]).unwrap();
        let raw = Relation::from_columns(
            "R",
            schema,
            vec![
                pairs.iter().map(|p| p.0).collect(),
                pairs.iter().map(|p| p.1).collect(),
            ],
        )
        .unwrap();
        let dedup = raw.deduplicated();
        prop_assert_eq!(via_builder.len(), dedup.len());
        let mut a: Vec<Vec<u64>> = via_builder.rows().collect();
        let mut b: Vec<Vec<u64>> = dedup.rows().collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }
}
