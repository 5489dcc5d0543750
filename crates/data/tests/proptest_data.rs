//! Property tests for degree sequences, norms and relation invariants.

use lpb_data::{
    Catalog, DegreeSequence, Norm, Relation, RelationBuilder, Schema, StatisticsCollector,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn arb_pairs() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..50, 0u64..50), 0..200)
}

fn arb_degrees() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(1u64..1000, 1..60)
}

/// A relation of arity 1–3 over attributes `a, b, c`: half of them
/// builder-made (rows sorted and distinct), half raw `from_columns` ones
/// (rows in random order, duplicates kept) — possibly empty either way.
fn arb_relation() -> impl Strategy<Value = Relation> {
    (1usize..4, 0u64..2).prop_flat_map(|(arity, built)| {
        proptest::collection::vec(proptest::collection::vec(0u64..6, arity), 0..60).prop_map(
            move |rows| {
                let attrs = &["a", "b", "c"][..arity];
                if built == 1 {
                    return build(attrs, &rows);
                }
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

/// A builder-made relation `T` over `attrs` holding `rows`.
fn build(attrs: &[&str], rows: &[Vec<u64>]) -> Relation {
    let mut builder = RelationBuilder::new("T", attrs.iter().copied()).unwrap();
    for row in rows {
        builder.push_codes(row).unwrap();
    }
    builder.build()
}

/// A builder-made relation of arity 1–3 over attributes `a, b, c`,
/// possibly empty.
fn arb_built_relation() -> impl Strategy<Value = Relation> {
    (1usize..4).prop_flat_map(|arity| {
        proptest::collection::vec(proptest::collection::vec(0u64..6, arity), 0..60)
            .prop_map(move |rows| build(&["a", "b", "c"][..arity], &rows))
    })
}

/// The statistics calls the pure-statistics test makes on a catalog: the
/// standard collector on every relation, then `log_norms` of
/// `deg(last | rest)` at two norms, one of them outside the standard set.
fn collect_every_relation(catalog: &Catalog) {
    let mut names = catalog.relation_names();
    names.sort();
    for name in &names {
        StatisticsCollector::standard(4)
            .materialize_relation(catalog, name)
            .unwrap();
        let rel = catalog.get(name).unwrap();
        let attrs: Vec<&str> = (0..rel.arity()).map(|a| rel.schema().name(a)).collect();
        let (last, rest) = attrs.split_last().unwrap();
        catalog
            .log_norms(name, &[*last], rest, &[Norm::Finite(1.5), Norm::Infinity])
            .unwrap();
    }
}

/// The bytes of `catalog`'s statistics file.
fn saved_statistics(catalog: &Catalog, label: &str) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!(
        "lpbound_pure_statistics_{}_{label}.stats",
        std::process::id()
    ));
    catalog.save_statistics(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

/// The statistics file of a cold catalog holding the same rows as
/// `catalog`, after the same calls.
fn cold_statistics(catalog: &Catalog, label: &str) -> Vec<u8> {
    let mut cold = Catalog::new();
    for name in catalog.relation_names() {
        cold.insert(Relation::clone(&catalog.get(&name).unwrap()));
    }
    collect_every_relation(&cold);
    saved_statistics(&cold, label)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The one grouping routine behind `grouping` and `degree_sequence`
    /// against a brute-force oracle: group the distinct `(U, V)` pairs by
    /// `U` in a `BTreeMap<key, BTreeSet<key>>`.  Both the degrees and the
    /// rows of each group: `for_each_row` visits every row once, in the
    /// group of its `U`-value, groups in ascending `U` order.
    /// Every `U ⊆ attrs` (including `∅`) and every non-empty `V` — so every
    /// simple conditional (`|R|`, `|Π_x|`, `deg(rest | x)`) and the
    /// `|U| = 2` ones.  Builder-made relations take the routine's counting
    /// case on the simple conditionals; raw ones (unsorted, duplicated) and
    /// the rest take its row-order case.
    #[test]
    fn degree_sequence_matches_the_definition(rel in arb_relation()) {
        let all = (1usize << rel.arity()) - 1;
        let key = |row: &[u64], mask: usize| -> Vec<u64> {
            (0..row.len()).filter(|i| mask & (1 << i) != 0).map(|i| row[i]).collect()
        };
        for u_mask in 0..=all {
            let u = attrs_of(&rel, u_mask);
            for v_mask in 1..=all {
                let v = attrs_of(&rel, v_mask);
                let mut groups: BTreeMap<Vec<u64>, BTreeSet<Vec<u64>>> = BTreeMap::new();
                for row in rel.rows() {
                    groups.entry(key(&row, u_mask)).or_default().insert(key(&row, v_mask));
                }
                let expected = DegreeSequence::from_counts(
                    groups.values().map(|vs| vs.len() as u64).collect(),
                );
                prop_assert_eq!(rel.degree_sequence(&v, &u).unwrap(), expected, "({:?} | {:?})", v, u);

                let keys: Vec<&Vec<u64>> = groups.keys().collect();
                let grouping = rel.grouping(&v, &u).unwrap();
                let degrees: Vec<u64> = groups.values().map(|vs| vs.len() as u64).collect();
                prop_assert_eq!(grouping.degrees(), &degrees[..], "({:?} | {:?})", v, u);
                let mut group_of = vec![None; rel.len()];
                grouping.for_each_row(|row, group| {
                    assert!(group_of[row].replace(group).is_none(), "row {row} visited twice");
                });
                for (row, group) in group_of.into_iter().enumerate() {
                    prop_assert_eq!(
                        group.map(|g| keys[g]),
                        Some(&key(&rel.row(row), u_mask)),
                        "({:?} | {:?}) row {}",
                        v,
                        u,
                        row
                    );
                }
            }
        }

        // The distinct rows in builder order.
        let distinct: Vec<Vec<u64>> = rel.rows().collect::<BTreeSet<_>>().into_iter().collect();
        prop_assert_eq!(rel.deduplicated().rows().collect::<Vec<_>>(), distinct);
    }

    /// The strictly-increasing flag a relation records when it is built
    /// equals a brute-force check of its rows, whichever constructor built
    /// it: the builder (deduplicating or keeping duplicates),
    /// `binary_from_pairs`, raw `from_columns`, `deduplicated`, `project`,
    /// `with_name`, `with_schema`, and `gather` of ascending, repeated and
    /// descending row lists.
    #[test]
    fn the_strict_flag_matches_a_brute_force_check(
        rel in arb_relation(),
        keep in proptest::collection::vec(0u64..3, 0..60),
    ) {
        let brute = |r: &Relation| {
            let rows: Vec<Vec<u64>> = r.rows().collect();
            rows.windows(2).all(|w| w[0] < w[1])
        };
        let attrs: Vec<&str> = (0..rel.arity()).map(|a| rel.schema().name(a)).collect();
        let rows: Vec<Vec<u64>> = rel.rows().collect();
        let build = |dedup: bool| {
            let mut builder = RelationBuilder::new("B", attrs.iter().copied()).unwrap();
            if !dedup {
                builder = builder.keep_duplicates();
            }
            for row in &rows {
                builder.push_codes(row).unwrap();
            }
            builder.build()
        };
        let ascending: Vec<usize> =
            (0..rel.len()).filter(|&r| keep.get(r).is_some_and(|&k| k > 0)).collect();
        let repeated: Vec<usize> = ascending.iter().flat_map(|&r| [r, r]).collect();
        let descending: Vec<usize> = ascending.iter().rev().copied().collect();
        let mut made = vec![
            rel.clone(),
            build(true),
            build(false),
            rel.deduplicated(),
            rel.project(&attrs[..1]).unwrap(),
            rel.project(&attrs[attrs.len() - 1..]).unwrap(),
            rel.with_name("W"),
            rel.with_schema(Schema::new(attrs.iter().map(|a| a.to_uppercase())).unwrap()).unwrap(),
            rel.gather("G", &ascending),
            rel.gather("G", &repeated),
            rel.gather("G", &descending),
        ];
        if rel.arity() == 2 {
            made.push(RelationBuilder::binary_from_pairs(
                "P",
                "a",
                "b",
                rows.iter().map(|r| (r[0], r[1])),
            ));
        }
        for r in &made {
            prop_assert_eq!(r.is_strictly_increasing(), brute(r), "{}", r.name());
        }
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

    /// A catalog's cached statistics are a function of its rows: a base
    /// catalog, a `derive_with` sub-catalog of it (which carries the base's
    /// warm cache) and a `successor_with` successor, each after the
    /// collector and a `log_norms` call, save byte for byte the statistics
    /// file of a cold catalog built from the same rows after the same
    /// calls.
    #[test]
    fn cached_statistics_are_a_function_of_the_rows(
        r in arb_built_relation(),
        s in arb_built_relation(),
        part in arb_built_relation(),
        next in arb_built_relation(),
    ) {
        let mut base = Catalog::new();
        base.insert(r.with_name("R"));
        base.insert(s.with_name("S"));
        collect_every_relation(&base);
        let derived = base.derive_with(part.with_name("R"));
        let successor = base.successor_with(next.with_name("S"));
        prop_assert_eq!(successor.epoch(), base.epoch() + 1);
        for (label, catalog) in [("base", &base), ("derived", &derived), ("successor", &successor)] {
            collect_every_relation(catalog);
            prop_assert!(
                saved_statistics(catalog, label) == cold_statistics(catalog, &format!("{label}_cold")),
                "{} catalog's statistics differ from a cold catalog's",
                label
            );
        }
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
