//! Partition-correctness property tests: on random skewed inputs the
//! degree partition must be a true partition (disjoint, complete, strongly
//! satisfying), the light/heavy coarsening must preserve the tuples, and
//! every part's true sub-join size must stay under its per-part LP bound —
//! the soundness the partition-aware planner's certificates rest on.

use lpb_core::{Atom, BatchEstimator, CollectConfig, JoinQuery};
use lpb_data::{Catalog, Norm, Relation, RelationBuilder, Schema};
use lpb_exec::{partition_by_degree, partition_for_statistic, split_light_heavy, true_cardinality};
use proptest::prelude::*;
use std::sync::Arc;

/// Random pairs with planted hubs: a few `y`-values of large `x`-fan-out on
/// top of a uniform background, so degree buckets are non-trivial.
fn arb_skewed_pairs() -> impl Strategy<Value = Vec<(u64, u64)>> {
    (
        1u64..4,
        8u64..40,
        proptest::collection::vec((0u64..40, 0u64..12), 1..120),
    )
        .prop_map(|(hubs, fanout, background)| {
            let mut pairs: Vec<(u64, u64)> = Vec::new();
            for h in 0..hubs {
                for j in 0..fanout {
                    // Hub h: `fanout` distinct x values all mapping to y = h.
                    pairs.push((1000 + h * 100 + j, h));
                }
            }
            pairs.extend(background);
            pairs
        })
}

/// A skewed relation `T` of arity 2 or 3 over `x, y, z`: builder-made
/// (rows sorted and distinct) or raw `from_columns` (rows in reverse order,
/// every row twice).
fn arb_split_input() -> impl Strategy<Value = Relation> {
    (arb_skewed_pairs(), 2usize..4, 0u64..2, 0u64..5).prop_map(|(pairs, arity, built, salt)| {
        let attrs = &["x", "y", "z"][..arity];
        let rows: Vec<Vec<u64>> = pairs
            .iter()
            .map(|&(x, y)| [x, y, (x + salt * y) % 3][..arity].to_vec())
            .collect();
        if built == 1 {
            let mut builder = RelationBuilder::new("T", attrs.iter().copied()).unwrap();
            for row in &rows {
                builder.push_codes(row).unwrap();
            }
            return builder.build();
        }
        let columns = (0..arity)
            .map(|c| rows.iter().rev().chain(&rows).map(|r| r[c]).collect())
            .collect();
        Relation::from_columns("T", Schema::new(attrs.iter().copied()).unwrap(), columns).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// What a light/heavy split counts for its parts is what a cold
    /// harvest of each part computes, bit for bit, and it is all the
    /// part's batches ask for.  For every split direction (`U` every
    /// non-empty proper subset of the attributes, `V` the rest) each
    /// part's counted statistics, as the planner seeds them
    /// (`SimpleStatistics::entries` through `Catalog::record_statistic`),
    /// must equal `Catalog::log_norm` on a fresh catalog holding only the
    /// part; and in the part's sub-catalog, bounding a query that joins on
    /// every attribute of the part must add no statistic to the cache.
    #[test]
    fn counted_split_statistics_equal_the_cold_harvest(rel in arb_split_input()) {
        let norms = Norm::standard_set(4);
        let config = CollectConfig::with_max_norm(4);
        let attrs: Vec<&str> = (0..rel.arity()).map(|a| rel.schema().name(a)).collect();
        // T joined with `S` on each of its attributes, so every attribute
        // is a join variable and every simple statistic is harvested.
        let mut atoms = vec![Atom::new("T", &attrs)];
        let others: Vec<String> = attrs.iter().map(|a| format!("{a}_s")).collect();
        for (a, other) in attrs.iter().zip(&others) {
            atoms.push(Atom::new("S", &[a, other.as_str()]));
        }
        let query = JoinQuery::new("split", atoms).unwrap();
        let every_atom = [(0..query.n_atoms()).collect::<Vec<usize>>()];
        let mut catalog = Catalog::new();
        catalog.insert(rel.clone());
        catalog.insert(RelationBuilder::binary_from_pairs("S", "a", "b", [(0, 1), (1, 2), (1000, 3)]));
        let estimator = BatchEstimator::new();
        // Warm the parent: its cache holds `S`'s statistics, as the
        // harvest before a partition search leaves it.
        estimator.bound_subqueries(&query, &catalog, &every_atom, &config);

        for u_mask in 1..(1usize << attrs.len()) - 1 {
            let pick = |inside: bool| -> Vec<&str> {
                (0..attrs.len())
                    .filter(|a| (u_mask & (1 << a) != 0) == inside)
                    .map(|a| attrs[a])
                    .collect()
            };
            let (u, v) = (pick(true), pick(false));
            let Some((light, heavy)) = split_light_heavy(&rel, &v, &u).unwrap() else {
                continue;
            };
            for part in [light, heavy] {
                if part.relation.is_empty() {
                    continue;
                }
                let entries = part.statistics.entries(&part.relation, &norms);
                let mut cold = Catalog::new();
                cold.insert(part.relation.clone());
                for entry in &entries {
                    let key_v: Vec<&str> = entry.key.v.iter().map(String::as_str).collect();
                    let key_u: Vec<&str> = entry.key.u.iter().map(String::as_str).collect();
                    let want = cold
                        .log_norm(&entry.key.relation, &key_v, &key_u, entry.key.norm())
                        .unwrap();
                    prop_assert_eq!(
                        entry.log_norm.to_bits(),
                        want.to_bits(),
                        "{:?} split ({:?} | {:?})",
                        &entry.key,
                        &v,
                        &u
                    );
                }

                let relation = Arc::new(part.relation);
                let part_catalog = catalog.derive_with(Arc::clone(&relation));
                for entry in entries {
                    part_catalog.record_statistic(entry.key, entry.log_norm);
                }
                let part_query = query.with_atom_relation(0, relation.name()).unwrap();
                let seeded = part_catalog.cached_stats();
                let batch =
                    estimator.bound_subqueries(&part_query, &part_catalog, &every_atom, &config);
                prop_assert!(batch.results[0].is_ok());
                prop_assert_eq!(part_catalog.cached_stats(), seeded, "split ({:?} | {:?})", &v, &u);
            }
        }
    }

    /// `partition_by_degree` output is a true partition: the parts' tuples
    /// are exactly the input tuples (sorted-row equality implies both
    /// disjointness and completeness on a deduplicated relation), and the
    /// Lemma 2.5 refinement strongly satisfies the relation's own ℓp
    /// statistic in every part.
    #[test]
    fn degree_partition_is_disjoint_complete_and_strongly_satisfying(
        pairs in arb_skewed_pairs()
    ) {
        let rel = RelationBuilder::binary_from_pairs("R", "x", "y", pairs);
        let parts = partition_by_degree(&rel, &["x"], &["y"]).unwrap();
        let mut rows: Vec<Vec<u64>> = parts
            .iter()
            .flat_map(|p| p.relation.rows().collect::<Vec<_>>())
            .collect();
        rows.sort_unstable();
        let mut orig: Vec<Vec<u64>> = rel.rows().collect();
        orig.sort_unstable();
        prop_assert_eq!(&rows, &orig);

        let deg = rel.degree_sequence(&["x"], &["y"]).unwrap();
        for p in [1.0, 2.0, 3.0] {
            let log_b = deg.log2_lp_norm(Norm::finite(p)).unwrap();
            let refined =
                partition_for_statistic(&rel, &["x"], &["y"], Norm::finite(p), log_b).unwrap();
            let total: usize = refined.iter().map(|part| part.relation.len()).sum();
            prop_assert_eq!(total, rel.len());
            for part in &refined {
                prop_assert!(
                    part.strongly_satisfies(Norm::finite(p), log_b),
                    "bucket {} violates strong ℓ{} satisfaction",
                    part.bucket,
                    p
                );
            }
        }
    }

    /// The light/heavy coarsening preserves the tuples and genuinely
    /// separates degrees whenever it splits at all.
    #[test]
    fn light_heavy_split_partitions_the_tuples(pairs in arb_skewed_pairs()) {
        let rel = RelationBuilder::binary_from_pairs("R", "x", "y", pairs);
        let Some((light, heavy)) = split_light_heavy(&rel, &["x"], &["y"]).unwrap() else {
            // A single degree bucket: nothing to split, nothing to check.
            return Ok(());
        };
        let (light, heavy) = (light.relation, heavy.relation);
        prop_assert_eq!(light.len() + heavy.len(), rel.len());
        let mut rows: Vec<Vec<u64>> = light.rows().chain(heavy.rows()).collect();
        rows.sort_unstable();
        let mut orig: Vec<Vec<u64>> = rel.rows().collect();
        orig.sort_unstable();
        prop_assert_eq!(&rows, &orig);
        let max_of = |r: &lpb_data::Relation| {
            r.degree_sequence(&["x"], &["y"]).map(|d| d.max_degree()).unwrap_or(0)
        };
        prop_assert!(!light.is_empty() && !heavy.is_empty());
        prop_assert!(max_of(&light) < max_of(&heavy));
    }

    /// Per-part bound soundness: binding one part of a degree split into a
    /// join query, the part's LP bound upper-bounds the part's true
    /// sub-join size — on every part, for random skewed inputs.
    #[test]
    fn per_part_bounds_dominate_true_part_subjoin_sizes(
        pairs in arb_skewed_pairs(),
        spairs in proptest::collection::vec((0u64..12, 0u64..30), 1..80)
    ) {
        let r = RelationBuilder::binary_from_pairs("R", "x", "y", pairs);
        let s = RelationBuilder::binary_from_pairs("S", "y", "z", spairs);
        let mut catalog = Catalog::new();
        catalog.insert(r.clone());
        catalog.insert(s);
        let query = JoinQuery::single_join("R", "S");
        let estimator = BatchEstimator::new();

        let mut parts: Vec<lpb_data::Relation> = partition_by_degree(&r, &["x"], &["y"])
            .unwrap()
            .into_iter()
            .map(|p| p.relation)
            .collect();
        if let Some((light, heavy)) = split_light_heavy(&r, &["x"], &["y"]).unwrap() {
            parts.push(light.relation);
            parts.push(heavy.relation);
        }
        for part in parts {
            if part.is_empty() {
                continue;
            }
            let part_query = query.with_atom_relation(0, part.name()).unwrap();
            let part_catalog = catalog.derive_with(part);
            let bounds = estimator.bound_subqueries(
                &part_query,
                &part_catalog,
                &[vec![0, 1]],
                &CollectConfig::with_max_norm(3),
            );
            let bound = bounds.results[0].as_ref().unwrap();
            prop_assert!(bound.is_bounded());
            let truth = true_cardinality(&part_query, &part_catalog).unwrap() as f64;
            prop_assert!(
                bound.bound() >= truth - 1e-6,
                "part {}: bound {} below truth {}",
                part_query.atoms()[0].relation,
                bound.bound(),
                truth
            );
        }
    }
}
