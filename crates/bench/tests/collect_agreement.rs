//! Differential test of the statistics harvest: a sub-join assembled
//! straight from its atom list out of one per-atom pass over the parent
//! query ([`AtomStatistics::subjoin`]) against the reference — the
//! [`JoinQuery::subquery`] over the same list, and on it the per-sub-query
//! collector the product ran before, one catalog walk per sub-join on the
//! sub-join's own variable numbering, kept here verbatim since the public
//! [`collect_simple_statistics`] now runs through the per-atom code too.
//! Same variable count, same variable set per atom, same statistics in the
//! same order with the same bits, and the same error for a list that
//! cannot be assembled.

use lpb_core::{
    collect_simple_statistics, Atom, AtomStatistics, CollectConfig, ConcreteStatistic, CoreError,
    JoinQuery, StatisticsSet, SubJoin,
};
use lpb_data::{Catalog, Norm, RelationBuilder};
use lpb_datagen::{job_like_catalog, job_like_queries, planner_workloads, JobLikeConfig};
use lpb_entropy::{Conditional, VarSet};
use lpb_exec::LogicalPlan;
use proptest::prelude::*;

/// The attribute names of atom `j`'s relation corresponding to the query
/// variables `vars`, in schema position order.
fn attr_names_of(
    query: &JoinQuery,
    catalog: &Catalog,
    atom: usize,
    vars: VarSet,
) -> Result<Vec<String>, CoreError> {
    let rel = catalog.get(&query.atoms()[atom].relation)?;
    if rel.arity() != query.atoms()[atom].vars.len() {
        return Err(CoreError::AtomArityMismatch {
            relation: query.atoms()[atom].relation.clone(),
            atom_arity: query.atoms()[atom].vars.len(),
            relation_arity: rel.arity(),
        });
    }
    Ok(query
        .atom_positions_of(atom, vars)
        .into_iter()
        .map(|pos| rel.schema().name(pos).to_string())
        .collect())
}

/// The number of atoms each query variable occurs in.
fn occurrence_counts(query: &JoinQuery) -> Vec<usize> {
    let mut counts = vec![0usize; query.n_vars()];
    for j in 0..query.n_atoms() {
        for v in query.atom_vars(j).iter() {
            counts[v] += 1;
        }
    }
    counts
}

/// `collect_simple_statistics` as of the commit before the per-atom harvest.
fn reference_collect(
    query: &JoinQuery,
    catalog: &Catalog,
    config: &CollectConfig,
) -> Result<StatisticsSet, CoreError> {
    let occurrences = occurrence_counts(query);
    let mut stats = StatisticsSet::new();

    for j in 0..query.n_atoms() {
        let rel_name = &query.atoms()[j].relation;
        let atom_vars = query.atom_vars(j);

        // Whole-atom cardinality: ‖deg(Z_j | ∅)‖₁ = |R_j|.
        if config.atom_cardinalities {
            let v_names = attr_names_of(query, catalog, j, atom_vars)?;
            let v_refs: Vec<&str> = v_names.iter().map(String::as_str).collect();
            let b = catalog.log_norm(rel_name, &v_refs, &[], Norm::L1)?;
            stats.push(ConcreteStatistic::new(
                Conditional::new(atom_vars, VarSet::EMPTY),
                Norm::L1,
                j,
                b,
            ));
        }

        for x in atom_vars.iter() {
            let x_set = VarSet::singleton(x);
            let x_names = attr_names_of(query, catalog, j, x_set)?;
            let x_refs: Vec<&str> = x_names.iter().map(String::as_str).collect();

            // Unary distinct count: ‖deg({x} | ∅)‖₁ = |Π_x(R_j)|.
            if config.unary_cardinalities {
                let b = catalog.log_norm(rel_name, &x_refs, &[], Norm::L1)?;
                stats.push(ConcreteStatistic::new(
                    Conditional::new(x_set, VarSet::EMPTY),
                    Norm::L1,
                    j,
                    b,
                ));
            }

            // Degree conditionals (Z_j \ {x} | x) for each requested norm.
            let rest = atom_vars.minus(x_set);
            if rest.is_empty() || (config.join_vars_only && occurrences[x] < 2) {
                continue;
            }
            let v_names = attr_names_of(query, catalog, j, rest)?;
            let v_refs: Vec<&str> = v_names.iter().map(String::as_str).collect();
            let bs = catalog.log_norms(rel_name, &v_refs, &x_refs, &config.norms)?;
            for (&norm, b) in config.norms.iter().zip(bs) {
                stats.push(ConcreteStatistic::new(
                    Conditional::new(rest, x_set),
                    norm,
                    j,
                    b,
                ));
            }
        }
    }
    Ok(stats)
}

fn configs() -> [CollectConfig; 2] {
    [true, false].map(|join_vars_only| CollectConfig {
        join_vars_only,
        ..CollectConfig::with_max_norm(4)
    })
}

/// The reference for one atom list: the sub-query's variable count and
/// per-atom variable sets, and the old collector's statistics on it.
fn reference_subjoin(
    query: &JoinQuery,
    catalog: &Catalog,
    atoms: &[usize],
    config: &CollectConfig,
) -> Result<SubJoin, CoreError> {
    let sub = query.subquery(atoms)?;
    Ok(SubJoin {
        n_vars: sub.n_vars(),
        atom_vars: (0..sub.n_atoms()).map(|i| sub.atom_vars(i)).collect(),
        stats: reference_collect(&sub, catalog, config)?,
    })
}

/// Assembled and reference results of one sub-join are the same value —
/// errors included, variant and message — and, when they are sub-joins,
/// their statistics carry the same bits.
fn assert_same(
    harvested: &AtomStatistics,
    query: &JoinQuery,
    catalog: &Catalog,
    atoms: &[usize],
    config: &CollectConfig,
    what: &str,
) {
    let assembled = harvested.subjoin(atoms);
    let expected = reference_subjoin(query, catalog, atoms, config);
    assert_eq!(assembled, expected, "{what}, atoms {atoms:?}");
    if let (Ok(got), Ok(want)) = (&assembled, &expected) {
        for (g, w) in got.stats.iter().zip(want.stats.iter()) {
            assert_eq!(g.log_bound.to_bits(), w.log_bound.to_bits(), "{what}: {g}");
        }
    }
}

/// Every connected atom subset (single atoms included) of the five planner
/// adversaries and of the six served shapes at both served scales.
#[test]
fn assembled_statistics_equal_the_per_subquery_collector_on_the_planner_corpus() {
    let mut inputs: Vec<(String, JoinQuery, std::rc::Rc<Catalog>)> = planner_workloads(1)
        .into_iter()
        .map(|w| (w.name.to_string(), w.query, std::rc::Rc::new(w.catalog)))
        .collect();
    for movies in [200, 1000] {
        let catalog = std::rc::Rc::new(job_like_catalog(&JobLikeConfig {
            movies,
            link_fanout: 2,
            seed: 23,
            ..JobLikeConfig::default()
        }));
        for q in job_like_queries().into_iter().take(6) {
            let name = format!("{} at {movies} movies", q.query.name());
            inputs.push((name, q.query, std::rc::Rc::clone(&catalog)));
        }
    }
    assert_eq!(inputs.len(), 5 + 12);
    let mut compared = 0;
    for (name, query, catalog) in &inputs {
        let subsets = LogicalPlan::of(query).connected_subsets();
        for config in &configs() {
            let harvested = AtomStatistics::collect(query, catalog, config);
            for &mask in &subsets {
                let atoms: Vec<usize> = (0..query.n_atoms())
                    .filter(|&j| mask >> j & 1 == 1)
                    .collect();
                assert_same(&harvested, query, catalog, &atoms, config, name);
                compared += 1;
            }
            assert_eq!(
                collect_simple_statistics(query, catalog, config),
                reference_collect(query, catalog, config),
                "{name}"
            );
        }
    }
    // `large-mixed-12` alone has 220 multi-atom connected sub-joins.
    assert!(compared > 2 * 220, "compared only {compared} sub-joins");
}

/// An atom that cannot be read fails the sub-joins that contain it, with the
/// error the per-sub-query collector reports, and no other.
#[test]
fn unreadable_atoms_fail_exactly_the_subjoins_that_contain_them() {
    let mut catalog = Catalog::new();
    catalog.insert(RelationBuilder::binary_from_pairs(
        "E",
        "src",
        "dst",
        (0..60u64).map(|i| (i % 7, (i * 5 + 1) % 11)),
    ));
    let query = JoinQuery::new(
        "broken",
        vec![
            Atom::new("E", &["A", "B"]),
            Atom::new("MISSING", &["B", "C"]),
            Atom::new("E", &["C", "D", "A"]), // E is binary
            Atom::new("E", &["D", "B"]),
        ],
    )
    .unwrap();
    let lists: [&[usize]; 10] = [
        &[0],
        &[0, 3],
        &[3, 0],
        &[0, 1],
        &[2, 1, 0],
        &[1, 2],
        &[0, 7],
        &[0, 0],
        &[],
        &[1, 1],
    ];
    for config in &configs() {
        let harvested = AtomStatistics::collect(&query, &catalog, config);
        for atoms in lists {
            assert_same(&harvested, &query, &catalog, atoms, config, "broken");
        }
        assert!(harvested.subjoin(&[0, 3]).is_ok());
        // The first listed atom that cannot be read decides the error.
        assert!(matches!(
            harvested.subjoin(&[2, 1, 0]),
            Err(CoreError::AtomArityMismatch { .. })
        ));
        assert!(matches!(
            harvested.subjoin(&[1, 2]),
            Err(CoreError::Data(_))
        ));
        // A list the sub-query rejects fails before any atom is read, even
        // one naming an unreadable atom.
        for bad in [&[0, 7][..], &[0, 0], &[], &[1, 1]] {
            assert!(matches!(
                harvested.subjoin(bad),
                Err(CoreError::InvalidQuery { .. })
            ));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random queries over one binary and one ternary relation — self-joins
    /// throughout, variables drawn from a small pool in any order, so the
    /// same variable sits at different positions of different atoms — and
    /// random atom lists in any order, connected or not: a sub-join that
    /// starts from a later atom numbers its variables differently from the
    /// parent, which is what the assembly has to reproduce.
    #[test]
    fn assembled_statistics_equal_the_per_subquery_collector_on_random_queries(
        atom_words in proptest::collection::vec(0u64..u64::MAX, 2..7),
        picks in proptest::collection::vec(0u64..u64::MAX, 1..10),
        rows in 20u64..90,
    ) {
        let mut catalog = Catalog::new();
        catalog.insert(RelationBuilder::binary_from_pairs(
            "E",
            "src",
            "dst",
            (0..rows).map(|i| (i % 7, (i * i + 3) % 13)),
        ));
        let mut t = RelationBuilder::new("T", ["a", "b", "c"]).unwrap();
        for i in 0..rows {
            t.push_codes(&[i % 5, (i * 3 + 1) % 9, (i * i) % 4]).unwrap();
        }
        catalog.insert(t.build());

        let pool = ["P", "Q", "R", "S", "U", "V"];
        let atoms: Vec<Atom> = atom_words
            .iter()
            .map(|&word| {
                let arity = if word & 1 == 0 { 2 } else { 3 };
                // Distinct variables: successive picks from the shrinking pool.
                let mut left: Vec<&str> = pool.to_vec();
                let vars: Vec<&str> = (0..arity)
                    .map(|k| left.remove((word >> (8 + 8 * k)) as usize % left.len()))
                    .collect();
                Atom::new(if arity == 2 { "E" } else { "T" }, &vars)
            })
            .collect();
        let query = JoinQuery::new("random", atoms).unwrap();
        let m = query.n_atoms();
        for config in &configs() {
            let harvested = AtomStatistics::collect(&query, &catalog, config);
            for &pick in &picks {
                // A non-empty subset of the atoms, rotated and possibly
                // reversed, so its first atom is not the parent's first.
                let mask = (pick as usize % ((1 << m) - 1)) + 1;
                let mut list: Vec<usize> = (0..m).filter(|&j| mask >> j & 1 == 1).collect();
                let by = (pick >> 16) as usize % list.len();
                list.rotate_left(by);
                if pick >> 32 & 1 == 1 {
                    list.reverse();
                }
                assert_same(&harvested, &query, &catalog, &list, config, "random");
            }
            prop_assert_eq!(
                collect_simple_statistics(&query, &catalog, config),
                reference_collect(&query, &catalog, config)
            );
        }
    }
}
