//! The differential reference: a naive nested-loop join.
//!
//! Every operator of this crate — hash joins, bitmap semi-joins, the
//! leapfrog WCOJ, partitioned unions, and every plan the optimizer builds
//! from them — is tested against [`nested_loop_join`].  It is deliberately
//! the dumbest correct evaluator: walk the atoms in query order and extend
//! every partial binding with every consistent tuple of the next atom.  No
//! hashing, no tries, no plan, no sharing of code with any operator (it
//! reads relations straight from the catalog), so a bug in an operator
//! cannot hide in its own reference.
//!
//! The cost is `Σ_j |bindings after j-1 atoms| · |R_j|`: fine for the test
//! inputs (hundreds of rows per relation), useless for anything else.

use crate::error::ExecError;
use lpb_core::JoinQuery;
use lpb_data::Catalog;

/// Evaluate the full join `query` over `catalog` by nested loops (bag
/// semantics, like the hash-join pipeline) and return the output rows
/// **sorted**, with columns in `out_vars` order.
///
/// `out_vars` must be a permutation of the query's variables — pass an
/// executor output's `vars()` to compare against its
/// [`sorted_rows`](crate::ColumnTable::sorted_rows), which checks the
/// output schema and the result multiset at once.
pub fn nested_loop_join(
    query: &JoinQuery,
    catalog: &Catalog,
    out_vars: &[String],
) -> Result<Vec<Vec<u64>>, ExecError> {
    let registry = query.registry();
    let n_vars = query.n_vars();
    let out_positions: Vec<usize> = out_vars
        .iter()
        .filter_map(|v| registry.index_of(v))
        .collect();
    let mut covered = out_positions.clone();
    covered.sort_unstable();
    if out_vars.len() != n_vars || covered != (0..n_vars).collect::<Vec<_>>() {
        return Err(ExecError::NotApplicable {
            reason: format!(
                "output schema {out_vars:?} is not a permutation of the variables of `{}`",
                query.name()
            ),
        });
    }

    // One partial binding per surviving combination of tuples so far.
    let mut bindings: Vec<Vec<Option<u64>>> = vec![vec![None; n_vars]];
    for atom in query.atoms() {
        let relation = catalog.get(&atom.relation)?;
        if relation.arity() != atom.vars.len() {
            return Err(ExecError::AtomArityMismatch {
                relation: relation.name().to_string(),
                atom_arity: atom.vars.len(),
                relation_arity: relation.arity(),
            });
        }
        let positions: Vec<usize> = atom
            .vars
            .iter()
            .map(|v| registry.index_of(v).expect("atom variables are interned"))
            .collect();
        let tuples: Vec<Vec<u64>> = relation.rows().collect();
        let mut extended = Vec::new();
        for binding in &bindings {
            for tuple in &tuples {
                let consistent = positions
                    .iter()
                    .zip(tuple)
                    .all(|(&p, &value)| binding[p].is_none_or(|bound| bound == value));
                if consistent {
                    let mut next = binding.clone();
                    for (&p, &value) in positions.iter().zip(tuple) {
                        next[p] = Some(value);
                    }
                    extended.push(next);
                }
            }
        }
        bindings = extended;
    }

    let mut rows: Vec<Vec<u64>> = bindings
        .iter()
        .map(|binding| {
            out_positions
                .iter()
                .map(|&p| binding[p].expect("every variable occurs in some atom"))
                .collect()
        })
        .collect();
    rows.sort_unstable();
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpb_core::Atom;
    use lpb_data::RelationBuilder;

    fn vars(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn directed_four_clique_has_24_triangles() {
        let mut edges = Vec::new();
        for a in 0..4u64 {
            for b in 0..4u64 {
                if a != b {
                    edges.push((a, b));
                }
            }
        }
        let mut catalog = Catalog::new();
        catalog.insert(RelationBuilder::binary_from_pairs("E", "a", "b", edges));
        let q = JoinQuery::triangle("E", "E", "E");
        let rows = nested_loop_join(&q, &catalog, &vars(&["X", "Y", "Z"])).unwrap();
        assert_eq!(rows.len(), 24);
        assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "sorted, no duplicates"
        );
        assert!(rows
            .iter()
            .all(|r| r[0] != r[1] && r[1] != r[2] && r[2] != r[0]));
        // A permuted schema permutes the columns of the same rows.
        let mut permuted: Vec<Vec<u64>> = nested_loop_join(&q, &catalog, &vars(&["Z", "X", "Y"]))
            .unwrap()
            .into_iter()
            .map(|r| vec![r[1], r[2], r[0]])
            .collect();
        permuted.sort_unstable();
        assert_eq!(permuted, rows);
    }

    #[test]
    fn an_empty_relation_empties_the_join() {
        let mut catalog = Catalog::new();
        catalog.insert(RelationBuilder::binary_from_pairs(
            "R",
            "a",
            "b",
            vec![(1, 2)],
        ));
        catalog.insert(RelationBuilder::new("S", ["a", "b"]).unwrap().build());
        let q = JoinQuery::single_join("R", "S");
        let schema: Vec<String> = q.registry().names().to_vec();
        assert!(nested_loop_join(&q, &catalog, &schema).unwrap().is_empty());
    }

    #[test]
    fn a_disconnected_query_is_a_cross_product() {
        let mut catalog = Catalog::new();
        catalog.insert(RelationBuilder::binary_from_pairs(
            "R",
            "a",
            "b",
            vec![(1, 2), (3, 4)],
        ));
        catalog.insert(RelationBuilder::binary_from_pairs(
            "T",
            "x",
            "y",
            vec![(7, 8), (9, 10), (11, 12)],
        ));
        let q = JoinQuery::new(
            "r-x-t",
            vec![Atom::new("R", &["A", "B"]), Atom::new("T", &["X", "Y"])],
        )
        .unwrap();
        let rows = nested_loop_join(&q, &catalog, &vars(&["A", "B", "X", "Y"])).unwrap();
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0], vec![1, 2, 7, 8]);
        assert_eq!(rows[5], vec![3, 4, 11, 12]);
    }

    #[test]
    fn malformed_schemas_and_atoms_are_rejected() {
        let mut catalog = Catalog::new();
        catalog.insert(RelationBuilder::binary_from_pairs(
            "R",
            "a",
            "b",
            vec![(1, 2)],
        ));
        let q = JoinQuery::single_join("R", "R");
        for bad in [
            vars(&["X", "Y"]),
            vars(&["X", "Y", "Y"]),
            vars(&["X", "Y", "W"]),
        ] {
            assert!(nested_loop_join(&q, &catalog, &bad).is_err(), "{bad:?}");
        }
        let wide = JoinQuery::new("wide", vec![Atom::new("R", &["A", "B", "C"])]).unwrap();
        assert!(matches!(
            nested_loop_join(&wide, &catalog, &vars(&["A", "B", "C"])),
            Err(ExecError::AtomArityMismatch { .. })
        ));
    }
}
