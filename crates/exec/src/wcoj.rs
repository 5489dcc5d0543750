//! A generic worst-case-optimal join (attribute-at-a-time / Generic Join):
//! processes the query variables in the global order, intersecting at each
//! level the candidate values of every atom that contains the variable.
//!
//! Its runtime is within a polylog factor of the AGM bound (Ngo–Porat–Ré–
//! Rudra), which makes it the evaluation black box of the paper's
//! partition-and-conquer algorithm (§2.2): after Lemma 2.5 turns every ℓp
//! statistic into an ℓ1 + ℓ∞ pair on each part, running a WCOJ per part
//! yields the runtime of Theorem 2.6 for the binary-relation queries we
//! exercise.

use crate::buffers::ColumnBuffers;
use crate::columns::ColumnTable;
use crate::error::ExecError;
use crate::trie::{RunRange, RunTrie};
use lpb_core::JoinQuery;
use lpb_data::Catalog;
use std::borrow::Borrow;

/// Run the generic join over CSR [`RunTrie`]s, invoking `on_tuple` once per
/// output tuple (in ascending lexicographic order of the global variable
/// order); the argument is the full assignment indexed by global variable
/// index.  Each seek is a galloping search over a trie level's dense sorted
/// key run, with copy-sized `(level, lo, hi)` ranges standing in for node
/// pointers.  `tries` may own or borrow its tries (the partitioned
/// evaluation re-combines the same part tries many times).
pub(crate) fn generic_join_runs<T: Borrow<RunTrie>, F: FnMut(&[u64])>(
    query: &JoinQuery,
    tries: &[T],
    on_tuple: &mut F,
) {
    let n = query.n_vars();
    let mut assignment = vec![0u64; n];
    // Atoms whose variable set contains each variable, precomputed once —
    // this sits on the innermost intersection loop.
    let active_per_var: Vec<Vec<usize>> = (0..n)
        .map(|var| {
            (0..tries.len())
                .filter(|&j| query.atom_vars(j).contains(var))
                .collect()
        })
        .collect();
    let roots: Vec<RunRange> = tries.iter().map(|t| t.borrow().root()).collect();
    recurse_runs(&active_per_var, tries, &roots, 0, &mut assignment, on_tuple);
}

fn recurse_runs<T: Borrow<RunTrie>, F: FnMut(&[u64])>(
    active_per_var: &[Vec<usize>],
    tries: &[T],
    nodes: &[RunRange],
    var: usize,
    assignment: &mut Vec<u64>,
    on_tuple: &mut F,
) {
    if var == active_per_var.len() {
        on_tuple(assignment);
        return;
    }
    let active = &active_per_var[var];
    debug_assert!(!active.is_empty(), "every variable occurs in some atom");

    // Leapfrog intersection over the active atoms' key runs: every atom
    // seeks to the current candidate, and whoever overshoots raises it, so
    // runs of non-matching values are skipped in O(log distance) rather than
    // probed one by one.  `seek` gallops within the node's (lo, hi) window,
    // and a matched key's child range is two array reads.
    let mut next_nodes: Vec<RunRange> = nodes.to_vec();
    let mut candidate = 0u64;
    'outer: loop {
        let mut agreed = true;
        for &j in active {
            let trie: &RunTrie = tries[j].borrow();
            match trie.seek(nodes[j], candidate) {
                None => break 'outer,
                Some((k, idx)) if k == candidate => {
                    next_nodes[j] = trie.child(nodes[j], idx);
                }
                Some((k, _)) => {
                    candidate = k;
                    agreed = false;
                    break;
                }
            }
        }
        if !agreed {
            continue;
        }
        assignment[var] = candidate;
        recurse_runs(
            active_per_var,
            tries,
            &next_nodes,
            var + 1,
            assignment,
            on_tuple,
        );
        // Non-active entries always mirror `nodes`, and every future agreed
        // pass rewrites the active entries before recursing — no restore
        // needed; just move past the matched value.
        match candidate.checked_add(1) {
            Some(next) => candidate = next,
            None => break,
        }
    }
}

/// Build the CSR run tries for every atom of the query from the catalog.
fn build_run_tries(query: &JoinQuery, catalog: &Catalog) -> Result<Vec<RunTrie>, ExecError> {
    (0..query.n_atoms())
        .map(|j| RunTrie::build(query, catalog, j))
        .collect()
}

/// Count the output size with the generic join over pre-built tries (the
/// partitioned evaluation joins parts of relations).
pub(crate) fn wcoj_count_runs<T: Borrow<RunTrie>>(query: &JoinQuery, tries: &[T]) -> u128 {
    let mut count: u128 = 0;
    generic_join_runs(query, tries, &mut |_| count += 1);
    count
}

/// Count the output size with the generic join.
pub fn wcoj_count(query: &JoinQuery, catalog: &Catalog) -> Result<u128, ExecError> {
    Ok(wcoj_count_runs(query, &build_run_tries(query, catalog)?))
}

/// Materialize the output with the generic join, directly into columnar
/// form: columns are the query variables in registry order, rows are in
/// ascending lexicographic order, and each output assignment is appended
/// variable-wise — no per-tuple `Vec` allocation.
pub(crate) fn wcoj_materialize_columns(
    query: &JoinQuery,
    catalog: &Catalog,
    buffers: &ColumnBuffers,
) -> Result<ColumnTable, ExecError> {
    let tries = build_run_tries(query, catalog)?;
    let vars: Vec<String> = (0..query.n_vars())
        .map(|i| query.registry().name(i).to_string())
        .collect();
    let mut out = ColumnTable::with_rows_in(vars, 0, buffers);
    generic_join_runs(query, &tries, &mut |t| out.push_row(t));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::nested_loop_join;
    use lpb_data::RelationBuilder;

    fn clique_catalog(k: u64) -> Catalog {
        let mut edges = Vec::new();
        for a in 0..k {
            for b in 0..k {
                if a != b {
                    edges.push((a, b));
                }
            }
        }
        let mut catalog = Catalog::new();
        catalog.insert(RelationBuilder::binary_from_pairs("E", "a", "b", edges));
        catalog
    }

    /// The table's rows in emission order (the WCOJ promises ascending
    /// lexicographic order, which `sorted_rows` would hide).
    fn rows_in_order(t: &ColumnTable) -> Vec<Vec<u64>> {
        (0..t.len())
            .map(|i| (0..t.vars().len()).map(|c| t.col(c)[i]).collect())
            .collect()
    }

    #[test]
    fn triangle_count_on_cliques() {
        for k in [3u64, 4, 5, 6] {
            let catalog = clique_catalog(k);
            let q = JoinQuery::triangle("E", "E", "E");
            let expected = (k * (k - 1) * (k - 2)) as u128;
            assert_eq!(wcoj_count(&q, &catalog).unwrap(), expected, "clique K{k}");
        }
    }

    #[test]
    fn wcoj_matches_the_oracle_rows_and_order_on_random_data() {
        let mut catalog = Catalog::new();
        catalog.insert(RelationBuilder::binary_from_pairs(
            "R",
            "a",
            "b",
            (0..80u64).map(|i| (i % 13, (i * 7) % 17)),
        ));
        catalog.insert(RelationBuilder::binary_from_pairs(
            "S",
            "a",
            "b",
            (0..90u64).map(|i| ((i * 3) % 17, i % 11)),
        ));
        catalog.insert(RelationBuilder::binary_from_pairs(
            "T",
            "a",
            "b",
            (0..70u64).map(|i| (i % 11, (i * 5) % 13)),
        ));
        for q in [
            JoinQuery::triangle("R", "S", "T"),
            JoinQuery::single_join("R", "S"),
            JoinQuery::path(&["R", "S", "T"]),
            JoinQuery::cycle(&["R", "S", "T", "R"]),
        ] {
            let out = wcoj_materialize_columns(&q, &catalog, &ColumnBuffers::default()).unwrap();
            assert_eq!(out.vars(), q.registry().names(), "query {}", q.name());
            // The oracle's sorted rows in registry order are exactly the
            // leapfrog emission order: same rows *in the same order*.
            let truth = nested_loop_join(&q, &catalog, out.vars()).unwrap();
            assert_eq!(rows_in_order(&out), truth, "query {}", q.name());
            assert_eq!(
                wcoj_count(&q, &catalog).unwrap(),
                truth.len() as u128,
                "query {}",
                q.name()
            );
        }
    }

    #[test]
    fn materialized_output_matches_count_and_has_global_column_order() {
        let catalog = clique_catalog(4);
        let q = JoinQuery::triangle("E", "E", "E");
        let out = wcoj_materialize_columns(&q, &catalog, &ColumnBuffers::default()).unwrap();
        assert_eq!(out.len() as u128, wcoj_count(&q, &catalog).unwrap());
        assert_eq!(
            out.vars(),
            &["X".to_string(), "Y".to_string(), "Z".to_string()]
        );
        // Every output tuple is a genuine triangle.
        for row in out.sorted_rows() {
            let (x, y, z) = (row[0], row[1], row[2]);
            assert_ne!(x, y);
            assert_ne!(y, z);
            assert_ne!(z, x);
        }
    }

    #[test]
    fn higher_arity_atoms_join_correctly() {
        // Loomis-Whitney on a tiny instance, cross-checked against the oracle.
        let mut catalog = Catalog::new();
        let mut tuples = Vec::new();
        for i in 0..4u64 {
            for j in 0..3u64 {
                tuples.push(vec![i, j, (i + j) % 3]);
            }
        }
        for name in ["A", "B", "C", "D"] {
            let mut b = RelationBuilder::new(name, ["p", "q", "r"]).unwrap();
            for t in &tuples {
                b.push_codes(t).unwrap();
            }
            catalog.insert(b.build());
        }
        let q = JoinQuery::loomis_whitney_4("A", "B", "C", "D");
        let out = wcoj_materialize_columns(&q, &catalog, &ColumnBuffers::default()).unwrap();
        let truth = nested_loop_join(&q, &catalog, out.vars()).unwrap();
        assert_eq!(rows_in_order(&out), truth);
        assert_eq!(wcoj_count(&q, &catalog).unwrap(), truth.len() as u128);
    }

    #[test]
    fn empty_relation_gives_empty_output() {
        let mut catalog = Catalog::new();
        catalog.insert(RelationBuilder::binary_from_pairs(
            "R",
            "a",
            "b",
            vec![(1, 2)],
        ));
        catalog.insert(RelationBuilder::new("S", ["a", "b"]).unwrap().build());
        let q = JoinQuery::single_join("R", "S");
        assert_eq!(wcoj_count(&q, &catalog).unwrap(), 0);
        assert!(
            wcoj_materialize_columns(&q, &catalog, &ColumnBuffers::default())
                .unwrap()
                .is_empty()
        );
    }
}
