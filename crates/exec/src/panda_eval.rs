//! The paper's evaluation algorithm (§2.2, Theorem 2.6): reduce ℓp statistics
//! to ℓ1 + ℓ∞ by degree-partitioning each relation (Lemma 2.5), evaluate each
//! combination of parts with a worst-case-optimal join standing in for the
//! PANDA black box, and sum the per-part outputs.
//!
//! Because the parts of one relation partition its tuples, every output tuple
//! is produced by exactly one combination, so the per-part counts sum to the
//! true output size — the algorithm is *exact*, and the point of Theorem 2.6
//! is that its running time is bounded by the ℓp bound (times a
//! query-dependent constant and a polylog factor), which experiment E8
//! verifies empirically.

use crate::columns::ColumnTable;
use crate::error::ExecError;
use crate::partition::partition_by_degree;
use crate::trie::RunTrie;
use crate::wcoj::wcoj_count_runs;
use lpb_core::JoinQuery;
use lpb_data::Catalog;

/// How to partition one atom's relation: the conditional `(V | U)` given as
/// attribute-name lists of the *relation* (not query variables).
#[derive(Debug, Clone)]
pub struct PartitionSpec {
    /// Index of the query atom whose relation is partitioned.
    pub atom: usize,
    /// Dependent attribute names `V`.
    pub v: Vec<String>,
    /// Conditioning attribute names `U`.
    pub u: Vec<String>,
}

impl PartitionSpec {
    /// Convenience constructor.
    pub fn new(atom: usize, v: &[&str], u: &[&str]) -> Self {
        PartitionSpec {
            atom,
            v: v.iter().map(|s| s.to_string()).collect(),
            u: u.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// Statistics of a partitioned evaluation.
#[derive(Debug, Clone)]
pub struct PartitionedRun {
    /// The exact output size.
    pub output_size: u128,
    /// Number of sub-queries evaluated (product of the per-atom part counts).
    pub sub_queries: usize,
    /// Number of parts per partitioned atom.
    pub parts_per_atom: Vec<usize>,
    /// Largest single sub-query output.
    pub max_sub_output: u128,
}

/// Evaluate the query by degree-partitioning the specified atoms and running
/// a generic worst-case-optimal join per combination of parts.
///
/// Atoms not mentioned in `specs` are used whole.  The result is exact.
pub fn partitioned_join_count(
    query: &JoinQuery,
    catalog: &Catalog,
    specs: &[PartitionSpec],
) -> Result<PartitionedRun, ExecError> {
    // One trie per (atom, part): the parts of each partitioned atom (bound
    // to the atom's query variables), the whole relation for the others.
    let mut tries_per_atom: Vec<Vec<RunTrie>> = Vec::with_capacity(query.n_atoms());
    let mut parts_per_atom = Vec::new();
    for j in 0..query.n_atoms() {
        let atom = &query.atoms()[j];
        if let Some(spec) = specs.iter().find(|s| s.atom == j) {
            let rel = catalog.get(&atom.relation)?;
            let v: Vec<&str> = spec.v.iter().map(String::as_str).collect();
            let u: Vec<&str> = spec.u.iter().map(String::as_str).collect();
            let tries: Vec<RunTrie> = partition_by_degree(&rel, &v, &u)?
                .iter()
                .map(|p| {
                    let cols = ColumnTable::from_relation(&p.relation, &atom.vars)?;
                    Ok(RunTrie::from_columns(query, j, &cols))
                })
                .collect::<Result<_, ExecError>>()?;
            parts_per_atom.push(tries.len());
            tries_per_atom.push(tries);
        } else {
            tries_per_atom.push(vec![RunTrie::build(query, catalog, j)?]);
        }
    }

    // Enumerate every combination of parts (odometer) and sum the counts.
    let m = query.n_atoms();
    let mut indices = vec![0usize; m];
    let mut total: u128 = 0;
    let mut max_sub: u128 = 0;
    let mut sub_queries = 0usize;
    loop {
        let combo: Vec<&RunTrie> = (0..m).map(|j| &tries_per_atom[j][indices[j]]).collect();
        let count = wcoj_count_runs(query, &combo);
        total += count;
        max_sub = max_sub.max(count);
        sub_queries += 1;

        // Advance the odometer.
        let mut pos = 0;
        loop {
            if pos == m {
                return Ok(PartitionedRun {
                    output_size: total,
                    sub_queries,
                    parts_per_atom,
                    max_sub_output: max_sub,
                });
            }
            indices[pos] += 1;
            if indices[pos] < tries_per_atom[pos].len() {
                break;
            }
            indices[pos] = 0;
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wcoj::wcoj_count;
    use lpb_data::RelationBuilder;

    /// A graph with a few heavy hubs and many light nodes, so the degree
    /// partition is non-trivial.
    fn hub_catalog() -> Catalog {
        let mut edges: Vec<(u64, u64)> = Vec::new();
        // Hub 0 connects to 0..40, hub 1 to 0..12, the rest is a sparse ring.
        for i in 1..40u64 {
            edges.push((0, i));
            edges.push((i, 0));
        }
        for i in 1..12u64 {
            edges.push((1, i));
            edges.push((i, 1));
        }
        for i in 0..60u64 {
            edges.push((100 + i, 100 + (i + 1) % 60));
        }
        let mut catalog = Catalog::new();
        catalog.insert(RelationBuilder::binary_from_pairs("E", "a", "b", edges));
        catalog
    }

    #[test]
    fn partitioned_triangle_count_is_exact() {
        let catalog = hub_catalog();
        let q = JoinQuery::triangle("E", "E", "E");
        let truth = wcoj_count(&q, &catalog).unwrap();
        let specs = vec![
            PartitionSpec::new(0, &["b"], &["a"]),
            PartitionSpec::new(1, &["b"], &["a"]),
        ];
        let run = partitioned_join_count(&q, &catalog, &specs).unwrap();
        assert_eq!(run.output_size, truth);
        assert_eq!(run.parts_per_atom.len(), 2);
        assert!(run.sub_queries >= run.parts_per_atom.iter().product::<usize>());
        assert!(run.max_sub_output <= truth);
    }

    #[test]
    fn partitioned_single_join_count_is_exact() {
        let catalog = hub_catalog();
        let q = JoinQuery::single_join("E", "E");
        let truth = wcoj_count(&q, &catalog).unwrap();
        // Partition both atoms on the join column's degree sequences, which
        // is exactly what Lemma 2.5 prescribes for the ℓ2 statistics of
        // eq. (18).
        let specs = vec![
            PartitionSpec::new(0, &["a"], &["b"]),
            PartitionSpec::new(1, &["b"], &["a"]),
        ];
        let run = partitioned_join_count(&q, &catalog, &specs).unwrap();
        assert_eq!(run.output_size, truth);
        // Several parts exist because of the hub skew.
        assert!(run.parts_per_atom.iter().all(|&p| p >= 2));
    }

    #[test]
    fn no_specs_degenerates_to_a_single_wcoj() {
        let catalog = hub_catalog();
        let q = JoinQuery::single_join("E", "E");
        let run = partitioned_join_count(&q, &catalog, &[]).unwrap();
        assert_eq!(run.sub_queries, 1);
        assert_eq!(run.output_size, wcoj_count(&q, &catalog).unwrap());
    }

    #[test]
    fn per_part_outputs_are_disjoint_and_cover_the_output() {
        // Follows from exactness, but double check the sum of sub-outputs
        // equals the total rather than exceeding it.
        let catalog = hub_catalog();
        let q = JoinQuery::triangle("E", "E", "E");
        let specs = vec![PartitionSpec::new(0, &["b"], &["a"])];
        let run = partitioned_join_count(&q, &catalog, &specs).unwrap();
        assert_eq!(run.output_size, wcoj_count(&q, &catalog).unwrap());
        assert_eq!(run.sub_queries, run.parts_per_atom[0]);
    }
}
