//! Reference evaluators the benchmark checks the program's answers against.
//!
//! Both read only `Relation::rows()` and the query's atoms: no reference
//! value comes from `lpb-exec`.  Relations are sets (the builder
//! deduplicates), so a full join's output is a set too and counting rows is
//! counting answers.

use lpb_core::JoinQuery;
use lpb_data::Catalog;
use std::collections::HashMap;

/// Rows over named variables, stored flat (`width` values per row) so the
/// reference's own footprint stays small beside the program's.
struct Table {
    vars: Vec<String>,
    data: Vec<u64>,
}

impl Table {
    fn width(&self) -> usize {
        self.vars.len()
    }

    fn rows(&self) -> impl Iterator<Item = &[u64]> {
        self.data.chunks_exact(self.width())
    }
}

fn atom_table(query: &JoinQuery, atom: usize, catalog: &Catalog) -> Result<Table, String> {
    let atom = &query.atoms()[atom];
    let relation = catalog.get(&atom.relation).map_err(|e| e.to_string())?;
    if relation.arity() != atom.vars.len() {
        return Err(format!(
            "atom over `{}` binds {} variables to {} attributes",
            atom.relation,
            atom.vars.len(),
            relation.arity()
        ));
    }
    Ok(Table {
        vars: atom.vars.clone(),
        data: relation.rows().flatten().collect(),
    })
}

/// Positions in `left` and `right` of the variables both bind.
fn shared_positions(left: &[String], right: &[String]) -> Vec<(usize, usize)> {
    left.iter()
        .enumerate()
        .filter_map(|(i, v)| right.iter().position(|w| w == v).map(|j| (i, j)))
        .collect()
}

/// Count `query`'s answers with a naive left-to-right hash join: atoms are
/// taken in query order (preferring one that shares a variable with what is
/// already joined), every intermediate is materialized, and only the last
/// join is counted instead of stored.
pub fn hash_join_count(query: &JoinQuery, catalog: &Catalog) -> Result<u128, String> {
    let n = query.n_atoms();
    let mut current = atom_table(query, 0, catalog)?;
    let mut pending: Vec<usize> = (1..n).collect();
    while !pending.is_empty() {
        let pick = pending
            .iter()
            .position(|&j| !shared_positions(&current.vars, &query.atoms()[j].vars).is_empty())
            .unwrap_or(0);
        let next = atom_table(query, pending.remove(pick), catalog)?;
        let shared = shared_positions(&current.vars, &next.vars);
        let fresh: Vec<usize> = (0..next.width())
            .filter(|j| shared.iter().all(|&(_, sj)| sj != *j))
            .collect();
        let mut index: HashMap<Vec<u64>, Vec<usize>> = HashMap::new();
        for (r, row) in next.rows().enumerate() {
            let key = shared.iter().map(|&(_, j)| row[j]).collect();
            index.entry(key).or_default().push(r);
        }
        let key_of = |row: &[u64]| -> Vec<u64> { shared.iter().map(|&(i, _)| row[i]).collect() };
        if pending.is_empty() {
            return Ok(current
                .rows()
                .map(|row| index.get(&key_of(row)).map_or(0, |m| m.len() as u128))
                .sum());
        }
        let mut vars = current.vars.clone();
        vars.extend(fresh.iter().map(|&j| next.vars[j].clone()));
        let mut data = Vec::new();
        for row in current.rows() {
            for &r in index.get(&key_of(row)).map_or(&[][..], Vec::as_slice) {
                let matched = &next.data[r * next.width()..(r + 1) * next.width()];
                data.extend_from_slice(row);
                data.extend(fresh.iter().map(|&j| matched[j]));
            }
        }
        current = Table { vars, data };
    }
    Ok((current.data.len() / current.width()) as u128)
}

/// An atom during elimination: its variables, and per tuple how many
/// answers of the atoms already folded into it extend that tuple.
type WeightedAtom = (Vec<String>, HashMap<Vec<u64>, u128>);

/// Count an α-acyclic query's answers without materializing any of them:
/// repeatedly pick a leaf atom (one whose variables shared with the rest
/// all lie in a single other atom), sum its tuple weights per shared key,
/// and multiply them into that other atom.  Errors on a cyclic query.
pub fn elimination_count(query: &JoinQuery, catalog: &Catalog) -> Result<u128, String> {
    let mut atoms: Vec<WeightedAtom> = Vec::new();
    for j in 0..query.n_atoms() {
        let table = atom_table(query, j, catalog)?;
        let weights = table.rows().map(|row| (row.to_vec(), 1u128)).collect();
        atoms.push((table.vars, weights));
    }
    while atoms.len() > 1 {
        let leaf = (0..atoms.len()).find_map(|i| {
            let outside: Vec<&String> = atoms[i]
                .0
                .iter()
                .filter(|v| {
                    atoms
                        .iter()
                        .enumerate()
                        .any(|(k, (vars, _))| k != i && vars.contains(v))
                })
                .collect();
            (0..atoms.len())
                .find(|&j| j != i && outside.iter().all(|v| atoms[j].0.contains(v)))
                .map(|j| (i, j))
        });
        let Some((i, j)) = leaf else {
            return Err(format!("`{}` is not acyclic", query.name()));
        };
        let shared = shared_positions(&atoms[i].0, &atoms[j].0);
        let mut summed: HashMap<Vec<u64>, u128> = HashMap::new();
        for (tuple, weight) in &atoms[i].1 {
            let key = shared.iter().map(|&(a, _)| tuple[a]).collect();
            *summed.entry(key).or_default() += weight;
        }
        let target = std::mem::take(&mut atoms[j].1);
        atoms[j].1 = target
            .into_iter()
            .filter_map(|(tuple, weight)| {
                let key: Vec<u64> = shared.iter().map(|&(_, b)| tuple[b]).collect();
                summed.get(&key).map(|s| (tuple, weight * s))
            })
            .collect();
        atoms.remove(i);
    }
    Ok(atoms[0].1.values().sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpb_core::Atom;
    use lpb_data::RelationBuilder;

    fn catalog(relations: &[(&str, &[(u64, u64)])]) -> Catalog {
        let mut c = Catalog::new();
        for (name, pairs) in relations {
            c.insert(RelationBuilder::binary_from_pairs(
                *name,
                "a",
                "b",
                pairs.iter().copied(),
            ));
        }
        c
    }

    #[test]
    fn a_hand_counted_triangle() {
        // Directed triangles X→Y→Z→X: (1,2,3) in its three rotations, and
        // the self-loop (4,4,4) once.  The edge 3→4 closes nothing.
        let c = catalog(&[("E", &[(1, 2), (2, 3), (3, 1), (4, 4), (3, 4)])]);
        let q = JoinQuery::triangle("E", "E", "E");
        assert_eq!(hash_join_count(&q, &c).unwrap(), 4);
        assert!(elimination_count(&q, &c).is_err(), "a triangle is cyclic");
    }

    #[test]
    fn a_hand_counted_three_atom_chain() {
        // R(A,B) ⋈ S(B,C) ⋈ T(C,D): b=1 has 2 R-rows and 2 S-rows (c=5,6),
        // b=2 has 1 R-row and 1 S-row (c=6); c=5 has 1 T-row, c=6 has 3.
        // b=1: 2·(1 + 3) = 8;  b=2: 1·3 = 3;  R(9,9) joins nothing.
        let c = catalog(&[
            ("R", &[(10, 1), (11, 1), (12, 2), (9, 9)]),
            ("S", &[(1, 5), (1, 6), (2, 6), (3, 7)]),
            ("T", &[(5, 0), (6, 0), (6, 1), (6, 2)]),
        ]);
        let q = JoinQuery::new(
            "chain",
            vec![
                Atom::new("R", &["A", "B"]),
                Atom::new("S", &["B", "C"]),
                Atom::new("T", &["C", "D"]),
            ],
        )
        .unwrap();
        assert_eq!(hash_join_count(&q, &c).unwrap(), 11);
        assert_eq!(elimination_count(&q, &c).unwrap(), 11);
    }

    #[test]
    fn the_two_evaluators_agree_on_a_star_with_a_tail() {
        let c = catalog(&[
            ("L1", &[(1, 1), (1, 2), (2, 1), (3, 3)]),
            ("L2", &[(1, 7), (2, 7), (2, 8), (4, 9)]),
            ("D", &[(7, 0), (8, 0), (8, 1)]),
        ]);
        let q = JoinQuery::new(
            "star",
            vec![
                Atom::new("L1", &["M", "A"]),
                Atom::new("L2", &["M", "B"]),
                Atom::new("D", &["B", "C"]),
            ],
        )
        .unwrap();
        // m=1: 2 L1-rows × (b=7 → 1) = 2;  m=2: 1 × (b=7 → 1, b=8 → 2) = 3.
        assert_eq!(hash_join_count(&q, &c).unwrap(), 5);
        assert_eq!(elimination_count(&q, &c).unwrap(), 5);
    }
}
