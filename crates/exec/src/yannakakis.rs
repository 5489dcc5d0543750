//! Yannakakis-style evaluation for α-acyclic queries: join-tree construction
//! via GYO reduction, a full reducer (semi-join passes), and an output-size
//! *counter* that never materializes the output.
//!
//! The counter is how the benchmark harness obtains true cardinalities for
//! the JOB-like acyclic suite (Figure 1), whose outputs are far too large to
//! materialize.

use crate::buffers::ColumnBuffers;
use crate::columns::ColumnTable;
use crate::error::ExecError;
use crate::hash_join::semi_join_columns;
use lpb_core::JoinQuery;
use lpb_data::Catalog;
use lpb_entropy::VarSet;
use std::collections::HashMap;

/// A join tree over the query atoms: `parent[i]` is the parent atom of atom
/// `i` (`None` for the root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct JoinTree {
    /// Parent pointers, indexed by atom.
    pub parent: Vec<Option<usize>>,
    /// Atoms in the order they were removed by the GYO reduction (leaves
    /// first); processing in this order visits children before parents.
    pub elimination_order: Vec<usize>,
    /// The root atom.
    pub root: usize,
}

impl JoinTree {
    /// The children of each atom.
    pub fn children(&self) -> Vec<Vec<usize>> {
        let mut ch = vec![Vec::new(); self.parent.len()];
        for (i, p) in self.parent.iter().enumerate() {
            if let Some(p) = p {
                ch[*p].push(i);
            }
        }
        ch
    }
}

/// Attempt to build a join tree with the GYO (Graham–Yu–Özsoyoğlu) ear
/// reduction.  Returns `None` when the query is not α-acyclic.
pub(crate) fn gyo_join_tree(query: &JoinQuery) -> Option<JoinTree> {
    let m = query.n_atoms();
    if m == 1 {
        return Some(JoinTree {
            parent: vec![None],
            elimination_order: vec![0],
            root: 0,
        });
    }
    let mut alive: Vec<bool> = vec![true; m];
    let mut parent: Vec<Option<usize>> = vec![None; m];
    let mut order: Vec<usize> = Vec::with_capacity(m);
    let mut alive_count = m;

    while alive_count > 1 {
        // Find an ear: an alive atom e and a distinct alive atom f such that
        // every variable of e is either exclusive to e (among alive atoms) or
        // contained in f.
        let mut found = None;
        'outer: for e in 0..m {
            if !alive[e] {
                continue;
            }
            // Variables of e shared with some other alive atom.
            let mut shared = VarSet::EMPTY;
            for (j, &alive_j) in alive.iter().enumerate() {
                if j != e && alive_j {
                    shared = shared.union(query.atom_vars(e).intersect(query.atom_vars(j)));
                }
            }
            for (f, &alive_f) in alive.iter().enumerate() {
                if f == e || !alive_f {
                    continue;
                }
                if shared.is_subset_of(query.atom_vars(f)) {
                    found = Some((e, f));
                    break 'outer;
                }
            }
        }
        let (e, f) = found?;
        alive[e] = false;
        alive_count -= 1;
        parent[e] = Some(f);
        order.push(e);
    }
    let root = (0..m).find(|&i| alive[i]).expect("one atom remains");
    order.push(root);
    Some(JoinTree {
        parent,
        elimination_order: order,
        root,
    })
}

/// True when the query is α-acyclic.
pub fn is_acyclic(query: &JoinQuery) -> bool {
    gyo_join_tree(query).is_some()
}

/// Count the output size of an α-acyclic full join query without
/// materializing the output, by weighted message passing over the join tree.
///
/// Each atom's relation starts with weight 1 per tuple.  Processing atoms
/// leaves-first, the message from child `c` to its parent is the child's
/// weighted tuple set (its relation joined with all of its children's
/// messages) grouped by the child–parent separator variables, with weights
/// summed.  At the root the total weight of the root relation joined with
/// its messages is `|Q(D)|`.
pub fn yannakakis_count(query: &JoinQuery, catalog: &Catalog) -> Result<u128, ExecError> {
    let Some(tree) = gyo_join_tree(query) else {
        return Err(ExecError::NotApplicable {
            reason: format!(
                "query `{}` is cyclic; the Yannakakis counter needs an acyclic query",
                query.name()
            ),
        });
    };

    // messages[child] : separator key -> total weight.
    let mut messages: Vec<Option<HashMap<Vec<u64>, u128>>> = vec![None; query.n_atoms()];
    let children = tree.children();

    for &atom in &tree.elimination_order {
        let cols = ColumnTable::from_atom(query, catalog, atom)?;
        let key_of = |positions: &[usize], row: usize| -> Vec<u64> {
            positions.iter().map(|&p| cols.col(p)[row]).collect()
        };
        let child_separators: Vec<(usize, Vec<usize>)> = children[atom]
            .iter()
            .map(|&c| (c, separator_positions(query, atom, c, &cols)))
            .collect();
        let parent_separator =
            tree.parent[atom].map(|p| separator_positions(query, atom, p, &cols));

        // Group the atom's weighted tuples by the separator with the parent
        // (at the root: sum them).
        let mut message: HashMap<Vec<u64>, u128> = HashMap::new();
        let mut total: u128 = 0;
        for row in 0..cols.len() {
            // Weight of the tuple: the product of child-message weights for
            // its separator keys (0 when a child has no matching key).
            let mut weight: u128 = 1;
            for (c, separator) in &child_separators {
                let msg = messages[*c].as_ref().expect("children processed first");
                let matched = msg.get(&key_of(separator, row)).copied().unwrap_or(0);
                weight = weight.saturating_mul(matched);
                if weight == 0 {
                    break;
                }
            }
            if weight == 0 {
                continue;
            }
            match &parent_separator {
                Some(separator) => *message.entry(key_of(separator, row)).or_insert(0) += weight,
                None => total += weight,
            }
        }
        match parent_separator {
            Some(_) => messages[atom] = Some(message),
            None => return Ok(total),
        }
    }
    unreachable!("the elimination order always ends at the root")
}

/// Positions (within `cols`, whose columns are `atom`'s variables) of the
/// separator variables between `atom` and its join-tree neighbour `other`.
fn separator_positions(
    query: &JoinQuery,
    atom: usize,
    other: usize,
    cols: &ColumnTable,
) -> Vec<usize> {
    let reg = query.registry();
    query
        .atom_vars(atom)
        .intersect(query.atom_vars(other))
        .iter()
        .map(|v| {
            cols.position(reg.name(v))
                .expect("separator variable is a column of the atom")
        })
        .collect()
}

/// Run the Yannakakis *full reducer* (two semi-join passes over the join
/// tree, each a bitmap filter over columns — [`semi_join_columns`]) and
/// return the reduced, dangling-tuple-free intermediates, one per atom.
///
/// Every pass is recorded in `counters`: the passes materialize real
/// intermediates and the bound-driven planner costs them instead of
/// assuming them free.  `scan_bounds[j]`, when provided (one entry per atom,
/// or empty for uncertified runs), certifies every pass targeting atom `j`:
/// semi-joins only shrink, so the atom's scan size is a provable upper bound
/// on each pass result.
pub(crate) fn full_reducer_columns(
    query: &JoinQuery,
    catalog: &Catalog,
    counters: &mut crate::counters::IntermediateCounters,
    scan_bounds: &[Option<f64>],
    buffers: &ColumnBuffers,
) -> Result<Vec<ColumnTable>, ExecError> {
    let Some(tree) = gyo_join_tree(query) else {
        return Err(ExecError::NotApplicable {
            reason: "the full reducer needs an acyclic query".into(),
        });
    };
    let mut rels: Vec<ColumnTable> = (0..query.n_atoms())
        .map(|j| ColumnTable::from_atom_in(query, catalog, j, buffers))
        .collect::<Result<_, _>>()?;
    let pass = |rels: &mut Vec<ColumnTable>,
                target: usize,
                other: usize,
                counters: &mut crate::counters::IntermediateCounters| {
        rels[target] = semi_join_columns(&rels[target], &rels[other], buffers);
        counters.record_checked(
            format!("⋉ {}", query.atoms()[target].relation),
            rels[target].len(),
            scan_bounds.get(target).copied().flatten(),
        );
    };

    // Upward pass (leaves to root): parent ⋉ child.
    for &atom in &tree.elimination_order {
        if let Some(parent) = tree.parent[atom] {
            pass(&mut rels, parent, atom, counters);
        }
    }
    // Downward pass (root to leaves): child ⋉ parent.
    for &atom in tree.elimination_order.iter().rev() {
        if let Some(parent) = tree.parent[atom] {
            pass(&mut rels, atom, parent, counters);
        }
    }
    Ok(rels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::IntermediateCounters;
    use crate::oracle::nested_loop_join;
    use lpb_data::RelationBuilder;

    /// `|Q(D)|` by nested loops.
    fn oracle_count(q: &JoinQuery, catalog: &Catalog) -> u128 {
        nested_loop_join(q, catalog, q.registry().names())
            .unwrap()
            .len() as u128
    }

    fn catalog_with_edges(name: &str, edges: Vec<(u64, u64)>) -> Catalog {
        let mut c = Catalog::new();
        c.insert(RelationBuilder::binary_from_pairs(name, "a", "b", edges));
        c
    }

    #[test]
    fn path_queries_are_acyclic_and_triangle_is_not() {
        assert!(is_acyclic(&JoinQuery::path(&["R", "S", "T"])));
        assert!(is_acyclic(&JoinQuery::single_join("R", "S")));
        assert!(!is_acyclic(&JoinQuery::triangle("R", "S", "T")));
        assert!(!is_acyclic(&JoinQuery::cycle(&["A", "B", "C", "D"])));
        // The Loomis-Whitney query with 4 variables is cyclic.
        assert!(!is_acyclic(&JoinQuery::loomis_whitney_4(
            "A", "B", "C", "D"
        )));
        // A star query is acyclic.
        let star = JoinQuery::new(
            "star",
            vec![
                lpb_core::Atom::new("F", &["K", "A", "B"]),
                lpb_core::Atom::new("D1", &["A", "X"]),
                lpb_core::Atom::new("D2", &["B", "Y"]),
            ],
        )
        .unwrap();
        assert!(is_acyclic(&star));
    }

    #[test]
    fn join_tree_structure_of_a_path() {
        let q = JoinQuery::path(&["R", "S", "T"]);
        let tree = gyo_join_tree(&q).unwrap();
        assert_eq!(tree.parent.iter().filter(|p| p.is_none()).count(), 1);
        assert_eq!(tree.elimination_order.len(), 3);
        let children = tree.children();
        let total_children: usize = children.iter().map(Vec::len).sum();
        assert_eq!(total_children, 2);
    }

    #[test]
    fn count_matches_materialized_join_on_paths() {
        let catalog = catalog_with_edges("E", (0..60u64).map(|i| (i % 7, (i * 3) % 11)).collect());
        for q in [
            JoinQuery::single_join("E", "E"),
            JoinQuery::path(&["E", "E", "E"]),
            JoinQuery::path(&["E", "E", "E", "E"]),
        ] {
            let truth = oracle_count(&q, &catalog);
            let counted = yannakakis_count(&q, &catalog).unwrap();
            assert_eq!(counted, truth, "query {}", q.name());
        }
    }

    #[test]
    fn count_matches_on_a_star_schema() {
        let mut catalog = Catalog::new();
        let mut fact = RelationBuilder::new("F", ["k", "a", "b"]).unwrap();
        for i in 0..50u64 {
            fact.push_codes(&[i, i % 5, i % 3]).unwrap();
        }
        catalog.insert(fact.build());
        catalog.insert(RelationBuilder::binary_from_pairs(
            "D1",
            "a",
            "x",
            (0..15u64).map(|i| (i % 5, i)),
        ));
        catalog.insert(RelationBuilder::binary_from_pairs(
            "D2",
            "b",
            "y",
            (0..9u64).map(|i| (i % 3, i)),
        ));
        let q = JoinQuery::new(
            "star",
            vec![
                lpb_core::Atom::new("F", &["K", "A", "B"]),
                lpb_core::Atom::new("D1", &["A", "X"]),
                lpb_core::Atom::new("D2", &["B", "Y"]),
            ],
        )
        .unwrap();
        let truth = oracle_count(&q, &catalog);
        assert_eq!(yannakakis_count(&q, &catalog).unwrap(), truth);
        assert!(truth > 0);
    }

    #[test]
    fn cyclic_queries_are_rejected_by_the_counter() {
        let catalog = catalog_with_edges("E", vec![(1, 2), (2, 3), (3, 1)]);
        let q = JoinQuery::triangle("E", "E", "E");
        assert!(matches!(
            yannakakis_count(&q, &catalog),
            Err(ExecError::NotApplicable { .. })
        ));
    }

    #[test]
    fn full_reducer_removes_dangling_tuples() {
        let mut catalog = Catalog::new();
        catalog.insert(RelationBuilder::binary_from_pairs(
            "R",
            "a",
            "b",
            vec![(1, 10), (2, 20), (3, 30)],
        ));
        catalog.insert(RelationBuilder::binary_from_pairs(
            "S",
            "b",
            "c",
            vec![(10, 100), (40, 400)],
        ));
        let q = JoinQuery::single_join("R", "S");
        let reduced = full_reducer_columns(
            &q,
            &catalog,
            &mut IntermediateCounters::new(),
            &[],
            &ColumnBuffers::default(),
        )
        .unwrap();
        // Only R(1,10) and S(10,100) survive.
        assert_eq!(reduced[0].sorted_rows(), vec![vec![1, 10]]);
        assert_eq!(reduced[1].sorted_rows(), vec![vec![10, 100]]);
        // Count agrees with the reduced product.
        assert_eq!(yannakakis_count(&q, &catalog).unwrap(), 1);
    }

    #[test]
    fn reducer_leaves_exactly_the_tuples_of_the_oracle_output() {
        let mut catalog = Catalog::new();
        catalog.insert(RelationBuilder::binary_from_pairs(
            "R",
            "a",
            "b",
            (0..60u64).map(|i| (i % 9, (i * 3) % 11)),
        ));
        catalog.insert(RelationBuilder::binary_from_pairs(
            "S",
            "b",
            "c",
            (0..50u64).map(|i| (i % 11, (i * 7) % 6)),
        ));
        catalog.insert(RelationBuilder::binary_from_pairs(
            "T",
            "c",
            "d",
            (0..20u64).map(|i| (i % 4, i)),
        ));
        let q = JoinQuery::path(&["R", "S", "T"]);
        let bounds = vec![Some(10.0), Some(10.0), Some(10.0)];
        let mut counters = IntermediateCounters::new();
        let reduced = full_reducer_columns(
            &q,
            &catalog,
            &mut counters,
            &bounds,
            &ColumnBuffers::default(),
        )
        .unwrap();
        // A fully reduced atom holds exactly the projection of the join
        // output onto its variables.
        let names = q.registry().names();
        let output = nested_loop_join(&q, &catalog, names).unwrap();
        assert!(!output.is_empty());
        for (j, table) in reduced.iter().enumerate() {
            let positions: Vec<usize> = table
                .vars()
                .iter()
                .map(|v| names.iter().position(|n| n == v).unwrap())
                .collect();
            let mut expect: Vec<Vec<u64>> = output
                .iter()
                .map(|row| positions.iter().map(|&p| row[p]).collect())
                .collect();
            expect.sort_unstable();
            expect.dedup();
            assert_eq!(table.sorted_rows(), expect, "atom {j}");
        }
        // Two passes per join-tree edge, each recorded under its target's
        // name and checked against that atom's scan certificate.
        assert_eq!(counters.len(), 4);
        assert_eq!(counters.certificates_checked(), 4);
        assert_eq!(counters.certificate_violations(), 0);
        assert!(counters.steps().iter().all(|s| s.label.starts_with("⋉ ")));
        let last_pass_of = |rel: &str| {
            let label = format!("⋉ {rel}");
            counters
                .steps()
                .iter()
                .rev()
                .find(|s| s.label == label)
                .unwrap()
                .rows
        };
        for (j, rel) in ["R", "S", "T"].iter().enumerate() {
            assert_eq!(last_pass_of(rel), reduced[j].len(), "final pass on {rel}");
        }
    }

    #[test]
    fn empty_relation_gives_zero_count() {
        let mut catalog = Catalog::new();
        catalog.insert(RelationBuilder::binary_from_pairs(
            "R",
            "a",
            "b",
            vec![(1, 2)],
        ));
        catalog.insert(RelationBuilder::new("S", ["b", "c"]).unwrap().build());
        let q = JoinQuery::single_join("R", "S");
        assert_eq!(yannakakis_count(&q, &catalog).unwrap(), 0);
    }
}
