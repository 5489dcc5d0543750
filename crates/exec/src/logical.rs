//! Logical plans: the join graph of a query.
//!
//! A [`LogicalPlan`] is the optimizer's view of a [`JoinQuery`]: atoms are
//! nodes, and two atoms are adjacent when they share a query variable.  The
//! plan enumeration of [`crate::Optimizer`] works entirely on this graph —
//! connected atom subsets are the candidate sub-joins whose ℓp-norm bounds
//! cost a join order, and the GYO-irreducible *cyclic core* is the part a
//! worst-case-optimal join should evaluate.  [`JoinPlan`] (a bare left-deep
//! atom order) lives here too; lowering to an executable strategy tree is
//! [`crate::PhysicalPlan`]'s job.

use crate::error::ExecError;
use lpb_core::JoinQuery;
use lpb_data::Catalog;
use lpb_entropy::VarSet;

/// Check that `order` mentions every atom index below `n_atoms` exactly
/// once.  Shared by [`JoinPlan::with_order`] and the optimizer's order
/// construction, so both reject malformed permutations identically.
pub(crate) fn validate_atom_permutation(n_atoms: usize, order: &[usize]) -> Result<(), ExecError> {
    if order.len() != n_atoms {
        return Err(ExecError::NotApplicable {
            reason: "join order must mention every atom exactly once".into(),
        });
    }
    let mut seen = vec![false; n_atoms];
    for &i in order {
        if i >= n_atoms || seen[i] {
            return Err(ExecError::NotApplicable {
                reason: "join order must be a permutation of the atom indices".into(),
            });
        }
        seen[i] = true;
    }
    Ok(())
}

/// The join graph over a query's atoms; see the module docs.
///
/// Atom subsets are represented as `u64` bitmasks (bit `j` = atom `j`),
/// which caps supported queries at 64 atoms — far beyond what subset
/// enumeration can afford anyway.
#[derive(Debug, Clone)]
pub struct LogicalPlan {
    atom_vars: Vec<VarSet>,
    adjacency: Vec<Vec<usize>>,
}

impl LogicalPlan {
    /// Build the join graph of `query`.
    pub fn of(query: &JoinQuery) -> Self {
        let m = query.n_atoms();
        assert!(m <= 64, "LogicalPlan supports at most 64 atoms");
        let atom_vars: Vec<VarSet> = (0..m).map(|j| query.atom_vars(j)).collect();
        let adjacency = (0..m)
            .map(|j| {
                (0..m)
                    .filter(|&k| k != j && !atom_vars[j].intersect(atom_vars[k]).is_empty())
                    .collect()
            })
            .collect();
        LogicalPlan {
            atom_vars,
            adjacency,
        }
    }

    /// Number of atoms (graph nodes).
    pub fn n_atoms(&self) -> usize {
        self.atom_vars.len()
    }

    /// Atoms sharing at least one variable with atom `j`.
    pub fn neighbors(&self, j: usize) -> &[usize] {
        &self.adjacency[j]
    }

    /// The variable set covered by the atoms of `mask`.
    pub fn vars_of(&self, mask: u64) -> VarSet {
        self.atoms_of(mask)
            .fold(VarSet::EMPTY, |acc, j| acc.union(self.atom_vars[j]))
    }

    /// The atom indices of `mask`, ascending.
    pub fn atoms_of(&self, mask: u64) -> impl Iterator<Item = usize> + '_ {
        (0..self.n_atoms()).filter(move |j| mask & (1 << j) != 0)
    }

    /// True when the atoms of `mask` form a connected subgraph (the empty
    /// mask is not connected; singletons are).
    pub fn is_connected(&self, mask: u64) -> bool {
        let Some(start) = self.atoms_of(mask).next() else {
            return false;
        };
        let mut reached = 1u64 << start;
        let mut frontier = vec![start];
        while let Some(j) = frontier.pop() {
            for &k in &self.adjacency[j] {
                let bit = 1u64 << k;
                if mask & bit != 0 && reached & bit == 0 {
                    reached |= bit;
                    frontier.push(k);
                }
            }
        }
        reached == mask
    }

    /// Every connected atom subset, as bitmasks in ascending order.  This is
    /// the sub-join lattice a dynamic-programming join-order enumeration
    /// walks; exponential in the worst case, so callers gate on
    /// [`n_atoms`](Self::n_atoms).
    pub fn connected_subsets(&self) -> Vec<u64> {
        let mut found = std::collections::BTreeSet::new();
        let mut frontier: Vec<u64> = (0..self.n_atoms()).map(|j| 1u64 << j).collect();
        for &mask in &frontier {
            found.insert(mask);
        }
        while let Some(mask) = frontier.pop() {
            for j in self.atoms_of(mask) {
                for &k in &self.adjacency[j] {
                    let grown = mask | (1 << k);
                    if grown != mask && found.insert(grown) {
                        frontier.push(grown);
                    }
                }
            }
        }
        found.into_iter().collect()
    }

    /// The GYO-irreducible **cyclic core** of the query: repeatedly remove
    /// ears (atoms whose shared variables are covered by a single other
    /// atom) and return what is left.  Empty for α-acyclic queries; the
    /// whole atom set for cores like triangles and cycles.  Mirrors the GYO
    /// reduction behind [`crate::is_acyclic`], which additionally records
    /// the join tree when the reduction succeeds.
    pub fn cyclic_core(&self) -> Vec<usize> {
        let m = self.n_atoms();
        let mut alive = vec![true; m];
        let mut alive_count = m;
        loop {
            let mut removed = None;
            'outer: for e in 0..m {
                if !alive[e] {
                    continue;
                }
                let mut shared = VarSet::EMPTY;
                for (j, &alive_j) in alive.iter().enumerate() {
                    if j != e && alive_j {
                        shared = shared.union(self.atom_vars[e].intersect(self.atom_vars[j]));
                    }
                }
                for (f, &alive_f) in alive.iter().enumerate() {
                    if f != e && alive_f && shared.is_subset_of(self.atom_vars[f]) {
                        removed = Some(e);
                        break 'outer;
                    }
                }
            }
            match removed {
                Some(e) if alive_count > 1 => {
                    alive[e] = false;
                    alive_count -= 1;
                }
                _ => break,
            }
        }
        if alive_count <= 1 {
            return Vec::new();
        }
        (0..m).filter(|&j| alive[j]).collect()
    }
}

/// A left-deep join plan: the order in which atoms are joined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinPlan {
    order: Vec<usize>,
}

impl JoinPlan {
    /// Plan joining the atoms in the order they appear in the query.
    pub fn in_query_order(query: &JoinQuery) -> Self {
        JoinPlan {
            order: (0..query.n_atoms()).collect(),
        }
    }

    /// Plan with an explicit atom order (must be a permutation of the atom
    /// indices).
    pub fn with_order(query: &JoinQuery, order: Vec<usize>) -> Result<Self, ExecError> {
        validate_atom_permutation(query.n_atoms(), &order)?;
        Ok(JoinPlan { order })
    }

    /// Greedy order: start from the smallest relation and repeatedly add the
    /// atom sharing a variable with the current prefix whose relation is
    /// smallest (falling back to the smallest remaining atom when none is
    /// connected).  The baseline the bound-driven [`crate::Optimizer`] is
    /// measured against.
    pub fn greedy_by_size(query: &JoinQuery, catalog: &Catalog) -> Result<Self, ExecError> {
        let sizes: Vec<usize> = query
            .atoms()
            .iter()
            .map(|a| catalog.get(&a.relation).map(|r| r.len()))
            .collect::<Result<_, _>>()?;
        let m = query.n_atoms();
        let mut remaining: Vec<usize> = (0..m).collect();
        let mut order = Vec::with_capacity(m);
        // Start from the smallest atom.
        remaining.sort_by_key(|&j| sizes[j]);
        let first = remaining.remove(0);
        order.push(first);
        let mut covered = query.atom_vars(first);
        while !remaining.is_empty() {
            let connected_pos = remaining
                .iter()
                .position(|&j| !query.atom_vars(j).intersect(covered).is_empty());
            let pos = connected_pos.unwrap_or(0);
            let next = remaining.remove(pos);
            covered = covered.union(query.atom_vars(next));
            order.push(next);
        }
        Ok(JoinPlan { order })
    }

    /// The atom order.
    pub fn order(&self) -> &[usize] {
        &self.order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_graph_adjacency_and_connectivity() {
        let q = JoinQuery::path(&["E", "E", "E"]);
        let g = LogicalPlan::of(&q);
        assert_eq!(g.n_atoms(), 3);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.is_connected(0b111));
        assert!(g.is_connected(0b011));
        assert!(!g.is_connected(0b101)); // ends of a path do not touch
        assert!(g.is_connected(0b100));
        assert!(!g.is_connected(0));
        assert_eq!(
            g.vars_of(0b011),
            q.registry().set_of(&["X1", "X2", "X3"]).unwrap()
        );
    }

    #[test]
    fn connected_subsets_of_a_path_exclude_gaps() {
        let g = LogicalPlan::of(&JoinQuery::path(&["E", "E", "E"]));
        let subsets = g.connected_subsets();
        // Path of 3 atoms: 3 singletons + {01}, {12} + {012} = 6 (no {02}).
        assert_eq!(subsets, vec![0b001, 0b010, 0b011, 0b100, 0b110, 0b111]);
        let t = LogicalPlan::of(&JoinQuery::triangle("R", "S", "T"));
        // Triangle: every non-empty subset is connected.
        assert_eq!(t.connected_subsets().len(), 7);
    }

    #[test]
    fn cyclic_core_is_empty_iff_acyclic() {
        assert!(LogicalPlan::of(&JoinQuery::path(&["E"; 4]))
            .cyclic_core()
            .is_empty());
        assert_eq!(
            LogicalPlan::of(&JoinQuery::triangle("R", "S", "T")).cyclic_core(),
            vec![0, 1, 2]
        );
        assert_eq!(
            LogicalPlan::of(&JoinQuery::cycle(&["E"; 5])).cyclic_core(),
            vec![0, 1, 2, 3, 4]
        );
        // A triangle with a pendant path: the core is exactly the triangle.
        let q = JoinQuery::new(
            "tri-tail",
            vec![
                lpb_core::Atom::new("R", &["X", "Y"]),
                lpb_core::Atom::new("S", &["Y", "Z"]),
                lpb_core::Atom::new("T", &["Z", "X"]),
                lpb_core::Atom::new("P", &["X", "W"]),
                lpb_core::Atom::new("Q", &["W", "V"]),
            ],
        )
        .unwrap();
        assert_eq!(LogicalPlan::of(&q).cyclic_core(), vec![0, 1, 2]);
    }

    #[test]
    fn permutation_validation_is_shared() {
        assert!(validate_atom_permutation(3, &[2, 0, 1]).is_ok());
        assert!(validate_atom_permutation(3, &[0, 1]).is_err());
        assert!(validate_atom_permutation(3, &[0, 0, 1]).is_err());
        assert!(validate_atom_permutation(3, &[0, 1, 5]).is_err());
        let q = JoinQuery::triangle("E", "E", "E");
        assert!(JoinPlan::with_order(&q, vec![0, 1]).is_err());
        assert!(JoinPlan::with_order(&q, vec![0, 0, 1]).is_err());
        assert!(JoinPlan::with_order(&q, vec![0, 1, 5]).is_err());
        assert!(JoinPlan::with_order(&q, vec![0, 1, 2]).is_ok());
    }
}
