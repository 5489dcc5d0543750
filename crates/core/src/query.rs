//! Full conjunctive (join) queries.

use crate::error::CoreError;
use lpb_entropy::{Conditional, VarRegistry, VarSet};
use std::fmt;

/// One atom `R(Z)` of a join query: a relation name plus the query variables
/// bound to its attribute positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// Name of the relation in the catalog.
    pub relation: String,
    /// Query variable names, one per relation attribute position.
    pub vars: Vec<String>,
}

impl Atom {
    /// Build an atom.
    pub fn new(relation: impl Into<String>, vars: &[&str]) -> Atom {
        Atom {
            relation: relation.into(),
            vars: vars.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// A full conjunctive query `Q(X) = ⋀_j R_j(Z_j)` (eq. 6 of the paper).
///
/// Variables are identified by name; the query owns a [`VarRegistry`]
/// assigning each distinct variable a bit position, in order of first
/// appearance.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinQuery {
    name: String,
    atoms: Vec<Atom>,
    registry: VarRegistry,
}

impl JoinQuery {
    /// Build a query from its atoms.
    pub fn new(name: impl Into<String>, atoms: Vec<Atom>) -> Result<Self, CoreError> {
        if atoms.is_empty() {
            return Err(CoreError::InvalidQuery {
                reason: "a join query needs at least one atom".into(),
            });
        }
        let mut registry = VarRegistry::new();
        for atom in &atoms {
            if atom.vars.is_empty() {
                return Err(CoreError::InvalidQuery {
                    reason: format!("atom over `{}` has no variables", atom.relation),
                });
            }
            for (i, v) in atom.vars.iter().enumerate() {
                if atom.vars[..i].contains(v) {
                    return Err(CoreError::InvalidQuery {
                        reason: format!(
                            "variable `{v}` appears twice in the atom over `{}`",
                            atom.relation
                        ),
                    });
                }
                registry.intern(v);
            }
        }
        Ok(JoinQuery {
            name: name.into(),
            atoms,
            registry,
        })
    }

    /// Query name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The atoms, in the order given.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Number of atoms.
    pub fn n_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// The variable registry (name ↔ bit position).
    pub fn registry(&self) -> &VarRegistry {
        &self.registry
    }

    /// Number of distinct variables.
    pub fn n_vars(&self) -> usize {
        self.registry.len()
    }

    /// The set of all query variables.
    pub fn all_vars(&self) -> VarSet {
        self.registry.all()
    }

    /// The variable set of atom `j`.
    pub fn atom_vars(&self, j: usize) -> VarSet {
        self.registry
            .set_of(
                &self.atoms[j]
                    .vars
                    .iter()
                    .map(String::as_str)
                    .collect::<Vec<_>>(),
            )
            .expect("atom variables are registered at construction")
    }

    /// Indices of the atoms that guard the conditional `(V | U)`, i.e. whose
    /// variable set contains `U ∪ V`.
    pub fn guards(&self, conditional: &Conditional) -> Vec<usize> {
        let needed = conditional.all_vars();
        (0..self.atoms.len())
            .filter(|&j| needed.is_subset_of(self.atom_vars(j)))
            .collect()
    }

    /// Map a query-variable set to the attribute names of atom `j`'s
    /// relation positions, in atom order.  Used when harvesting statistics
    /// from base relations, whose schemas may use different attribute names
    /// than the query variables.
    pub fn atom_positions_of(&self, j: usize, vars: VarSet) -> Vec<usize> {
        let atom = &self.atoms[j];
        atom.vars
            .iter()
            .enumerate()
            .filter(|(_, v)| {
                let idx = self.registry.index_of(v).expect("registered");
                vars.contains(idx)
            })
            .map(|(pos, _)| pos)
            .collect()
    }

    /// True when every atom is binary (the setting of Jayaraman et al.,
    /// Appendix B).
    pub fn is_binary(&self) -> bool {
        self.atoms.iter().all(|a| a.vars.len() == 2)
    }

    /// The sub-join over a subset of this query's atoms (given by index, in
    /// the given order): the query a plan enumerator bounds when costing the
    /// intermediate that joins exactly those atoms.  Variable *names* are
    /// preserved, so results join back against the parent query's
    /// intermediates; bit positions are re-interned per subquery.
    pub fn subquery(&self, atoms: &[usize]) -> Result<JoinQuery, CoreError> {
        self.check_atom_list(atoms)?;
        let selected = atoms.iter().map(|&j| self.atoms[j].clone()).collect();
        let indices: Vec<String> = atoms.iter().map(|j| j.to_string()).collect();
        JoinQuery::new(format!("{}[{}]", self.name, indices.join(",")), selected)
    }

    /// The errors [`subquery`](Self::subquery) reports for an atom list: an
    /// index out of range or repeated, or no atom at all.
    pub(crate) fn check_atom_list(&self, atoms: &[usize]) -> Result<(), CoreError> {
        let mut seen = vec![false; self.atoms.len()];
        for &j in atoms {
            if j >= self.atoms.len() || seen[j] {
                return Err(CoreError::InvalidQuery {
                    reason: format!(
                        "subquery atoms must be distinct indices below {}, got {atoms:?}",
                        self.atoms.len()
                    ),
                });
            }
            seen[j] = true;
        }
        if atoms.is_empty() {
            return Err(CoreError::InvalidQuery {
                reason: "a join query needs at least one atom".into(),
            });
        }
        Ok(())
    }

    /// The same query with atom `atom`'s relation name replaced — the query
    /// a partition-aware planner evaluates against one **part** of a degree
    /// partition.  Variables (and hence the registry and every variable bit
    /// position) are unchanged, so plans, bounds and sub-join masks computed
    /// for `self` apply to the rebound query unchanged.
    pub fn with_atom_relation(
        &self,
        atom: usize,
        relation: impl Into<String>,
    ) -> Result<JoinQuery, CoreError> {
        if atom >= self.atoms.len() {
            return Err(CoreError::InvalidQuery {
                reason: format!(
                    "atom index {atom} out of range for a {}-atom query",
                    self.atoms.len()
                ),
            });
        }
        let mut atoms = self.atoms.clone();
        atoms[atom].relation = relation.into();
        JoinQuery::new(self.name.clone(), atoms)
    }

    // ------------------------------------------------------------------
    // Builders for the paper's running examples.
    // ------------------------------------------------------------------

    /// The triangle query `Q(X,Y,Z) = R(X,Y) ∧ S(Y,Z) ∧ T(Z,X)` (eq. 1).
    pub fn triangle(r: &str, s: &str, t: &str) -> JoinQuery {
        JoinQuery::new(
            "triangle",
            vec![
                Atom::new(r, &["X", "Y"]),
                Atom::new(s, &["Y", "Z"]),
                Atom::new(t, &["Z", "X"]),
            ],
        )
        .expect("triangle query is well formed")
    }

    /// The single-join query `Q(X,Y,Z) = R(X,Y) ∧ S(Y,Z)` (eq. 14).
    pub fn single_join(r: &str, s: &str) -> JoinQuery {
        JoinQuery::new(
            "single-join",
            vec![Atom::new(r, &["X", "Y"]), Atom::new(s, &["Y", "Z"])],
        )
        .expect("single join query is well formed")
    }

    /// The path query of length `k` (i.e. `k` binary atoms over `k+1`
    /// variables), `⋀_i R_i(X_i, X_{i+1})` (Example 2.2).  All atoms may use
    /// the same relation name for a self-join path.
    pub fn path(relations: &[&str]) -> JoinQuery {
        assert!(!relations.is_empty(), "a path needs at least one atom");
        let atoms = relations
            .iter()
            .enumerate()
            .map(|(i, r)| {
                Atom::new(
                    *r,
                    &[
                        format!("X{}", i + 1).as_str(),
                        format!("X{}", i + 2).as_str(),
                    ],
                )
            })
            .collect();
        JoinQuery::new(format!("path-{}", relations.len()), atoms)
            .expect("path query is well formed")
    }

    /// The cycle query of length `k` over the given relation names
    /// (Example 2.3): `R_0(X_0,X_1) ∧ … ∧ R_{k-1}(X_{k-1}, X_0)`.
    pub fn cycle(relations: &[&str]) -> JoinQuery {
        let k = relations.len();
        assert!(k >= 3, "a cycle needs at least three atoms");
        let atoms = relations
            .iter()
            .enumerate()
            .map(|(i, r)| {
                Atom::new(
                    *r,
                    &[
                        format!("X{i}").as_str(),
                        format!("X{}", (i + 1) % k).as_str(),
                    ],
                )
            })
            .collect();
        JoinQuery::new(format!("cycle-{k}"), atoms).expect("cycle query is well formed")
    }

    /// The Loomis–Whitney query with 4 variables (Appendix C.6):
    /// `Q(X,Y,Z,W) = A(X,Y,Z) ∧ B(Y,Z,W) ∧ C(Z,W,X) ∧ D(W,X,Y)`.
    pub fn loomis_whitney_4(a: &str, b: &str, c: &str, d: &str) -> JoinQuery {
        JoinQuery::new(
            "loomis-whitney-4",
            vec![
                Atom::new(a, &["X", "Y", "Z"]),
                Atom::new(b, &["Y", "Z", "W"]),
                Atom::new(c, &["Z", "W", "X"]),
                Atom::new(d, &["W", "X", "Y"]),
            ],
        )
        .expect("Loomis-Whitney query is well formed")
    }
}

impl fmt::Display for JoinQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let atoms: Vec<String> = self
            .atoms
            .iter()
            .map(|a| format!("{}({})", a.relation, a.vars.join(",")))
            .collect();
        write!(f, "{}(...) = {}", self.name, atoms.join(" ∧ "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_structure() {
        let q = JoinQuery::triangle("R", "S", "T");
        assert_eq!(q.n_atoms(), 3);
        assert_eq!(q.n_vars(), 3);
        assert!(q.is_binary());
        assert_eq!(q.atom_vars(0), q.registry().set_of(&["X", "Y"]).unwrap());
        assert_eq!(q.all_vars(), VarSet::full(3));
        assert!(q.to_string().contains("R(X,Y)"));
        assert_eq!(q.name(), "triangle");
        assert_eq!(q.atoms().len(), 3);
    }

    #[test]
    fn guards_are_atoms_covering_the_conditional() {
        let q = JoinQuery::triangle("R", "S", "T");
        let reg = q.registry();
        let c = Conditional::new(reg.set_of(&["Y"]).unwrap(), reg.set_of(&["X"]).unwrap());
        assert_eq!(q.guards(&c), vec![0]); // only R(X,Y)
        let c = Conditional::new(reg.set_of(&["Z"]).unwrap(), reg.set_of(&["Y"]).unwrap());
        assert_eq!(q.guards(&c), vec![1]); // only S(Y,Z)
        let c = Conditional::new(reg.set_of(&["X", "Y", "Z"]).unwrap(), VarSet::EMPTY);
        assert!(q.guards(&c).is_empty()); // no atom covers all three
    }

    #[test]
    fn atom_positions_map_query_vars_to_relation_positions() {
        let q = JoinQuery::triangle("R", "S", "T");
        let reg = q.registry();
        // Atom 2 is T(Z, X): variable X is at position 1, Z at position 0.
        let pos = q.atom_positions_of(2, reg.set_of(&["X"]).unwrap());
        assert_eq!(pos, vec![1]);
        let pos = q.atom_positions_of(2, reg.set_of(&["Z", "X"]).unwrap());
        assert_eq!(pos, vec![0, 1]);
    }

    #[test]
    fn path_and_cycle_builders() {
        let p = JoinQuery::path(&["R1", "R2", "R3"]);
        assert_eq!(p.n_atoms(), 3);
        assert_eq!(p.n_vars(), 4);
        let c = JoinQuery::cycle(&["R", "R", "R", "R"]);
        assert_eq!(c.n_atoms(), 4);
        assert_eq!(c.n_vars(), 4);
        // last atom joins back to X0
        assert!(c.atoms()[3].vars.contains(&"X0".to_string()));
        let lw = JoinQuery::loomis_whitney_4("A", "B", "C", "D");
        assert_eq!(lw.n_vars(), 4);
        assert!(!lw.is_binary());
    }

    #[test]
    fn self_join_reuses_the_relation_name() {
        let q = JoinQuery::single_join("R", "R");
        assert_eq!(q.n_atoms(), 2);
        assert_eq!(q.atoms()[0].relation, q.atoms()[1].relation);
        assert_eq!(q.n_vars(), 3);
    }

    #[test]
    fn subquery_preserves_names_and_rejects_bad_indices() {
        let q = JoinQuery::triangle("R", "S", "T");
        let sub = q.subquery(&[2, 0]).unwrap();
        assert_eq!(sub.n_atoms(), 2);
        assert_eq!(sub.atoms()[0].relation, "T");
        assert_eq!(sub.atoms()[1].relation, "R");
        // Variables X, Y, Z keep their names; Z comes first in the new
        // registry because T(Z, X) is the first atom.
        assert_eq!(sub.n_vars(), 3);
        assert_eq!(sub.registry().name(0), "Z");
        assert!(sub.name().contains("triangle"));
        assert!(q.subquery(&[0, 3]).is_err());
        assert!(q.subquery(&[1, 1]).is_err());
        assert!(q.subquery(&[]).is_err());
    }

    #[test]
    fn with_atom_relation_rebinds_one_atom_and_keeps_the_registry() {
        let q = JoinQuery::triangle("E", "E", "E");
        let part = q.with_atom_relation(0, "E#heavy").unwrap();
        assert_eq!(part.atoms()[0].relation, "E#heavy");
        assert_eq!(part.atoms()[1].relation, "E");
        assert_eq!(part.atoms()[2].relation, "E");
        // Same variables, same bit positions.
        assert_eq!(part.n_vars(), q.n_vars());
        for j in 0..q.n_atoms() {
            assert_eq!(part.atom_vars(j), q.atom_vars(j));
        }
        assert!(q.with_atom_relation(3, "X").is_err());
    }

    #[test]
    fn malformed_queries_are_rejected() {
        assert!(JoinQuery::new("empty", vec![]).is_err());
        assert!(JoinQuery::new("novars", vec![Atom::new("R", &[])]).is_err());
        assert!(JoinQuery::new("dup", vec![Atom::new("R", &["X", "X"])]).is_err());
    }
}
