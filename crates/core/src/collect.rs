//! Harvesting concrete ℓp statistics from a [`Catalog`] for a query.
//!
//! The paper assumes that ℓp-norms of degree sequences are precomputed and
//! available at estimation time (§1.2, §2.1).  This module implements the
//! harvesting step: given a query and a catalog, it enumerates the *simple*
//! conditionals guarded by each atom — `(Z_j \ {x} | x)` for every variable
//! `x` of atom `j`, plus the cardinality conditionals `(Z_j | ∅)` and
//! `({x} | ∅)` — and records `log₂ ‖deg(V|U)‖_p` for a configurable set of
//! norms.  The result is the statistics set `(Σ, B)` consumed by
//! [`compute_bound`](crate::compute_bound): atom by atom, the cardinality
//! first, then per variable of the atom in ascending index its distinct
//! count and its degree norms.
//!
//! Every one of these is a statistic of a single atom, so the catalog is
//! read once per atom ([`AtomStatistics`]) and the set of the query — or of
//! any sub-join a planner wants bounded — is assembled from that.

use crate::error::CoreError;
use crate::query::JoinQuery;
use crate::statistics::{ConcreteStatistic, StatisticsSet};
use lpb_data::{Catalog, Norm};
use lpb_entropy::{Conditional, VarSet};

/// Configuration of the statistics harvesting step.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectConfig {
    /// The ℓp norms to record for each degree conditional.  The default is
    /// `{1, 2, …, 10, ∞}`; the paper's experiments use up to `p = 30`.
    pub norms: Vec<Norm>,
    /// Record the per-atom cardinality statistic `‖deg(Z_j | ∅)‖₁ = |R_j|`.
    pub atom_cardinalities: bool,
    /// Record the per-variable distinct-count statistic
    /// `‖deg({x} | ∅)‖₁ = |Π_x(R_j)|`.
    pub unary_cardinalities: bool,
    /// Only harvest degree conditionals whose conditioning variable `x`
    /// occurs in at least two atoms (a join variable).  Conditioning on a
    /// non-join variable never helps the bound but enlarges the LP.
    pub join_vars_only: bool,
}

impl Default for CollectConfig {
    fn default() -> Self {
        CollectConfig {
            norms: Norm::standard_set(10),
            atom_cardinalities: true,
            unary_cardinalities: true,
            join_vars_only: true,
        }
    }
}

impl CollectConfig {
    /// A configuration with the given maximum finite norm (plus ℓ∞).
    pub fn with_max_norm(max_p: u32) -> Self {
        CollectConfig {
            norms: Norm::standard_set(max_p),
            ..Self::default()
        }
    }

    /// Restrict to the AGM statistics: only ℓ1 atom cardinalities.
    pub fn agm_only() -> Self {
        CollectConfig {
            norms: Vec::new(),
            atom_cardinalities: true,
            unary_cardinalities: true,
            join_vars_only: true,
        }
    }

    /// Restrict to the PANDA statistics: ℓ1 and ℓ∞ only.
    pub fn panda_only() -> Self {
        CollectConfig {
            norms: vec![Norm::L1, Norm::Infinity],
            atom_cardinalities: true,
            unary_cardinalities: true,
            join_vars_only: true,
        }
    }
}

/// The statistics of one atom, read from the catalog once.
#[derive(Debug, Clone)]
struct AtomEntry {
    /// `log₂ |R_j|`, when the configuration asks for atom cardinalities.
    cardinality: Option<f64>,
    /// One entry per attribute position (hence per variable of the atom).
    vars: Vec<VarEntry>,
}

/// What one atom knows about one of its variables `x`.
#[derive(Debug, Clone)]
struct VarEntry {
    /// The query variable bound to this attribute position.
    var: usize,
    /// `log₂ |Π_x(R_j)|`, when the configuration asks for unary counts.
    unary: Option<f64>,
    /// `log₂ ‖deg(Z_j ∖ {x} | x)‖_p` per configured norm; `None` for a unary
    /// atom (nothing left to count) and for a variable that cannot be a join
    /// variable of any sub-join when only those are wanted.
    degrees: Option<Vec<f64>>,
}

/// The simple statistics of every atom of one query, read from the catalog
/// **once**, from which the statistics set of the query and of any of its
/// sub-joins is assembled without going back to the catalog.
///
/// A plan enumeration bounds hundreds of sub-joins of one query, and a
/// sub-join's statistics are a selection of its atoms' — the cardinality,
/// the per-variable distinct counts, the per-variable degree norms — with
/// the variables renumbered the way [`JoinQuery::subquery`] renumbers them.
/// Only [`CollectConfig::join_vars_only`] looks beyond one atom, and it is
/// applied at assembly time against the *sub-join's* occurrence counts.
///
/// An atom whose relation cannot be read (unknown, wrong arity) keeps its
/// error; it surfaces from every sub-join that contains the atom and from
/// no other.
#[derive(Debug, Clone)]
pub struct AtomStatistics<'a> {
    query: &'a JoinQuery,
    config: &'a CollectConfig,
    atoms: Vec<Result<AtomEntry, CoreError>>,
}

impl<'a> AtomStatistics<'a> {
    /// Read the simple statistics of every atom of `query` from `catalog`.
    pub fn collect(query: &'a JoinQuery, catalog: &Catalog, config: &'a CollectConfig) -> Self {
        let occurrences = occurrence_counts(query);
        let atoms = (0..query.n_atoms())
            .map(|j| collect_atom(query, catalog, config, j, &occurrences))
            .collect();
        AtomStatistics {
            query,
            config,
            atoms,
        }
    }

    /// The sub-join over `atoms` ([`JoinQuery::subquery`], whose errors
    /// come first) together with its statistics: what
    /// [`collect_simple_statistics`] returns on that sub-query, statistic
    /// for statistic and bit for bit.
    pub fn subquery(&self, atoms: &[usize]) -> Result<(JoinQuery, StatisticsSet), CoreError> {
        let sub = self.query.subquery(atoms)?;
        let stats = self.assemble(atoms)?;
        Ok((sub, stats))
    }

    /// The statistics of the sub-join over `atoms` (distinct, in range), in
    /// the order of the module docs on the sub-join's own numbering: atoms
    /// as listed; per atom its cardinality, then per variable in ascending
    /// *sub-join* index its distinct count and degree norms.
    fn assemble(&self, atoms: &[usize]) -> Result<StatisticsSet, CoreError> {
        // Sub-join index of each query variable, assigned in order of first
        // appearance as `JoinQuery::new` interns them, and the number of
        // selected atoms it occurs in.
        let n = self.query.n_vars();
        let mut renumbered: Vec<Option<usize>> = vec![None; n];
        let mut occurrences = vec![0usize; n];
        let mut next = 0;
        for &j in atoms {
            let entry = self.atoms[j].as_ref().map_err(Clone::clone)?;
            for v in &entry.vars {
                let index = *renumbered[v.var].get_or_insert_with(|| {
                    next += 1;
                    next - 1
                });
                occurrences[index] += 1;
            }
        }
        let index_of = |var: usize| renumbered[var].expect("every selected atom was renumbered");

        let mut stats = Vec::new();
        let mut by_index: Vec<(usize, &VarEntry)> = Vec::new();
        for (guard, &j) in atoms.iter().enumerate() {
            let entry = self.atoms[j].as_ref().expect("errors returned above");
            let atom_vars = VarSet::from_indices(entry.vars.iter().map(|v| index_of(v.var)));
            if let Some(b) = entry.cardinality {
                stats.push(ConcreteStatistic::new(
                    Conditional::new(atom_vars, VarSet::EMPTY),
                    Norm::L1,
                    guard,
                    b,
                ));
            }
            by_index.clear();
            by_index.extend(entry.vars.iter().map(|v| (index_of(v.var), v)));
            by_index.sort_unstable_by_key(|&(index, _)| index);
            for &(x, var) in &by_index {
                let x_set = VarSet::singleton(x);
                if let Some(b) = var.unary {
                    stats.push(ConcreteStatistic::new(
                        Conditional::new(x_set, VarSet::EMPTY),
                        Norm::L1,
                        guard,
                        b,
                    ));
                }
                let Some(degrees) = &var.degrees else {
                    continue;
                };
                if self.config.join_vars_only && occurrences[x] < 2 {
                    continue;
                }
                let rest = atom_vars.minus(x_set);
                for (&norm, &b) in self.config.norms.iter().zip(degrees) {
                    stats.push(ConcreteStatistic::new(
                        Conditional::new(rest, x_set),
                        norm,
                        guard,
                        b,
                    ));
                }
            }
        }
        Ok(StatisticsSet::from_vec(stats))
    }
}

/// Read atom `j`'s statistics.  `occurrences` counts, per query variable,
/// the atoms of the whole query it occurs in: a variable that joins nothing
/// there joins nothing in any sub-join either.
fn collect_atom(
    query: &JoinQuery,
    catalog: &Catalog,
    config: &CollectConfig,
    j: usize,
    occurrences: &[usize],
) -> Result<AtomEntry, CoreError> {
    let atom = &query.atoms()[j];
    let rel = catalog.get(&atom.relation)?;
    if rel.arity() != atom.vars.len() {
        return Err(CoreError::AtomArityMismatch {
            relation: atom.relation.clone(),
            atom_arity: atom.vars.len(),
            relation_arity: rel.arity(),
        });
    }
    // Attribute names by position; the relation's schema may name them
    // differently from the query's variables.
    let attrs: Vec<&str> = (0..rel.arity()).map(|pos| rel.schema().name(pos)).collect();

    // Whole-atom cardinality: ‖deg(Z_j | ∅)‖₁ = |R_j|.
    let cardinality = if config.atom_cardinalities {
        Some(catalog.log_norm(&atom.relation, &attrs, &[], Norm::L1)?)
    } else {
        None
    };
    let mut vars = Vec::with_capacity(attrs.len());
    let mut rest: Vec<&str> = Vec::with_capacity(attrs.len());
    for (pos, name) in atom.vars.iter().enumerate() {
        let var = query.registry().index_of(name).expect("registered");
        let x = [attrs[pos]];
        // Unary distinct count: ‖deg({x} | ∅)‖₁ = |Π_x(R_j)|.
        let unary = if config.unary_cardinalities {
            Some(catalog.log_norm(&atom.relation, &x, &[], Norm::L1)?)
        } else {
            None
        };
        // Degree conditionals (Z_j \ {x} | x) for each requested norm.
        let degrees = if attrs.len() < 2 || (config.join_vars_only && occurrences[var] < 2) {
            None
        } else {
            rest.clear();
            rest.extend(
                attrs
                    .iter()
                    .enumerate()
                    .filter_map(|(p, a)| (p != pos).then_some(*a)),
            );
            Some(catalog.log_norms(&atom.relation, &rest, &x, &config.norms)?)
        };
        vars.push(VarEntry {
            var,
            unary,
            degrees,
        });
    }
    Ok(AtomEntry { cardinality, vars })
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

/// Harvest simple ℓp statistics for `query` from `catalog`.
///
/// Every returned statistic is simple (`|U| ≤ 1`, §6 of the paper), so the
/// polymatroid bound computed from it is tight (Corollary 6.3) and equals the
/// normal-cone bound (Theorem 6.1).
pub fn collect_simple_statistics(
    query: &JoinQuery,
    catalog: &Catalog,
    config: &CollectConfig,
) -> Result<StatisticsSet, CoreError> {
    let every_atom: Vec<usize> = (0..query.n_atoms()).collect();
    AtomStatistics::collect(query, catalog, config).assemble(&every_atom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound_lp::{compute_bound, Cone};
    use lpb_data::RelationBuilder;

    /// A small catalog with R(a,b) and S(b,c).
    fn small_catalog() -> Catalog {
        let mut catalog = Catalog::new();
        let r = RelationBuilder::binary_from_pairs(
            "R",
            "a",
            "b",
            vec![(1, 10), (2, 10), (3, 10), (4, 20), (5, 30)],
        );
        let s = RelationBuilder::binary_from_pairs(
            "S",
            "b",
            "c",
            vec![
                (10, 100),
                (10, 101),
                (20, 100),
                (30, 100),
                (30, 102),
                (30, 103),
            ],
        );
        catalog.insert(r);
        catalog.insert(s);
        catalog
    }

    #[test]
    fn harvested_statistics_are_simple_and_cover_all_norms() {
        let catalog = small_catalog();
        let q = JoinQuery::single_join("R", "S");
        let cfg = CollectConfig::with_max_norm(3);
        let stats = collect_simple_statistics(&q, &catalog, &cfg).unwrap();
        assert!(stats.is_simple());
        // Norms present: 1 (cardinalities), 2, 3, ∞.
        let norms = stats.norms();
        assert!(norms.contains(&Norm::L1));
        assert!(norms.contains(&Norm::L2));
        assert!(norms.contains(&Norm::Finite(3.0)));
        assert!(norms.contains(&Norm::Infinity));
        // Each statistic is guarded by its atom.
        for s in stats.iter() {
            assert!(s
                .stat
                .conditional
                .all_vars()
                .is_subset_of(q.atom_vars(s.stat.guard_atom)));
        }
    }

    #[test]
    fn atom_cardinality_statistic_equals_relation_size() {
        let catalog = small_catalog();
        let q = JoinQuery::single_join("R", "S");
        let cfg = CollectConfig::agm_only();
        let stats = collect_simple_statistics(&q, &catalog, &cfg).unwrap();
        let reg = q.registry();
        let r_card = stats
            .iter()
            .find(|s| {
                s.stat.guard_atom == 0
                    && s.stat.conditional.all_vars() == reg.set_of(&["X", "Y"]).unwrap()
            })
            .expect("R cardinality statistic present");
        assert!(
            (r_card.bound() - 5.0).abs() < 1e-9,
            "got {}",
            r_card.bound()
        );
        let s_card = stats
            .iter()
            .find(|s| {
                s.stat.guard_atom == 1
                    && s.stat.conditional.all_vars() == reg.set_of(&["Y", "Z"]).unwrap()
            })
            .expect("S cardinality statistic present");
        assert!((s_card.bound() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn join_vars_only_skips_non_join_conditionals() {
        let catalog = small_catalog();
        let q = JoinQuery::single_join("R", "S");
        let all = collect_simple_statistics(
            &q,
            &catalog,
            &CollectConfig {
                join_vars_only: false,
                ..CollectConfig::with_max_norm(2)
            },
        )
        .unwrap();
        let join_only = collect_simple_statistics(
            &q,
            &catalog,
            &CollectConfig {
                join_vars_only: true,
                ..CollectConfig::with_max_norm(2)
            },
        )
        .unwrap();
        assert!(join_only.len() < all.len());
        // With join_vars_only, degree conditionals condition only on Y.
        let reg = q.registry();
        let y = reg.set_of(&["Y"]).unwrap();
        for s in join_only.iter() {
            if !s.stat.conditional.is_unconditioned() {
                assert_eq!(s.stat.conditional.u, y);
            }
        }
    }

    #[test]
    fn bound_from_harvested_statistics_dominates_true_join_size() {
        let catalog = small_catalog();
        let q = JoinQuery::single_join("R", "S");
        let stats =
            collect_simple_statistics(&q, &catalog, &CollectConfig::with_max_norm(4)).unwrap();
        let bound = compute_bound(&q, &stats, Cone::Polymatroid).unwrap();
        // The true join size: count matching pairs on b.
        // R.b: 10×3, 20×1, 30×1; S.b: 10×2, 20×1, 30×3 → 3·2 + 1·1 + 1·3 = 10.
        assert!(bound.is_bounded());
        assert!(
            bound.bound() >= 10.0 - 1e-6,
            "bound {} too small",
            bound.bound()
        );
        // ...and it is not absurdly loose: the DSB for this instance is 10,
        // the ℓ2 bound is √11·√14 ≈ 12.4, so anything below |R|·|S| = 30 is
        // acceptable here and the LP optimum should be ≤ the ℓ2 bound.
        assert!(bound.bound() <= 13.0, "bound {} too loose", bound.bound());
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let mut catalog = Catalog::new();
        let mut b = RelationBuilder::new("R", ["a", "b", "c"]).unwrap();
        b.push_codes(&[1, 2, 3]).unwrap();
        catalog.insert(b.build());
        let s = RelationBuilder::binary_from_pairs("S", "b", "c", vec![(2, 3)]);
        catalog.insert(s);
        let q = JoinQuery::single_join("R", "S"); // treats R as binary
        let err = collect_simple_statistics(&q, &catalog, &CollectConfig::default());
        assert!(matches!(err, Err(CoreError::AtomArityMismatch { .. })));
    }

    #[test]
    fn unknown_relation_is_reported() {
        let catalog = small_catalog();
        let q = JoinQuery::single_join("R", "MISSING");
        let err = collect_simple_statistics(&q, &catalog, &CollectConfig::default());
        assert!(matches!(err, Err(CoreError::Data(_))));
    }
}
