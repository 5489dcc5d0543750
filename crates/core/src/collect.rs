//! Harvesting concrete ℓp statistics from a [`Catalog`] for a query.
//!
//! The paper assumes that ℓp-norms of degree sequences are precomputed and
//! available at estimation time (§1.2, §2.1).  This module implements the
//! harvesting step: given a query and a catalog, it enumerates the *simple*
//! conditionals guarded by each atom — `(Z_j \ {x} | x)` for every variable
//! `x` of atom `j`, plus the cardinality conditionals `(Z_j | ∅)` and
//! `({x} | ∅)` — and records `log₂ ‖deg(V|U)‖_p` for a configurable set of
//! norms.  The result is the statistics set `(Σ, B)` consumed by
//! [`compute_bound`](crate::compute_bound).

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
