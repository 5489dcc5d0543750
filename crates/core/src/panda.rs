//! The PANDA-style `{1, ∞}` bound: the polymatroid bound restricted to
//! cardinality (ℓ1) and max-degree (ℓ∞) statistics.
//!
//! This is the strongest previously-known pessimistic estimator (Abo Khamis,
//! Ngo, Suciu, PODS 2017) and the main baseline the paper improves on.  In
//! our framework it is simply [`compute_bound`] applied
//! to the `{1, ∞}`-restriction of a statistics set, so this module is a thin
//! layer: restriction helpers plus a convenience entry point that harvests
//! the statistics itself.

use crate::bound_lp::{compute_bound, BoundResult, Cone};
use crate::collect::{collect_simple_statistics, CollectConfig};
use crate::error::CoreError;
use crate::query::JoinQuery;
use crate::statistics::StatisticsSet;
use lpb_data::{Catalog, Norm};

/// The `{1, ∞}`-restriction of a statistics set.
pub fn panda_statistics(stats: &StatisticsSet) -> StatisticsSet {
    stats.filter_norms(|n| n == Norm::L1 || n == Norm::Infinity)
}

/// Compute the PANDA-style `{1, ∞}` bound of `query` on `catalog`.
///
/// Harvests ℓ1 and ℓ∞ statistics on all simple conditionals and solves the
/// polymatroid LP (or the normal-cone LP for wide queries, which is exact
/// because the statistics are simple — Theorem 6.1).
pub fn panda_bound(query: &JoinQuery, catalog: &Catalog) -> Result<BoundResult, CoreError> {
    let stats = collect_simple_statistics(query, catalog, &CollectConfig::panda_only())?;
    let cone = Cone::auto(query, &stats);
    compute_bound(query, &stats, cone)
}

/// Compute the PANDA bound from an already-harvested statistics set (the
/// richer set is filtered down to `{1, ∞}` first).
pub fn panda_bound_from_stats(
    query: &JoinQuery,
    stats: &StatisticsSet,
) -> Result<BoundResult, CoreError> {
    let restricted = panda_statistics(stats);
    let cone = Cone::auto(query, &restricted);
    compute_bound(query, &restricted, cone)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agm::agm_bound;
    use crate::statistics::ConcreteStatistic;
    use lpb_data::RelationBuilder;
    use lpb_entropy::{Conditional, VarSet};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    /// Eq. (17): for the single join the {1,∞} bound is
    /// min(|S|·‖deg_R(X|Y)‖∞, |R|·‖deg_S(Z|Y)‖∞).
    #[test]
    fn single_join_panda_bound_matches_eq_17() {
        let q = JoinQuery::single_join("R", "S");
        let reg = q.registry();
        let (log_r, log_s) = (8.0, 9.0);
        let (log_dr, log_ds) = (3.0, 2.0);
        let mut stats = StatisticsSet::new();
        stats.push(ConcreteStatistic::new(
            Conditional::new(reg.set_of(&["X", "Y"]).unwrap(), VarSet::EMPTY),
            Norm::L1,
            0,
            log_r,
        ));
        stats.push(ConcreteStatistic::new(
            Conditional::new(reg.set_of(&["Y", "Z"]).unwrap(), VarSet::EMPTY),
            Norm::L1,
            1,
            log_s,
        ));
        stats.push(ConcreteStatistic::new(
            Conditional::new(reg.set_of(&["X"]).unwrap(), reg.set_of(&["Y"]).unwrap()),
            Norm::Infinity,
            0,
            log_dr,
        ));
        stats.push(ConcreteStatistic::new(
            Conditional::new(reg.set_of(&["Z"]).unwrap(), reg.set_of(&["Y"]).unwrap()),
            Norm::Infinity,
            1,
            log_ds,
        ));
        // Add an ℓ2 statistic that must be filtered out by the restriction.
        stats.push(ConcreteStatistic::new(
            Conditional::new(reg.set_of(&["X"]).unwrap(), reg.set_of(&["Y"]).unwrap()),
            Norm::L2,
            0,
            4.0,
        ));
        let r = panda_bound_from_stats(&q, &stats).unwrap();
        let expected = (log_s + log_dr).min(log_r + log_ds);
        assert!(close(r.log2_bound, expected), "got {}", r.log2_bound);
        // The full set (with ℓ2) is at least as tight.
        let full = compute_bound(&q, &stats, Cone::Polymatroid).unwrap();
        assert!(full.log2_bound <= r.log2_bound + 1e-9);
    }

    /// On real data the chain AGM ≥ PANDA ≥ ℓp-bound ≥ truth holds.
    #[test]
    fn bound_hierarchy_on_a_skewed_join() {
        let mut catalog = Catalog::new();
        // R(x, y): y = i % 4 → heavy skew on the join column.
        catalog.insert(RelationBuilder::binary_from_pairs(
            "R",
            "x",
            "y",
            (0..200u64).map(|i| (i, i % 4)),
        ));
        catalog.insert(RelationBuilder::binary_from_pairs(
            "S",
            "y",
            "z",
            (0..200u64).map(|i| (i % 4, i)),
        ));
        let q = JoinQuery::single_join("R", "S");

        let agm = agm_bound(&q, &catalog).unwrap();
        let panda = panda_bound(&q, &catalog).unwrap();
        let stats =
            collect_simple_statistics(&q, &catalog, &CollectConfig::with_max_norm(6)).unwrap();
        let lp = compute_bound(&q, &stats, Cone::Polymatroid).unwrap();

        // True output size: each of the 4 y-values matches 50×50 pairs.
        let truth = 4.0 * 50.0 * 50.0;
        assert!(lp.bound() >= truth - 1e-6);
        assert!(panda.log2_bound <= agm.log2_bound + 1e-9);
        assert!(lp.log2_bound <= panda.log2_bound + 1e-9);
    }

    #[test]
    fn panda_statistics_filters_to_one_and_infinity() {
        let q = JoinQuery::single_join("R", "S");
        let reg = q.registry();
        let mut stats = StatisticsSet::new();
        for (norm, b) in [
            (Norm::L1, 5.0),
            (Norm::L2, 3.0),
            (Norm::Finite(7.0), 2.0),
            (Norm::Infinity, 1.0),
        ] {
            stats.push(ConcreteStatistic::new(
                Conditional::new(reg.set_of(&["X"]).unwrap(), reg.set_of(&["Y"]).unwrap()),
                norm,
                0,
                b,
            ));
        }
        let p = panda_statistics(&stats);
        assert_eq!(p.len(), 2);
        assert_eq!(p.norms(), vec![Norm::L1, Norm::Infinity]);
    }
}
