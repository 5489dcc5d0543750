//! Agreement battery for lazy constraint generation: the small-core +
//! separation loop of `lpb_core::cgen` must be indistinguishable, on every
//! query where both paths are feasible, from the fully materialized Shannon
//! skeleton it replaces past `POLYMATROID_MATERIALIZE_LIMIT`.
//!
//! Invariants:
//!
//! 1. forced-lazy (`lazy: Some(true)`) and forced-materialized
//!    (`lazy: Some(false)`) polymatroid bounds agree in status and, when
//!    bounded, to `1e-6` across the e1–e8 experiment shapes — including the
//!    non-simple e7 gap statistics, where the normal-cone sandwich anchor
//!    cannot certify and the loop must separate to optimality;
//! 2. the same agreement holds on proptest-random path and cycle queries up
//!    to the n = 8 routing crossover, with random norms and log-bounds;
//! 3. the lazy path's witness is still a valid dual certificate
//!    (`Σ wᵢ·bᵢ == log₂ bound`).

use lpb_bench::experiments::e7_nonshannon;
use lpb_core::{
    collect_simple_statistics, BoundOptions, CollectConfig, ConcreteStatistic, Conditional, Cone,
    JoinQuery, Norm, StatisticsSet, VarSet,
};
use lpb_data::Catalog;
use lpb_datagen::{graph_catalog, PowerLawGraphConfig};
use lpb_lp::SolverKind;
use proptest::prelude::*;

fn graph() -> Catalog {
    graph_catalog(&PowerLawGraphConfig {
        nodes: 300,
        edges: 1_500,
        exponent: 1.6,
        symmetric: true,
        seed: 7,
    })
}

fn lazy_options() -> BoundOptions {
    BoundOptions {
        solver: SolverKind::SparseRevised,
        lazy: Some(true),
    }
}

fn full_options() -> BoundOptions {
    BoundOptions {
        solver: SolverKind::SparseRevised,
        lazy: Some(false),
    }
}

/// Assert forced-lazy and forced-materialized agree on one case; returns
/// the bounded flag so callers can count coverage.
fn assert_lazy_matches_full(name: &str, query: &JoinQuery, stats: &StatisticsSet) -> bool {
    let lazy = lpb_core::compute_bound_with(query, stats, Cone::Polymatroid, &lazy_options())
        .unwrap_or_else(|e| panic!("{name}: lazy solve failed: {e}"));
    let full = lpb_core::compute_bound_with(query, stats, Cone::Polymatroid, &full_options())
        .unwrap_or_else(|e| panic!("{name}: materialized solve failed: {e}"));
    assert_eq!(lazy.status, full.status, "{name}: status");
    if !full.is_bounded() {
        return false;
    }
    assert!(
        (lazy.log2_bound - full.log2_bound).abs() <= 1e-6 * (1.0 + full.log2_bound.abs()),
        "{name}: lazy {} vs materialized {}",
        lazy.log2_bound,
        full.log2_bound
    );
    // The lazy witness must stay a valid dual certificate.
    let dual: f64 = lazy
        .witness
        .weights
        .iter()
        .zip(stats.iter())
        .map(|(w, s)| w * s.log_bound)
        .sum();
    assert!(
        (dual - lazy.log2_bound).abs() <= 1e-5 * (1.0 + lazy.log2_bound.abs()),
        "{name}: lazy witness gap: {} vs {}",
        dual,
        lazy.log2_bound
    );
    true
}

#[test]
fn constraint_generation_matches_full_skeleton_on_experiment_queries() {
    let graph = graph();
    let shapes: Vec<(&str, JoinQuery, u32)> = vec![
        ("e1_triangle", JoinQuery::triangle("E", "E", "E"), 4),
        ("e2_onejoin", JoinQuery::single_join("E", "E"), 4),
        ("e5_cycle4", JoinQuery::cycle(&["E"; 4]), 4),
        ("e5_cycle5", JoinQuery::cycle(&["E"; 5]), 3),
        ("e5_cycle6", JoinQuery::cycle(&["E"; 6]), 3),
        ("e8_path3", JoinQuery::path(&["E"; 3]), 4),
        ("e8_path5", JoinQuery::path(&["E"; 5]), 3),
        ("e8_path7", JoinQuery::path(&["E"; 7]), 2),
    ];
    let mut bounded = 0usize;
    for (name, q, max_norm) in shapes {
        let stats = collect_simple_statistics(&q, &graph, &CollectConfig::with_max_norm(max_norm))
            .expect("harvest");
        if assert_lazy_matches_full(name, &q, &stats) {
            bounded += 1;
        }
    }
    // The non-simple e7 gap statistics: here the normal-cone anchor sits
    // strictly below the polymatroid optimum, so the sandwich cannot stop
    // the loop early — separation itself must reach the skeleton's answer.
    for k in [1.0, 3.0] {
        let q = e7_nonshannon::gap_query();
        let stats = e7_nonshannon::gap_statistics(&q, k);
        assert!(!stats.is_simple(), "e7 statistics must be non-simple");
        if assert_lazy_matches_full(&format!("e7_gap_k{k}"), &q, &stats) {
            bounded += 1;
        }
    }
    assert!(
        bounded >= 8,
        "expected a broad bounded corpus, got {bounded}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random simple statistics over random path/cycle shapes up to the
    /// n = 8 routing crossover: constraint generation must match the full
    /// skeleton on every instance, bounded or not.
    #[test]
    fn lazy_matches_full_on_random_queries(
        len in 2usize..7,
        cyclic in 0u8..2,
        bounds in proptest::collection::vec(0.5f64..8.0, 16),
        norm_picks in proptest::collection::vec(0u8..4, 16),
        drop_card in 0u8..2,
    ) {
        let drop_card = drop_card == 1;
        // Paths give n = len + 1 ≤ 7 variables, cycles n = len + 1 ≤ 7:
        // everything stays at or below the n = 8 routing crossover.
        let q = if cyclic == 1 {
            JoinQuery::cycle(&vec!["E"; (len + 1).max(3)])
        } else {
            JoinQuery::path(&vec!["E"; len])
        };
        prop_assert!(q.n_vars() <= 8);
        let mut stats = StatisticsSet::new();
        let mut k = 0usize;
        for atom in 0..q.n_atoms() {
            let vars: Vec<usize> = q.atom_vars(atom).iter().collect();
            prop_assert_eq!(vars.len(), 2);
            // A cardinality statistic (sometimes dropped on atom 0, so some
            // instances go unbounded) plus a degree statistic per atom.
            if !(drop_card && atom == 0) {
                stats.push(ConcreteStatistic::new(
                    Conditional::new(q.atom_vars(atom), VarSet::EMPTY),
                    Norm::L1,
                    atom,
                    bounds[k % bounds.len()],
                ));
            }
            k += 1;
            let norm = match norm_picks[k % norm_picks.len()] {
                0 => Norm::L1,
                1 => Norm::L2,
                2 => Norm::finite(4.0),
                _ => Norm::Infinity,
            };
            stats.push(ConcreteStatistic::new(
                Conditional::new(VarSet::singleton(vars[1]), VarSet::singleton(vars[0])),
                norm,
                atom,
                bounds[k % bounds.len()] / 2.0,
            ));
            k += 1;
        }
        let lazy = lpb_core::compute_bound_with(&q, &stats, Cone::Polymatroid, &lazy_options())
            .unwrap();
        let full = lpb_core::compute_bound_with(&q, &stats, Cone::Polymatroid, &full_options())
            .unwrap();
        prop_assert_eq!(lazy.status, full.status);
        if full.is_bounded() {
            prop_assert!(
                (lazy.log2_bound - full.log2_bound).abs()
                    <= 1e-6 * (1.0 + full.log2_bound.abs()),
                "lazy {} vs materialized {}", lazy.log2_bound, full.log2_bound
            );
        }
    }
}
