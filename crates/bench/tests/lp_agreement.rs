//! The LP test battery: regression and property tests locking down the
//! sparse solver, the cached Shannon skeleton and the column-generated
//! normal-cone bound, over the e1–e8 experiment query shapes and random
//! statistics.
//!
//! Invariants:
//!
//! 1. the sparse revised solver and the dense tableau solver agree on the
//!    `log₂` bound to `1e-6` (acceptance criterion of the sparse-solver PR);
//! 2. a second solve through the globally cached Shannon skeleton (and the
//!    `BatchEstimator`) equals the from-scratch bound;
//! 3. the witness stays a valid dual: `Σ wᵢ·bᵢ == log₂ bound`;
//! 4. the column-generated normal-cone bound equals the fully enumerated
//!    `2^n − 1`-column LP ([`direct_normal_problem`], which shares no code
//!    with it) in status and value, and its witness satisfies the witness
//!    inequality on **every** one of that LP's columns — on the e1–e8
//!    corpus and on random, also non-simple, statistics;
//! 5. `Cone::Normal ≤ Cone::Polymatroid` never inverts (`Nₙ ⊆ Γₙ`).

use lpb_bench::experiments::e7_nonshannon;
use lpb_core::{
    collect_simple_statistics, compute_bound, compute_bound_with, BatchEstimator, BatchItem,
    BoundOptions, CollectConfig, Conditional, Cone, JoinQuery, Norm, StatisticsSet, VarSet,
};
use lpb_data::Catalog;
use lpb_datagen::{
    alpha_beta_relation, graph_catalog, job_like_catalog, job_like_queries, AlphaBetaConfig,
    JobLikeConfig, PowerLawGraphConfig,
};
use lpb_entropy::{step_conditional, step_value};
use lpb_lp::{Problem, Sense, SolverKind, SolverStats, Status};
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

/// The (query, statistics) pairs exercised by experiments e1–e8, at reduced
/// scale: cyclic graph queries (e1/e2/e5/e8), the (α,β) single join (e4),
/// acyclic JOB-like queries (e3), the worst-case constructions (e6) and the
/// amplified non-Shannon gap instance (e7).
fn experiment_cases() -> Vec<(String, JoinQuery, StatisticsSet)> {
    let mut cases = Vec::new();
    let graph = graph();

    // e1/e2/e5/e8 shapes on the power-law graph.
    let shapes: Vec<(&str, JoinQuery)> = vec![
        ("e1_triangle", JoinQuery::triangle("E", "E", "E")),
        ("e2_onejoin", JoinQuery::single_join("E", "E")),
        ("e5_cycle4", JoinQuery::cycle(&["E"; 4])),
        ("e5_cycle5", JoinQuery::cycle(&["E"; 5])),
        ("e5_cycle6", JoinQuery::cycle(&["E"; 6])),
        ("e8_path3", JoinQuery::path(&["E"; 3])),
        ("e8_path5", JoinQuery::path(&["E"; 5])),
    ];
    for (name, q) in shapes {
        let stats = collect_simple_statistics(&q, &graph, &CollectConfig::with_max_norm(4))
            .expect("harvest");
        cases.push((name.to_string(), q, stats));
    }

    // e4: the DSB-gap single join over an (α,β)-relation.
    let mut ab = Catalog::new();
    let cfg = AlphaBetaConfig {
        m: 4_000,
        alpha: 0.5,
        beta: 0.5,
    };
    ab.insert(alpha_beta_relation("R", &cfg));
    ab.insert(alpha_beta_relation("S", &cfg));
    let q = JoinQuery::single_join("R", "S");
    let stats =
        collect_simple_statistics(&q, &ab, &CollectConfig::with_max_norm(8)).expect("harvest");
    cases.push(("e4_dsb_gap".to_string(), q, stats));

    // e3: a slice of the JOB-like acyclic suite.
    let job = job_like_catalog(&JobLikeConfig {
        movies: 300,
        link_fanout: 2,
        seed: 11,
        ..JobLikeConfig::default()
    });
    for jq in job_like_queries().into_iter().take(6) {
        let stats = collect_simple_statistics(&jq.query, &job, &CollectConfig::with_max_norm(3))
            .expect("harvest");
        cases.push((format!("e3_job{}", jq.id), jq.query, stats));
    }

    // e7: the 4-variable non-Shannon gap instance (non-simple statistics,
    // exercising the polymatroid-only path), at two amplifications.
    for k in [1.0, 3.0] {
        let q = e7_nonshannon::gap_query();
        let stats = e7_nonshannon::gap_statistics(&q, k);
        cases.push((format!("e7_gap_k{k}"), q, stats));
    }

    cases
}

#[test]
fn sparse_dense_and_cached_skeleton_agree_on_experiment_queries() {
    let cases = experiment_cases();
    assert!(cases.len() >= 14, "expected a broad case set");
    for (name, query, stats) in &cases {
        let cone = Cone::auto(query, stats);
        let dense = compute_bound_with(
            query,
            stats,
            cone,
            &BoundOptions {
                solver: SolverKind::Dense,
                lazy: None,
            },
        )
        .unwrap_or_else(|e| panic!("{name}: dense solve failed: {e}"));
        // First sparse solve fills the skeleton cache; the second consumes it.
        let sparse_options = BoundOptions {
            solver: SolverKind::SparseRevised,
            lazy: None,
        };
        let sparse_scratch = compute_bound_with(query, stats, cone, &sparse_options)
            .unwrap_or_else(|e| panic!("{name}: sparse solve failed: {e}"));
        let sparse_cached = compute_bound_with(query, stats, cone, &sparse_options).unwrap();

        assert_eq!(dense.status, sparse_scratch.status, "{name}: status");
        assert!(
            (dense.log2_bound - sparse_scratch.log2_bound).abs() <= 1e-6,
            "{name}: dense {} vs sparse {}",
            dense.log2_bound,
            sparse_scratch.log2_bound
        );
        assert!(
            (sparse_scratch.log2_bound - sparse_cached.log2_bound).abs() <= 1e-9,
            "{name}: cached-skeleton bound drifted"
        );

        // Witness duality for both solvers.
        for (solver, r) in [("dense", &dense), ("sparse", &sparse_scratch)] {
            if !r.is_bounded() {
                continue;
            }
            let dual: f64 = r
                .witness
                .weights
                .iter()
                .zip(stats.iter())
                .map(|(w, s)| w * s.log_bound)
                .sum();
            assert!(
                (dual - r.log2_bound).abs() <= 1e-5 * (1.0 + r.log2_bound.abs()),
                "{name}/{solver}: witness gap: {} vs {}",
                dual,
                r.log2_bound
            );
        }
    }
}

#[test]
fn batch_estimator_matches_single_estimates_on_experiment_queries() {
    let cases = experiment_cases();
    let items: Vec<BatchItem> = cases
        .iter()
        .map(|(_, q, s)| BatchItem::new(q.clone(), s.clone()))
        .collect();
    let batch = BatchEstimator::new().estimate(&items);
    for ((name, query, stats), result) in cases.iter().zip(batch) {
        let single = compute_bound(query, stats, Cone::auto(query, stats)).unwrap();
        let got = result.unwrap_or_else(|e| panic!("{name}: batch failed: {e}"));
        assert!(
            (got.log2_bound - single.log2_bound).abs() <= 1e-6,
            "{name}: batch {} vs single {}",
            got.log2_bound,
            single.log2_bound
        );
    }
}

/// The fully enumerated normal-cone LP, built the way the seed did — one
/// `step_value` / `step_conditional` evaluation per (column, statistic)
/// pair.  The oracle for the column-generated solve: it shares no code with
/// it beyond the LP solver both hand their problems to.
fn direct_normal_problem(n: usize, stats: &StatisticsSet) -> Problem {
    let n_subsets = (1usize << n) - 1;
    let var_of = |s: VarSet| -> usize { s.index() - 1 };
    let mut p = Problem::maximize(n_subsets);
    for mask in 1..=n_subsets {
        p.set_objective(mask - 1, 1.0);
    }
    for s in stats.iter() {
        let u = s.stat.conditional.u;
        let v = s.stat.conditional.v;
        let inv_p = s.stat.norm.reciprocal();
        let mut coeffs: Vec<(usize, f64)> = Vec::new();
        for mask in 1u32..=(n_subsets as u32) {
            let w = VarSet(mask);
            let c = inv_p * step_value(w, u) + step_conditional(w, v, u);
            if c != 0.0 {
                coeffs.push((var_of(w), c));
            }
        }
        p.add_constraint(&coeffs, Sense::Le, s.log_bound);
    }
    p
}

/// `Err` unless `weights` is a witness of `bound` on the enumerated LP
/// `oracle`: `Σ wᵢ·bᵢ = bound` and `Σᵢ wᵢ·cᵢ(W) ≥ 1` on every column `W`
/// (both to 1e-9), the columns read off the oracle's own rows.
fn check_witness(oracle: &Problem, weights: &[f64], bound: f64) -> Result<(), String> {
    let rows = oracle.constraints();
    if weights.len() != rows.len() || weights.iter().any(|&w| w < 0.0) {
        return Err(format!("malformed witness {weights:?}"));
    }
    let dual: f64 = rows.iter().zip(weights).map(|(r, w)| w * r.rhs).sum();
    if (dual - bound).abs() > 1e-9 {
        return Err(format!("Σ wᵢ·bᵢ = {dual} but the bound is {bound}"));
    }
    let mut lhs = vec![0.0; oracle.n_vars()];
    for (row, w) in rows.iter().zip(weights) {
        for &(j, c) in &row.coeffs {
            lhs[j] += w * c;
        }
    }
    match lhs.iter().position(|&v| v < 1.0 - 1e-9) {
        Some(j) => Err(format!(
            "witness inequality fails on W = {:#b}: {} < 1",
            j + 1,
            lhs[j]
        )),
        None => Ok(()),
    }
}

/// The column-generated normal-cone bound against the fully enumerated LP on
/// the e1–e8 corpus: same status, same `log₂` bound, and a witness that is
/// dual-feasible on every one of the `2^n − 1` columns.  (The name is from
/// when a cached skeleton of that LP was compared with `==`, witness
/// weights included; the LPs are degenerate, their optimal duals are not
/// unique, and the generated master is a different LP — what carries over
/// is the value and the *validity* of the witness.)
#[test]
fn normal_cone_skeleton_is_bit_for_bit_with_direct_construction() {
    let mut checked = 0usize;
    for (name, query, stats) in &experiment_cases() {
        let n = query.n_vars();
        if n > lpb_core::NORMAL_VAR_LIMIT {
            continue;
        }
        let generated = compute_bound(query, stats, Cone::Normal)
            .unwrap_or_else(|e| panic!("{name}: normal solve failed: {e}"));
        let direct = direct_normal_problem(n, stats);
        let direct_sol = direct
            .solve()
            .unwrap_or_else(|e| panic!("{name}: direct normal solve failed: {e}"));
        match generated.status {
            lpb_core::BoundStatus::Bounded => {
                assert_eq!(direct_sol.status, Status::Optimal, "{name}");
                assert!(
                    (generated.log2_bound - direct_sol.objective).abs() <= 1e-9,
                    "{name}: generated {} vs enumerated {}",
                    generated.log2_bound,
                    direct_sol.objective
                );
                check_witness(&direct, &generated.witness.weights, generated.log2_bound)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(generated.primal.len(), direct.n_vars(), "{name}");
            }
            lpb_core::BoundStatus::Unbounded => {
                assert_eq!(direct_sol.status, Status::Unbounded, "{name}");
            }
        }
        checked += 1;
    }
    assert!(checked >= 14, "expected a broad normal-cone case set");
}

/// The normal LP's matrix is no longer stored anywhere — not as cached rows,
/// not as a shared block: `normal_step_coefficient` *is* the matrix.  It
/// must stay **bit for bit** identical to the dense per-column enumeration,
/// cell by cell, across the e1–e8 corpus.
#[test]
fn normal_stat_rows_and_shared_matrix_match_dense_rows_bit_for_bit() {
    use lpb_core::skeleton::normal_step_coefficient;

    let mut checked_rows = 0usize;
    for (name, query, stats) in &experiment_cases() {
        let n = query.n_vars();
        if n > lpb_core::NORMAL_VAR_LIMIT {
            continue;
        }
        let dense_reference = direct_normal_problem(n, stats);
        for (i, s) in stats.iter().enumerate() {
            let dense_row = &dense_reference.constraints()[i].coeffs;
            let row: Vec<(usize, f64)> = (1u32..1 << n)
                .map(|mask| (mask as usize - 1, normal_step_coefficient(s, VarSet(mask))))
                .filter(|&(_, c)| c != 0.0)
                .collect();
            assert_eq!(
                &row, dense_row,
                "{name}: row {i} differs from the dense enumeration"
            );
            assert_eq!(dense_reference.constraints()[i].rhs, s.log_bound);
            checked_rows += 1;
        }
    }
    assert!(
        checked_rows > 100,
        "expected a broad row corpus, checked {checked_rows}"
    );
}

/// Work ceiling (counters, not wall-clock) on the widest queries of the
/// `bound-only` workload — the three 15-variable JOB-like queries whose
/// enumerated LP was 147 rows × 32 767 columns: each bound generates at
/// most 64 columns and no LP it solves is wider than 4 096 columns (the
/// summed width of all its solves stays below that).
#[test]
fn widest_job_like_bounds_stay_narrow() {
    let catalog = job_like_catalog(&JobLikeConfig {
        movies: 500,
        link_fanout: 2,
        seed: 23,
        ..JobLikeConfig::default()
    });
    let mut seen = 0;
    for jq in job_like_queries() {
        if ![28, 31, 33].contains(&jq.id) {
            continue;
        }
        assert_eq!(jq.query.n_vars(), 15, "query {}", jq.id);
        let stats =
            collect_simple_statistics(&jq.query, &catalog, &CollectConfig::with_max_norm(4))
                .expect("harvest");
        assert_eq!(Cone::auto(&jq.query, &stats), Cone::Normal);
        let (bound, work) = SolverStats::on_thread(|| {
            compute_bound(&jq.query, &stats, Cone::Normal).expect("bound")
        });
        assert!(bound.is_bounded(), "query {}", jq.id);
        assert!(work.generation_rounds >= 1, "query {}: {work:?}", jq.id);
        assert!(work.columns_generated <= 64, "query {}: {work:?}", jq.id);
        assert!(work.solve_columns <= 4096, "query {}: {work:?}", jq.id);
        assert_eq!(work.total_solves(), work.generation_rounds);
        seen += 1;
    }
    assert_eq!(seen, 3);
}

/// `Nₙ ⊆ Γₙ`, so maximizing over the normal cone can never exceed the
/// polymatroid bound — checked across the experiment corpus.
#[test]
fn normal_bound_never_exceeds_polymatroid_on_experiment_queries() {
    for (name, query, stats) in &experiment_cases() {
        let n = query.n_vars();
        if n > lpb_core::POLYMATROID_VAR_LIMIT || n > lpb_core::NORMAL_VAR_LIMIT {
            continue;
        }
        let normal = compute_bound(query, stats, Cone::Normal).unwrap();
        let poly = compute_bound(query, stats, Cone::Polymatroid).unwrap();
        if poly.is_bounded() {
            assert!(
                normal.is_bounded(),
                "{name}: normal unbounded while polymatroid is bounded"
            );
            assert!(
                normal.log2_bound <= poly.log2_bound + 1e-6,
                "{name}: normal {} > polymatroid {}",
                normal.log2_bound,
                poly.log2_bound
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The column-generated normal-cone bound against the fully enumerated
    /// LP on random statistics over 2–9 variables: conditionals with up to
    /// three conditioning variables (so non-simple ones too), every norm
    /// kind, log-bounds including 0, variables left uncovered (unbounded)
    /// and a negative log-bound (inconsistent).  Same status, same bound,
    /// `Σ wᵢ·bᵢ` equal to it, and the witness valid on every column.
    #[test]
    fn normal_generated_matches_full_enumeration(
        n in 2usize..10,
        words in proptest::collection::vec(0u64..u64::MAX, 1..12),
        cover in 0u8..4,
        negative in 0u8..6,
    ) {
        let names: Vec<String> = (0..n).map(|i| format!("A{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let q = JoinQuery::new("wide-atom", vec![lpb_core::Atom::new("R", &name_refs)]).unwrap();
        let full = VarSet::full(n);
        let norms = [
            Norm::L1,
            Norm::L2,
            Norm::finite(3.0),
            Norm::finite(4.0),
            Norm::finite(2.5),
            Norm::Infinity,
        ];
        let bounds = [0.0, 0.5, 1.0, 2.25, 3.0, 4.5, 6.0, 7.5];
        let mut stats = StatisticsSet::new();
        for &word in &words {
            let v = VarSet(word as u32 & full.0);
            // Three 4-bit picks; a pick past the last variable adds nothing,
            // so |U| ranges over 0..=3.
            let u = VarSet::from_indices(
                (0..3)
                    .map(|k| ((word >> (16 + 4 * k)) & 0xf) as usize)
                    .filter(|&i| i < n),
            );
            stats.push(lpb_core::ConcreteStatistic::new(
                Conditional::new(v, u),
                norms[((word >> 32) % 6) as usize],
                0,
                bounds[((word >> 40) % 8) as usize],
            ));
        }
        if cover != 0 {
            // Three cases in four, bound every variable; the fourth leaves
            // whatever the random statistics happen to miss uncovered.
            for i in 0..n {
                stats.push(lpb_core::ConcreteStatistic::new(
                    Conditional::new(VarSet::singleton(i), VarSet::EMPTY),
                    Norm::L1,
                    0,
                    bounds[(i + cover as usize) % 8],
                ));
            }
        }
        if negative == 0 {
            let mut all = stats.as_slice().to_vec();
            all[0].log_bound = -1.0;
            stats = StatisticsSet::from_vec(all);
        }

        let oracle = direct_normal_problem(n, &stats);
        let expected = oracle.solve().unwrap();
        match compute_bound(&q, &stats, Cone::Normal) {
            Err(lpb_core::CoreError::InconsistentStatistics) => {
                prop_assert_eq!(expected.status, Status::Infeasible);
            }
            Err(e) => prop_assert!(false, "unexpected error {e}"),
            Ok(r) if !r.is_bounded() => {
                prop_assert_eq!(expected.status, Status::Unbounded);
            }
            Ok(r) => {
                prop_assert_eq!(expected.status, Status::Optimal);
                prop_assert!((r.log2_bound - expected.objective).abs() <= 1e-9,
                    "generated {} vs enumerated {}", r.log2_bound, expected.objective);
                if let Err(e) = check_witness(&oracle, &r.witness.weights, r.log2_bound) {
                    prop_assert!(false, "{e}");
                }
                // The primal is feasible for the enumerated LP and attains
                // the bound: α_W sits at index W − 1.
                prop_assert_eq!(r.primal.len(), oracle.n_vars());
                prop_assert!(r.primal.iter().all(|&a| a >= 0.0));
                prop_assert!((r.primal.iter().sum::<f64>() - r.log2_bound).abs() <= 1e-9);
                for row in oracle.constraints() {
                    let lhs: f64 = row.coeffs.iter().map(|&(j, c)| c * r.primal[j]).sum();
                    prop_assert!(lhs <= row.rhs + 1e-9, "row violated: {lhs} > {}", row.rhs);
                }
            }
        }
    }

    /// On random simple statistics over path queries, the normal-cone bound
    /// never exceeds the polymatroid bound, and the two agree (Theorem 6.1)
    /// when both are finite.
    #[test]
    fn normal_polymatroid_order_on_random_simple_statistics(
        len in 2usize..5,
        bounds in proptest::collection::vec(0.5f64..8.0, 12),
        norm_picks in proptest::collection::vec(0u8..4, 12),
    ) {
        let q = JoinQuery::path(&vec!["E"; len]);
        let mut stats = StatisticsSet::new();
        let mut k = 0usize;
        for atom in 0..q.n_atoms() {
            let vars: Vec<usize> = q.atom_vars(atom).iter().collect();
            prop_assert_eq!(vars.len(), 2);
            // A cardinality statistic plus a degree statistic per atom, with
            // proptest-chosen norms and log-bounds.
            stats.push(lpb_core::ConcreteStatistic::new(
                Conditional::new(q.atom_vars(atom), VarSet::EMPTY),
                Norm::L1,
                atom,
                bounds[k % bounds.len()],
            ));
            k += 1;
            let norm = match norm_picks[k % norm_picks.len()] {
                0 => Norm::L1,
                1 => Norm::L2,
                2 => Norm::finite(4.0),
                _ => Norm::Infinity,
            };
            stats.push(lpb_core::ConcreteStatistic::new(
                Conditional::new(VarSet::singleton(vars[1]), VarSet::singleton(vars[0])),
                norm,
                atom,
                bounds[k % bounds.len()] / 2.0,
            ));
            k += 1;
        }
        prop_assert!(stats.is_simple());
        let normal = compute_bound(&q, &stats, Cone::Normal).unwrap();
        let poly = compute_bound(&q, &stats, Cone::Polymatroid).unwrap();
        prop_assert_eq!(normal.is_bounded(), poly.is_bounded());
        if poly.is_bounded() {
            prop_assert!(normal.log2_bound <= poly.log2_bound + 1e-6,
                "normal {} > polymatroid {}", normal.log2_bound, poly.log2_bound);
            // Theorem 6.1: equality for simple statistics.
            prop_assert!((normal.log2_bound - poly.log2_bound).abs()
                <= 1e-6 * (1.0 + poly.log2_bound.abs()),
                "Theorem 6.1 violated: normal {} vs polymatroid {}",
                normal.log2_bound, poly.log2_bound);
        }
    }
}
