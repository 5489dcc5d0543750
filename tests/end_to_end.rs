//! Cross-crate integration tests: data generation → statistics harvesting →
//! bound computation → query evaluation, checking the soundness and
//! tightness claims of the paper end to end.

use lpbound::core::{example_6_7_database, LpNormEstimator};
use lpbound::datagen::{
    alpha_beta_relation, graph_catalog, job_like_catalog, job_like_queries, AlphaBetaConfig,
    JobLikeConfig, PowerLawGraphConfig,
};
use lpbound::exec::{
    execute_physical_mode, is_acyclic, partitioned_join_count, wcoj_count, yannakakis_count,
    ExecMode, JoinPlan, PartitionSpec, PhysicalPlan,
};
use lpbound::{
    agm_bound, collect_simple_statistics, compute_bound, dsb_bound, panda_bound, textbook_estimate,
    true_cardinality, worst_case_database, Atom, Catalog, CollectConfig, Cone, JoinQuery, Norm,
    RelationBuilder,
};

fn test_graph(seed: u64) -> Catalog {
    graph_catalog(&PowerLawGraphConfig {
        nodes: 400,
        edges: 2_500,
        exponent: 0.5,
        symmetric: true,
        seed,
    })
}

/// Soundness of every bound on every standard query shape, against three
/// different evaluation algorithms that must all agree.
#[test]
fn bounds_are_sound_and_evaluators_agree() {
    let catalog = test_graph(11);
    let queries = vec![
        JoinQuery::single_join("E", "E"),
        JoinQuery::triangle("E", "E", "E"),
        JoinQuery::path(&["E", "E", "E"]),
        JoinQuery::cycle(&["E", "E", "E", "E"]),
    ];
    for query in queries {
        let truth_wcoj = wcoj_count(&query, &catalog).unwrap();
        let in_order = PhysicalPlan::hash_chain(JoinPlan::in_query_order(&query).order().to_vec());
        let truth_hash = execute_physical_mode(&query, &catalog, &in_order, ExecMode::Vectorized)
            .unwrap()
            .output_size() as u128;
        assert_eq!(truth_wcoj, truth_hash, "{}", query.name());
        if is_acyclic(&query) {
            assert_eq!(
                yannakakis_count(&query, &catalog).unwrap(),
                truth_wcoj,
                "{}",
                query.name()
            );
        }
        let log2_truth = (truth_wcoj.max(1) as f64).log2();

        let stats =
            collect_simple_statistics(&query, &catalog, &CollectConfig::with_max_norm(8)).unwrap();
        let ours = compute_bound(&query, &stats, Cone::Polymatroid).unwrap();
        let agm = agm_bound(&query, &catalog).unwrap();
        let panda = panda_bound(&query, &catalog).unwrap();

        assert!(ours.log2_bound >= log2_truth - 1e-6, "{}", query.name());
        assert!(
            ours.log2_bound <= panda.log2_bound + 1e-6,
            "{}",
            query.name()
        );
        assert!(
            panda.log2_bound <= agm.log2_bound + 1e-6,
            "{}",
            query.name()
        );

        // The witness inequality certifies the bound: Σ wᵢbᵢ = log bound.
        let dual: f64 = ours
            .witness
            .weights
            .iter()
            .zip(stats.iter())
            .map(|(w, s)| w * s.log_bound)
            .sum();
        assert!(
            (dual - ours.log2_bound).abs() < 1e-5,
            "{}: witness {} vs bound {}",
            query.name(),
            dual,
            ours.log2_bound
        );
    }
}

/// The DSB dominates the truth, the ℓ2 bound dominates the DSB
/// (Cauchy–Schwartz), and the textbook estimator underestimates on skew.
#[test]
fn single_join_baseline_relationships() {
    let mut catalog = Catalog::new();
    catalog.insert(alpha_beta_relation(
        "R",
        &AlphaBetaConfig {
            m: 2_000,
            alpha: 0.4,
            beta: 0.4,
        },
    ));
    let query = JoinQuery::single_join("R", "R");
    let truth = true_cardinality(&query, &catalog).unwrap() as f64;

    let dsb = dsb_bound(&query, &catalog).unwrap();
    let stats =
        collect_simple_statistics(&query, &catalog, &CollectConfig::with_max_norm(6)).unwrap();
    let l2 = compute_bound(
        &query,
        &stats.filter_norms(|n| n == Norm::L2),
        Cone::Polymatroid,
    )
    .unwrap();
    let textbook = textbook_estimate(&query, &catalog).unwrap();

    assert!(dsb >= truth - 1e-6);
    assert!(l2.bound() >= dsb - 1e-6, "ℓ2 {} vs DSB {}", l2.bound(), dsb);
    assert!(
        textbook < truth,
        "textbook {textbook} should underestimate the skewed join {truth}"
    );
}

/// The JOB-like acyclic workload: bounds sound on every query, the ℓp bound
/// at least as tight as PANDA, and the estimator interface usable end to end.
#[test]
fn job_like_suite_is_sound() {
    let catalog = job_like_catalog(&JobLikeConfig {
        movies: 150,
        link_fanout: 2,
        skew: 1.1,
        seed: 3,
    });
    let estimator = LpNormEstimator::with_max_norm(5);
    for jq in job_like_queries().into_iter().filter(|q| q.id % 6 == 2) {
        let truth = yannakakis_count(&jq.query, &catalog).unwrap();
        let log2_truth = (truth.max(1) as f64).log2();
        let (ours, _stats, norms) = estimator.bound_with_witness(&jq.query, &catalog).unwrap();
        let panda = panda_bound(&jq.query, &catalog).unwrap();
        assert!(ours.log2_bound >= log2_truth - 1e-6, "q{}", jq.id);
        assert!(ours.log2_bound <= panda.log2_bound + 1e-6, "q{}", jq.id);
        assert!(!norms.is_empty(), "q{}", jq.id);
    }
}

/// Tightness (§6): the worst-case database construction achieves the bound
/// up to the query-dependent constant, for statistics harvested from *real*
/// data (not hand-picked ones).
#[test]
fn worst_case_database_from_harvested_statistics() {
    // The worst-case construction needs one relation name per atom role, so
    // register the same edge relation under three names.
    let source = test_graph(99);
    let edge = source.get("E").unwrap();
    let mut catalog = Catalog::new();
    for name in ["E1", "E2", "E3"] {
        catalog.insert(edge.with_name(name));
    }
    let query = JoinQuery::triangle("E1", "E2", "E3");
    // Harvest only degree statistics (conditionals on join variables).
    let cfg = CollectConfig {
        norms: vec![Norm::L2, Norm::Finite(3.0), Norm::Infinity],
        atom_cardinalities: true,
        unary_cardinalities: false,
        join_vars_only: true,
    };
    let stats = collect_simple_statistics(&query, &catalog, &cfg).unwrap();
    let wc = worst_case_database(&query, &stats).unwrap();
    let achieved = true_cardinality(&query, &wc.catalog).unwrap();
    let log2_achieved = (achieved.max(1) as f64).log2();
    assert!(log2_achieved <= wc.bound.log2_bound + 1e-6);
    assert!(
        log2_achieved >= wc.bound.log2_bound - wc.witness.steps.len() as f64 - 1.0,
        "achieved 2^{log2_achieved} too far below bound 2^{}",
        wc.bound.log2_bound
    );
}

/// Example 6.7 of the paper, end to end: the diagonal database satisfies the
/// statistics and its output matches the bound within a factor of two.
#[test]
fn example_6_7_tightness() {
    let b = 9.0;
    let (t, catalog) = example_6_7_database(b);
    let query = JoinQuery::new(
        "ex6.7",
        vec![
            Atom::new("R1", &["X", "Y"]),
            Atom::new("R2", &["Y", "Z"]),
            Atom::new("R3", &["Z", "X"]),
            Atom::new("S1", &["X"]),
            Atom::new("S2", &["Y"]),
            Atom::new("S3", &["Z"]),
        ],
    )
    .unwrap();
    let truth = true_cardinality(&query, &catalog).unwrap();
    assert_eq!(truth as usize, t.len());
    assert!((truth as f64) >= 0.5 * b.exp2());
    // The harvested statistics reproduce the bound 2^b.
    let stats =
        collect_simple_statistics(&query, &catalog, &CollectConfig::with_max_norm(4)).unwrap();
    let bound = compute_bound(&query, &stats, Cone::Polymatroid).unwrap();
    assert!(bound.log2_bound <= b + 1e-6);
    assert!(bound.log2_bound >= (truth as f64).log2() - 1e-6);
}

/// Theorem 2.6 end to end: the partitioned evaluation is exact and its
/// total output stays under the ℓp bound.
#[test]
fn partitioned_evaluation_matches_bound() {
    let catalog = test_graph(5);
    let query = JoinQuery::single_join("E", "E");
    let stats =
        collect_simple_statistics(&query, &catalog, &CollectConfig::with_max_norm(6)).unwrap();
    let bound = compute_bound(&query, &stats, Cone::Polymatroid).unwrap();
    let specs = vec![
        PartitionSpec::new(0, &["src"], &["dst"]),
        PartitionSpec::new(1, &["dst"], &["src"]),
    ];
    let run = partitioned_join_count(&query, &catalog, &specs).unwrap();
    assert_eq!(run.output_size, wcoj_count(&query, &catalog).unwrap());
    assert!((run.output_size.max(1) as f64).log2() <= bound.log2_bound + 1e-6);
}

/// The persistent statistics catalog end to end: collect eagerly, save to a
/// plain-text file, load into a fresh catalog at "startup", and compute
/// **bit-identical** bounds from the loaded statistics without recomputing a
/// single norm.
#[test]
fn persisted_statistics_reproduce_bounds_bit_for_bit() {
    use lpbound::data::StatisticsCollector;

    let catalog = test_graph(17);
    let config = CollectConfig::with_max_norm(4);
    let collector = StatisticsCollector::with_norms(config.norms.clone());
    collector.materialize_catalog(&catalog).unwrap();
    let path = std::env::temp_dir().join("lpbound_end_to_end_roundtrip.stats");
    let written = catalog.save_statistics(&path).unwrap();
    assert_eq!(written, catalog.cached_stats());

    // "Startup": same relations, empty cache, statistics loaded from disk.
    let reloaded = test_graph(17);
    assert_eq!(reloaded.cached_stats(), 0);
    assert_eq!(reloaded.load_statistics(&path).unwrap(), written);

    for query in [
        JoinQuery::single_join("E", "E"),
        JoinQuery::triangle("E", "E", "E"),
        JoinQuery::path(&["E", "E", "E"]),
    ] {
        let fresh = collect_simple_statistics(&query, &catalog, &config).unwrap();
        let loaded = collect_simple_statistics(&query, &reloaded, &config).unwrap();
        let a = compute_bound(&query, &fresh, Cone::Polymatroid).unwrap();
        let b = compute_bound(&query, &loaded, Cone::Polymatroid).unwrap();
        assert_eq!(
            a.log2_bound.to_bits(),
            b.log2_bound.to_bits(),
            "{}: bound from persisted statistics must be bit-identical",
            query.name()
        );
    }
    // Every harvest above was served from the loaded cache — nothing was
    // recomputed, which is the point of a persistent catalog.
    assert_eq!(reloaded.cached_stats(), written);
    std::fs::remove_file(&path).ok();
}

/// Amplified statistics scale the bound linearly in log-space (the
/// k-amplification of Appendix D.2).
#[test]
fn amplification_scales_the_bound() {
    let catalog = test_graph(21);
    let query = JoinQuery::triangle("E", "E", "E");
    let stats =
        collect_simple_statistics(&query, &catalog, &CollectConfig::with_max_norm(3)).unwrap();
    let base = compute_bound(&query, &stats, Cone::Polymatroid).unwrap();
    let doubled = compute_bound(&query, &stats.amplify(2.0), Cone::Polymatroid).unwrap();
    assert!(
        (doubled.log2_bound - 2.0 * base.log2_bound).abs() < 1e-6,
        "{} vs {}",
        doubled.log2_bound,
        2.0 * base.log2_bound
    );
}

/// A deliberately inconsistent hand-built scenario: statistics that no
/// relation can satisfy still produce a *sound* (if loose) bound pipeline —
/// i.e. the code never under-reports when given worse (larger) statistics.
#[test]
fn looser_statistics_never_tighten_the_bound() {
    let mut catalog = Catalog::new();
    catalog.insert(RelationBuilder::binary_from_pairs(
        "E",
        "a",
        "b",
        (0..300u64).map(|i| (i % 17, (i * 3) % 19)),
    ));
    let query = JoinQuery::triangle("E", "E", "E");
    let stats =
        collect_simple_statistics(&query, &catalog, &CollectConfig::with_max_norm(4)).unwrap();
    let tight = compute_bound(&query, &stats, Cone::Polymatroid).unwrap();
    let loose = compute_bound(&query, &stats.amplify(1.3), Cone::Polymatroid).unwrap();
    assert!(loose.log2_bound >= tight.log2_bound - 1e-9);
}
