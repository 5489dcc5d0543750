//! Planner-quality regression tests: on planner-adversarial workloads the
//! bound-driven optimizer must (a) never pick a plan whose measured peak
//! intermediate exceeds greedy-by-size's, (b) beat greedy by at least 2× on
//! at least one skewed workload, (c) only ever trust bounds that really do
//! upper-bound the true sub-join sizes, (d) beat every left-deep order with
//! a bushy tree on the bridged-chains workload, and (e) never observe an
//! executed intermediate above its attached bound certificate.

use lpb_core::{Atom, BatchEstimator, CollectConfig, Cone, JoinQuery};
use lpb_data::{Catalog, RelationBuilder};
use lpb_datagen::{
    bridged_chains_workload, job_like_catalog, job_like_queries, misleading_chain_workload,
    partition_skew_workload, planner_workloads, skewed_triangle_workload, JobLikeConfig,
};
use std::rc::Rc;

use lpb_exec::{
    execute_physical_mode, true_cardinality, ColumnRun, ExecMode, JoinPlan, LogicalPlan, Optimizer,
    PhysicalPlan, PlannerConfig,
};

fn exec(query: &JoinQuery, catalog: &Catalog, plan: &PhysicalPlan) -> ColumnRun {
    execute_physical_mode(query, catalog, plan, ExecMode::Vectorized).unwrap()
}

/// Measured peak intermediates of the optimizer's plan vs greedy-by-size.
/// Also asserts that no executed node violates its bound certificate.
fn measured_peaks(query: &JoinQuery, catalog: &Catalog) -> (usize, usize, usize) {
    let optimizer = Optimizer::new();
    let plan = optimizer.plan(query, catalog).unwrap();
    let chosen = exec(query, catalog, &plan.physical);
    assert_eq!(
        chosen.certificate_violations(),
        0,
        "{}: an intermediate exceeded its bound certificate",
        query.name()
    );
    let greedy = JoinPlan::greedy_by_size(query, catalog).unwrap();
    let greedy_run = exec(
        query,
        catalog,
        &PhysicalPlan::hash_chain(greedy.order().to_vec()),
    );
    assert_eq!(
        chosen.output_size(),
        greedy_run.output_size(),
        "{}: all plans must compute the same output",
        query.name()
    );
    (
        chosen.max_intermediate(),
        greedy_run.max_intermediate(),
        chosen.output_size(),
    )
}

#[test]
fn optimizer_never_does_worse_than_greedy_on_planner_workloads() {
    for w in planner_workloads(1) {
        let (chosen, greedy, _) = measured_peaks(&w.query, &w.catalog);
        assert!(
            chosen <= greedy,
            "{}: chosen peak {chosen} vs greedy peak {greedy}",
            w.name
        );
    }
}

#[test]
fn optimizer_beats_greedy_2x_on_the_skewed_triangle() {
    let w = skewed_triangle_workload(1);
    let (chosen, greedy, output) = measured_peaks(&w.query, &w.catalog);
    assert!(output > 0, "triangle output must be non-empty");
    assert!(
        2 * chosen <= greedy,
        "expected a >= 2x peak-intermediate win, got chosen {chosen} vs greedy {greedy}"
    );
}

#[test]
fn optimizer_beats_greedy_2x_on_the_misleading_chain() {
    let w = misleading_chain_workload(1);
    let (chosen, greedy, output) = measured_peaks(&w.query, &w.catalog);
    assert!(output > 0, "chain output must be non-empty");
    assert!(
        2 * chosen <= greedy,
        "expected a >= 2x peak-intermediate win, got chosen {chosen} vs greedy {greedy}"
    );
}

#[test]
fn plan_time_bounding_goes_through_the_warm_started_batch_estimator() {
    let w = skewed_triangle_workload(1);
    let optimizer = Optimizer::new();
    let plan = optimizer.plan(&w.query, &w.catalog).unwrap();
    assert!(plan.subqueries_bounded >= 4);
    let lps = optimizer.estimator().lps_estimated();
    assert_eq!(
        lps,
        plan.subqueries_bounded + plan.partition_subqueries_bounded
    );
    // Nothing is carried between planning calls: a second one asks for the
    // same LPs again and returns the same plan.
    let again = optimizer.plan(&w.query, &w.catalog).unwrap();
    assert_eq!(optimizer.estimator().lps_estimated(), 2 * lps);
    assert_eq!(again.physical, plan.physical);
}

/// On the bridged heavy chains, every left-deep order must hold a 4-atom
/// prefix spanning the bridge into the far chain's fan-out; the bushy tree
/// joins the two small halves instead.  The DP must find the bushy plan and
/// its measured peak must beat the best left-deep DP plan's by ≥ 2×.
#[test]
fn bushy_plan_beats_every_left_deep_order_on_bridged_chains() {
    let w = bridged_chains_workload(1);
    let optimizer = Optimizer::new();
    let plan = optimizer.plan(&w.query, &w.catalog).unwrap();
    assert_eq!(
        plan.strategy(),
        "bushy",
        "plan: {}",
        plan.physical.describe()
    );
    assert_eq!(plan.bound_fallbacks, 0);
    assert!(plan.predicted_log2_cost <= plan.leftdeep_predicted_log2_cost);
    assert!(!plan.physical.certificates().is_empty());

    let bushy = exec(&w.query, &w.catalog, &plan.physical);
    assert_eq!(bushy.certificate_violations(), 0);
    // The best *left-deep* plan the same bounds produce: the bottleneck
    // DP's left-deep order, evaluated as a hash chain.
    let leftdeep = exec(
        &w.query,
        &w.catalog,
        &PhysicalPlan::hash_chain(plan.leftdeep_order.clone()),
    );
    assert_eq!(bushy.output_size(), leftdeep.output_size());
    assert!(bushy.output_size() > 0);
    assert!(
        2 * bushy.max_intermediate() <= leftdeep.max_intermediate(),
        "expected a >= 2x bushy-vs-left-deep peak win, got bushy {} vs left-deep {}",
        bushy.max_intermediate(),
        leftdeep.max_intermediate()
    );
}

/// On the partition-skew workload every monolithic order must pay one hub
/// direction's full fan-out, while the light/heavy split of `S` gives each
/// part a harmless entry side.  The DP must choose the partitioned plan
/// from LP bounds alone, execute it with zero certificate violations, and
/// beat the best monolithic plan's measured peak by ≥ 2×.
#[test]
fn partitioned_plan_beats_the_best_monolithic_plan_on_partition_skew() {
    let w = partition_skew_workload(1);
    let optimizer = Optimizer::new();
    let plan = optimizer.plan(&w.query, &w.catalog).unwrap();
    assert_eq!(
        plan.strategy(),
        "partitioned",
        "plan: {}",
        plan.physical.describe()
    );
    assert_eq!(plan.parts_planned, 2);
    // Chosen from bounds alone: the partitioned prediction undercuts the
    // monolithic one before anything executes.
    assert!(plan.predicted_log2_cost < plan.monolithic_predicted_log2_cost);
    assert_eq!(plan.bound_fallbacks, 0);
    assert_eq!(plan.partition_bound_fallbacks, 0);
    assert!(plan.partition_subqueries_bounded > 0);
    assert!(!plan.physical.certificates().is_empty());

    let run = exec(&w.query, &w.catalog, &plan.physical);
    assert_eq!(run.certificate_violations(), 0);
    assert!(run.counters.certificates_checked() > 0);
    assert_eq!(run.counters.parts_planned(), 2);
    assert_eq!(run.counters.parts_executed(), 2);
    assert_eq!(run.counters.part_peaks().len(), 2);

    // The monolithic baseline: the same planner with partitioning off.
    let mono_plan = Optimizer::new()
        .with_config(PlannerConfig {
            enable_partitioning: false,
            ..PlannerConfig::default()
        })
        .plan(&w.query, &w.catalog)
        .unwrap();
    assert_ne!(mono_plan.strategy(), "partitioned");
    assert_eq!(mono_plan.parts_planned, 0);
    let mono = exec(&w.query, &w.catalog, &mono_plan.physical);
    assert_eq!(mono.counters.parts_planned(), 0);
    assert_eq!(run.output_size(), mono.output_size());
    assert!(run.output_size() > 0);
    assert!(
        2 * run.max_intermediate() <= mono.max_intermediate(),
        "expected a >= 2x partitioned-vs-monolithic peak win, got {} vs {}",
        run.max_intermediate(),
        mono.max_intermediate()
    );
}

/// The partition search pays per candidate for the sub-joins through the
/// split atom only.  A 6-atom chain around partition-skew's `S` — key
/// relations (one row per join value) extend both ends, so the partition
/// still wins exactly as on the 3-atom chain — has 15 connected multi-atom
/// sub-joins, 11 of them through `S`: with one candidate the search solves
/// `parts × 11` LPs (full query first, the other ten after the bound-first
/// test), not `parts × 15`.
#[test]
fn partition_search_bounds_only_subjoins_through_the_split_atom() {
    let w = partition_skew_workload(1);
    let mut catalog = Catalog::new();
    for name in ["R", "S", "T"] {
        catalog.insert((*w.catalog.get(name).unwrap()).clone());
    }
    let keys = |rel: &str, attr: &str| -> Vec<u64> {
        let rel = catalog.get(rel).unwrap();
        let pos = rel.schema().positions([attr]).unwrap()[0];
        let mut values = rel.column(pos).to_vec();
        values.sort_unstable();
        values.dedup();
        values
    };
    let (a_keys, d_keys) = (keys("R", "a"), keys("T", "d"));
    let key_relation = |name: &str, from: &str, to: &str, keys: &[u64]| {
        RelationBuilder::binary_from_pairs(name, from, to, keys.iter().map(|&k| (k, k)))
    };
    catalog.insert(key_relation("P", "p", "a", &a_keys));
    catalog.insert(key_relation("U", "d", "e", &d_keys));
    catalog.insert(key_relation("W", "e", "f", &d_keys));
    let query = JoinQuery::new(
        "partition-skew-6",
        vec![
            Atom::new("P", &["Z", "A"]),
            Atom::new("R", &["A", "B"]),
            Atom::new("S", &["B", "C"]),
            Atom::new("T", &["C", "D"]),
            Atom::new("U", &["D", "E"]),
            Atom::new("W", &["E", "F"]),
        ],
    )
    .unwrap();
    let split_atom = 2;
    let through_split = LogicalPlan::of(&query)
        .connected_subsets()
        .into_iter()
        .filter(|s| s.count_ones() >= 2 && s & (1 << split_atom) != 0)
        .count();
    assert_eq!(through_split, 11);

    let plan = Optimizer::new()
        .with_config(PlannerConfig {
            max_partition_candidates: 1,
            ..PlannerConfig::default()
        })
        .plan(&query, &catalog)
        .unwrap();
    assert_eq!(
        plan.strategy(),
        "partitioned",
        "{}",
        plan.physical.describe()
    );
    assert_eq!(plan.parts_planned, 2);
    assert_eq!(plan.subqueries_bounded, 15);
    assert_eq!(plan.partition_candidates, 1);
    assert_eq!(plan.partition_candidates_refused, 0);
    assert_eq!(plan.partition_bound_fallbacks, 0);
    assert_eq!(
        plan.partition_subqueries_bounded,
        plan.parts_planned * through_split
    );
    let run = exec(&query, &catalog, &plan.physical);
    assert_eq!(run.certificate_violations(), 0);
    assert_eq!(
        run.output_size() as u128,
        true_cardinality(&query, &catalog).unwrap()
    );
}

/// `large-mixed-12` has two skew candidates and neither can win: the sum of
/// the parts' full-query bounds alone exceeds the monolithic bottleneck.
/// The bound-first test refuses both after two LPs each, where the search
/// used to bound 220 sub-joins per part first.
#[test]
fn hopeless_partition_candidates_are_refused_after_one_lp_per_part() {
    let w = planner_workloads(1)
        .into_iter()
        .find(|w| w.name == "large-mixed-12")
        .unwrap();
    let plan = Optimizer::new().plan(&w.query, &w.catalog).unwrap();
    assert_eq!(plan.parts_planned, 0);
    assert_eq!(plan.partition_candidates, 2);
    assert_eq!(plan.partition_candidates_refused, 2);
    assert_eq!(plan.partition_subqueries_bounded, 4);
    assert_eq!(plan.partition_bound_fallbacks, 0);
    assert_eq!(plan.subqueries_bounded, 220);
    assert_eq!(
        plan.predicted_log2_cost,
        plan.monolithic_predicted_log2_cost
    );
}

/// Planning is a function of its input, and of nothing a solver leaves in
/// the last bits of a bound.  Fresh optimizers plan every adversary — among
/// them `large-mixed-12`, 220 sub-join LPs over ten variable counts — and
/// the six served shapes at both served scales to the same tree and the
/// same predicted cost bit for bit.  And an optimizer whose every LP goes to
/// the polymatroid cone — other LPs, another solver path, bounds that agree
/// with the normal cone's to 1e-13 and not to the bit — returns the same
/// physical plan, certificates included, wherever that cone is affordable
/// (≤ 8 variables).  This is what keeps the polymatroid LP differentially
/// tested against the path the product runs.
#[test]
fn cold_plans_of_one_query_are_identical() {
    let mut inputs: Vec<(String, JoinQuery, Rc<Catalog>)> = planner_workloads(1)
        .into_iter()
        .map(|w| (w.name.to_string(), w.query, Rc::new(w.catalog)))
        .collect();
    for movies in [200, 1000] {
        let catalog = Rc::new(job_like_catalog(&JobLikeConfig {
            movies,
            link_fanout: 2,
            seed: 23,
            ..JobLikeConfig::default()
        }));
        for q in job_like_queries().into_iter().take(6) {
            let name = format!("{} at {movies} movies", q.query.name());
            inputs.push((name, q.query, Rc::clone(&catalog)));
        }
    }
    let polymatroid =
        || Optimizer::new().with_estimator(BatchEstimator::new().with_cone(Cone::Polymatroid));
    let mut cross_checked = 0;
    for (name, query, catalog) in &inputs {
        let outcome = |optimizer: Optimizer| {
            let plan = optimizer.plan(query, catalog).unwrap();
            (
                plan.physical,
                plan.predicted_log2_cost.to_bits(),
                plan.monolithic_predicted_log2_cost.to_bits(),
                optimizer.estimator().lps_estimated(),
            )
        };
        let reference = outcome(Optimizer::new());
        assert_eq!(outcome(Optimizer::new()), reference, "{name}");
        if query.n_vars() <= 8 {
            assert_eq!(outcome(polymatroid()), reference, "{name}");
            cross_checked += 1;
        }
    }
    assert_eq!(cross_checked, 4 + 12);
}

/// With bushy splits disabled the planner must still work (and report the
/// same left-deep order it would otherwise compare against).
#[test]
fn disabling_bushy_falls_back_to_the_left_deep_dp() {
    let w = bridged_chains_workload(1);
    let config = lpb_exec::PlannerConfig {
        enable_bushy: false,
        ..lpb_exec::PlannerConfig::default()
    };
    let plan = Optimizer::new()
        .with_config(config)
        .plan(&w.query, &w.catalog)
        .unwrap();
    assert_ne!(plan.strategy(), "bushy");
    assert_eq!(plan.predicted_log2_cost, plan.leftdeep_predicted_log2_cost);
    let run = exec(&w.query, &w.catalog, &plan.physical);
    assert_eq!(run.certificate_violations(), 0);
}

/// All sub-join bound attempts must succeed on the healthy planner corpus:
/// `subqueries_bounded` counts successes only, and `bound_fallbacks` (the
/// pessimistic product fallbacks) must be zero.
#[test]
fn planner_corpus_bounds_every_subjoin_without_fallbacks() {
    for w in planner_workloads(1) {
        let logical = LogicalPlan::of(&w.query);
        let requested = logical
            .connected_subsets()
            .into_iter()
            .filter(|m| m.count_ones() >= 2)
            .count();
        let plan = Optimizer::new().plan(&w.query, &w.catalog).unwrap();
        assert_eq!(
            plan.subqueries_bounded, requested,
            "{}: every requested sub-join must be bounded",
            w.name
        );
        assert_eq!(plan.bound_fallbacks, 0, "{}: no fallbacks allowed", w.name);
    }
}

/// Disconnected queries plan (greedy fallback), execute end to end through
/// the cross-product hash chain, and report NaN costs — without panicking
/// in the hybrid tail's extension loop.
#[test]
fn disconnected_queries_plan_and_execute_end_to_end() {
    let mut catalog = Catalog::new();
    catalog.insert(RelationBuilder::binary_from_pairs(
        "R",
        "a",
        "b",
        (0..6u64).map(|i| (i, i % 3)),
    ));
    catalog.insert(RelationBuilder::binary_from_pairs(
        "S",
        "b",
        "c",
        (0..4u64).map(|i| (i % 3, i)),
    ));
    catalog.insert(RelationBuilder::binary_from_pairs(
        "T",
        "x",
        "y",
        vec![(100, 200), (101, 201), (102, 202)],
    ));

    // Acyclic two-component query: (R ⋈ S) × T.
    let q = JoinQuery::new(
        "disconnected",
        vec![
            Atom::new("R", &["A", "B"]),
            Atom::new("S", &["B", "C"]),
            Atom::new("T", &["X", "Y"]),
        ],
    )
    .unwrap();
    let optimizer = Optimizer::new();
    let plan = optimizer.plan(&q, &catalog).unwrap();
    assert!(plan.predicted_log2_cost.is_nan());
    assert!(plan.greedy_predicted_log2_cost.is_nan());
    assert!(plan.leftdeep_predicted_log2_cost.is_nan());
    assert_eq!(plan.subqueries_bounded, 0);
    assert_eq!(plan.bound_fallbacks, 0);
    let run = exec(&q, &catalog, &plan.physical);
    let rs = exec(&q, &catalog, &PhysicalPlan::hash_chain(vec![0, 1, 2]));
    assert_eq!(run.output_size(), rs.output_size());
    let joined = lpb_exec::join2_count(&catalog.get("R").unwrap(), &catalog.get("S").unwrap())
        .unwrap() as usize;
    assert_eq!(run.output_size(), joined * 3);

    // Cyclic component plus an isolated atom: triangle × T.
    let mut edges = Vec::new();
    for a in 0..4u64 {
        for b in 0..4u64 {
            if a != b {
                edges.push((a, b));
            }
        }
    }
    catalog.insert(RelationBuilder::binary_from_pairs("E", "a", "b", edges));
    let q = JoinQuery::new(
        "tri-x",
        vec![
            Atom::new("E", &["X", "Y"]),
            Atom::new("E", &["Y", "Z"]),
            Atom::new("E", &["Z", "X"]),
            Atom::new("T", &["U", "V"]),
        ],
    )
    .unwrap();
    let plan = optimizer.plan(&q, &catalog).unwrap();
    assert!(plan.predicted_log2_cost.is_nan());
    let run = exec(&q, &catalog, &plan.physical);
    assert_eq!(run.output_size(), 24 * 3);

    // cost_order still costs orders of disconnected queries — crossing
    // prefixes get the pessimistic product bound.
    let cost = optimizer.cost_order(&q, &catalog, &[3, 0, 1, 2]).unwrap();
    assert!(cost.is_finite());
    assert!(cost >= (3f64 * 12f64).log2() - 1e-9);
}

/// Every bound used to cost the DP must upper-bound the true size of its
/// sub-join — that is the whole point of using the paper's bounds for
/// planning.
#[test]
fn every_planner_bound_upper_bounds_the_true_subjoin_size() {
    for w in planner_workloads(1) {
        let logical = LogicalPlan::of(&w.query);
        let subsets: Vec<Vec<usize>> = logical
            .connected_subsets()
            .into_iter()
            .filter(|m| m.count_ones() >= 2)
            .map(|m| logical.atoms_of(m).collect())
            .collect();
        let estimator = BatchEstimator::new();
        let bounds = estimator.bound_subqueries(
            &w.query,
            &w.catalog,
            &subsets,
            &CollectConfig::with_max_norm(4),
        );
        for (atoms, bound) in subsets.iter().zip(&bounds) {
            let bound = bound.as_ref().unwrap();
            let sub = w.query.subquery(atoms).unwrap();
            let truth = true_cardinality(&sub, &w.catalog).unwrap() as f64;
            assert!(
                bound.bound() >= truth - 1e-6,
                "{}: bound {} below truth {} for sub-join {atoms:?}",
                w.name,
                bound.bound(),
                truth
            );
        }
    }
}
