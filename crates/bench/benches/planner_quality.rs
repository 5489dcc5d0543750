//! Planner-quality benchmark: does the bound-driven optimizer actually pick
//! better plans than greedy-by-size, and what does planning cost?
//!
//! For every planner-adversarial workload of `lpb-datagen` (plus a JOB-like
//! acyclic query), this harness:
//!
//! 1. plans with [`lpb_exec::Optimizer`] and reads the plan's own clock
//!    (`plan_time` and the three phases that partition it: harvest — which
//!    includes batch-bounding every connected sub-join through the
//!    `BatchEstimator` — DP + lowering, partition search) and the LP work
//!    the call did on this thread,
//! 2. executes the chosen physical plan (checking every node's bound
//!    certificate), the greedy-by-size hash chain, the best **left-deep**
//!    DP order as a hash chain — the join-tree-shape baseline the bushy DP
//!    is measured against — and the best **monolithic** plan (partitioning
//!    disabled) — the baseline degree-partitioned plans are measured
//!    against,
//! 3. wall-clocks the chosen plan's execution
//!    ([`lpb_exec::execute_physical_mode`]; the output itself is pinned
//!    against the nested-loop oracle by the `lpb-exec` tests, not here),
//! 4. emits `BENCH_planner.json` at the workspace root with plan time and
//!    its phases (`harvest_us`, `dp_us`, `partition_us`, and `split_us`:
//!    the part of `partition_us` spent splitting candidates and counting
//!    their parts' statistics), the plan's LP
//!    work (`lp_dual_pivots`, and `lps_solved`: the distinct sub-join LPs
//!    its batches solved), chosen order/strategy, chosen-vs-greedy,
//!    bushy-vs-left-deep and partitioned-vs-monolithic peak intermediates,
//!    the planned part count, the partition search's work counters
//!    (`partition_candidates`, `partition_candidates_refused`,
//!    `partition_subqueries_bounded`),
//!    certificate-violation counts (asserted zero), and the execution time
//!    (`exec_vectorized_us`).
//!
//! Passing `--smoke` (the CI mode: `cargo bench --bench planner_quality --
//! --smoke`) runs the same pipeline at the test scale and writes the JSON
//! to a scratch path, so the emitter is exercised on every push without
//! clobbering the committed trajectory; CI greps the scratch output for
//! zero certificate violations.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use lpb_datagen::{
    job_like_catalog, job_like_queries, planner_workloads, JobLikeConfig, PlannerWorkload,
};
use lpb_exec::{
    execute_physical_mode, ColumnRun, ExecMode, JoinPlan, Optimizer, PhysicalPlan, PlannerConfig,
};
use std::time::Instant;

struct PlannerRow {
    workload: String,
    plan_us: f64,
    harvest_us: f64,
    dp_us: f64,
    partition_us: f64,
    split_us: f64,
    lp_dual_pivots: u64,
    lps_solved: usize,
    strategy: &'static str,
    order: Vec<usize>,
    chosen_max_intermediate: usize,
    greedy_max_intermediate: usize,
    leftdeep_max_intermediate: usize,
    monolithic_max_intermediate: usize,
    parts_planned: usize,
    partition_candidates: usize,
    partition_candidates_refused: usize,
    partition_subqueries_bounded: usize,
    certificate_violations: usize,
    certificates_checked: usize,
    output_size: usize,
    subqueries_bounded: usize,
    bound_fallbacks: usize,
    exec_vectorized_us: f64,
}

/// Wall-clock one executor configuration: one warm-up call sizes an
/// iteration count that keeps tiny (smoke-scale) workloads averaged over
/// enough runs to be meaningful, then the mean over that loop is reported
/// in microseconds.
fn time_exec_us(mut run: impl FnMut() -> usize) -> f64 {
    let warm = Instant::now();
    black_box(run());
    let single = warm.elapsed().as_secs_f64();
    let iters = (0.05 / single.max(1e-9)).ceil().clamp(1.0, 25.0) as u32;
    let started = Instant::now();
    for _ in 0..iters {
        black_box(run());
    }
    started.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
}

fn exec(w: &PlannerWorkload, plan: &PhysicalPlan, what: &str) -> ColumnRun {
    execute_physical_mode(&w.query, &w.catalog, plan, ExecMode::Vectorized).expect(what)
}

fn measure(c: &mut Criterion, smoke: bool) -> Vec<PlannerRow> {
    let scale = if smoke { 1 } else { 4 };
    let mut workloads = planner_workloads(scale);
    // One JOB-like acyclic query rounds out the suite.
    let job = job_like_catalog(&JobLikeConfig {
        movies: if smoke { 200 } else { 2_000 },
        link_fanout: 2,
        seed: 23,
        ..JobLikeConfig::default()
    });
    if let Some(jq) = job_like_queries().into_iter().nth(3) {
        workloads.push(PlannerWorkload {
            name: "job-like",
            query: jq.query,
            catalog: job,
        });
    }

    let mut rows = Vec::new();
    let mut group = c.benchmark_group("planner_quality");
    group.sample_size(10);
    for w in &workloads {
        // One optimizer per workload: the first plan() call is the
        // measurement with cold catalog statistics, the criterion loop
        // below plans on cached ones.
        let optimizer = Optimizer::new();
        let plan = optimizer.plan(&w.query, &w.catalog).expect("planning");
        let chosen = exec(w, &plan.physical, "chosen plan");
        assert_eq!(
            chosen.certificate_violations(),
            0,
            "{}: an executed intermediate exceeded its bound certificate",
            w.name
        );
        assert_eq!(
            plan.bound_fallbacks, 0,
            "{}: a sub-join bound fell back to the product bound",
            w.name
        );
        assert_eq!(
            plan.partition_bound_fallbacks, 0,
            "{}: a per-part bound fell back to the product bound",
            w.name
        );
        // The degree-partitioning baseline: the same planner with
        // partitioning disabled.  Identical to the chosen plan on
        // workloads where no partition was worth it.
        let mono_plan = Optimizer::new()
            .with_config(PlannerConfig {
                enable_partitioning: false,
                ..PlannerConfig::default()
            })
            .plan(&w.query, &w.catalog)
            .expect("monolithic planning");
        let mono = exec(w, &mono_plan.physical, "monolithic plan");
        assert_eq!(
            chosen.output_size(),
            mono.output_size(),
            "{}: the monolithic baseline disagrees on the output",
            w.name
        );
        let greedy_plan = JoinPlan::greedy_by_size(&w.query, &w.catalog).expect("greedy");
        let greedy = exec(
            w,
            &PhysicalPlan::hash_chain(greedy_plan.order().to_vec()),
            "greedy plan",
        );
        // The join-tree-shape baseline: the best left-deep order the same
        // bounds produce, evaluated as a pure hash chain.
        let leftdeep = exec(
            w,
            &PhysicalPlan::hash_chain(plan.leftdeep_order.clone()),
            "left-deep plan",
        );
        assert_eq!(
            chosen.output_size(),
            greedy.output_size(),
            "{}: plans disagree on the output",
            w.name
        );
        assert_eq!(
            chosen.output_size(),
            leftdeep.output_size(),
            "{}: the left-deep baseline disagrees on the output",
            w.name
        );

        let exec_vectorized_us =
            time_exec_us(|| exec(w, &plan.physical, "vectorized exec").output_size());

        group.bench_with_input(BenchmarkId::new("plan", w.name), &w, |b, w| {
            b.iter(|| optimizer.plan(&w.query, &w.catalog).unwrap())
        });

        rows.push(PlannerRow {
            workload: w.name.to_string(),
            plan_us: plan.plan_time.as_secs_f64() * 1e6,
            harvest_us: plan.harvest_time.as_secs_f64() * 1e6,
            dp_us: plan.dp_time.as_secs_f64() * 1e6,
            partition_us: plan.partition_time.as_secs_f64() * 1e6,
            split_us: plan.split_time.as_secs_f64() * 1e6,
            lp_dual_pivots: plan.lp_stats.dual_pivots,
            lps_solved: plan.lps_solved,
            strategy: plan.strategy(),
            order: plan.order.clone(),
            chosen_max_intermediate: chosen.max_intermediate(),
            greedy_max_intermediate: greedy.max_intermediate(),
            leftdeep_max_intermediate: leftdeep.max_intermediate(),
            monolithic_max_intermediate: mono.max_intermediate(),
            parts_planned: plan.parts_planned,
            partition_candidates: plan.partition_candidates,
            partition_candidates_refused: plan.partition_candidates_refused,
            partition_subqueries_bounded: plan.partition_subqueries_bounded,
            certificate_violations: chosen.certificate_violations(),
            certificates_checked: chosen.counters.certificates_checked(),
            output_size: chosen.output_size(),
            subqueries_bounded: plan.subqueries_bounded,
            bound_fallbacks: plan.bound_fallbacks,
            exec_vectorized_us,
        });
    }
    group.finish();
    rows
}

fn write_bench_json(rows: &[PlannerRow], smoke: bool) {
    let mut out = String::from("{\n  \"bench\": \"planner_quality\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let order: Vec<String> = r.order.iter().map(|a| a.to_string()).collect();
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"plan_us\": {:.1}, \"harvest_us\": {:.1}, \
             \"dp_us\": {:.1}, \"partition_us\": {:.1}, \"split_us\": {:.1}, \
             \"lp_dual_pivots\": {}, \
             \"lps_solved\": {}, \"strategy\": \"{}\", \
             \"chosen_order\": [{}], \"chosen_max_intermediate\": {}, \
             \"greedy_max_intermediate\": {}, \"peak_ratio_greedy_over_chosen\": {:.2}, \
             \"leftdeep_max_intermediate\": {}, \"bushy_vs_leftdeep_peak\": {:.2}, \
             \"partitioned_vs_monolithic_peak\": {:.2}, \"parts_planned\": {}, \
             \"partition_candidates\": {}, \"partition_candidates_refused\": {}, \
             \"partition_subqueries_bounded\": {}, \
             \"certificates_checked\": {}, \"certificate_violations\": {}, \
             \"output_size\": {}, \"subqueries_bounded\": {}, \"bound_fallbacks\": {}, \
             \"exec_vectorized_us\": {:.1}}}{}\n",
            r.workload,
            r.plan_us,
            r.harvest_us,
            r.dp_us,
            r.partition_us,
            r.split_us,
            r.lp_dual_pivots,
            r.lps_solved,
            r.strategy,
            order.join(", "),
            r.chosen_max_intermediate,
            r.greedy_max_intermediate,
            r.greedy_max_intermediate as f64 / r.chosen_max_intermediate.max(1) as f64,
            r.leftdeep_max_intermediate,
            // Only a genuinely bushy plan claims a bushy-vs-left-deep win;
            // non-bushy strategies report 1.00 (their left-deep gap is
            // visible from the raw leftdeep_max_intermediate column).
            if r.strategy == "bushy" {
                r.leftdeep_max_intermediate as f64 / r.chosen_max_intermediate.max(1) as f64
            } else {
                1.0
            },
            // Likewise, only a partitioned plan claims the sum-of-parts
            // win over the best monolithic plan's measured peak.
            if r.parts_planned > 0 {
                r.monolithic_max_intermediate as f64 / r.chosen_max_intermediate.max(1) as f64
            } else {
                1.0
            },
            r.parts_planned,
            r.partition_candidates,
            r.partition_candidates_refused,
            r.partition_subqueries_bounded,
            r.certificates_checked,
            r.certificate_violations,
            r.output_size,
            r.subqueries_bounded,
            r.bound_fallbacks,
            r.exec_vectorized_us,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    // Smoke runs exercise the emitter end-to-end but must not overwrite the
    // committed trajectory file with reduced-size numbers.
    let path = if smoke {
        std::env::temp_dir()
            .join("BENCH_planner.smoke.json")
            .to_string_lossy()
            .into_owned()
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_planner.json").to_string()
    };
    std::fs::write(&path, &out).expect("write BENCH_planner.json");
    println!("{out}");
    println!("wrote {path}");
}

fn bench(c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let rows = measure(c, smoke);
    write_bench_json(&rows, smoke);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
