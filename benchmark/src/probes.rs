//! Per-layer metrics of the traced run: the spans and counters of the timed
//! loop, plus one-shot probes that call each crate from the outside on the
//! workload's own queries.  Layers are the crates.
//!
//! A metric that does not apply to a workload is reported as 0 — the planner
//! and executor probes on `bound-only`, the `serve.*` family on the library
//! workloads — which is exactly the statement that the layer does no work
//! there.

use crate::inputs::{bound_log2, collect_config, generate, Inputs, Kind};
use crate::stats;
use crate::trace::Recorder;
use crate::workloads::{Timed, Workload};
use lpb_core::{collect_simple_statistics, compute_bound, Cone};
use lpb_entropy::{elemental_inequalities, VarSet};
use lpb_exec::{execute_physical_mode, ExecMode, Optimizer, PlannerConfig};
use lpb_lp::{Problem, Sense, SolverOptions};
use lpb_serve::ServeStats;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    // Adding zero turns an empty sum's `-0` into `0`.
    Metric {
        name,
        value: value + 0.0,
        unit,
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// What the traced run hands over for the roll-up.
pub struct TracedRun<'a> {
    pub kind: Kind,
    pub workload: &'a dyn Workload,
    pub untraced: &'a Timed,
    pub traced: &'a Timed,
    pub recorder: &'a Recorder,
    /// Service counters before and after the traced loop (serve workloads).
    pub serve_stats: Option<(ServeStats, ServeStats)>,
    /// The very first bound computed in this process, skeletons cold.
    pub first_bound_ms: f64,
}

pub fn per_layer(run: &TracedRun<'_>) -> Result<Vec<Metric>, String> {
    let inputs = &run.workload.facts().inputs;
    let mut out = data_layer(run.kind, run.recorder)?;
    out.extend(lp_layer(run.traced)?);
    out.extend(core_layer(inputs, run.first_bound_ms)?);
    out.extend(exec_layer(inputs, run.kind.plans())?);
    out.extend(serve_layer(run.traced, run.serve_stats));
    out.extend(trace_layer(run));
    Ok(out)
}

/// `lpb-data`: the statistics harvest against a cold and a warm catalog
/// cache, and the publish path.
fn data_layer(kind: Kind, recorder: &Recorder) -> Result<Vec<Metric>, String> {
    let fresh = generate(kind);
    let config = collect_config();
    let harvest = || -> Result<f64, String> {
        let t = Instant::now();
        for (query, &c) in fresh.queries.iter().zip(&fresh.catalog_of) {
            collect_simple_statistics(query, &fresh.catalogs[c], &config)
                .map_err(|e| e.to_string())?;
        }
        Ok(ms_since(t))
    };
    let cold = harvest()?;
    let warm = harvest()?;
    let cached: usize = fresh.catalogs.iter().map(|c| c.cached_stats()).sum();
    Ok(vec![
        metric("data.stats_cold_ms", cold, "ms"),
        metric("data.stats_warm_ms", warm, "ms"),
        metric("data.stats_cached", cached as f64, "count"),
        metric(
            "data.publish_ms",
            stats::median(&recorder.durations_ms("data.publish")),
            "ms",
        ),
    ])
}

/// The polymatroid bound LP of the `k`-cycle with unit log-sizes, built
/// here from the elemental Shannon inequalities: maximize `h(X)` subject to
/// `h(edge) ≤ 1`.  Its optimum is the AGM bound `k/2`.
fn cycle_lp(k: usize) -> Problem {
    let mut lp = Problem::maximize((1 << k) - 1);
    let column = |set: VarSet| set.index() - 1;
    lp.set_objective(column(VarSet::full(k)), 1.0);
    for i in 0..k {
        let edge = VarSet::from_indices([i, (i + 1) % k]);
        lp.add_constraint(&[(column(edge), 1.0)], Sense::Le, 1.0);
    }
    for inequality in elemental_inequalities(k) {
        let coeffs: Vec<(usize, f64)> = inequality
            .terms
            .iter()
            .map(|&(set, c)| (column(set), c))
            .collect();
        lp.add_constraint(&coeffs, Sense::Ge, 0.0);
    }
    lp
}

/// `lpb-lp`: raw solves on bench-built LPs, and the solver's own work
/// counters over the timed loop.
fn lp_layer(traced: &Timed) -> Result<Vec<Metric>, String> {
    let mut solve_ms = 0.0;
    // k = 7 (686 rows) takes the default solver about 53 s on the 2-core
    // box this was written on, so the probe stops at 6.
    for k in 4..=6 {
        let lp = cycle_lp(k);
        let t = Instant::now();
        let solution = lp
            .solve_with(&SolverOptions::default())
            .map_err(|e| e.to_string())?;
        solve_ms += ms_since(t);
        if !solution.is_optimal() || (solution.objective - k as f64 / 2.0).abs() > 1e-6 {
            return Err(format!(
                "{k}-cycle LP: objective {} instead of {}",
                solution.objective,
                k as f64 / 2.0
            ));
        }
    }
    Ok(vec![
        metric("lp.solve_ms", solve_ms, "ms"),
        metric("lp.primal_pivots", traced.lp.primal_pivots as f64, "count"),
        metric("lp.dual_pivots", traced.lp.dual_pivots as f64, "count"),
        metric(
            "lp.refactorizations",
            traced.lp.refactorizations as f64,
            "count",
        ),
        metric("lp.rows_appended", traced.lp.rows_appended as f64, "count"),
    ])
}

/// `lpb-core`: one full-query bound per query.
fn core_layer(inputs: &Inputs, first_bound_ms: f64) -> Result<Vec<Metric>, String> {
    let config = collect_config();
    let mut bound_ms = Vec::with_capacity(inputs.len());
    let mut normal = 0usize;
    for (i, query) in inputs.queries.iter().enumerate() {
        let stats = collect_simple_statistics(query, inputs.catalog(i), &config)
            .map_err(|e| e.to_string())?;
        let cone = Cone::auto(query, &stats);
        normal += usize::from(cone == Cone::Normal);
        let t = Instant::now();
        compute_bound(query, &stats, cone).map_err(|e| e.to_string())?;
        bound_ms.push(ms_since(t));
    }
    let mut steady = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        bound_log2(&inputs.queries[0], inputs.catalog(0))?;
        steady.push(ms_since(t));
    }
    Ok(vec![
        metric("core.bound_ms", stats::median(&bound_ms), "ms"),
        metric(
            "core.skeleton_first_ms",
            first_bound_ms - stats::median(&steady),
            "ms",
        ),
        metric(
            "core.cone_normal_share",
            normal as f64 / inputs.len() as f64,
            "ratio",
        ),
    ])
}

/// `lpb-exec`, planner and executor, and the batched side of `lpb-core`
/// that only the planner drives.  Sums over the workload's queries.
fn exec_layer(inputs: &Inputs, plans: bool) -> Result<Vec<Metric>, String> {
    let (mut cold, mut warm, mut nopart, mut batch, mut run_ms) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut lps, mut hits, mut misses) = (0usize, 0usize, 0usize);
    let (mut bounded, mut fallbacks) = (0usize, 0usize);
    let (mut rows_out, mut peak, mut checked, mut violations) = (0usize, 0usize, 0usize, 0usize);
    let planned = if plans { inputs.len() } else { 0 };
    for (i, query) in inputs.queries.iter().enumerate().take(planned) {
        let catalog = inputs.catalog(i);
        let optimizer = Optimizer::new();
        let t = Instant::now();
        let plan = optimizer.plan(query, catalog).map_err(|e| e.to_string())?;
        cold += ms_since(t);
        lps += optimizer.estimator().lps_estimated();
        hits += optimizer.estimator().shape_cache_hits();
        misses += optimizer.estimator().shape_cache_misses();
        bounded += plan.subqueries_bounded;
        fallbacks += plan.bound_fallbacks + plan.partition_bound_fallbacks;

        let t = Instant::now();
        optimizer.plan(query, catalog).map_err(|e| e.to_string())?;
        warm += ms_since(t);

        let monolithic = Optimizer::new().with_config(PlannerConfig {
            enable_partitioning: false,
            ..PlannerConfig::default()
        });
        let t = Instant::now();
        monolithic.plan(query, catalog).map_err(|e| e.to_string())?;
        nopart += ms_since(t);

        let harvester = Optimizer::new();
        let t = Instant::now();
        harvester
            .harvest(query, catalog)
            .map_err(|e| e.to_string())?;
        batch += ms_since(t);

        let mut runs = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            let run = execute_physical_mode(query, catalog, &plan.physical, ExecMode::Vectorized)
                .map_err(|e| e.to_string())?;
            runs.push(ms_since(t));
            if runs.len() == 1 {
                rows_out += run.output_size();
                peak += run.max_intermediate();
                checked += run.counters.certificates_checked();
                violations += run.certificate_violations();
            }
        }
        run_ms += stats::median(&runs);
    }
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    Ok(vec![
        metric("core.bound_batch_ms", batch, "ms"),
        metric("core.lps_estimated", lps as f64, "count"),
        metric("core.shape_cache_hits", hits as f64, "count"),
        metric(
            "core.shape_cache_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
            "ratio",
        ),
        metric("exec.plan_cold_ms", cold, "ms"),
        metric("exec.plan_warm_ms", warm, "ms"),
        metric("exec.plan_nopart_ms", nopart, "ms"),
        metric("exec.partition_search_ms", cold - nopart, "ms"),
        metric("exec.dp_lower_ms", nopart - batch, "ms"),
        metric("exec.subqueries_bounded", bounded as f64, "count"),
        metric("exec.bound_fallbacks", fallbacks as f64, "count"),
        metric("exec.run_ms", run_ms, "ms"),
        metric(
            "exec.rows_out_per_s",
            ratio(rows_out as f64, run_ms / 1e3),
            "1/s",
        ),
        metric("exec.peak_intermediate_rows", peak as f64, "count"),
        metric("exec.certificates_checked", checked as f64, "count"),
        metric("exec.certificate_violations", violations as f64, "count"),
    ])
}

/// `lpb-serve`: what the service reported per request and in its counters.
fn serve_layer(traced: &Timed, serve_stats: Option<(ServeStats, ServeStats)>) -> Vec<Metric> {
    let of = |pick: &dyn Fn(&crate::workloads::Served) -> Option<f64>| -> Vec<f64> {
        traced.served.iter().filter_map(pick).collect()
    };
    let hits = of(&|s| s.hit.then_some(s.latency_ms));
    let misses = of(&|s| (!s.hit).then_some(s.latency_ms));
    let plan_times = of(&|s| (!s.hit).then_some(s.plan_time_ms));
    // Admission to plan-in-hand minus the optimizer's own time: waiting for
    // a round to open, the gather window, the leader's other requests.
    let overheads = of(&|s| (!s.hit).then_some(s.plan_time_ms - s.optimizer_ms));
    // Every request of a batch reports the whole batch's pivots.
    let pivots: f64 = traced
        .served
        .iter()
        .filter(|s| !s.hit)
        .map(|s| s.batch_pivots as f64 / s.batch.max(1) as f64)
        .sum();
    let mut all = of(&|s| Some(s.latency_ms));
    stats::sort(&mut all);
    let (before, after) = serve_stats.unwrap_or_default();
    let delta = |pick: fn(&ServeStats) -> u64| (pick(&after) - pick(&before)) as f64;
    let probes = delta(|s| s.cache_hits) + delta(|s| s.cache_misses);
    let batches = delta(|s| s.batches);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    vec![
        metric("serve.hit_latency_ms", stats::median(&hits), "ms"),
        metric("serve.miss_latency_ms", stats::median(&misses), "ms"),
        metric("serve.plan_time_ms", stats::median(&plan_times), "ms"),
        metric("serve.overhead_ms", stats::median(&overheads), "ms"),
        metric("serve.latency_p99_ms", stats::percentile(&all, 0.99), "ms"),
        metric(
            "serve.cache_hit_rate",
            ratio(delta(|s| s.cache_hits), probes),
            "ratio",
        ),
        metric("serve.batches", batches, "count"),
        metric(
            "serve.avg_batch",
            ratio(delta(|s| s.coalesced_requests), batches),
            "count",
        ),
        // A high-water mark, not a counter: the service's value as it stands.
        metric("serve.max_batch", after.max_batch as f64, "count"),
        metric(
            "serve.multi_request_batches",
            delta(|s| s.multi_request_batches),
            "count",
        ),
        metric("serve.publishes", delta(|s| s.publishes), "count"),
        metric("serve.plan_pivots", pivots, "count"),
    ]
}

/// The trace itself: what recording cost, and where the requests' time went
/// (self time per layer over the requests' total time).
fn trace_layer(run: &TracedRun<'_>) -> Vec<Metric> {
    let roll = run.recorder.roll_up();
    let requests: f64 = ["request", "serve.request"]
        .iter()
        .filter_map(|name| roll.get(name))
        .map(|r| r.total_us)
        .sum();
    let share = |names: &[&str]| -> f64 {
        let own: f64 = names
            .iter()
            .filter_map(|name| roll.get(name))
            .map(|r| r.self_us)
            .sum();
        if requests > 0.0 {
            own / requests
        } else {
            0.0
        }
    };
    let untraced = run.untraced.mean_qps();
    vec![
        metric(
            "trace.overhead_pct",
            (untraced - run.traced.mean_qps()) / untraced * 100.0,
            "%",
        ),
        metric("trace.spans", run.recorder.spans().len() as f64, "count"),
        metric("trace.stats_share", share(&["data.stats"]), "ratio"),
        metric("trace.bound_share", share(&["core.bound"]), "ratio"),
        metric(
            "trace.plan_share",
            share(&["exec.plan", "serve.plan"]),
            "ratio",
        ),
        metric("trace.run_share", share(&["exec.run"]), "ratio"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cycle_lp_reaches_the_agm_bound() {
        for k in [4, 5] {
            let solution = cycle_lp(k).solve_with(&SolverOptions::default()).unwrap();
            assert!(solution.is_optimal());
            assert!((solution.objective - k as f64 / 2.0).abs() < 1e-6);
        }
    }
}
