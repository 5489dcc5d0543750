//! Micro-benchmark of the bound computation itself: how the polymatroid and
//! normal-cone LPs scale with the number of query variables and the number
//! of harvested norms — the cost a query optimizer pays per cardinality
//! estimate.
//!
//! Besides the criterion groups, this bench runs a head-to-head comparison
//! of the bound paths and records it in `BENCH_lp.json` at the workspace
//! root:
//!
//! * **dense rebuild** — the seed behaviour: regenerate every Shannon
//!   elemental row and solve the dense two-phase tableau, per estimate.
//!   The tableau is no product path any more, only the reference oracle
//!   (`lpb_lp::solve_dense`) that the row's bound is cross-checked against;
//! * **sparse + cached skeleton** — the materialized polymatroid
//!   `compute_bound`: cached Shannon block (shared CSC tail) + sparse
//!   revised simplex;
//!
//! for n = 3..8, up to the polymatroid cone's ceiling
//! (`lpb_core::POLYMATROID_VAR_LIMIT`); plus a **normal-cone** table (the
//! generated bound at n = 3..15 on the statistics of the first table, with
//! pricing rounds, working-set size and dual pivots, against the fully
//! enumerated `2^n − 1`-column LP up to n = 12), and a mixed
//! batch of `compute_bound` calls on the normal cone (the planner's choice:
//! the statistics are simple) against the same batch on the polymatroid
//! cone.
//!
//! Passing `--smoke` (the CI mode: `cargo bench --bench lp_scaling --
//! --smoke`) runs the same code over the end sizes of each table (and
//! n = 8 of the normal one) with the same cross-checks but writes the JSON
//! to a scratch path, so the emitter is exercised on every push without
//! clobbering the committed trajectory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lpb_core::{
    collect_simple_statistics, compute_bound, CollectConfig, Cone, JoinQuery, StatisticsSet,
};
use lpb_datagen::{graph_catalog, PowerLawGraphConfig};
use lpb_entropy::{elemental_inequalities, VarSet};
use lpb_lp::{solve_dense, Problem, Sense, SolverOptions, SolverStats};
use std::time::Instant;

fn catalog() -> lpb_core::Catalog {
    graph_catalog(&PowerLawGraphConfig {
        nodes: 500,
        edges: 3_000,
        exponent: 1.6,
        symmetric: true,
        seed: 99,
    })
}

/// Median wall-clock microseconds of `f`, over enough repetitions to be
/// stable at small sizes without making large sizes crawl.
fn median_us<F: FnMut()>(mut f: F) -> f64 {
    // One untimed warm-up run (fills caches, page-faults, etc.).
    f();
    let mut samples = Vec::new();
    let budget = Instant::now();
    while samples.len() < 5 || (budget.elapsed().as_millis() < 300 && samples.len() < 25) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// The fully materialized polymatroid bound LP: statistic rows first, then
/// every Shannon elemental row.
fn full_polymatroid_problem(n: usize, stats: &StatisticsSet) -> Problem {
    let n_subsets = (1usize << n) - 1;
    let var_of = |s: VarSet| -> usize { s.index() - 1 };
    let mut p = Problem::maximize(n_subsets);
    p.set_objective(var_of(VarSet::full(n)), 1.0);
    for s in stats.iter() {
        let u = s.stat.conditional.u;
        let v = s.stat.conditional.v;
        let uv = u.union(v);
        let mut coeffs: Vec<(usize, f64)> = vec![(var_of(uv), 1.0)];
        if !u.is_empty() {
            coeffs.push((var_of(u), s.stat.norm.reciprocal() - 1.0));
        }
        p.add_constraint(&coeffs, Sense::Le, s.log_bound);
    }
    for ineq in elemental_inequalities(n) {
        let coeffs: Vec<(usize, f64)> = ineq
            .terms
            .iter()
            .map(|&(set, c)| (var_of(set), -c))
            .collect();
        p.add_constraint(&coeffs, Sense::Le, 0.0);
    }
    p
}

/// Replicate the *seed* polymatroid bound path: regenerate the Shannon
/// elemental rows and solve them with the reference tableau, from scratch.
fn seed_dense_bound(n: usize, stats: &StatisticsSet) -> f64 {
    let problem = full_polymatroid_problem(n, stats);
    solve_dense(&problem, &SolverOptions::default())
        .expect("dense solve")
        .objective
}

struct ComparisonRow {
    n_vars: usize,
    n_stats: usize,
    dense_us: f64,
    sparse_us: f64,
}

fn comparison_table(c: &mut Criterion, smoke: bool) -> Vec<ComparisonRow> {
    let catalog = catalog();
    let mut rows = Vec::new();
    let mut group = c.benchmark_group("dense_vs_sparse_polymatroid");
    group.sample_size(10);
    // The smoke list keeps the n = 8 endpoint: CI greps the emitted JSON for
    // that row, so the cone's widest materialized LP is solved on every push.
    let lens: &[usize] = if smoke { &[2, 7] } else { &[2, 3, 4, 5, 6, 7] };
    for &len in lens {
        let q = JoinQuery::path(&vec!["E"; len]);
        let n = q.n_vars();
        let stats =
            collect_simple_statistics(&q, &catalog, &CollectConfig::with_max_norm(6)).unwrap();

        // Cross-check the two paths agree before timing them.
        let reference = seed_dense_bound(n, &stats);
        let sparse = compute_bound(&q, &stats, Cone::Polymatroid).unwrap();
        assert!(
            (reference - sparse.log2_bound).abs() <= 1e-6,
            "n={n}: dense {reference} vs sparse {}",
            sparse.log2_bound
        );

        let dense_us = median_us(|| {
            seed_dense_bound(n, &stats);
        });
        let sparse_us = median_us(|| {
            compute_bound(&q, &stats, Cone::Polymatroid).unwrap();
        });
        group.bench_with_input(BenchmarkId::new("dense_rebuild", n), &n, |b, _| {
            b.iter(|| seed_dense_bound(n, &stats))
        });
        group.bench_with_input(BenchmarkId::new("sparse_skeleton", n), &n, |b, _| {
            b.iter(|| {
                compute_bound(&q, &stats, Cone::Polymatroid)
                    .unwrap()
                    .log2_bound
            })
        });
        rows.push(ComparisonRow {
            n_vars: n,
            n_stats: stats.len(),
            dense_us,
            sparse_us,
        });
    }
    group.finish();
    rows
}

struct NormalRow {
    n_vars: usize,
    n_stats: usize,
    normal_us: f64,
    rounds: u64,
    columns: u64,
    pivots: u64,
    /// `None` past the sizes the enumerated LP is still built at.
    full_enumeration_us: Option<f64>,
}

/// Largest `n` at which the in-bench oracle still enumerates all `2^n − 1`
/// columns (4 095 × ~190 rows at 12; the next sizes double it each for a
/// number that is only there for contrast).
const FULL_ENUMERATION_LIMIT: usize = 12;

/// The normal-cone LP with every step-function column written out — the
/// way it was solved before columns were generated, and this table's
/// oracle.  `h_W(U) = [W∩U ≠ ∅]`, so a statistic `((V|U), p)` prices column
/// `W` at `1/p`, `1` or `0`.
fn full_normal_problem(n: usize, stats: &StatisticsSet) -> Problem {
    let n_subsets = (1usize << n) - 1;
    let mut p = Problem::maximize(n_subsets);
    for j in 0..n_subsets {
        p.set_objective(j, 1.0);
    }
    for s in stats.iter() {
        let (u, v) = (s.stat.conditional.u, s.stat.conditional.v);
        let inv_p = s.stat.norm.reciprocal();
        let coeffs: Vec<(usize, f64)> = (1..=n_subsets as u32)
            .filter_map(|mask| {
                let w = VarSet(mask);
                let c = if !w.intersect(u).is_empty() {
                    inv_p
                } else if !w.intersect(v).is_empty() {
                    1.0
                } else {
                    0.0
                };
                (c != 0.0).then_some((mask as usize - 1, c))
            })
            .collect();
        p.add_constraint(&coeffs, Sense::Le, s.log_bound);
    }
    p
}

/// The column-generated normal-cone bound on path queries of 3..15
/// variables, on the statistics of [`comparison_table`] (norm budget 6), so
/// that its n = 3..8 rows read against `sparse_skeleton_us` there: the
/// evidence that simple statistics belong on the normal cone at every size
/// (where the planner sends them; `Cone::auto`'s size rule is to go).
/// `rounds`, `columns` and `pivots` are work: pricing rounds, the size of the
/// last working set (seed + generated step functions) against the `2^n − 1`
/// columns of the enumerated LP, and the dual pivots of the whole solve.
fn normal_scaling_table(smoke: bool) -> Vec<NormalRow> {
    let catalog = catalog();
    let ns: Vec<usize> = if smoke {
        vec![3, 8, 15]
    } else {
        (3..=15).collect()
    };
    let mut rows = Vec::new();
    for n in ns {
        let q = JoinQuery::path(&vec!["E"; n - 1]);
        assert_eq!(q.n_vars(), n);
        let stats =
            collect_simple_statistics(&q, &catalog, &CollectConfig::with_max_norm(6)).unwrap();
        let (bound, work) =
            SolverStats::on_thread(|| compute_bound(&q, &stats, Cone::Normal).unwrap());
        let full_enumeration_us = (n <= FULL_ENUMERATION_LIMIT).then(|| {
            let reference = full_normal_problem(n, &stats).solve().expect("oracle");
            assert!(
                (reference.objective - bound.log2_bound).abs() <= 1e-6,
                "n={n}: generated {} vs enumerated {}",
                bound.log2_bound,
                reference.objective
            );
            median_us(|| {
                full_normal_problem(n, &stats).solve().expect("oracle");
            })
        });
        let normal_us = median_us(|| {
            compute_bound(&q, &stats, Cone::Normal).unwrap();
        });
        rows.push(NormalRow {
            n_vars: n,
            n_stats: stats.len(),
            normal_us,
            rounds: work.generation_rounds,
            columns: work.columns_generated + n as u64 + 1,
            pivots: work.total_pivots(),
            full_enumeration_us,
        });
    }
    rows
}

struct BatchTiming {
    items: usize,
    /// Every item on the normal cone, as the planner bounds them.
    normal_ms: f64,
    /// The same items forced onto the polymatroid cone.
    polymatroid_ms: f64,
}

fn batch_comparison(smoke: bool) -> BatchTiming {
    let catalog = catalog();
    let mut items = Vec::new();
    let rounds = if smoke { 2 } else { 8 };
    let lens: &[usize] = if smoke { &[3, 4] } else { &[3, 4, 5, 6] };
    for round in 0..rounds {
        for &len in lens {
            let q = JoinQuery::path(&vec!["E"; len]);
            let stats = collect_simple_statistics(
                &q,
                &catalog,
                &CollectConfig::with_max_norm(3 + (round % 3) as u32),
            )
            .unwrap();
            items.push((q, stats));
        }
    }
    let bound_all = |cone: Cone| -> Vec<f64> {
        items
            .iter()
            .map(|(q, s)| compute_bound(q, s, cone).unwrap().log2_bound)
            .collect()
    };
    for (a, p) in bound_all(Cone::Normal)
        .into_iter()
        .zip(bound_all(Cone::Polymatroid))
    {
        assert!((a - p).abs() <= 1e-6, "normal {a} vs polymatroid {p}");
    }
    let normal_ms = median_us(|| {
        bound_all(Cone::Normal);
    }) / 1e3;
    let polymatroid_ms = median_us(|| {
        bound_all(Cone::Polymatroid);
    }) / 1e3;
    BatchTiming {
        items: items.len(),
        normal_ms,
        polymatroid_ms,
    }
}

fn write_bench_json(
    rows: &[ComparisonRow],
    normal_rows: &[NormalRow],
    batch: &BatchTiming,
    smoke: bool,
) {
    let mut out = String::from("{\n  \"bench\": \"lp_scaling\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"n_vars\": {}, \"n_stats\": {}, \"dense_rebuild_us\": {:.1}, \
             \"sparse_skeleton_us\": {:.1}, \"speedup_sparse\": {:.2}}}{}\n",
            r.n_vars,
            r.n_stats,
            r.dense_us,
            r.sparse_us,
            r.dense_us / r.sparse_us,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"normal_rows\": [\n");
    for (i, r) in normal_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"n_vars\": {}, \"n_stats\": {}, \"normal_us\": {:.1}, \
             \"rounds\": {}, \"columns\": {}, \"pivots\": {}, \"full_columns\": {}, \
             \"full_enumeration_us\": {}}}{}\n",
            r.n_vars,
            r.n_stats,
            r.normal_us,
            r.rounds,
            r.columns,
            r.pivots,
            (1u64 << r.n_vars) - 1,
            r.full_enumeration_us
                .map_or("null".to_string(), |us| format!("{us:.1}")),
            if i + 1 == normal_rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"batch\": {{\"items\": {}, \"normal_ms\": {:.2}, \"polymatroid_ms\": {:.2}, \
         \"normal_speedup\": {:.2}}}\n}}\n",
        batch.items,
        batch.normal_ms,
        batch.polymatroid_ms,
        batch.polymatroid_ms / batch.normal_ms
    ));
    // Smoke runs exercise the emitter end-to-end but must not overwrite the
    // committed trajectory file with reduced-size numbers.
    let path = if smoke {
        std::env::temp_dir()
            .join("BENCH_lp.smoke.json")
            .to_string_lossy()
            .into_owned()
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_lp.json").to_string()
    };
    std::fs::write(&path, &out).expect("write BENCH_lp.json");
    println!("{out}");
    println!("wrote {path}");
}

fn bench_norm_budget(c: &mut Criterion) {
    let catalog = catalog();
    // The same query, growing the norm budget: LP rows scale with the number
    // of statistics.
    let mut group = c.benchmark_group("lp_by_norm_budget");
    group.sample_size(10);
    let q = JoinQuery::path(&["E"; 4]);
    for max_p in [2u32, 5, 10, 20, 30] {
        let stats =
            collect_simple_statistics(&q, &catalog, &CollectConfig::with_max_norm(max_p)).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(max_p), &max_p, |b, _| {
            b.iter(|| {
                compute_bound(&q, &stats, Cone::Polymatroid)
                    .unwrap()
                    .log2_bound
            })
        });
    }
    group.finish();

    // Normal cone vs polymatroid cone on the same (simple) statistics.
    let mut group = c.benchmark_group("cone_comparison");
    group.sample_size(10);
    let q = JoinQuery::path(&["E"; 5]);
    let stats = collect_simple_statistics(&q, &catalog, &CollectConfig::with_max_norm(8)).unwrap();
    for cone in [Cone::Polymatroid, Cone::Normal] {
        group.bench_with_input(
            BenchmarkId::from_parameter(cone.name()),
            &cone,
            |b, &cone| b.iter(|| compute_bound(&q, &stats, cone).unwrap().log2_bound),
        );
    }
    group.finish();
}

fn bench(c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let rows = comparison_table(c, smoke);
    let normal_rows = normal_scaling_table(smoke);
    let batch = batch_comparison(smoke);
    write_bench_json(&rows, &normal_rows, &batch, smoke);
    if !smoke {
        bench_norm_budget(c);
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
