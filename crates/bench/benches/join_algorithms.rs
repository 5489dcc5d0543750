//! Micro-benchmarks of the evaluation substrate: hash-join plans, the
//! Yannakakis counter, the generic worst-case-optimal join, and the
//! partitioned (Theorem 2.6) evaluation, plus the cost of computing degree
//! sequences and their ℓp norms (the statistics-collection cost the paper
//! assumes is paid offline).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lpb_core::JoinQuery;
use lpb_data::Norm;
use lpb_datagen::{graph_catalog, PowerLawGraphConfig};
use lpb_exec::{
    execute_physical_mode, partitioned_join_count, wcoj_count, yannakakis_count, ExecMode,
    PartitionSpec, PhysicalPlan,
};

fn graph(nodes: usize, edges: usize) -> lpb_data::Catalog {
    graph_catalog(&PowerLawGraphConfig {
        nodes,
        edges,
        exponent: 1.7,
        symmetric: true,
        seed: 7,
    })
}

fn bench_joins(c: &mut Criterion) {
    let catalog = graph(600, 4_000);
    let triangle = JoinQuery::triangle("E", "E", "E");
    let path3 = JoinQuery::path(&["E", "E", "E"]);

    let mut group = c.benchmark_group("triangle_algorithms");
    group.sample_size(10);
    // Left-deep hash chains in query order.
    let in_order = PhysicalPlan::hash_chain(vec![0, 1, 2]);
    group.bench_function("hash_join_plan", |b| {
        b.iter(|| {
            execute_physical_mode(&triangle, &catalog, &in_order, ExecMode::Vectorized)
                .unwrap()
                .output_size()
        })
    });
    group.bench_function("wcoj", |b| {
        b.iter(|| wcoj_count(&triangle, &catalog).unwrap())
    });
    group.bench_function("partitioned_wcoj", |b| {
        let specs = vec![
            PartitionSpec::new(0, &["dst"], &["src"]),
            PartitionSpec::new(1, &["dst"], &["src"]),
        ];
        b.iter(|| {
            partitioned_join_count(&triangle, &catalog, &specs)
                .unwrap()
                .output_size
        })
    });
    group.finish();

    let mut group = c.benchmark_group("acyclic_counting");
    group.sample_size(10);
    group.bench_function("yannakakis_path3", |b| {
        b.iter(|| yannakakis_count(&path3, &catalog).unwrap())
    });
    group.bench_function("hash_join_path3", |b| {
        b.iter(|| {
            execute_physical_mode(&path3, &catalog, &in_order, ExecMode::Vectorized)
                .unwrap()
                .output_size()
        })
    });
    group.finish();
}

fn bench_statistics(c: &mut Criterion) {
    let mut group = c.benchmark_group("degree_statistics");
    group.sample_size(10);
    for edges in [2_000usize, 8_000, 32_000] {
        let catalog = graph(edges / 8, edges);
        let rel = catalog.get("E").unwrap();
        group.bench_with_input(
            BenchmarkId::new("degree_sequence", edges),
            &edges,
            |b, _| b.iter(|| rel.degree_sequence(&["dst"], &["src"]).unwrap().len()),
        );
        let deg = rel.degree_sequence(&["dst"], &["src"]).unwrap();
        group.bench_with_input(
            BenchmarkId::new("all_norms_to_30", edges),
            &edges,
            |b, _| {
                b.iter(|| {
                    Norm::standard_set(30)
                        .into_iter()
                        .map(|n| deg.log2_lp_norm(n).unwrap_or(0.0))
                        .sum::<f64>()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_joins, bench_statistics);
criterion_main!(benches);
