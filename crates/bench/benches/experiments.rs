//! Criterion benchmarks regenerating every experiment (see the lpb-bench
//! docs for the paper table each corresponds to) at `Scale::tiny()` and
//! measuring its end-to-end cost.  The full 33-query E3 suite is expensive,
//! so its row measures a representative subset of small, medium and large
//! queries; the full tables are produced by the `experiments` binary.

use criterion::{criterion_group, criterion_main, Criterion};
use lpb_bench::experiments::{
    e1_triangle, e2_onejoin, e3_job, e4_dsb_gap, e5_cycle, e6_worstcase, e7_nonshannon,
    e8_partition,
};
use lpb_bench::Scale;

/// One run of an experiment, returning its row count.
type Experiment = fn(&Scale) -> usize;

/// Benchmark name → experiment.
const EXPERIMENTS: [(&str, Experiment); 8] = [
    ("e1_triangle", |s| e1_triangle::run(s).len()),
    ("e2_onejoin", |s| e2_onejoin::run(s).len()),
    ("e3_job_subset", |s| {
        let rows = e3_job::run_subset(s, Some(&[1, 7, 19, 28])).len();
        assert_eq!(rows, 4);
        rows
    }),
    ("e4_dsb_gap", |s| e4_dsb_gap::run(s).len()),
    ("e5_cycle", |s| e5_cycle::run(s).len()),
    ("e6_worstcase", |s| e6_worstcase::run(s).len()),
    ("e7_nonshannon", |s| e7_nonshannon::run(s).len()),
    ("e8_partition", |s| e8_partition::run(s).len()),
];

fn bench(c: &mut Criterion) {
    let scale = Scale::tiny();
    for (name, run) in EXPERIMENTS {
        c.bench_function(name, |b| {
            b.iter(|| {
                let rows = run(&scale);
                assert!(rows > 0);
                rows
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
