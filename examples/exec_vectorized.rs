//! Run one certified plan through the executor's two modes — vectorized
//! (one worker) and morsel-parallel — check the answer against the naive
//! nested-loop oracle, and check the two modes agree bit for bit.
//!
//! The plan is whatever the bound-driven optimizer picks for the
//! partition-skew workload (a `PartitionedUnion` over the light/heavy parts
//! of the skewed middle relation).  There is one engine: intermediates are
//! columnar (`ColumnTable`), hash joins probe a batch at a time with
//! column-wise gathers, and WCOJ cores leapfrog over CSR run-tries with
//! galloping seeks.  The two [`ExecMode`]s differ only in *scheduling*:
//!
//! * `Vectorized` runs the plan's stages in order on one worker;
//! * `Parallel` forks independent sub-plans — the union's parts, a bushy
//!   join's branches — onto morsel workers, each recording into its own
//!   `IntermediateCounters`, merged back in plan order.
//!
//! Because the same kernels run on the same inputs either way, both modes
//! produce the same output rows **and the same counter recording** — same
//! step labels, same sizes, same certificate tallies.
//!
//! ```text
//! cargo run --release --example exec_vectorized
//! ```

use lpbound::datagen::partition_skew_workload;
use lpbound::exec::oracle::nested_loop_join;
use lpbound::exec::{execute_physical_mode, ExecError, ExecMode, Optimizer};
use std::time::Instant;

fn main() -> Result<(), ExecError> {
    let w = partition_skew_workload(2);
    println!("workload: {} — query {}", w.name, w.query);

    // 1. One plan, certified by the planner's ℓp-norm bounds.
    let plan = Optimizer::new().plan(&w.query, &w.catalog)?;
    println!(
        "chosen plan: {} ({})\n",
        plan.physical.describe(),
        plan.strategy(),
    );

    // 2. The same plan under both scheduling modes.
    let mut runs = Vec::new();
    for mode in [ExecMode::Vectorized, ExecMode::Parallel] {
        let started = Instant::now();
        let run = execute_physical_mode(&w.query, &w.catalog, &plan.physical, mode)?;
        let elapsed = started.elapsed();
        println!(
            "{mode:>12?}: {} tuples, peak intermediate {} rows, \
             {}/{} certificates ok, {:.2} ms",
            run.output_size(),
            run.max_intermediate(),
            run.counters.certificates_checked() - run.certificate_violations(),
            run.counters.certificates_checked(),
            elapsed.as_secs_f64() * 1e3,
        );
        assert_eq!(run.certificate_violations(), 0);
        runs.push(run);
    }

    // 3. The answer is the nested-loop oracle's, and agreement between the
    //    modes is exact: same output columns, and the parallel roll-up
    //    reproduces the sequential counter recording bit for bit.
    let (vectorized, parallel) = (&runs[0], &runs[1]);
    let truth = nested_loop_join(&w.query, &w.catalog, vectorized.output.vars())?;
    assert_eq!(
        vectorized.output.sorted_rows(),
        truth,
        "the executor must compute the oracle's rows"
    );
    assert_eq!(
        parallel.output, vectorized.output,
        "modes must agree tuple for tuple"
    );
    assert_eq!(
        parallel.counters, vectorized.counters,
        "modes must record identical steps"
    );
    println!("\nboth modes match the nested-loop oracle and agree on every recorded step:");
    for step in vectorized.counters.steps().iter().take(8) {
        match step.log2_bound {
            Some(b) => println!("    {:>8} rows  (≤ 2^{:.2}) {}", step.rows, b, step.label),
            None => println!("    {:>8} rows  {}", step.rows, step.label),
        }
    }
    if vectorized.counters.steps().len() > 8 {
        println!("    ... {} steps total", vectorized.counters.steps().len());
    }
    Ok(())
}
