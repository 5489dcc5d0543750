//! Run one certified plan through the executor and check the answer
//! against the naive nested-loop oracle.
//!
//! The plan is whatever the bound-driven optimizer picks for the
//! partition-skew workload (a `PartitionedUnion` over the light/heavy parts
//! of the skewed middle relation).  There is one engine: intermediates are
//! columnar (`ColumnTable`), hash joins probe a batch at a time with
//! column-wise gathers, and WCOJ cores leapfrog over CSR run-tries with
//! galloping seeks.  And there is one schedule: the plan's nodes run
//! depth-first on the calling thread, each recording the size it
//! materialized next to the bound the planner certified it with (the
//! `ExecMode::Vectorized` argument selects nothing; the benchmark of record
//! names it).
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

    // 2. Execute it.
    let started = Instant::now();
    let run = execute_physical_mode(&w.query, &w.catalog, &plan.physical, ExecMode::Vectorized)?;
    let elapsed = started.elapsed();
    println!(
        "{} tuples, peak intermediate {} rows, {}/{} certificates ok, {:.2} ms",
        run.output_size(),
        run.max_intermediate(),
        run.counters.certificates_checked() - run.certificate_violations(),
        run.counters.certificates_checked(),
        elapsed.as_secs_f64() * 1e3,
    );
    assert_eq!(run.certificate_violations(), 0);

    // 3. The answer is the nested-loop oracle's.
    let truth = nested_loop_join(&w.query, &w.catalog, run.output.vars())?;
    assert_eq!(
        run.output.sorted_rows(),
        truth,
        "the executor must compute the oracle's rows"
    );
    println!("\nthe output matches the nested-loop oracle; every recorded step:");
    for step in run.counters.steps().iter().take(8) {
        match step.log2_bound {
            Some(b) => println!("    {:>8} rows  (≤ 2^{:.2}) {}", step.rows, b, step.label),
            None => println!("    {:>8} rows  {}", step.rows, step.label),
        }
    }
    if run.counters.steps().len() > 8 {
        println!("    ... {} steps total", run.counters.steps().len());
    }
    Ok(())
}
