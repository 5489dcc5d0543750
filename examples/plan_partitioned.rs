//! Plan the partition-skew workload: the case where **every** monolithic
//! plan is bad and only degree-partitioned planning stays small.
//!
//! The middle relation of the chain `R ⋈ S ⋈ T` is hub-skewed in both
//! directions: a few `b`-hubs fan 400× into unique `c` values, and a few
//! `c`-hubs are fanned into by 400× unique `b` values.  Any single join
//! order must enter `S` through one hub direction and pay its full fan-out,
//! so the monolithic ℓp bound — and the monolithic plan's measured peak —
//! is large.  Splitting `S` into its light and heavy degree parts
//! (Lemma 2.5) gives each part one provably harmless entry side
//! (`ℓ∞ = 1`), the per-part bounds prove it at plan time, and the
//! `PartitionedUnion` executor runs each part's own plan and unions the
//! disjoint outputs.
//!
//! ```text
//! cargo run --release --example plan_partitioned
//! ```

use lpbound::datagen::partition_skew_workload;
use lpbound::exec::{execute_physical_mode, ExecError, ExecMode, Optimizer, PlannerConfig};

fn main() -> Result<(), ExecError> {
    let w = partition_skew_workload(1);
    println!("workload: {}", w.name);
    println!("query:    {}", w.query);

    // 1. Plan.  The optimizer detects the skewed conditional, splits S
    //    light/heavy, bounds the sub-joins through S once per part,
    //    runs the bottleneck DP per part, and picks the partitioned plan
    //    because the LP bounds alone prove it smaller.
    let optimizer = Optimizer::new();
    let plan = optimizer.plan(&w.query, &w.catalog)?;
    println!(
        "chosen plan: {} ({}), predicted peak 2^{:.2}",
        plan.physical.describe(),
        plan.strategy(),
        plan.predicted_log2_cost,
    );
    println!(
        "best monolithic plan predicts 2^{:.2} — {:.1}x worse, from bounds alone",
        plan.monolithic_predicted_log2_cost,
        (plan.monolithic_predicted_log2_cost - plan.predicted_log2_cost).exp2(),
    );

    // 2. The certificates the plan carries: per-part step bounds, per-part
    //    output bounds, and the sum-of-parts bound on the union.
    println!("bound certificates:");
    for (what, log2_bound) in plan.physical.certificates() {
        println!("    {:>10.1} rows max  {}", log2_bound.exp2(), what);
    }

    // 3. Execute: each part runs its own plan with its own counters, rolled
    //    up into the parent, every step checked against its certificate.
    let run = execute_physical_mode(&w.query, &w.catalog, &plan.physical, ExecMode::Vectorized)?;
    println!(
        "partitioned execution ({} output tuples):",
        run.output_size()
    );
    for step in run.counters.steps() {
        match step.log2_bound {
            Some(b) => println!("    {:>8} rows  (≤ 2^{:.2}) {}", step.rows, b, step.label),
            None => println!("    {:>8} rows  {}", step.rows, step.label),
        }
    }
    assert_eq!(run.certificate_violations(), 0);
    println!(
        "parts: {} planned, {} executed, per-part peaks {:?}",
        run.counters.parts_planned(),
        run.counters.parts_executed(),
        run.counters.part_peaks(),
    );

    // 4. The best monolithic plan pays a hub direction's full fan-out.
    let mono_plan = Optimizer::new()
        .with_config(PlannerConfig {
            enable_partitioning: false,
            ..PlannerConfig::default()
        })
        .plan(&w.query, &w.catalog)?;
    let mono = execute_physical_mode(
        &w.query,
        &w.catalog,
        &mono_plan.physical,
        ExecMode::Vectorized,
    )?;
    assert_eq!(run.output_size(), mono.output_size());
    println!(
        "measured peaks: partitioned {} rows vs best monolithic {} rows ({:.1}x win)",
        run.max_intermediate(),
        mono.max_intermediate(),
        mono.max_intermediate() as f64 / run.max_intermediate().max(1) as f64,
    );
    Ok(())
}
