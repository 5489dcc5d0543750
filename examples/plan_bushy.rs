//! Plan the bridged-chains workload: the case where *every* left-deep
//! order is bad and only a bushy plan stays small.
//!
//! Two heavy chains (`A1 ⋈ A2`, `C1 ⋈ C2`) hang off a light bridge `B`.
//! Each chain collapses to a tiny result on its own, but any left-deep
//! order must — one step before completing — hold a 4-atom prefix that
//! crosses the bridge into the far chain's 400-way fan-out.  The bushy
//! bottleneck DP proves the split `(A1⋈A2⋈B) ⋈ (C1⋈C2)` small from the
//! ℓp-norm bounds alone, attaches those bounds to the plan as
//! **certificates**, and execution checks every intermediate against them.
//!
//! ```text
//! cargo run --release --example plan_bushy
//! ```

use lpbound::datagen::bridged_chains_workload;
use lpbound::exec::{execute_physical_mode, ExecError, ExecMode, Optimizer, PhysicalPlan};

fn main() -> Result<(), ExecError> {
    let w = bridged_chains_workload(1);
    println!("workload: {}", w.name);
    println!("query:    {}", w.query);

    // 1. Plan.  The DP considers left-deep extensions *and* bushy splits.
    let optimizer = Optimizer::new();
    let plan = optimizer.plan(&w.query, &w.catalog)?;
    println!(
        "chosen plan: {} ({}), predicted peak 2^{:.2}",
        plan.physical.describe(),
        plan.strategy(),
        plan.predicted_log2_cost,
    );
    println!(
        "best left-deep order {:?} predicts 2^{:.2} — {:.1}x worse",
        plan.leftdeep_order,
        plan.leftdeep_predicted_log2_cost,
        (plan.leftdeep_predicted_log2_cost - plan.predicted_log2_cost).exp2(),
    );

    // 2. The certificates the plan carries: provable caps on every node.
    println!("bound certificates:");
    for (what, log2_bound) in plan.physical.certificates() {
        println!("    {:>10.1} rows max  {}", log2_bound.exp2(), what);
    }

    // 3. Execute the bushy plan; every step is checked against its
    //    certificate as it materializes.
    let bushy = execute_physical_mode(&w.query, &w.catalog, &plan.physical, ExecMode::Vectorized)?;
    println!("bushy execution ({} output tuples):", bushy.output_size());
    for step in bushy.counters.steps() {
        match step.log2_bound {
            Some(b) => println!("    {:>8} rows  (≤ 2^{:.2}) {}", step.rows, b, step.label),
            None => println!("    {:>8} rows  {}", step.rows, step.label),
        }
    }
    assert_eq!(bushy.certificate_violations(), 0);
    println!(
        "certificates: {} checked, {} violated",
        bushy.counters.certificates_checked(),
        bushy.certificate_violations(),
    );

    // 4. The best left-deep plan materializes the bridge-crossing prefix.
    let leftdeep = execute_physical_mode(
        &w.query,
        &w.catalog,
        &PhysicalPlan::hash_chain(plan.leftdeep_order.clone()),
        ExecMode::Vectorized,
    )?;
    assert_eq!(bushy.output_size(), leftdeep.output_size());
    println!(
        "measured peaks: bushy {} rows vs best left-deep {} rows ({:.1}x win)",
        bushy.max_intermediate(),
        leftdeep.max_intermediate(),
        leftdeep.max_intermediate() as f64 / bushy.max_intermediate().max(1) as f64,
    );
    Ok(())
}
