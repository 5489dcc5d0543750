//! Plan one cyclic query end to end with the bound-driven optimizer.
//!
//! A skewed power-law triangle is the planner-adversarial case: every
//! left-deep hash plan must materialize a two-edge path intermediate of
//! size `Σ_v deg(v)²` — enormous under skew — while the triangle output is
//! small.  Relation sizes cannot see the danger; the ℓp-norms of the degree
//! sequences can.  This example walks the whole pipeline: join graph →
//! batch-bounded sub-joins → strategy choice → execution with per-node
//! intermediate counters, then runs the greedy-by-size baseline for
//! comparison.
//!
//! ```text
//! cargo run --release --example plan_cyclic
//! ```

use lpbound::datagen::skewed_triangle_workload;
use lpbound::exec::{
    execute_physical_mode, ExecError, ExecMode, JoinPlan, LogicalPlan, Optimizer, PhysicalPlan,
};

fn main() -> Result<(), ExecError> {
    // 1. A planner-adversarial workload: heavy-tailed symmetric graph,
    //    triangle query.
    let w = skewed_triangle_workload(2);
    let edges = w.catalog.get("E")?.len();
    println!("workload: {} ({edges} directed edges)", w.name);
    println!("query:    {}", w.query);

    // 2. The logical plan: join graph, connected sub-joins, cyclic core.
    let logical = LogicalPlan::of(&w.query);
    println!(
        "join graph: {} atoms, {} connected sub-joins, cyclic core {:?}",
        logical.n_atoms(),
        logical.connected_subsets().len(),
        logical.cyclic_core()
    );

    // 3. Plan: every connected sub-join is bounded in one batch (one small
    //    normal-cone LP each, solved cold), a bottleneck DP orders the
    //    chain, and lowering picks the strategy (here: the WCOJ, because
    //    the output bound beats any hash chain's worst prefix bound).
    let optimizer = Optimizer::new();
    let plan = optimizer.plan(&w.query, &w.catalog)?;
    println!(
        "chosen plan: {} (order {:?}), {} sub-joins bounded in {:?}, \
         predicted peak 2^{:.2}, {} LPs solved",
        plan.physical.describe(),
        plan.order,
        plan.subqueries_bounded,
        plan.plan_time,
        plan.predicted_log2_cost,
        optimizer.estimator().lps_estimated(),
    );

    // 4. Execute the chosen plan, counters threaded through every node.
    let chosen = execute_physical_mode(&w.query, &w.catalog, &plan.physical, ExecMode::Vectorized)?;
    println!("chosen execution ({} output tuples):", chosen.output_size());
    for step in chosen.counters.steps() {
        println!("    {:>10} rows  {}", step.rows, step.label);
    }

    // 5. The greedy-by-size baseline materializes the two-edge path.
    let greedy = JoinPlan::greedy_by_size(&w.query, &w.catalog)?;
    let baseline = execute_physical_mode(
        &w.query,
        &w.catalog,
        &PhysicalPlan::hash_chain(greedy.order().to_vec()),
        ExecMode::Vectorized,
    )?;
    println!(
        "greedy baseline (order {:?}): peak intermediate {} rows",
        greedy.order(),
        baseline.max_intermediate()
    );
    println!(
        "peak-intermediate win: {:.1}x (chosen {} vs greedy {})",
        baseline.max_intermediate() as f64 / chosen.max_intermediate().max(1) as f64,
        chosen.max_intermediate(),
        baseline.max_intermediate()
    );
    assert_eq!(chosen.output_size(), baseline.output_size());
    Ok(())
}
