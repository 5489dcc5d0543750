//! Golden plans: what the planner chooses on the five planner adversaries
//! and on the six served JOB-like shapes (at the scale `lpb-serve` serves),
//! pinned bit for bit.
//!
//! Each input renders to one line per fact: the strategy, tree and order;
//! the four predicted costs (chosen, left-deep, greedy, monolithic) as the
//! bits of their `f64`; the LP work (`subqueries_bounded`, the LPs solved,
//! the plan's dual pivots) and the partition search's counters; then every
//! certificate of the physical tree with the bits of its bound.  A change to how the
//! sub-join lattice is stored, enumerated or looked up must leave all of it
//! as it is.  On a mismatch the test prints the current rendering in the
//! form [`GOLDEN`] is written in, then fails.

use lpb_core::JoinQuery;
use lpb_data::Catalog;
use lpb_datagen::{job_like_catalog, job_like_queries, planner_workloads, JobLikeConfig};
use lpb_exec::Optimizer;
use std::fmt::Write;

/// The facts of one cold plan of `query`, one per line.
fn render(name: &str, query: &JoinQuery, catalog: &Catalog) -> String {
    let plan = Optimizer::new().plan(query, catalog).unwrap();
    let mut out = String::new();
    writeln!(out, "{name}").unwrap();
    writeln!(
        out,
        "  {} {} order {:?}",
        plan.strategy(),
        plan.physical.describe(),
        plan.order
    )
    .unwrap();
    writeln!(
        out,
        "  cost {:016x} leftdeep {:016x} greedy {:016x} monolithic {:016x}",
        plan.predicted_log2_cost.to_bits(),
        plan.leftdeep_predicted_log2_cost.to_bits(),
        plan.greedy_predicted_log2_cost.to_bits(),
        plan.monolithic_predicted_log2_cost.to_bits()
    )
    .unwrap();
    writeln!(
        out,
        "  bounded {} solved {} dual_pivots {} parts {} candidates {} refused {} part_bounded {} part_fallbacks {}",
        plan.subqueries_bounded,
        plan.lps_solved,
        plan.lp_stats.dual_pivots,
        plan.parts_planned,
        plan.partition_candidates,
        plan.partition_candidates_refused,
        plan.partition_subqueries_bounded,
        plan.partition_bound_fallbacks
    )
    .unwrap();
    for (what, bound) in plan.physical.certificates() {
        writeln!(out, "  {what} {:016x}", bound.to_bits()).unwrap();
    }
    out
}

fn rendered_corpus() -> Vec<String> {
    let mut out: Vec<String> = planner_workloads(1)
        .into_iter()
        .map(|w| render(w.name, &w.query, &w.catalog))
        .collect();
    let catalog = job_like_catalog(&JobLikeConfig {
        movies: 1000,
        link_fanout: 2,
        seed: 23,
        ..JobLikeConfig::default()
    });
    for q in job_like_queries().into_iter().take(6) {
        out.push(render(q.query.name(), &q.query, &catalog));
    }
    out
}

#[test]
fn plans_of_the_planner_corpus_and_the_served_shapes_are_golden() {
    let rendered = rendered_corpus();
    if rendered != GOLDEN {
        for r in &rendered {
            println!("    r#\"{r}\"#,");
        }
    }
    assert_eq!(rendered.len(), GOLDEN.len());
    for (got, want) in rendered.iter().zip(GOLDEN) {
        assert_eq!(got, want);
    }
}

/// The rendering above.  Trees, costs and certificates are copied from a
/// run of the planner before its sub-join tables were addressed by atom
/// mask.  The LP work is that of a harvest that solves each distinct
/// sub-join LP once: against solving every one, only the dual pivots of
/// `skewed-triangle` (90 → 83) and `large-mixed-12` (2890 → 1174) moved.
const GOLDEN: &[&str] = &[
    r#"skewed-triangle
  partitioned ∪[E#light: wcoj[0,1,2] | E#heavy: wcoj[0,1,2]] order [0, 1, 2]
  cost 402793d6928cf5c9 leftdeep 402990e524300000 greedy 402990e524300000 monolithic 40291955e0c00000
  bounded 4 solved 11 dual_pivots 83 parts 2 candidates 2 refused 1 part_bounded 8 part_fallbacks 0
  wcoj[[0, 1, 2]] 40259c0c88900000
  part E#light 40259c0c88900000
  wcoj[[0, 1, 2]] 40258b88fbd00000
  part E#heavy 40258b88fbd00000
  ∪ partitioned 402793d6928cf5c9
"#,
    r#"misleading-chain
  hash-chain scan[2]⋈[1,0] order [2, 1, 0]
  cost 40227527b9380000 leftdeep 40227527b9380000 greedy 402c934f09800000 monolithic 40227527b9380000
  bounded 3 solved 5 dual_pivots 11 parts 0 candidates 1 refused 1 part_bounded 2 part_fallbacks 0
  scan[2] 4013a0a7eda4c113
  ⋈[1] 4013a0a7edb00000
  ⋈[0] 40227527b9380000
"#,
    r#"bridged-chains
  bushy (scan[0]⋈[1,2]⋈scan[4]⋈[3]) order [0, 1, 2, 4, 3]
  cost 402949a784c00000 leftdeep 402dee7b47200000 greedy 402dee7b47200000 monolithic 402949a784c00000
  bounded 10 solved 10 dual_pivots 46 parts 0 candidates 0 refused 0 part_bounded 0 part_fallbacks 0
  scan[0] 401949a784bcd1b9
  ⋈[1] 401949a784c00000
  ⋈[2] 401949a784c00000
  scan[4] 401949a784bcd1b9
  ⋈[3] 401949a784c00000
  (scan[0]⋈[1,2]⋈scan[4]⋈[3]) 402949a784c00000
"#,
    r#"partition-skew
  partitioned ∪[S#light: scan[0]⋈[1,2] | S#heavy: scan[2]⋈[1,0]] order [0, 1, 2]
  cost 401dd6753e100000 leftdeep 402949a784c00000 greedy 402949a784c00000 monolithic 402949a784c00000
  bounded 3 solved 11 dual_pivots 38 parts 2 candidates 2 refused 1 part_bounded 8 part_fallbacks 0
  scan[0] 4019d6753e032ea1
  ⋈[1] 4019d6753e100000
  ⋈[2] 4019d6753e100000
  part S#light 4019d6753e100000
  scan[2] 4019d6753e032ea1
  ⋈[1] 4019d6753e100000
  ⋈[0] 4019d6753e100000
  part S#heavy 4019d6753e100000
  ∪ partitioned 401dd6753e100000
"#,
    r#"large-mixed-12
  wcoj+hash-chain wcoj[0,1,2]⋈[3,4,5,6,7,8,9,10,11] order [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]
  cost 40293abb3fb00000 leftdeep 40293abb3fb00000 greedy 40293abb3fb00000 monolithic 40293abb3fb00000
  bounded 220 solved 94 dual_pivots 1174 parts 0 candidates 2 refused 2 part_bounded 4 part_fallbacks 0
  wcoj[[0, 1, 2]] 4023e88c6b380000
  ⋈[3] 40231bc21a400000
  ⋈[4] 40231bc21a400000
  ⋈[5] 40231bc21a400000
  ⋈[6] 40231bc21a400000
  ⋈[7] 40231bc21a400000
  ⋈[8] 40233abb3fb00000
  ⋈[9] 40253abb3fb00000
  ⋈[10] 40273abb3fb00000
  ⋈[11] 40293abb3fb00000
"#,
    r#"job-1
  yannakakis yannakakis[3,2,0,1,4] order [3, 2, 0, 1, 4]
  cost 40318b2dc8b00000 leftdeep 40318b2dc8b00000 greedy 40318b2dc8b00000 monolithic 40318b2dc8b00000
  bounded 14 solved 18 dual_pivots 154 parts 0 candidates 2 refused 2 part_bounded 4 part_fallbacks 0
  reduce[3] 4012934f0979a371
  reduce[2] 4023943dc1007a8f
  reduce[0] 4024a721c40747db
  reduce[1] 401e934f0979a371
  reduce[4] 4023414c1f0de28d
  ⋈[2] 4023943dc1080000
  ⋈[0] 402be5ef17e80000
  ⋈[1] 402be5ef17e80000
  ⋈[4] 40318b2dc8b00000
"#,
    r#"job-2
  yannakakis yannakakis[3,2,0,1,4] order [3, 2, 0, 1, 4]
  cost 4031dccd8eb40000 leftdeep 4031dccd8eb40000 greedy 4031dccd8eb40000 monolithic 4031dccd8eb40000
  bounded 14 solved 18 dual_pivots 169 parts 0 candidates 2 refused 2 part_bounded 4 part_fallbacks 0
  reduce[3] 4010000000000000
  reduce[2] 4023414c1f0de28d
  reduce[0] 4023943dc1007a8f
  reduce[1] 4012934f0979a371
  reduce[4] 4024dced41052e6d
  ⋈[2] 4023414c1f100000
  ⋈[0] 4028c2fa3cb80000
  ⋈[1] 4028c2fa3cb80000
  ⋈[4] 4031dccd8eb40000
"#,
    r#"job-3
  partitioned ∪[cast_info#light: yannakakis[3,2,0,1] | cast_info#heavy: yannakakis[3,2,0,1]] order [3, 2, 0, 1]
  cost 402b878c37598410 leftdeep 402bd07833800000 greedy 402bd07833800000 monolithic 402bd07833800000
  bounded 6 solved 18 dual_pivots 151 parts 2 candidates 2 refused 1 part_bounded 12 part_fallbacks 0
  reduce[3] 4021ee7b471b3a95
  reduce[2] 402326ad14857004
  reduce[0] 4023414c1f0de28d
  reduce[1] 4010000000000000
  ⋈[2] 402326ad14880000
  ⋈[0] 4027f42339300000
  ⋈[1] 4027f42339300000
  part cast_info#light 4027f42339300000
  reduce[3] 4021ee7b471b3a95
  reduce[2] 40228afd33b5d848
  reduce[0] 4023414c1f0de28d
  reduce[1] 4010000000000000
  ⋈[2] 40228afd33b80000
  ⋈[0] 402a8afd33b80000
  ⋈[1] 402a8afd33b80000
  part cast_info#heavy 402a8afd33b80000
  ∪ partitioned 402b878c37598410
"#,
    r#"job-4
  yannakakis yannakakis[3,2,0,1,4] order [3, 2, 0, 1, 4]
  cost 4031f455d1f80000 leftdeep 4031f455d1f80000 greedy 4031f455d1f80000 monolithic 4031f455d1f80000
  bounded 14 solved 18 dual_pivots 157 parts 0 candidates 2 refused 2 part_bounded 4 part_fallbacks 0
  reduce[3] 40142d75a6eb1dfb
  reduce[2] 4023c897dfa0db59
  reduce[0] 4024dced41052e6d
  reduce[1] 4021ee7b471b3a95
  reduce[4] 40231cee5c91af10
  ⋈[2] 4023c897dfa80000
  ⋈[0] 402cfaab11d80000
  ⋈[1] 402cfaab11d80000
  ⋈[4] 4031f455d1f80000
"#,
    r#"job-5
  yannakakis yannakakis[3,2,0,1,4] order [3, 2, 0, 1, 4]
  cost 4030ca6da3f40000 leftdeep 4030ca6da3f40000 greedy 4030ca6da3f40000 monolithic 4030ca6da3f40000
  bounded 14 solved 18 dual_pivots 160 parts 0 candidates 2 refused 2 part_bounded 4 part_fallbacks 0
  reduce[3] 400cae00d1cfdeb4
  reduce[2] 40231cee5c91af10
  reduce[0] 4023c897dfa0db59
  reduce[1] 40142d75a6eb1dfb
  reduce[4] 4023f74aef0efafb
  ⋈[2] 40231cee5c980000
  ⋈[0] 4028e7685ac80000
  ⋈[1] 4028e7685ac80000
  ⋈[4] 4030ca6da3f40000
"#,
    r#"job-6
  yannakakis yannakakis[1,0,2,3,4] order [1, 0, 2, 3, 4]
  cost 4031f406aa440000 leftdeep 4031f406aa440000 greedy 4031f406aa440000 monolithic 4031f406aa440000
  bounded 14 solved 18 dual_pivots 172 parts 0 candidates 2 refused 2 part_bounded 4 part_fallbacks 0
  reduce[1] 400cae00d1cfdeb4
  reduce[0] 40231cee5c91af10
  reduce[2] 4023f74aef0efafb
  reduce[3] 4016934f0979a371
  reduce[4] 4024a721c40747db
  ⋈[0] 40231cee5c980000
  ⋈[2] 402966e3d6a80000
  ⋈[3] 402966e3d6a80000
  ⋈[4] 4031f406aa440000
"#,
];
