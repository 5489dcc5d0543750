//! # lpb-datagen — synthetic workload generators
//!
//! The paper's experiments (Appendix C) run on the SNAP graph datasets and
//! the JOB/IMDB benchmark, neither of which can be bundled with this
//! repository.  This crate generates synthetic stand-ins that exercise the
//! same statistics regimes (see `DESIGN.md` §3 for the substitution
//! arguments):
//!
//! * [`power_law_graph`] / [`snap_like_presets`] — heavy-tailed random
//!   graphs for the cyclic-query experiments (triangle, one-join, cycles);
//! * [`alpha_beta_relation`] — the (α, β)-relations of Definition C.1, used
//!   in the DSB-gap and cycle-optimality analyses;
//! * [`job_like_catalog`] / [`job_like_queries`] — a snowflake schema with
//!   skewed key–foreign-key joins and a 33-query acyclic suite mirroring the
//!   Figure-1 workload shape;
//! * [`planner_workloads`] — planner-adversarial workloads (skewed
//!   power-law triangles, hub-fan-out chains, and bridged heavy chains on
//!   which every left-deep order blows up but a bushy plan stays small) —
//!   greedy-by-size misplans all of them while degree-sequence ℓp-norms see
//!   the danger;
//! * [`stale_stats_workload`] — a catalog whose persisted statistics went
//!   stale between planning and execution, so that a plan bounded on them
//!   violates its certificates at execution.
//!
//! All generators are deterministic given their seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alphabeta;
mod job_like;
mod planner;
mod powerlaw;
mod rng;

pub use alphabeta::{alpha_beta_relation, AlphaBetaConfig};
pub use job_like::{job_like_catalog, job_like_queries, JobLikeConfig, JobLikeQuery};
pub use planner::{
    bridged_chains_workload, misleading_chain_workload, partition_skew_workload, planner_workloads,
    skewed_pairs, skewed_triangle_workload, stale_stats_workload, PlannerWorkload,
};
pub use powerlaw::{power_law_graph, snap_like_presets, PowerLawGraphConfig, SnapLikePreset};
pub use rng::{sample_cdf, seeded_rng, zipf_cdf};

use lpb_data::Catalog;

/// Build a catalog containing a single power-law edge relation named `E`,
/// the standard input of the graph experiments.
pub fn graph_catalog(config: &PowerLawGraphConfig) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.insert(power_law_graph("E", config));
    catalog
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_catalog_contains_the_edge_relation() {
        let catalog = graph_catalog(&PowerLawGraphConfig {
            nodes: 100,
            edges: 300,
            exponent: 1.5,
            symmetric: false,
            seed: 1,
        });
        assert_eq!(catalog.len(), 1);
        let e = catalog.get("E").unwrap();
        assert!(!e.is_empty());
        assert_eq!(e.arity(), 2);
    }
}
