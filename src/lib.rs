//! # lpbound — join size bounds from ℓp-norms of degree sequences
//!
//! A from-scratch Rust reproduction of *Join Size Bounds using ℓp-Norms on
//! Degree Sequences* (Abo Khamis, Nakos, Olteanu, Suciu — PODS 2024,
//! arXiv:2306.14075): pessimistic cardinality estimation for join queries,
//! where the upper bound on the output size is the optimal value of a linear
//! program over ℓp-norm statistics of the input degree sequences.
//!
//! This crate is a façade re-exporting the workspace members:
//!
//! * [`data`] ([`lpb_data`]) — in-memory relations, degree sequences,
//!   ℓp-norms, and the statistics catalog;
//! * [`entropy`] ([`lpb_entropy`]) — entropy vectors, Shannon inequalities,
//!   polymatroid / normal / modular cones;
//! * [`lp`] ([`lpb_lp`]) — the dependency-free simplex solver;
//! * [`core`] ([`lpb_core`]) — queries, statistics, the bound LP
//!   (Theorem 5.2), baselines (AGM, PANDA, textbook, DSB), closed-form
//!   bounds, worst-case databases;
//! * [`exec`] ([`lpb_exec`]) — hash joins, Yannakakis counting, worst-case
//!   optimal joins, and the degree-partitioned evaluation of §2.2;
//! * [`serve`] ([`lpb_serve`]) — the long-lived concurrent query service:
//!   plan caching keyed by query shape + statistics epoch, epoch-swapped
//!   snapshot catalogs, and single-flight planning of cache misses;
//! * [`datagen`] ([`lpb_datagen`]) — synthetic SNAP-like graphs,
//!   (α,β)-relations and the JOB-like acyclic workload.
//!
//! The most common entry points are also re-exported at the top level.
//!
//! ## Quickstart
//!
//! ```
//! use lpbound::{
//!     collect_simple_statistics, compute_bound, CollectConfig, Cone, JoinQuery,
//! };
//! use lpbound::data::{Catalog, RelationBuilder};
//!
//! // A tiny graph and the triangle query over it.
//! let mut catalog = Catalog::new();
//! catalog.insert(RelationBuilder::binary_from_pairs(
//!     "E", "src", "dst",
//!     (0..60u64).map(|i| (i % 8, (i * 5 + 1) % 12)),
//! ));
//! let query = JoinQuery::triangle("E", "E", "E");
//!
//! // Harvest ℓ1..ℓ4, ℓ∞ statistics and compute the polymatroid bound.
//! let stats = collect_simple_statistics(&query, &catalog, &CollectConfig::with_max_norm(4))?;
//! let bound = compute_bound(&query, &stats, Cone::Polymatroid)?;
//! assert!(bound.is_bounded());
//! println!("|Q| ≤ {:.1}", bound.bound());
//! # Ok::<(), lpbound::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lpb_core as core;
pub use lpb_data as data;
pub use lpb_datagen as datagen;
pub use lpb_entropy as entropy;
pub use lpb_exec as exec;
pub use lpb_lp as lp;
pub use lpb_serve as serve;

pub use lpb_core::{
    agm_bound, collect_simple_statistics, compute_bound, dsb_bound, panda_bound, textbook_estimate,
    worst_case_database, Atom, BoundResult, BoundStatus, CollectConfig, ConcreteStatistic, Cone,
    CoreError, Estimator, JoinQuery, LpNormEstimator, StatisticsSet, Witness,
};
pub use lpb_data::{Catalog, DegreeSequence, Norm, Relation, RelationBuilder};
pub use lpb_exec::true_cardinality;
