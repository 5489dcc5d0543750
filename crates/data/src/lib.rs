//! # lpb-data — relational storage, degree sequences and ℓp-norm statistics
//!
//! This crate is the data substrate of the `lpbound` reproduction of
//! *Join Size Bounds using ℓp-Norms on Degree Sequences* (PODS 2024).
//! It provides:
//!
//! * [`Relation`] — an in-memory, columnar, dictionary-encoded relation with
//!   named attributes, set semantics, projections and row access;
//! * [`RelationBuilder`] — a convenient way to assemble relations from
//!   tuples of [`Value`]s or raw `u64` codes;
//! * [`DegreeSequence`] and [`Relation::degree_sequence`] — the paper's
//!   `deg_R(V | U)` statistic: the sorted multiset of `V`-fan-outs of the
//!   distinct `U`-values in `Π_{U∪V}(R)` (§1.2 of the paper);
//! * [`Norm`] and [`DegreeSequence::lp_norm`] — ℓp-norms (including ℓ∞) of
//!   degree sequences, in both linear and log₂ space;
//! * [`Catalog`] — a named collection of relations with a cached statistics
//!   store, mirroring the paper's assumption that ℓp-norms are precomputed
//!   and available at estimation time; the cache persists to a plain-text
//!   catalog file ([`Catalog::save_statistics`] /
//!   [`Catalog::load_statistics`]) and derives per-part sub-catalogs
//!   ([`Catalog::derive_with`], which clones every cached statistic) for
//!   the planner's partition search;
//! * [`StatisticsCollector`] — the eager counterpart: materialize the
//!   simple degree conditionals and [`Norm::standard_set`] ℓp-norms of
//!   whole relations into the catalog cache and a
//!   [`stats::StatisticsSet`] snapshot, so plan-time statistics harvesting
//!   is pure lookups.
//!
//! The crate is deliberately free of any query-processing or bound-computation
//! logic; those live in `lpb-exec` and `lpb-core` respectively.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod catalog;
mod degree;
mod error;
mod norms;
mod relation;
mod schema;
mod snapshot;
pub mod stats;
mod value;

pub use builder::RelationBuilder;
pub use catalog::{Catalog, StatsKey};
pub use degree::DegreeSequence;
pub use error::DataError;
pub use norms::Norm;
pub use relation::{Grouping, Relation};
pub use schema::{AttrId, Schema};
pub use snapshot::{SnapshotCatalog, SnapshotReader};
pub use stats::{SimpleStatistics, StatisticEntry, StatisticsCollector};
pub use value::{Dictionary, Value};
