//! # lpb-core — the ℓp-norm join cardinality bound engine
//!
//! This crate implements the primary contribution of *Join Size Bounds using
//! ℓp-Norms on Degree Sequences* (Abo Khamis, Nakos, Olteanu, Suciu, PODS
//! 2024): pessimistic cardinality estimation for full conjunctive (join)
//! queries from ℓp-norms of degree sequences, computed as the optimal value
//! of a linear program over a cone of entropy-like vectors (Theorems 1.1,
//! 1.2 and 5.2 of the paper).
//!
//! ## The pieces
//!
//! * [`JoinQuery`] — full conjunctive queries `Q(X) = ⋀_j R_j(Z_j)`, with
//!   builders for the paper's running examples (triangle, path, cycle,
//!   Loomis–Whitney).
//! * [`StatisticsSet`] / [`collect_simple_statistics`] — abstract statistics
//!   `τ = ((V|U), p)` with concrete log-bounds `b = log₂ B` harvested from a
//!   [`Catalog`](lpb_data::Catalog).
//! * [`compute_bound`] / [`Cone`] — the bound `Log-L-Bound_K` of §5, over the
//!   polymatroid cone Γₙ (Shannon inequalities), the normal cone Nₙ
//!   (step-function combinations; exact for simple statistics by Theorem
//!   6.1 and scalable to wide queries: its `2^n − 1` columns are generated
//!   on demand into a master LP of a few dozen, priced all at once by a
//!   zeta transform), or the modular cone Mₙ (for the Appendix-B comparison
//!   with Jayaraman et al.).
//! * [`Witness`] — the dual solution: the coefficients `w_i` of the witness
//!   information inequality (8) and hence *which norms* the optimal bound
//!   uses (the "Norms" column of Figure 1).
//! * Baselines: [`agm`] (the AGM bound via the fractional edge cover LP),
//!   [`panda`] (the {1,∞} polymatroid bound), [`traditional`] (the textbook
//!   average-degree estimator, eq. 15/16), and [`dsb`] (the Degree Sequence
//!   Bound of eq. 49 for a single join).
//! * [`closed_form`] — the paper's hand-derived bounds (eqs. 2–5, 17–19, 21,
//!   48, 50 and the Loomis–Whitney bound of Appendix C.6), used to
//!   cross-check the LP.
//! * [`worst_case`] — normal relations, domain products and the worst-case
//!   database construction of §6 (Lemma 6.2, Corollary 6.3, Example 6.7).
//! * [`newton`] — the norms ↔ degree-sequence bijection of Appendix A.
//! * [`estimator`] — a small trait unifying all estimators for experiments.
//! * [`skeleton`] — the structure of the two exponential LPs: the Shannon
//!   elemental block, built once per variable count and shared process-wide
//!   so repeated estimates only fill in `O(#stats)` rows; its lazy
//!   separation oracle; and the normal cone's coefficient function and
//!   column-pricing oracle, which store nothing.
//! * `cgen` (via [`compute_bound_with`]'s `lazy` knob) — lazy constraint
//!   generation for the polymatroid cone past the materialization ceiling:
//!   a small implied-inequality core, violated Shannon elementals appended
//!   on demand, and a normal-cone sandwich certificate that stops the loop
//!   the moment the relaxation is provably exact — `n = 12` bounds in
//!   milliseconds without ever building the `n·2^{n−1}`-row block.
//! * [`batch`] — [`BatchEstimator`], the planner's entry point: many
//!   `(query, statistics)` pairs bounded in input order on the calling
//!   thread, each LP solved cold, under [`Cone::auto`] or a forced cone.
//!
//! ## Which LP a bound solves
//!
//! Simple statistics are all that [`collect_simple_statistics`] harvests,
//! and on them the normal cone gives the polymatroid bound exactly (Theorem
//! 6.1): the planner and the service (`lpb-exec`'s `Optimizer`) ask for
//! [`Cone::Normal`] at every size, whose master LPs (one row per statistic,
//! a few dozen generated columns) the solver's dense tableau handles in tens
//! of microseconds.  The polymatroid cone is kept for what only it can
//! bound soundly, non-simple statistics; for one-shot [`Cone::auto`] callers
//! up to [`POLYMATROID_AUTO_PREFERRED`] variables (a stale crossover that
//! cannot move yet; see the constant); and for the experiments that study
//! it (E4, E5, E7, E8), the examples and the differential tests.  It is
//! materialized up to 8 variables (dense tableau to 5, revised simplex from
//! 6) and lazily generated from 9 (`cgen` on `lpb_lp::IncrementalSolver`).
//! No solve starts from another's basis or factorization.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agm;
pub mod batch;
mod bound_lp;
mod cgen;
pub mod closed_form;
mod collect;
pub mod dsb;
mod error;
pub mod estimator;
pub mod newton;
pub mod panda;
mod query;
pub mod skeleton;
mod statistics;
pub mod traditional;
pub mod worst_case;

pub use batch::{BatchEstimator, BatchItem};
pub use bound_lp::{
    compute_bound, compute_bound_with, BoundOptions, BoundResult, BoundStatus, Cone, Witness,
    NORMAL_VAR_LIMIT, POLYMATROID_AUTO_PREFERRED, POLYMATROID_LAZY_FROM,
    POLYMATROID_MATERIALIZE_LIMIT, POLYMATROID_VAR_LIMIT,
};
pub use collect::{collect_simple_statistics, AtomStatistics, CollectConfig};
pub use error::CoreError;
pub use query::{Atom, JoinQuery};
pub use skeleton::{BoundLpSkeleton, LazyElementalOracle};
pub use statistics::{AbstractStatistic, ConcreteStatistic, StatisticsSet};

// Flat re-exports of the most commonly used baseline and construction entry
// points, so `use lpb_core::*`-style consumers (examples, benches) do not
// need to spell the module paths.
pub use agm::{agm_bound, agm_bound_from_log_sizes, AgmBound};
pub use dsb::{dsb_bound, dsb_pairwise, dsb_path};
pub use estimator::{
    compare_all, standard_estimators, AgmEstimator, DsbEstimator, EstimateRow, Estimator,
    LpNormEstimator, PandaEstimator, TextbookEstimator,
};
pub use panda::{panda_bound, panda_bound_from_stats, panda_statistics};
pub use traditional::{textbook_estimate, textbook_log2_estimate};
pub use worst_case::{example_6_7_database, worst_case_database, WorstCaseDatabase};

// Re-export the substrate types that appear in this crate's public API so
// downstream users only need `lpb-core`.
pub use lpb_data::{Catalog, DegreeSequence, Norm, Relation, RelationBuilder};
pub use lpb_entropy::{Conditional, VarRegistry, VarSet};
