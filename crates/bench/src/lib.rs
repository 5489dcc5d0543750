//! # lpb-bench — the experiment and benchmark harness
//!
//! Every table and figure of the paper's evaluation (Appendix C and the
//! tightness results of §6 / Appendix D) has a corresponding experiment
//! module here that regenerates it on the synthetic stand-in workloads of
//! [`lpb_datagen`]:
//!
//! | Experiment | Paper artifact | Module |
//! |------------|----------------|--------|
//! | E1 | Appendix C.1, triangle-query table | [`experiments::e1_triangle`] |
//! | E2 | Appendix C.1, one-join-query table | [`experiments::e2_onejoin`] |
//! | E3 | Figure 1 (33 acyclic JOB queries) | [`experiments::e3_job`] |
//! | E4 | Appendix C.3, DSB vs ℓp-bound gap | [`experiments::e4_dsb_gap`] |
//! | E5 | Appendix C.5, cycle query norms | [`experiments::e5_cycle`] |
//! | E6 | §6 / Example 6.7, worst-case databases | [`experiments::e6_worstcase`] |
//! | E7 | Appendix D.2, non-Shannon 35/36 gap | [`experiments::e7_nonshannon`] |
//! | E8 | §2.2 / Theorem 2.6, partitioned evaluation | [`experiments::e8_partition`] |
//!
//! Each module exposes a `run(scale)` function returning structured rows (so
//! the experiments are unit-testable) and the `experiments` binary prints
//! them as tables.  The `benches/` directory holds one table-driven
//! Criterion benchmark over all experiments (`experiments`) plus
//! micro-benchmarks of the LP solver and the join algorithms and the
//! planner / serve emitters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;

/// Workload scale shared by all experiments.
///
/// The default is sized so that the full suite runs in a couple of minutes on
/// a laptop in release mode; `Scale::tiny()` is used by unit tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Multiplier applied to the SNAP-like graph presets.
    pub graph_scale: usize,
    /// Number of movies in the JOB-like catalog.
    pub job_movies: usize,
    /// Per-movie link fan-out in the JOB-like catalog.
    pub job_fanout: usize,
    /// Largest finite ℓp norm harvested (`{1, …, max_norm, ∞}`).
    pub max_norm: u32,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            graph_scale: 4,
            job_movies: 2_000,
            job_fanout: 4,
            max_norm: 10,
        }
    }
}

impl Scale {
    /// A tiny scale for unit tests and smoke runs.
    pub fn tiny() -> Self {
        Scale {
            graph_scale: 1,
            job_movies: 200,
            job_fanout: 2,
            max_norm: 4,
        }
    }
}
