//! # lpb-lp — a small, dependency-free linear-programming solver
//!
//! The ℓp-norm cardinality bound of Abo Khamis, Nakos, Olteanu and Suciu
//! (PODS 2024) is computed as the optimal value of a linear program
//! (Theorem 5.2 of the paper): maximize `h(X)` over a polyhedral cone of
//! entropy-like vectors subject to per-statistic constraints.  No LP crate
//! is part of this project's allowed dependency set, so this crate
//! implements the required solver from scratch:
//!
//! * a [`Problem`] builder with sparse constraint rows, named variables and
//!   shared immutable row blocks ([`SharedRowBlock`]) whose column-major
//!   form is cached across solves,
//! * a sparse **revised simplex** with an eta-file basis inverse, CSR/CSC
//!   constraint storage and **Devex pricing** — [`Problem::solve`] runs it
//!   on every LP it is given,
//! * a dense **dual simplex for covering LPs** ([`CoveringLp`]):
//!   `min b·w, a·w ≥ 1` from the dual-feasible `w = 0`, with rows appended
//!   to the solved tableau in place,
//! * a dense, two-phase tableau **simplex** method with Bland's
//!   anti-cycling rule ([`solve_dense`]), kept only as the reference oracle
//!   that the differential tests check the revised simplex against,
//! * process-wide and per-thread **work counters** ([`SolverStats`]):
//!   pivot and refactorization counts, solves by path (revised, covering)
//!   with their summed widths, and column-generation rounds, so benchmarks
//!   can assert on work instead of noisy wall-clock,
//! * extraction of the **dual solution** (one multiplier per constraint),
//!   which the bound engine uses to recover the witness information
//!   inequality — i.e. *which* ℓp statistics the optimal bound uses.
//!
//! The solver targets the LP shapes that arise in the bound engine: a few
//! dozen to a few thousand rows, a few dozen to a few tens of thousands of
//! columns, all variables non-negative.  It is exact up to floating-point
//! tolerance (`1e-9` pivot tolerance by default).
//!
//! Two product paths, one per cone, each naming its consumer in `lpb-core`:
//!
//! * [`CoveringLp`] solves the normal-cone bound — every bound the planner
//!   and the service compute, and one-shot `Cone::auto` bounds on simple
//!   statistics above eight variables — as one tableau per bound, carried
//!   across its pricing rounds;
//! * the revised simplex solves every materialized LP ([`Problem::solve`]):
//!   the polymatroid cone up to eight variables (one-shot `Cone::auto`
//!   bounds, non-simple statistics, experiments E1–E8, the examples) and
//!   the modular cone.  A numerical failure is a typed
//!   [`LpError::NumericalInstability`]; no other engine retries the solve.
//!
//! The tableau behind [`solve_dense`] is no third path: nothing in the
//! product calls it, and it records no solver work.  Each module doc names
//! its callers in detail.
//!
//! ## Example
//!
//! ```
//! use lpb_lp::{Problem, Sense, Status};
//!
//! // maximize x + y  s.t.  x + 2y <= 4,  3x + y <= 6,  x,y >= 0
//! let mut p = Problem::maximize(2);
//! p.set_objective(0, 1.0);
//! p.set_objective(1, 1.0);
//! p.add_constraint(&[(0, 1.0), (1, 2.0)], Sense::Le, 4.0);
//! p.add_constraint(&[(0, 3.0), (1, 1.0)], Sense::Le, 6.0);
//! let sol = p.solve().unwrap();
//! assert_eq!(sol.status, Status::Optimal);
//! assert!((sol.objective - 2.8).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod covering;
mod error;
mod matrix;
mod problem;
mod revised;
mod simplex;
mod sparse;
mod stats;

pub use covering::{CoveringLp, CoveringStatus};
pub use error::LpError;
pub use problem::{
    Constraint, Direction, Problem, Sense, SharedRowBlock, Solution, SolverOptions, Status,
};
pub use simplex::solve_dense;
pub use stats::SolverStats;
