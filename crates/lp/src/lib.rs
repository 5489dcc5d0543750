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
//!   constraint storage and **Devex pricing** by default ([`revised`], what
//!   [`SolverKind::Auto`] picks for every LP of 160 rows or more; [`Pricing`]
//!   selects the rule, with classic Dantzig kept for comparison),
//! * a dense **dual simplex for covering LPs** ([`CoveringLp`]):
//!   `min b·w, a·w ≥ 1` from the dual-feasible `w = 0`, with rows appended
//!   to the solved tableau in place — the witness side of the normal-cone
//!   bound, and every LP the planner and the service solve,
//! * a **row-append** path ([`IncrementalSolver`]): new `≤` rows join a
//!   solved LP by extending the factorized basis with their slacks, and the
//!   **dual simplex** phase ([`dual`]) repairs what they violate — the
//!   primitive behind lazy constraint generation,
//! * process-wide and per-thread **work counters** ([`SolverStats`]):
//!   pivot, refactorization and row-append counts, solves by path (dense,
//!   revised-cold, append-warm, covering) with their summed widths, and
//!   column-generation rounds, so benchmarks can assert on work instead of
//!   noisy wall-clock,
//! * a dense, two-phase tableau **simplex** method with Bland's
//!   anti-cycling rule ([`solve_dense`]), kept as a cross-checking
//!   fallback and as [`SolverKind::Auto`]'s choice for small LPs — property
//!   tests assert the two solvers agree on status, objective and the
//!   duality identity,
//! * extraction of the **dual solution** (one multiplier per constraint),
//!   which the bound engine uses to recover the witness information
//!   inequality — i.e. *which* ℓp statistics the optimal bound uses.
//!
//! The solver targets the LP shapes that arise in the bound engine: a few
//! dozen to a few thousand rows, a few dozen to a few tens of thousands of
//! columns, all variables non-negative.  It is exact up to floating-point
//! tolerance (`1e-9` pivot tolerance by default).
//!
//! Each path has a named consumer in `lpb-core`: the normal cone — every
//! bound the planner and the service compute — is one [`CoveringLp`] per
//! bound, carried across its pricing rounds; the experiments' polymatroid
//! LPs of up to five variables solve on the dense tableau; materialized
//! polymatroid LPs of six to eight variables (one-shot `Cone::auto` bounds,
//! non-simple statistics, cross-checks) take the revised simplex; the lazy
//! polymatroid loop (from nine variables) runs on [`IncrementalSolver`] and
//! the dual phase.  The module docs of [`covering`](CoveringLp),
//! [`revised`], [`incremental`] and [`dual`] name them.
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
pub mod dual;
mod error;
pub mod incremental;
mod matrix;
mod problem;
pub mod revised;
mod simplex;
pub mod sparse;
mod stats;

pub use covering::{CoveringLp, CoveringStatus};
pub use error::LpError;
pub use incremental::IncrementalSolver;
pub use matrix::DenseMatrix;
pub use problem::{Constraint, Direction, Problem, Sense, SharedRowBlock};
pub use revised::{eta_refactorization_count, solve_sparse};
pub use simplex::{
    solve, solve_dense, Pricing, Solution, SolverKind, SolverOptions, Status, DENSE_SMALL_LP_ROWS,
};
pub use sparse::{CscMatrix, CsrMatrix};
pub use stats::SolverStats;
