//! Process-wide and per-thread solver work counters.
//!
//! Wall-clock timings are noisy in CI, so the benchmarks assert on *work*
//! instead: pivot counts, refactorizations, which of the crate's two
//! product solve paths each solve took and how wide it was — the revised
//! simplex for every materialized LP, [`crate::CoveringLp`] for the normal
//! cone — and column-generation rounds.  The reference tableau
//! ([`crate::solve_dense`]) records nothing, so a delta around a product
//! call never counts an oracle solve.  Two views exist over the same
//! recordings:
//!
//! * **Process-wide** ([`SolverStats::snapshot`]) — relaxed atomics shared
//!   by every engine in the process.  Callers take a snapshot before a
//!   solve and diff it with [`SolverStats::since`] afterwards; the delta is
//!   only meaningful when no other solves run concurrently in between.
//! * **Per-thread** ([`SolverStats::thread_snapshot`]) — thread-local
//!   counters incremented alongside the globals.  A delta over these is
//!   exact for the work done *by the calling thread*, no matter what other
//!   threads solve in the meantime — this is what a concurrent query
//!   service uses to report pivots-per-request while its neighbours plan.
//!   Every solve runs on the thread that asked for it, so the delta is all
//!   of that caller's LP work.  [`SolverStats::on_thread`] wraps the
//!   snapshot/diff pair around a closure.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static PRIMAL_PIVOTS: AtomicU64 = AtomicU64::new(0);
static DUAL_PIVOTS: AtomicU64 = AtomicU64::new(0);
static REFACTORIZATIONS: AtomicU64 = AtomicU64::new(0);
static REVISED_COLD_SOLVES: AtomicU64 = AtomicU64::new(0);
static COVERING_SOLVES: AtomicU64 = AtomicU64::new(0);
static SOLVE_COLUMNS: AtomicU64 = AtomicU64::new(0);
static GENERATION_ROUNDS: AtomicU64 = AtomicU64::new(0);
static COLUMNS_GENERATED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TL_PRIMAL_PIVOTS: Cell<u64> = const { Cell::new(0) };
    static TL_DUAL_PIVOTS: Cell<u64> = const { Cell::new(0) };
    static TL_REFACTORIZATIONS: Cell<u64> = const { Cell::new(0) };
    static TL_REVISED_COLD_SOLVES: Cell<u64> = const { Cell::new(0) };
    static TL_COVERING_SOLVES: Cell<u64> = const { Cell::new(0) };
    static TL_SOLVE_COLUMNS: Cell<u64> = const { Cell::new(0) };
    static TL_GENERATION_ROUNDS: Cell<u64> = const { Cell::new(0) };
    static TL_COLUMNS_GENERATED: Cell<u64> = const { Cell::new(0) };
}

fn bump(global: &AtomicU64, local: &'static std::thread::LocalKey<Cell<u64>>, by: u64) {
    global.fetch_add(by, Ordering::Relaxed);
    local.with(|c| c.set(c.get() + by));
}

pub(crate) fn record_primal_pivot() {
    bump(&PRIMAL_PIVOTS, &TL_PRIMAL_PIVOTS, 1);
}

pub(crate) fn record_dual_pivot() {
    bump(&DUAL_PIVOTS, &TL_DUAL_PIVOTS, 1);
}

pub(crate) fn record_refactorization() {
    bump(&REFACTORIZATIONS, &TL_REFACTORIZATIONS, 1);
}

/// The path one solve took through the crate (see the `*_solves` fields of
/// [`SolverStats`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum SolvePath {
    RevisedCold,
    Covering,
}

/// Count one solve over `columns` structural columns on `path`.
pub(crate) fn record_solve(path: SolvePath, columns: usize) {
    match path {
        SolvePath::RevisedCold => bump(&REVISED_COLD_SOLVES, &TL_REVISED_COLD_SOLVES, 1),
        SolvePath::Covering => bump(&COVERING_SOLVES, &TL_COVERING_SOLVES, 1),
    }
    bump(&SOLVE_COLUMNS, &TL_SOLVE_COLUMNS, columns as u64);
}

/// A snapshot of the solver work counters (process-wide or per-thread,
/// depending on the constructor).
///
/// The same struct doubles as a *delta*: `after.since(&before)` subtracts
/// field-wise, giving the work done between the two snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverStats {
    /// Primal simplex pivots of the revised simplex (phase 1 + phase 2).
    pub primal_pivots: u64,
    /// Dual simplex pivots: every pivot of [`crate::CoveringLp`].
    pub dual_pivots: u64,
    /// Eta-file refactorizations of the revised simplex (one per 512 pivots
    /// at most, plus the re-check before an unbounded verdict).
    pub refactorizations: u64,
    /// Reads 0 by construction since the revised simplex lost its
    /// row-append path: no solve appends rows to a factorized basis.
    /// ([`crate::CoveringLp::push_row`] grows its own tableau in place; its
    /// work is in [`covering_solves`](Self::covering_solves) and
    /// [`dual_pivots`](Self::dual_pivots).)  The field stays only because
    /// the `benchmark/` package of record reads it by name.
    pub rows_appended: u64,
    /// Cold solves by the sparse revised simplex, from the slack basis:
    /// every [`crate::Problem::solve`].
    pub revised_cold_solves: u64,
    /// [`crate::CoveringLp::solve`] calls: one per pricing round of a
    /// normal-cone bound, each continuing from the basis of the round before.
    pub covering_solves: u64,
    /// Structural columns summed over the solves counted in the two
    /// `*_solves` fields: the mean LP width is this over their sum, and a
    /// delta of at most `k` proves no solve inside it was wider than `k`.
    pub solve_columns: u64,
    /// Column-generation rounds: restricted master solves each followed by
    /// one pricing pass over the full column family
    /// ([`SolverStats::record_generation_round`]).
    pub generation_rounds: u64,
    /// Columns those pricing passes added to their masters (seed columns
    /// not counted).
    pub columns_generated: u64,
}

impl SolverStats {
    /// Read the current **process-wide** counter values.
    pub fn snapshot() -> SolverStats {
        SolverStats {
            primal_pivots: PRIMAL_PIVOTS.load(Ordering::Relaxed),
            dual_pivots: DUAL_PIVOTS.load(Ordering::Relaxed),
            refactorizations: REFACTORIZATIONS.load(Ordering::Relaxed),
            rows_appended: 0,
            revised_cold_solves: REVISED_COLD_SOLVES.load(Ordering::Relaxed),
            covering_solves: COVERING_SOLVES.load(Ordering::Relaxed),
            solve_columns: SOLVE_COLUMNS.load(Ordering::Relaxed),
            generation_rounds: GENERATION_ROUNDS.load(Ordering::Relaxed),
            columns_generated: COLUMNS_GENERATED.load(Ordering::Relaxed),
        }
    }

    /// Read the counter values for work done **by the calling thread**
    /// only.  Deltas over these are exact under concurrency: other
    /// threads' solves never show up, so a query service can report
    /// pivots-per-request while its neighbours plan.
    pub fn thread_snapshot() -> SolverStats {
        SolverStats {
            primal_pivots: TL_PRIMAL_PIVOTS.with(Cell::get),
            dual_pivots: TL_DUAL_PIVOTS.with(Cell::get),
            refactorizations: TL_REFACTORIZATIONS.with(Cell::get),
            rows_appended: 0,
            revised_cold_solves: TL_REVISED_COLD_SOLVES.with(Cell::get),
            covering_solves: TL_COVERING_SOLVES.with(Cell::get),
            solve_columns: TL_SOLVE_COLUMNS.with(Cell::get),
            generation_rounds: TL_GENERATION_ROUNDS.with(Cell::get),
            columns_generated: TL_COLUMNS_GENERATED.with(Cell::get),
        }
    }

    /// Count one column-generation round that added `new_columns` columns
    /// to its master LP.  The loop lives with the column family it prices
    /// (`lpb-core`'s normal-cone bound), outside this crate, so unlike the
    /// other recorders this one is public; the master solves themselves are
    /// counted by the solver paths they take.
    pub fn record_generation_round(new_columns: usize) {
        bump(&GENERATION_ROUNDS, &TL_GENERATION_ROUNDS, 1);
        bump(
            &COLUMNS_GENERATED,
            &TL_COLUMNS_GENERATED,
            new_columns as u64,
        );
    }

    /// Run `f` and return its result together with the solver work the
    /// **calling thread** performed inside it.  Exact under concurrency
    /// (see [`thread_snapshot`](Self::thread_snapshot)); work `f` hands to
    /// other threads is not included.
    pub fn on_thread<R>(f: impl FnOnce() -> R) -> (R, SolverStats) {
        let before = Self::thread_snapshot();
        let out = f();
        (out, Self::thread_snapshot().since(&before))
    }

    /// Field-wise difference `self - earlier` (saturating, so a stale
    /// `earlier` never underflows).
    pub fn since(&self, earlier: &SolverStats) -> SolverStats {
        let sub = |field: fn(&SolverStats) -> u64| field(self).saturating_sub(field(earlier));
        SolverStats {
            primal_pivots: sub(|s| s.primal_pivots),
            dual_pivots: sub(|s| s.dual_pivots),
            refactorizations: sub(|s| s.refactorizations),
            rows_appended: sub(|s| s.rows_appended),
            revised_cold_solves: sub(|s| s.revised_cold_solves),
            covering_solves: sub(|s| s.covering_solves),
            solve_columns: sub(|s| s.solve_columns),
            generation_rounds: sub(|s| s.generation_rounds),
            columns_generated: sub(|s| s.columns_generated),
        }
    }

    /// Every solve, whichever path it took.
    pub fn total_solves(&self) -> u64 {
        self.revised_cold_solves + self.covering_solves
    }

    /// Primal plus dual pivots.
    pub fn total_pivots(&self) -> u64 {
        self.primal_pivots + self.dual_pivots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_and_saturates() {
        let a = SolverStats {
            primal_pivots: 10,
            dual_pivots: 4,
            refactorizations: 2,
            rows_appended: 7,
            revised_cold_solves: 2,
            ..SolverStats::default()
        };
        let b = SolverStats {
            primal_pivots: 13,
            dual_pivots: 4,
            refactorizations: 3,
            rows_appended: 30,
            revised_cold_solves: 5,
            solve_columns: 40,
            ..SolverStats::default()
        };
        let d = b.since(&a);
        assert_eq!(d.primal_pivots, 3);
        assert_eq!(d.dual_pivots, 0);
        assert_eq!(d.total_pivots(), 3);
        assert_eq!(d.rows_appended, 23);
        assert_eq!(d.revised_cold_solves, 3);
        assert_eq!(d.solve_columns, 40);
        assert_eq!(d.total_solves(), 3);
        // Reversed order saturates instead of wrapping.
        assert_eq!(a.since(&b).primal_pivots, 0);
    }

    /// Per-thread snapshots see only the calling thread's work even while
    /// another thread records concurrently; the process-wide view sees both.
    #[test]
    fn thread_snapshots_isolate_concurrent_recordings() {
        use std::sync::mpsc;

        let global_before = SolverStats::snapshot();
        let (ready_tx, ready_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let other = std::thread::spawn(move || {
            let before = SolverStats::thread_snapshot();
            for _ in 0..7 {
                record_dual_pivot();
            }
            ready_tx.send(()).unwrap();
            // Hold the thread alive while the main thread records, so the
            // two threads' recordings genuinely interleave in time.
            go_rx.recv().unwrap();
            SolverStats::thread_snapshot().since(&before)
        });
        ready_rx.recv().unwrap();

        let ((), mine) = SolverStats::on_thread(|| {
            for _ in 0..3 {
                record_primal_pivot();
            }
            record_solve(SolvePath::Covering, 12);
            record_solve(SolvePath::RevisedCold, 30);
            SolverStats::record_generation_round(4);
        });
        go_tx.send(()).unwrap();
        let theirs = other.join().unwrap();

        // Each thread-local delta holds exactly its own work...
        assert_eq!(mine.primal_pivots, 3);
        assert_eq!(mine.dual_pivots, 0);
        assert_eq!(mine.rows_appended, 0);
        assert_eq!((mine.revised_cold_solves, mine.covering_solves), (1, 1));
        assert_eq!(mine.solve_columns, 42);
        assert_eq!((mine.generation_rounds, mine.columns_generated), (1, 4));
        assert_eq!(theirs.total_solves(), 0);
        assert_eq!(theirs.dual_pivots, 7);
        assert_eq!(theirs.primal_pivots, 0);
        // ...while the process-wide delta is at least the sum (other tests
        // may record concurrently, so "at least").
        let global = SolverStats::snapshot().since(&global_before);
        assert!(global.primal_pivots >= 3);
        assert!(global.dual_pivots >= 7);
    }
}
