//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no network access, so this shim implements the
//! small slice of the rayon API the workspace uses — `par_iter()` /
//! `into_par_iter()` on slices and vectors followed by `map(...).collect()`
//! — on top of `std::thread::scope`. Items are split into one contiguous
//! chunk per available core, the first of which runs on the calling thread;
//! `collect` preserves input order.
//!
//! It is a real data-parallel implementation (not a sequential fake), so
//! `lpb-core`'s `BatchEstimator` genuinely fans out across cores, but it
//! makes no attempt at rayon's work stealing: chunks are static. Callers
//! whose items differ in cost balance them beforehand (`BatchEstimator`
//! hands over one pre-weighed lane per thread, see [`current_num_threads`]).
//!
//! Beyond the iterator surface, the shim also provides [`join`] and
//! [`scope`] — the structured fork/join primitives the morsel-driven
//! executor in `lpb-exec` schedules on. Both genuinely run closures on
//! separate OS threads (see the `join_runs_both_sides_concurrently` test,
//! which proves two morsels overlap in time), trading rayon's pooling for
//! one `std::thread::scope` spawn per fork — fine at morsel granularity,
//! where each task is an entire sub-plan.

use std::num::NonZeroUsize;

/// Run `a` and `b` potentially in parallel and return both results.
///
/// `b` is spawned on a fresh scoped thread while `a` runs on the caller's
/// thread, so the two closures genuinely overlap in time (this is not a
/// sequential fallback). Mirrors `rayon::join`'s signature and its panic
/// semantics closely enough for the workspace: a panic in either closure
/// propagates to the caller.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    std::thread::scope(|scope| {
        let hb = scope.spawn(b);
        let ra = a();
        let rb = match hb.join() {
            Ok(rb) => rb,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        (ra, rb)
    })
}

/// A fork scope handed to the closure of [`scope`]; tasks spawned on it are
/// all joined before `scope` returns.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn a task on its own thread; it may borrow from outside the scope.
    ///
    /// Unlike rayon's `Scope::spawn`, the closure takes no `&Scope`
    /// argument (nested spawning is not needed by this workspace) and the
    /// task runs on a dedicated thread rather than a pool.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.inner.spawn(f);
    }
}

/// Create a fork scope: every task spawned via [`Scope::spawn`] runs on its
/// own thread and is joined (with panics propagated) before `scope` returns
/// `op`'s result.
pub fn scope<'env, F, R>(op: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    std::thread::scope(|inner| op(&Scope { inner }))
}

/// How many threads a parallel iterator fans out over: one per available
/// core (rayon's default pool size).
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

fn worker_count(items: usize) -> usize {
    current_num_threads().min(items).max(1)
}

/// Run `f` over `items` with one thread per chunk, preserving order.
fn parallel_map<T: Sync, O: Send, F>(items: &[T], f: F) -> Vec<O>
where
    F: Fn(&T) -> O + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = worker_count(n);
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let chunk = n.div_ceil(workers);
    let f = &f;
    let mut chunks = items.chunks(chunk);
    let first = chunks.next().expect("at least one item");
    let mut parts: Vec<Vec<O>> = Vec::with_capacity(workers);
    // The caller's thread takes the first chunk itself instead of idling in
    // `join`: one spawn fewer per call, and on a two-core machine the single
    // spawned worker lands on the other core.
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .map(|slice| scope.spawn(move || slice.iter().map(f).collect::<Vec<O>>()))
            .collect();
        parts.push(first.iter().map(f).collect());
        for h in handles {
            match h.join() {
                Ok(part) => parts.push(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    parts.into_iter().flatten().collect()
}

/// A pending parallel iterator over a slice.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

/// A mapped parallel iterator, ready to collect.
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Apply `f` to every item in parallel.
    pub fn map<O: Send, F: Fn(&T) -> O + Sync>(self, f: F) -> ParMap<'a, T, F> {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when there are no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl<'a, T: Sync, O: Send, F: Fn(&T) -> O + Sync> ParMap<'a, T, F> {
    /// Execute the map and gather the results in input order.
    pub fn collect<C: From<Vec<O>>>(self) -> C {
        C::from(parallel_map(self.items, self.f))
    }
}

/// Conversion of a collection reference into a parallel iterator.
pub trait IntoParallelRefIterator<'a> {
    /// Item type yielded by the parallel iterator.
    type Item: Sync + 'a;
    /// Start a parallel iteration borrowing the collection.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

pub mod prelude {
    //! Glob-importable parallel-iterator traits, mirroring `rayon::prelude`.
    pub use crate::{IntoParallelRefIterator, ParIter, ParMap};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let input: Vec<u64> = (0..1000).collect();
        let out: Vec<u64> = input.par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn the_first_chunk_runs_on_the_calling_thread() {
        let input: Vec<u64> = (0..64).collect();
        let ran_on: Vec<std::thread::ThreadId> = input
            .par_iter()
            .map(|_| std::thread::current().id())
            .collect();
        let chunk = input.len().div_ceil(super::current_num_threads());
        let caller = std::thread::current().id();
        assert!(ran_on[..chunk].iter().all(|&id| id == caller));
        assert!(ran_on[chunk..].iter().all(|&id| id != caller));
    }

    #[test]
    fn empty_input_is_fine() {
        let input: Vec<u64> = Vec::new();
        let out: Vec<u64> = input.par_iter().map(|x| x + 1).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = crate::join(|| 2 + 2, || "forked".len());
        assert_eq!(a, 4);
        assert_eq!(b, 6);
    }

    /// The morsel scheduler's core requirement: the two sides of `join`
    /// overlap in time. Each closure raises its flag and then waits to see
    /// the other side's flag; only truly concurrent execution lets both
    /// finish — a sequential fallback would deadlock side A (and trip the
    /// deadline panic).
    #[test]
    fn join_runs_both_sides_concurrently() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::{Duration, Instant};

        let a_started = AtomicBool::new(false);
        let b_started = AtomicBool::new(false);
        let await_flag = |flag: &AtomicBool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !flag.load(Ordering::SeqCst) {
                assert!(
                    Instant::now() < deadline,
                    "morsels never overlapped: join is sequential"
                );
                std::thread::yield_now();
            }
        };
        crate::join(
            || {
                a_started.store(true, Ordering::SeqCst);
                await_flag(&b_started);
            },
            || {
                b_started.store(true, Ordering::SeqCst);
                await_flag(&a_started);
            },
        );
    }

    #[test]
    fn scope_joins_all_spawned_tasks_and_they_overlap() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::{Duration, Instant};

        // Rendezvous: every task waits until all `n` have started, so the
        // test also proves scoped tasks run concurrently with one another.
        let n = 3usize;
        let started = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        crate::scope(|s| {
            for _ in 0..n {
                s.spawn(|| {
                    started.fetch_add(1, Ordering::SeqCst);
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while started.load(Ordering::SeqCst) < n {
                        assert!(Instant::now() < deadline, "scoped tasks never overlapped");
                        std::thread::yield_now();
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        // `scope` returns only after every task joined.
        assert_eq!(done.load(Ordering::SeqCst), n);
    }

    #[test]
    fn join_propagates_panics() {
        let caught = std::panic::catch_unwind(|| {
            crate::join(|| 1, || panic!("forked side failed"));
        });
        assert!(caught.is_err());
    }
}
