//! Recycled column buffers: where a [`crate::ColumnTable`]'s large columns
//! come from and go back to.
//!
//! A served join materializes a few hundred thousand rows per request into
//! columns of 0.8–1.8 MB each.  Handed to the allocator, every one of them
//! is mapped, page-faulted and unmapped again per request — measured at
//! ~60 % of executor wall-clock on the serving workload.  A
//! [`ColumnBuffers`] handle is the alternative: a bounded free list that
//! one serving worker owns across requests.  Tables built through it draw
//! their columns from the list ([`ColumnBuffers::take`]) and hand them back
//! when they are dropped ([`ColumnBuffers::give`]), so in steady state a
//! request touches no fresh pages.
//!
//! The default handle recycles nothing: `take` is `Vec::with_capacity` and
//! `give` is `drop`.  That is what every caller without a worker gets
//! ([`crate::execute_physical_mode`], tests, examples), so nothing outlives
//! their call.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Columns below this many bytes bypass the free list and use the allocator
/// as before.  glibc serves requests under its 128 KiB `M_MMAP_THRESHOLD`
/// from the thread's arena without a system call, but it gives the top of
/// an arena back to the kernel once 128 KiB (`M_TRIM_THRESHOLD`) of it are
/// free — four columns of 32 KiB.  Measured on the JOB-like serving shapes
/// (two workers): at 128 KiB the 92 KB columns of the 11 548-row shape and
/// the smaller intermediates of the others stay with the allocator, which
/// read 474–502 qps at 57 MiB peak RSS against 529–606 qps at 53–54 MiB
/// here.  The churn workload's columns (≤ 24 KB) are below either value and
/// its hit path does not move.
const RECYCLE_MIN_BYTES: usize = 32 * 1024;

/// Most bytes one free list keeps.  A list sizes itself (see
/// [`ColumnBuffers::take`]): on the JOB-like serving shapes it settles at
/// twelve buffers of the largest column (221 173 rows), 21.2 MB — two chain
/// steps of five and six columns plus one probe-range buffer, all
/// interchangeable — after ~40 allocations, and 24 MiB is the smallest round
/// bound above that.  At 16 MiB the list cannot hold one request's buffers
/// and allocates two to three large ones per request for ever; at 32 MiB
/// nothing changes (same 85 allocations over two workers, same 53–54 MiB
/// peak RSS, where the parent commit read 57–61 MiB because the allocator
/// kept as much in its arenas).  Bounding only what sits free, without the
/// displacement rule, read 76–95 MiB: a list full of small buffers plus a
/// large request's fresh ones.
const RETAIN_MAX_BYTES: usize = 24 << 20;

const WORD_BYTES: usize = std::mem::size_of::<u64>();

/// Reuse counters of one or more free lists (a service shares one among its
/// workers, so the readings are sums).  Only buffers of recyclable size are
/// counted; small columns never reach the list.
#[derive(Debug, Default)]
pub struct BufferCounters {
    reused: AtomicU64,
    fresh: AtomicU64,
    bytes_retained: AtomicU64,
}

impl BufferCounters {
    /// Large buffers served from a free list.
    pub fn reused(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// Large buffers a free list could not serve and the allocator did.
    pub fn fresh(&self) -> u64 {
        self.fresh.load(Ordering::Relaxed)
    }

    /// Bytes sitting in free lists right now.
    pub fn bytes_retained(&self) -> u64 {
        self.bytes_retained.load(Ordering::Relaxed)
    }
}

/// The free buffers, ascending by capacity, and their total size.
#[derive(Debug, Default)]
struct Shelf {
    free: Vec<Vec<u64>>,
    bytes: usize,
}

impl Shelf {
    /// Free the smallest buffers until the rest are within `keep` bytes;
    /// returns how many bytes went.
    fn shrink_to(&mut self, keep: usize) -> usize {
        let before = self.bytes;
        let mut gone = 0;
        while self.bytes > keep {
            self.bytes -= self.free[gone].capacity() * WORD_BYTES;
            gone += 1;
        }
        self.free.drain(..gone);
        before - self.bytes
    }
}

#[derive(Debug)]
struct FreeList {
    shelf: Mutex<Shelf>,
    counters: Arc<BufferCounters>,
}

impl FreeList {
    /// Every update leaves the shelf valid, so a panic elsewhere while the
    /// lock was held costs nothing here.
    fn shelf(&self) -> std::sync::MutexGuard<'_, Shelf> {
        self.shelf.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for FreeList {
    fn drop(&mut self) {
        let bytes = self.shelf().bytes as u64;
        self.counters
            .bytes_retained
            .fetch_sub(bytes, Ordering::Relaxed);
    }
}

/// A handle on where large columns come from; cheap to clone, and every
/// [`crate::ColumnTable`] carries the one it was built with.
#[derive(Clone, Default)]
pub struct ColumnBuffers {
    list: Option<Arc<FreeList>>,
}

impl std::fmt::Debug for ColumnBuffers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.list.is_some() {
            "ColumnBuffers(recycling)"
        } else {
            "ColumnBuffers(allocator)"
        })
    }
}

impl ColumnBuffers {
    /// A new, empty free list reporting into `counters`.  It lives as long
    /// as this handle, its clones, and the tables built through them.
    pub fn recycling(counters: Arc<BufferCounters>) -> Self {
        ColumnBuffers {
            list: Some(Arc::new(FreeList {
                shelf: Mutex::default(),
                counters,
            })),
        }
    }

    /// An empty buffer with room for at least `len` values: the smallest
    /// free one that fits, else a new one of exactly `len`.  A new one
    /// displaces its own size in free buffers right away (they are all too
    /// small for this request, and would be the first to go when it comes
    /// back): the list and what it has handed out together never outgrow
    /// the largest set of buffers one request held at once.
    pub(crate) fn take(&self, len: usize) -> Vec<u64> {
        let bytes = len * WORD_BYTES;
        let list = match &self.list {
            Some(list) if bytes >= RECYCLE_MIN_BYTES => list,
            _ => return Vec::with_capacity(len),
        };
        let mut shelf = list.shelf();
        let retained = &list.counters.bytes_retained;
        let fit = shelf.free.partition_point(|b| b.capacity() < len);
        if fit == shelf.free.len() {
            let keep = shelf.bytes.saturating_sub(bytes);
            retained.fetch_sub(shelf.shrink_to(keep) as u64, Ordering::Relaxed);
            drop(shelf);
            list.counters.fresh.fetch_add(1, Ordering::Relaxed);
            return Vec::with_capacity(len);
        }
        let buffer = shelf.free.remove(fit);
        let held = buffer.capacity() * WORD_BYTES;
        shelf.bytes -= held;
        retained.fetch_sub(held as u64, Ordering::Relaxed);
        list.counters.reused.fetch_add(1, Ordering::Relaxed);
        buffer
    }

    /// Hand a buffer back.  Over the bound the smallest buffers go first:
    /// a large one can stand in for a small one, not the other way round.
    /// A buffer of more than half the bound is not kept at all, so that one
    /// outsized result cannot displace the whole list.
    pub(crate) fn give(&self, mut buffer: Vec<u64>) {
        let bytes = buffer.capacity() * WORD_BYTES;
        let list = match &self.list {
            Some(list) if (RECYCLE_MIN_BYTES..=RETAIN_MAX_BYTES / 2).contains(&bytes) => list,
            _ => return,
        };
        // Lengths only: the next taker starts from an empty buffer and can
        // never read what this one held.
        buffer.clear();
        let mut shelf = list.shelf();
        let at = shelf
            .free
            .partition_point(|b| b.capacity() < buffer.capacity());
        shelf.free.insert(at, buffer);
        shelf.bytes += bytes;
        // Counted under the lock, so the shared reading never runs ahead of
        // a concurrent eviction of this very buffer.
        let retained = &list.counters.bytes_retained;
        retained.fetch_add(bytes as u64, Ordering::Relaxed);
        retained.fetch_sub(shelf.shrink_to(RETAIN_MAX_BYTES) as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LARGE: usize = RECYCLE_MIN_BYTES / WORD_BYTES;

    #[test]
    fn small_buffers_bypass_the_list_and_large_ones_come_back() {
        let counters = Arc::new(BufferCounters::default());
        let buffers = ColumnBuffers::recycling(Arc::clone(&counters));
        buffers.give(buffers.take(LARGE - 1));
        assert_eq!((counters.fresh(), counters.bytes_retained()), (0, 0));

        let mut first = buffers.take(LARGE);
        first.extend(0..LARGE as u64);
        buffers.give(first);
        assert_eq!(counters.fresh(), 1);
        assert_eq!(counters.bytes_retained(), RECYCLE_MIN_BYTES as u64);
        let again = buffers.take(LARGE);
        assert!(again.is_empty() && again.capacity() >= LARGE);
        assert_eq!((counters.reused(), counters.bytes_retained()), (1, 0));
    }

    #[test]
    fn best_fit_serves_the_smallest_sufficient_buffer() {
        let counters = Arc::new(BufferCounters::default());
        let buffers = ColumnBuffers::recycling(Arc::clone(&counters));
        for len in [4 * LARGE, LARGE, 2 * LARGE] {
            buffers.give(Vec::with_capacity(len));
        }
        assert_eq!(buffers.take(LARGE + 1).capacity(), 2 * LARGE);
        assert_eq!(buffers.take(LARGE + 1).capacity(), 4 * LARGE);
        // Only the smallest is left and it does not fit.
        assert_eq!(buffers.take(LARGE + 1).capacity(), LARGE + 1);
        assert_eq!((counters.reused(), counters.fresh()), (2, 1));
    }

    #[test]
    fn retention_is_bounded_and_evicts_the_smallest_first() {
        let counters = Arc::new(BufferCounters::default());
        let buffers = ColumnBuffers::recycling(Arc::clone(&counters));
        let quarter = RETAIN_MAX_BYTES / 4 / WORD_BYTES;
        buffers.give(Vec::with_capacity(LARGE));
        for _ in 0..4 {
            buffers.give(Vec::with_capacity(quarter));
        }
        // Four quarters fill the bound exactly; the small one had to go.
        assert_eq!(counters.bytes_retained(), RETAIN_MAX_BYTES as u64);
        assert_eq!(buffers.take(LARGE).capacity(), quarter);
        // More than half the bound is never kept.
        let before = counters.bytes_retained();
        buffers.give(Vec::with_capacity(2 * quarter + 1));
        assert_eq!(counters.bytes_retained(), before);
    }

    #[test]
    fn dropping_the_last_handle_releases_what_the_list_held() {
        let counters = Arc::new(BufferCounters::default());
        let buffers = ColumnBuffers::recycling(Arc::clone(&counters));
        let clone = buffers.clone();
        clone.give(Vec::with_capacity(LARGE));
        drop(buffers);
        assert_eq!(counters.bytes_retained(), RECYCLE_MIN_BYTES as u64);
        drop(clone);
        assert_eq!(counters.bytes_retained(), 0);

        // The default handle keeps nothing in the first place.
        let plain = ColumnBuffers::default();
        plain.give(Vec::with_capacity(LARGE));
        assert_eq!(plain.take(LARGE).capacity(), LARGE);
    }
}
