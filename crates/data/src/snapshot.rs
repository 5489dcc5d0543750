//! Snapshot catalogs: epoch-swapped `Arc<Catalog>` publication for
//! concurrent readers.
//!
//! A long-lived query service has many reader threads (planning and
//! executing against the catalog) and occasional writers (replacing a
//! relation).  The classic answer — one big
//! `RwLock<Catalog>` — makes every reader pay for every writer.  This
//! module instead uses the **snapshot publication** idiom (the left-right /
//! epoch-swap scheme Noria uses for its reader maps):
//!
//! * Readers grab an [`Arc<Catalog>`] — a *snapshot* — and run their whole
//!   query against it.  The snapshot is immutable from the reader's point
//!   of view (its interior statistics cache still fills lazily, which is
//!   concurrency-safe), so a query planned on a snapshot executes on
//!   exactly the data it was planned for: certificates computed from the
//!   snapshot's statistics hold no matter what writers do meanwhile.
//! * Writers build a **successor** catalog entirely off to the side
//!   ([`crate::Catalog::successor_with`] shares relations by `Arc`, so this
//!   is cheap) and publish it with a single pointer store.  Old snapshots
//!   stay alive until the last in-flight query drops its `Arc` — nothing is
//!   ever torn down under a reader.
//!
//! The swap itself is guarded by an `RwLock<Arc<Catalog>>`, but the write
//! lock is held **only for the pointer store** — never while the successor
//! is built — so the worst a reader can observe is the few instructions of
//! an `Arc` assignment.  [`SnapshotReader`] removes even that: each reader
//! thread keeps a generation-checked cached `Arc`, and as long as no
//! publish happened since its last refresh, [`SnapshotReader::snapshot`]
//! is a lock-free generation load plus an `Arc` clone.  The
//! `reader_does_not_block_while_writer_is_mid_publish` rendezvous test
//! pins the non-blocking claim down deterministically — a reader completes
//! a snapshot while a writer is provably suspended in the middle of
//! [`SnapshotCatalog::publish_with`].

use crate::catalog::Catalog;
use crate::relation::Relation;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

/// A shared, concurrently readable cell holding the current catalog
/// version; see the module docs.
///
/// Cheap to share (`Arc<SnapshotCatalog>`); hand each reader thread a
/// [`SnapshotReader`] for lock-free steady-state reads.
#[derive(Debug)]
pub struct SnapshotCatalog {
    current: RwLock<Arc<Catalog>>,
    /// Bumped (release) after every publish; readers use it (acquire) to
    /// decide whether their cached snapshot is still the published one.
    generation: AtomicU64,
    /// Serializes writers so read-modify-publish updates never lose a
    /// concurrent writer's catalog version.  Readers never touch this.
    writer: Mutex<()>,
}

impl SnapshotCatalog {
    /// Wrap an initial catalog version.
    pub fn new(catalog: Catalog) -> Self {
        SnapshotCatalog {
            current: RwLock::new(Arc::new(catalog)),
            generation: AtomicU64::new(0),
            writer: Mutex::new(()),
        }
    }

    /// The currently published snapshot.  Never blocks on catalog
    /// construction: the read lock is only ever write-contended for the
    /// duration of a pointer store inside a publish.
    pub fn load(&self) -> Arc<Catalog> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The publication generation: the number of publishes since
    /// construction.  Distinct from the catalog's statistics
    /// [`epoch`](Catalog::epoch) — a publish usually bumps both, but the
    /// generation counts publishes, and readers compare it to tell whether
    /// their cached snapshot is current.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Statistics epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.load().epoch()
    }

    /// Publish a successor catalog built off to the side (via
    /// [`Catalog::successor_with`], say), returning its statistics epoch;
    /// this call only swaps the pointer.  `mid` is an instrumentation seam:
    /// it runs while the writer lock is held and the successor `Arc` is
    /// built, but **before** the pointer store.  A writer suspended inside
    /// `mid` is "mid-publish" without touching anything readers use — which
    /// is exactly what the non-blocking-readers rendezvous tests suspend on.
    pub fn publish_with(&self, successor: Catalog, mid: impl FnOnce()) -> u64 {
        let _writer = self.writer();
        let arc = Arc::new(successor);
        mid();
        self.store(arc)
    }

    /// Read-modify-publish: build a successor from the current snapshot
    /// under the writer lock (concurrent updates serialize, so no version
    /// is ever lost) and publish it.  Returns the new epoch.
    pub fn update(&self, f: impl FnOnce(&Catalog) -> Catalog) -> u64 {
        let _writer = self.writer();
        let base = self.load();
        self.store(Arc::new(f(&base)))
    }

    /// Replace one relation: builds an epoch-bumped successor
    /// ([`Catalog::successor_with`]) off the current snapshot and publishes
    /// it.  The serve-layer write path.
    pub fn replace_relation(&self, relation: impl Into<Arc<Relation>>) -> u64 {
        let relation = relation.into();
        self.update(|base| base.successor_with(Arc::clone(&relation)))
    }

    /// Serialize writers.  The mutex guards no data, so a writer that
    /// panicked while holding it (in `update`'s closure, say) left nothing
    /// half-done, and the next writer goes ahead.
    fn writer(&self) -> MutexGuard<'_, ()> {
        self.writer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publish `arc` with one pointer store and return its epoch.  The
    /// `RwLock` guards only that pointer, and a store either happened or
    /// did not, so a poisoned lock still holds a whole catalog and is
    /// recovered (in [`load`](Self::load) too).
    fn store(&self, arc: Arc<Catalog>) -> u64 {
        let epoch = arc.epoch();
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = arc;
        // Release-publish the new generation only after the store, so a
        // reader that observes the bump refreshes to the new snapshot.
        self.generation.fetch_add(1, Ordering::Release);
        epoch
    }
}

impl From<Catalog> for SnapshotCatalog {
    fn from(catalog: Catalog) -> Self {
        SnapshotCatalog::new(catalog)
    }
}

/// A per-thread reader handle over a [`SnapshotCatalog`]: caches the last
/// snapshot it saw and revalidates with one atomic generation load, so the
/// steady state (no publish since the last read) takes **no lock at all**.
///
/// Deliberately `!Sync` (interior `RefCell`), mirroring Noria's read
/// handles: clone one per worker thread instead of sharing.
#[derive(Debug)]
pub struct SnapshotReader {
    cell: Arc<SnapshotCatalog>,
    cached: RefCell<Option<(u64, Arc<Catalog>)>>,
}

impl SnapshotReader {
    /// A reader over the shared cell.
    pub fn new(cell: Arc<SnapshotCatalog>) -> Self {
        SnapshotReader {
            cell,
            cached: RefCell::new(None),
        }
    }

    /// The current snapshot.  Lock-free when no publish happened since this
    /// reader's last call; otherwise refreshes through
    /// [`SnapshotCatalog::load`] (which itself only ever waits out a
    /// pointer store).
    pub fn snapshot(&self) -> Arc<Catalog> {
        let generation = self.cell.generation();
        let mut cached = self.cached.borrow_mut();
        match &*cached {
            Some((seen, arc)) if *seen == generation => Arc::clone(arc),
            _ => {
                let arc = self.cell.load();
                *cached = Some((generation, Arc::clone(&arc)));
                arc
            }
        }
    }

    /// The shared cell this reader draws from.
    pub fn cell(&self) -> &Arc<SnapshotCatalog> {
        &self.cell
    }
}

impl Clone for SnapshotReader {
    fn clone(&self) -> Self {
        SnapshotReader {
            cell: Arc::clone(&self.cell),
            cached: RefCell::new(self.cached.borrow().clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RelationBuilder;
    use std::sync::mpsc;
    use std::time::Duration;

    fn catalog_with(rows: u64) -> Catalog {
        let mut c = Catalog::new();
        c.insert(RelationBuilder::binary_from_pairs(
            "R",
            "x",
            "y",
            (0..rows).map(|i| (i, i + 1)),
        ));
        c
    }

    #[test]
    fn load_publish_roundtrip_and_counters() {
        let cell = SnapshotCatalog::new(catalog_with(3));
        let first = cell.load();
        assert_eq!(first.get("R").unwrap().len(), 3);
        assert_eq!(cell.generation(), 0);

        let epoch = cell.replace_relation(RelationBuilder::binary_from_pairs(
            "R",
            "x",
            "y",
            vec![(7, 8)],
        ));
        assert_eq!(epoch, first.epoch() + 1);
        assert_eq!(cell.generation(), 1);
        assert_eq!(cell.epoch(), epoch);
        // The new snapshot is live; the old one is untouched for holders.
        assert_eq!(cell.load().get("R").unwrap().len(), 1);
        assert_eq!(first.get("R").unwrap().len(), 3);
    }

    #[test]
    fn old_snapshots_survive_until_their_holders_drop_them() {
        let cell = SnapshotCatalog::new(catalog_with(5));
        let held = cell.load();
        for round in 0..3u64 {
            cell.replace_relation(RelationBuilder::binary_from_pairs(
                "R",
                "x",
                "y",
                (0..round + 1).map(|i| (i, i)),
            ));
        }
        // Three publishes later the held snapshot still answers from the
        // data it was taken over.
        assert_eq!(held.get("R").unwrap().len(), 5);
        assert_eq!(cell.load().get("R").unwrap().len(), 3);
        drop(held);
    }

    #[test]
    fn reader_fast_path_serves_cached_snapshot_until_a_publish() {
        let cell = Arc::new(SnapshotCatalog::new(catalog_with(2)));
        let reader = SnapshotReader::new(Arc::clone(&cell));
        let a = reader.snapshot();
        let b = reader.snapshot();
        // Same published version → the very same Arc (cache hit).
        assert!(Arc::ptr_eq(&a, &b));
        cell.replace_relation(RelationBuilder::binary_from_pairs(
            "R",
            "x",
            "y",
            vec![(1, 1)],
        ));
        let c = reader.snapshot();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.get("R").unwrap().len(), 1);
        // A clone carries the cache but follows publishes independently.
        let cloned = reader.clone();
        assert!(Arc::ptr_eq(&cloned.snapshot(), &c));
    }

    /// The non-blocking-readers guarantee, proven by rendezvous rather than
    /// wall-clock: a writer is suspended *inside* `publish_with` (writer
    /// lock held, successor built, pointer not yet stored) and both a warm
    /// `SnapshotReader` and a cold `load()` must still complete.  If
    /// readers shared any lock the writer holds at that point, the reader
    /// thread could never answer and the `recv_timeout` would fail.
    #[test]
    fn reader_does_not_block_while_writer_is_mid_publish() {
        let cell = Arc::new(SnapshotCatalog::new(catalog_with(4)));
        let reader = SnapshotReader::new(Arc::clone(&cell));
        reader.snapshot(); // warm the cache

        let (mid_tx, mid_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let writer = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                let successor = cell
                    .load()
                    .successor_with(RelationBuilder::binary_from_pairs(
                        "R",
                        "x",
                        "y",
                        vec![(9, 9)],
                    ));
                cell.publish_with(successor, || {
                    mid_tx.send(()).unwrap();
                    // Stay mid-publish until the reader proved it finished.
                    done_rx
                        .recv_timeout(Duration::from_secs(30))
                        .expect("reader never finished while writer was mid-publish");
                });
            })
        };

        mid_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("writer never reached mid-publish");
        // Writer is provably suspended mid-publish right now.  Both read
        // paths must complete and still see the old version.
        let warm = reader.snapshot();
        assert_eq!(warm.get("R").unwrap().len(), 4);
        let cold = cell.load();
        assert_eq!(cold.get("R").unwrap().len(), 4);
        done_tx.send(()).unwrap();
        writer.join().unwrap();
        // After the publish completes, both paths see the successor.
        assert_eq!(reader.snapshot().get("R").unwrap().len(), 1);
        assert_eq!(cell.load().get("R").unwrap().len(), 1);
    }

    /// Concurrent read-modify-publish updates serialize on the writer lock:
    /// no update is lost, and the final version reflects all of them.
    #[test]
    fn updates_serialize_and_lose_nothing() {
        let cell = Arc::new(SnapshotCatalog::new(catalog_with(1)));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    for _ in 0..8 {
                        cell.update(|base| {
                            let n = base.get("R").unwrap().len() as u64;
                            base.successor_with(RelationBuilder::binary_from_pairs(
                                "R",
                                "x",
                                "y",
                                (0..n + 1).map(|i| (i, i)),
                            ))
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(cell.generation(), 32);
        // Every update grew R by one row off the then-current version.
        assert_eq!(cell.load().get("R").unwrap().len(), 1 + 32);
    }

    /// A writer that panics under the writer lock — in `update`'s closure,
    /// or in `publish_with`'s `mid` — publishes nothing, and the cell goes
    /// on: reads answer from the last published version and the next
    /// writer publishes as usual.
    #[test]
    fn a_panicking_writer_leaves_the_cell_usable() {
        let cell = SnapshotCatalog::new(catalog_with(2));
        let epoch = cell.epoch();
        let in_update = std::panic::catch_unwind(|| {
            cell.update(|_| panic!("injected panic while building the successor"))
        });
        assert!(in_update.is_err());
        let in_publish = std::panic::catch_unwind(|| {
            cell.publish_with(catalog_with(9), || panic!("injected panic mid-publish"))
        });
        assert!(in_publish.is_err());
        assert_eq!(cell.load().get("R").unwrap().len(), 2);
        assert_eq!((cell.epoch(), cell.generation()), (epoch, 0));

        let next = cell.replace_relation(RelationBuilder::binary_from_pairs(
            "R",
            "x",
            "y",
            vec![(1, 1)],
        ));
        assert_eq!(next, epoch + 1);
        assert_eq!(cell.load().get("R").unwrap().len(), 1);
        assert_eq!(cell.generation(), 1);
    }
}
