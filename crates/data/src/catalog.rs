//! A catalog of named relations with a cache of precomputed ℓp-norm
//! statistics.
//!
//! The paper assumes that ℓp-norms of degree sequences are precomputed and
//! available at estimation time (§2.1).  [`Catalog`] plays that role: the
//! first request for `log₂‖deg_R(V|U)‖_p` computes the degree sequence and
//! caches the value; later requests are served from the cache.  A caller
//! that wants several norms of the same conditional asks
//! [`Catalog::log_norms`], which derives the degree sequence once for all
//! of them.
//!
//! Every cached value is a `log₂`-norm of the catalog's rows, except what
//! [`Catalog::load_statistics`] or a direct [`Catalog::record_statistic`]
//! put in.  Two system-catalog features ride on top of the cache:
//!
//! * **Derived sub-catalogs** ([`Catalog::derive_with`]) — a copy that
//!   shares every relation by `Arc` but rebinds one name to a new relation
//!   (e.g. one part of a degree partition), and clones every cached
//!   statistic that is still valid, so its cost grows with the cache.  Only
//!   the planner's partition search (once per part per candidate) and tests
//!   call it; the executor binds a part without a catalog.
//! * **Persistence** ([`Catalog::save_statistics`] /
//!   [`Catalog::load_statistics`]) — the cache serializes to a plain-text
//!   catalog file (one statistic per line) and loads back bit-for-bit, so a
//!   system can collect statistics once and start up from the file without
//!   rescanning any relation.

use crate::error::DataError;
use crate::norms::Norm;
use crate::relation::Relation;
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Cache key identifying one concrete statistic
/// `‖deg_R(V | U)‖_p` of one relation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StatsKey {
    /// Relation name.
    pub relation: String,
    /// Dependent attribute set `V` (sorted).
    pub v: Vec<String>,
    /// Conditioning attribute set `U` (sorted).
    pub u: Vec<String>,
    /// Norm index encoded as IEEE-754 bits (`u64::MAX` for ℓ∞), so the key
    /// is hashable.
    pub norm_bits: u64,
}

impl StatsKey {
    /// Build a key from attribute names and a norm.
    pub fn new(relation: &str, v: &[&str], u: &[&str], norm: Norm) -> Self {
        let mut v: Vec<String> = v.iter().map(|s| s.to_string()).collect();
        let mut u: Vec<String> = u.iter().map(|s| s.to_string()).collect();
        v.sort();
        u.sort();
        StatsKey {
            relation: relation.to_string(),
            v,
            u,
            norm_bits: norm_bits(norm),
        }
    }

    /// Recover the norm from the key.
    pub fn norm(&self) -> Norm {
        if self.norm_bits == u64::MAX {
            Norm::Infinity
        } else {
            Norm::Finite(f64::from_bits(self.norm_bits))
        }
    }
}

/// The hashable encoding of a norm in [`StatsKey::norm_bits`].
fn norm_bits(norm: Norm) -> u64 {
    match norm {
        Norm::Infinity => u64::MAX,
        Norm::Finite(p) => p.to_bits(),
    }
}

/// A named collection of relations plus a statistics cache.
#[derive(Debug, Default)]
pub struct Catalog {
    relations: HashMap<String, Arc<Relation>>,
    stats: RwLock<HashMap<StatsKey, f64>>,
    epoch: u64,
}

impl Catalog {
    /// Create an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// The statistics epoch: bumped whenever a relation is replaced
    /// ([`insert`](Self::insert), [`successor_with`](Self::successor_with)),
    /// so plan caches can tell whether their statistics are current.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Register a relation under its own name, replacing any previous
    /// relation with that name, invalidating its cached statistics, and
    /// bumping the statistics epoch.
    pub fn insert(&mut self, relation: Relation) {
        let name = relation.name().to_string();
        self.stats_write().retain(|k, _| k.relation != name);
        self.epoch += 1;
        self.relations.insert(name, Arc::new(relation));
    }

    /// The statistics cache for reading.  A poisoned lock (a thread
    /// panicked while holding it) is taken over rather than propagated:
    /// the cache holds plain values, and every write under the lock is one
    /// insert or one retain, so no panic leaves an entry half made.
    fn stats_read(&self) -> RwLockReadGuard<'_, HashMap<StatsKey, f64>> {
        self.stats.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The statistics cache for writing; recovers a poisoned lock like
    /// [`stats_read`](Self::stats_read).
    fn stats_write(&self) -> RwLockWriteGuard<'_, HashMap<StatsKey, f64>> {
        self.stats.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up a relation by name.
    pub fn get(&self, name: &str) -> Result<Arc<Relation>, DataError> {
        self.relations
            .get(name)
            .cloned()
            .ok_or_else(|| DataError::UnknownRelation {
                name: name.to_string(),
            })
    }

    /// Names of all registered relations (unsorted).
    pub fn relation_names(&self) -> Vec<String> {
        self.relations.keys().cloned().collect()
    }

    /// Number of registered relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True when the catalog holds no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// `log₂ ‖deg_R(V | U)‖_p` for the named relation, computing and caching
    /// on first use.  Returns 0.0 (norm 1) for an empty relation so that the
    /// resulting bounds degenerate gracefully.
    pub fn log_norm(
        &self,
        relation: &str,
        v: &[&str],
        u: &[&str],
        norm: Norm,
    ) -> Result<f64, DataError> {
        Ok(self.log_norms(relation, v, u, &[norm])?[0])
    }

    /// [`log_norm`](Self::log_norm) for several norms of **one**
    /// conditional, positionally: `out[i] = log₂ ‖deg_R(V | U)‖_{norms[i]}`,
    /// bit-for-bit what the per-norm calls return.  The cache is probed for
    /// all norms under one read lock, and when any is missing the degree
    /// sequence is derived **once** and answers every missing norm — a
    /// collector asking for `{1, …, p, ∞}` pays one pass over the relation
    /// per conditional instead of one per norm.  Only the missing norms are
    /// computed and recorded; a cached value is returned as it stands.
    pub fn log_norms(
        &self,
        relation: &str,
        v: &[&str],
        u: &[&str],
        norms: &[Norm],
    ) -> Result<Vec<f64>, DataError> {
        let Some(&first) = norms.first() else {
            return Ok(Vec::new());
        };
        let mut key = StatsKey::new(relation, v, u, first);
        let mut values: Vec<Option<f64>> = {
            let stats = self.stats_read();
            norms
                .iter()
                .map(|&norm| {
                    key.norm_bits = norm_bits(norm);
                    stats.get(&key).copied()
                })
                .collect()
        };
        if values.iter().any(Option::is_none) {
            let deg = self.get(relation)?.degree_sequence(v, u)?;
            let computed = deg
                .log2_lp_norms(norms)
                .unwrap_or_else(|| vec![0.0; norms.len()]);
            for ((value, &norm), computed) in values.iter_mut().zip(norms).zip(computed) {
                if value.is_none() {
                    key.norm_bits = norm_bits(norm);
                    self.record_statistic(key.clone(), computed);
                    *value = Some(computed);
                }
            }
        }
        Ok(values.into_iter().flatten().collect())
    }

    /// Write one statistic into the cache, replacing any value the key
    /// held.  The value is served as it stands until the relation is
    /// replaced; the planner seeds a split part's counted statistics here.
    pub fn record_statistic(&self, key: StatsKey, value: f64) {
        self.stats_write().insert(key, value);
    }

    /// Number of cached statistics (for tests and instrumentation).
    pub fn cached_stats(&self) -> usize {
        self.stats_read().len()
    }

    /// A derived catalog: every relation of `self` is shared (by `Arc`, not
    /// copied) and `relation` is registered under its own name, replacing
    /// any relation previously bound to it.  Cached statistics of the
    /// replaced name are dropped; every other one is **cloned** into the
    /// derived catalog, so it starts warm and costs time and memory in
    /// proportion to the cache.
    ///
    /// This is how the partition-aware planner builds **per-part
    /// sub-catalogs**: one `derive_with(part)` per part per skew candidate
    /// of its partition search, each ready for per-part statistics
    /// collection and planning without touching the base catalog.  Only
    /// that search and tests call it; executing a partitioned plan binds
    /// each part without deriving a catalog.  Accepts an `Arc<Relation>`
    /// directly, so a part rebinds without copying a tuple.
    pub fn derive_with(&self, relation: impl Into<Arc<Relation>>) -> Catalog {
        let relation = relation.into();
        let name = relation.name().to_string();
        let mut relations = self.relations.clone();
        let mut stats = self.stats_read().clone();
        stats.retain(|k, _| k.relation != name);
        relations.insert(name, relation);
        Catalog {
            relations,
            stats: RwLock::new(stats),
            epoch: self.epoch,
        }
    }

    /// Like [`derive_with`](Self::derive_with), but **bumps the statistics
    /// epoch**: the successor is a genuinely newer catalog version, not a
    /// same-epoch view.  This is the write path of a long-lived service —
    /// build the successor off to the side (relations `Arc`-shared, the
    /// replaced name's cached statistics dropped), publish it with a
    /// pointer swap, and let every epoch-keyed cache (plan caches, LP shape
    /// caches) miss-and-refill against the new epoch.  Contrast
    /// `derive_with`, whose per-part sub-catalogs deliberately *keep* the
    /// epoch (they are alternate views of the same statistics version).
    pub fn successor_with(&self, relation: impl Into<Arc<Relation>>) -> Catalog {
        let mut successor = self.derive_with(relation);
        successor.epoch = self.epoch + 1;
        successor
    }

    /// Serialize every cached statistic to a plain-text catalog file, one
    /// line per statistic (`relation \t V \t U \t norm \t log₂-norm`, with
    /// attribute sets comma-joined), sorted for determinism.  Returns the
    /// number of lines written.  Values are written with Rust's
    /// shortest-roundtrip float formatting, so a
    /// [`load_statistics`](Self::load_statistics) of the file reproduces
    /// every cached value **bit for bit**.
    pub fn save_statistics<P: AsRef<Path>>(&self, path: P) -> Result<usize, DataError> {
        let stats = self.stats_read();
        let mut lines: Vec<String> = Vec::with_capacity(stats.len());
        for (key, &value) in stats.iter() {
            for name in std::iter::once(&key.relation)
                .chain(key.v.iter())
                .chain(key.u.iter())
            {
                if name.contains(['\t', '\n', '\r', ',']) {
                    return Err(DataError::Persistence {
                        reason: format!(
                            "name `{name}` contains a delimiter and cannot be serialized"
                        ),
                    });
                }
            }
            // The first field starts the line: a '#' prefix would read back
            // as a comment, and surrounding whitespace would not survive
            // the reader — refuse rather than roundtrip wrongly.
            if key.relation.starts_with('#') || key.relation.trim() != key.relation {
                return Err(DataError::Persistence {
                    reason: format!(
                        "relation name `{}` would not survive a save/load roundtrip",
                        key.relation
                    ),
                });
            }
            let norm = match key.norm() {
                Norm::Infinity => "inf".to_string(),
                Norm::Finite(p) => format!("{p:?}"),
            };
            lines.push(format!(
                "{}\t{}\t{}\t{}\t{:?}",
                key.relation,
                key.v.join(","),
                key.u.join(","),
                norm,
                value
            ));
        }
        lines.sort_unstable();
        let mut out = String::from("# lpbound statistics catalog v1\n");
        out.push_str("# relation\tV\tU\tnorm\tlog2_norm\n");
        for line in &lines {
            out.push_str(line);
            out.push('\n');
        }
        std::fs::write(path.as_ref(), out).map_err(|e| DataError::Persistence {
            reason: format!("writing `{}`: {e}", path.as_ref().display()),
        })?;
        Ok(lines.len())
    }

    /// Load a statistics catalog file written by
    /// [`save_statistics`](Self::save_statistics) into the cache, returning
    /// the number of statistics loaded.  Loaded entries are served exactly
    /// like computed ones, so a catalog whose statistics were collected in a
    /// previous run starts up without rescanning any relation.  Every line
    /// goes through [`record_statistic`](Self::record_statistic) and is
    /// counted; a loaded value replaces what the cache held for its key.
    pub fn load_statistics<P: AsRef<Path>>(&self, path: P) -> Result<usize, DataError> {
        let text = std::fs::read_to_string(path.as_ref()).map_err(|e| DataError::Persistence {
            reason: format!("reading `{}`: {e}", path.as_ref().display()),
        })?;
        let mut loaded = 0usize;
        for (lineno, line) in text.lines().enumerate() {
            // No trimming of content lines: field values are taken verbatim
            // (save_statistics refuses names that would not survive this).
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let malformed = |what: &str| DataError::Persistence {
                reason: format!("line {}: {what} in `{line}`", lineno + 1),
            };
            let fields: Vec<&str> = line.split('\t').collect();
            let [relation, v, u, norm, value] = fields[..] else {
                return Err(malformed("expected 5 tab-separated fields"));
            };
            fn split(s: &str) -> Vec<&str> {
                if s.is_empty() {
                    Vec::new()
                } else {
                    s.split(',').collect()
                }
            }
            let norm = if norm == "inf" {
                Norm::Infinity
            } else {
                Norm::Finite(
                    norm.parse::<f64>()
                        .map_err(|_| malformed("unparsable norm"))?,
                )
            };
            let value: f64 = value
                .parse()
                .map_err(|_| malformed("unparsable log2-norm value"))?;
            self.record_statistic(StatsKey::new(relation, &split(v), &split(u), norm), value);
            loaded += 1;
        }
        Ok(loaded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RelationBuilder;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.insert(RelationBuilder::binary_from_pairs(
            "R",
            "x",
            "y",
            vec![(1, 10), (1, 11), (2, 10)],
        ));
        c
    }

    #[test]
    fn insert_and_get() {
        let c = catalog();
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
        assert_eq!(c.get("R").unwrap().len(), 3);
        assert!(matches!(
            c.get("missing"),
            Err(DataError::UnknownRelation { .. })
        ));
        assert_eq!(c.relation_names(), vec!["R".to_string()]);
    }

    #[test]
    fn log_norm_computes_and_caches() {
        let c = catalog();
        // deg(y|x) = [2, 1]; l1 = 3, so log2 = log2(3).
        let v = c.log_norm("R", &["y"], &["x"], Norm::L1).unwrap();
        assert!((v - 3.0f64.log2()).abs() < 1e-12);
        assert_eq!(c.cached_stats(), 1);
        // Second call is served from cache (same value, same count).
        let v2 = c.log_norm("R", &["y"], &["x"], Norm::L1).unwrap();
        assert_eq!(v, v2);
        assert_eq!(c.cached_stats(), 1);
        // Infinity norm: max degree 2.
        let vinf = c.log_norm("R", &["y"], &["x"], Norm::Infinity).unwrap();
        assert!((vinf - 1.0).abs() < 1e-12);
        assert_eq!(c.cached_stats(), 2);
    }

    #[test]
    fn stats_key_normalizes_attribute_order_and_round_trips_norm() {
        let k1 = StatsKey::new("R", &["b", "a"], &["d", "c"], Norm::Finite(2.0));
        let k2 = StatsKey::new("R", &["a", "b"], &["c", "d"], Norm::Finite(2.0));
        assert_eq!(k1, k2);
        assert_eq!(k1.norm(), Norm::Finite(2.0));
        assert_eq!(
            StatsKey::new("R", &["a"], &[], Norm::Infinity).norm(),
            Norm::Infinity
        );
    }

    #[test]
    fn reinsert_invalidates_cache() {
        let mut c = catalog();
        c.log_norm("R", &["y"], &["x"], Norm::L1).unwrap();
        assert_eq!(c.cached_stats(), 1);
        c.insert(RelationBuilder::binary_from_pairs(
            "R",
            "x",
            "y",
            vec![(1, 10)],
        ));
        assert_eq!(c.cached_stats(), 0);
        let v = c.log_norm("R", &["y"], &["x"], Norm::L1).unwrap();
        assert!((v - 0.0).abs() < 1e-12);
    }

    #[test]
    fn empty_relation_norm_is_zero() {
        let mut c = Catalog::new();
        let b = RelationBuilder::new("E", ["a", "b"]).unwrap();
        c.insert(b.build());
        assert_eq!(c.log_norm("E", &["a"], &["b"], Norm::L2).unwrap(), 0.0);
    }

    #[test]
    fn derive_with_shares_relations_and_carries_the_cache() {
        let mut c = catalog();
        c.insert(RelationBuilder::binary_from_pairs(
            "S",
            "y",
            "z",
            vec![(10, 1), (11, 2)],
        ));
        c.log_norm("R", &["y"], &["x"], Norm::L1).unwrap();
        c.log_norm("S", &["z"], &["y"], Norm::L1).unwrap();
        assert_eq!(c.cached_stats(), 2);

        // Replace R by a one-row part: S's statistic carries over, R's is
        // dropped, and the base catalog is untouched.
        let part = RelationBuilder::binary_from_pairs("R", "x", "y", vec![(1, 10)]);
        let derived = c.derive_with(part);
        assert_eq!(derived.len(), 2);
        assert_eq!(derived.cached_stats(), 1);
        assert_eq!(derived.get("R").unwrap().len(), 1);
        assert_eq!(c.get("R").unwrap().len(), 3);
        assert_eq!(c.cached_stats(), 2);
        // Recomputing R's statistic on the derived catalog sees the part.
        let v = derived.log_norm("R", &["y"], &["x"], Norm::L1).unwrap();
        assert!((v - 0.0).abs() < 1e-12);
        // A relation under a fresh name is simply added.
        let extra = RelationBuilder::binary_from_pairs("T", "a", "b", vec![(7, 8)]);
        assert_eq!(c.derive_with(extra).len(), 3);
    }

    #[test]
    fn successor_with_bumps_the_epoch_where_derive_with_does_not() {
        let c = catalog();
        let epoch = c.epoch();
        let part = RelationBuilder::binary_from_pairs("R", "x", "y", vec![(1, 10)]);
        assert_eq!(c.derive_with(part).epoch(), epoch);
        let replacement = RelationBuilder::binary_from_pairs("R", "x", "y", vec![(2, 20)]);
        let successor = c.successor_with(replacement);
        assert_eq!(successor.epoch(), epoch + 1);
        assert_eq!(successor.get("R").unwrap().len(), 1);
        // The base catalog is untouched (the successor is built aside).
        assert_eq!(c.epoch(), epoch);
        assert_eq!(c.get("R").unwrap().len(), 3);
    }

    #[test]
    fn statistics_save_load_roundtrip_is_bit_identical() {
        let c = catalog();
        for norm in [Norm::L1, Norm::L2, Norm::Finite(3.0), Norm::Infinity] {
            c.log_norm("R", &["y"], &["x"], norm).unwrap();
        }
        c.log_norm("R", &["x", "y"], &[], Norm::L1).unwrap();
        let path = std::env::temp_dir().join("lpbound_catalog_roundtrip_test.stats");
        let written = c.save_statistics(&path).unwrap();
        assert_eq!(written, c.cached_stats());

        let loaded_catalog = catalog();
        assert_eq!(loaded_catalog.cached_stats(), 0);
        let loaded = loaded_catalog.load_statistics(&path).unwrap();
        assert_eq!(loaded, written);
        assert_eq!(loaded_catalog.cached_stats(), written);
        for norm in [Norm::L1, Norm::L2, Norm::Finite(3.0), Norm::Infinity] {
            let a = c.log_norm("R", &["y"], &["x"], norm).unwrap();
            let b = loaded_catalog.log_norm("R", &["y"], &["x"], norm).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "norm {norm:?} must roundtrip");
        }
        // Loading is cache-only: no recomputation happened above.
        assert_eq!(loaded_catalog.cached_stats(), written);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_statistics_files_are_reported() {
        let c = Catalog::new();
        assert!(matches!(
            c.load_statistics("/nonexistent/lpbound.stats"),
            Err(DataError::Persistence { .. })
        ));
        let path = std::env::temp_dir().join("lpbound_catalog_malformed_test.stats");
        std::fs::write(&path, "R\tx\t\tinf\n").unwrap(); // 4 fields, not 5
        assert!(matches!(
            c.load_statistics(&path),
            Err(DataError::Persistence { .. })
        ));
        std::fs::write(&path, "R\tx\t\tnotanorm\t1.0\n").unwrap();
        assert!(matches!(
            c.load_statistics(&path),
            Err(DataError::Persistence { .. })
        ));
        std::fs::write(&path, "R\tx\t\tinf\tnotanumber\n").unwrap();
        assert!(matches!(
            c.load_statistics(&path),
            Err(DataError::Persistence { .. })
        ));
        // Comments and blank lines are skipped.
        std::fs::write(&path, "# header\n\nR\tx\t\tinf\t2.5\n").unwrap();
        assert_eq!(c.load_statistics(&path).unwrap(), 1);
        std::fs::remove_file(&path).ok();
    }

    /// A cached entry is served exactly as it stands: `log_norms` derives
    /// only the misses from the rows and records nothing else.
    #[test]
    fn log_norms_fills_misses_and_serves_cached_entries_as_they_stand() {
        let mut c = catalog();
        c.insert(RelationBuilder::binary_from_pairs(
            "I",
            "y",
            "z",
            vec![(10, 1), (10, 2), (11, 1)],
        ));
        // A sentinel no derivation from the rows would give.
        let l2 = StatsKey::new("I", &["z"], &["y"], Norm::L2);
        c.record_statistic(l2, 42.0);
        let cached = c.cached_stats();

        let norms = [Norm::L1, Norm::L2, Norm::Finite(3.0), Norm::Infinity];
        let got = c.log_norms("I", &["z"], &["y"], &norms).unwrap();
        // The misses derived the degree sequence [2, 1]; the cached ℓ2
        // entry was served as it stands and not rewritten.
        assert_eq!(got[1], 42.0);
        assert!((got[0] - 3.0f64.log2()).abs() < 1e-12);
        assert!((got[2] - 9.0f64.log2() / 3.0).abs() < 1e-12);
        assert!((got[3] - 1.0).abs() < 1e-12);
        assert_eq!(c.log_norm("I", &["z"], &["y"], Norm::L2).unwrap(), 42.0);
        assert_eq!(c.cached_stats(), cached + 3);
        // Errors surface as from `log_norm`; no norms asks for nothing.
        assert!(c.log_norms("missing", &["z"], &["y"], &norms).is_err());
        assert!(c.log_norms("I", &[], &["y"], &norms).is_err());
        assert!(c
            .log_norms("missing", &["z"], &["y"], &[])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn names_that_cannot_roundtrip_are_rejected_at_save_time() {
        // A '#'-prefixed relation name would read back as a comment and a
        // whitespace-padded one would be skipped or re-keyed — both must be
        // save errors, never silent data loss.
        let path = std::env::temp_dir().join("lpbound_catalog_badnames_test.stats");
        for bad in ["#tmp", " R", "R ", "a,b", "a\tb"] {
            let mut c = Catalog::new();
            c.insert(RelationBuilder::binary_from_pairs(
                bad,
                "x",
                "y",
                vec![(1, 2)],
            ));
            c.log_norm(bad, &["y"], &["x"], Norm::L1).unwrap();
            assert!(
                matches!(c.save_statistics(&path), Err(DataError::Persistence { .. })),
                "name `{bad}` must be rejected"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_poisoned_statistics_lock_is_recovered() {
        let c = catalog();
        c.log_norm("R", &["y"], &["x"], Norm::L1).unwrap();
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                let _guard = c.stats.write().unwrap();
                panic!("injected panic while holding the statistics lock");
            });
            assert!(writer.join().is_err());
        });
        assert!(c.stats.is_poisoned());
        // Every path through the lock still works: a cached read, a miss
        // that computes and records, a direct write, the count, a derive.
        let l1 = c.log_norm("R", &["y"], &["x"], Norm::L1).unwrap();
        assert!((l1 - 3.0f64.log2()).abs() < 1e-12);
        let norms = c
            .log_norms("R", &["x"], &["y"], &[Norm::L1, Norm::Infinity])
            .unwrap();
        assert_eq!(norms, vec![3.0f64.log2(), 1.0]);
        assert_eq!(c.cached_stats(), 3);
        c.record_statistic(StatsKey::new("R", &["x"], &[], Norm::L1), 1.0);
        assert_eq!(c.cached_stats(), 4);
        let derived = c.derive_with(RelationBuilder::binary_from_pairs(
            "S",
            "y",
            "z",
            vec![(10, 1)],
        ));
        assert_eq!(derived.cached_stats(), 4);
        assert_eq!(
            derived.log_norm("S", &["y", "z"], &[], Norm::L1).unwrap(),
            0.0
        );
    }
}
