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
//! Two system-catalog features ride on top of the cache:
//!
//! * **Derived sub-catalogs** ([`Catalog::derive_with`]) — a cheap copy that
//!   shares every relation by `Arc` but rebinds one name to a new relation
//!   (e.g. one part of a degree partition), carrying over every cached
//!   statistic that is still valid.  The partition-aware planner derives one
//!   sub-catalog per part and plans against it.
//! * **Persistence** ([`Catalog::save_statistics`] /
//!   [`Catalog::load_statistics`]) — the cache serializes to a plain-text
//!   catalog file (one statistic per line) and loads back bit-for-bit, so a
//!   system can collect statistics once and start up from the file without
//!   rescanning any relation.
//! * **Observed-statistics feedback** ([`Catalog::absorb_observed`]) — an
//!   adaptive executor that materialized an intermediate knows that
//!   intermediate's statistics *exactly* (they are ℓp-norms of real rows,
//!   not estimates).  `absorb_observed` derives a catalog with the observed
//!   relation registered, its standard statistics computed and flagged
//!   **exact**, and the statistics **epoch** bumped.  Exact entries are
//!   write-protected: [`Catalog::record_statistic`] refuses to overwrite
//!   them with non-exact values (recomputed approximations, stale persisted
//!   files) until the relation itself is replaced, which clears the flags
//!   and bumps the epoch again.

use crate::error::DataError;
use crate::norms::Norm;
use crate::relation::Relation;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::{Arc, RwLock};

/// The statistics cache: cached values plus the subset of keys whose values
/// are **exact** (observed from real rows, not estimated or loaded from a
/// possibly-stale file) and therefore write-protected against non-exact
/// overwrites within the current epoch.
#[derive(Debug, Default, Clone)]
struct StatsCache {
    values: HashMap<StatsKey, f64>,
    exact: HashSet<StatsKey>,
}

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
    stats: RwLock<StatsCache>,
    epoch: u64,
}

impl Catalog {
    /// Create an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// The statistics epoch: bumped whenever a relation is replaced
    /// ([`insert`](Self::insert)) or observed statistics are absorbed
    /// ([`absorb_observed`](Self::absorb_observed)), so plan caches and
    /// re-planners can tell whether their statistics are current.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Register a relation under its own name, replacing any previous
    /// relation with that name, invalidating its cached statistics (and
    /// their exactness flags), and bumping the statistics epoch.
    pub fn insert(&mut self, relation: Relation) {
        let name = relation.name().to_string();
        let mut stats = self.stats.write().expect("statistics cache lock poisoned");
        stats.values.retain(|k, _| k.relation != name);
        stats.exact.retain(|k| k.relation != name);
        drop(stats);
        self.epoch += 1;
        self.relations.insert(name, Arc::new(relation));
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
    /// per conditional instead of one per norm.  Computed values go through
    /// [`record_statistic`](Self::record_statistic) as non-exact writes, so
    /// exact observed entries stay protected.
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
            let stats = self.stats.read().expect("statistics cache lock poisoned");
            norms
                .iter()
                .map(|&norm| {
                    key.norm_bits = norm_bits(norm);
                    stats.values.get(&key).copied()
                })
                .collect()
        };
        if values.iter().any(Option::is_none) {
            let deg = self.get(relation)?.degree_sequence(v, u)?;
            for (value, &norm) in values.iter_mut().zip(norms) {
                if value.is_none() {
                    let computed = deg.log2_lp_norm(norm).unwrap_or(0.0);
                    key.norm_bits = norm_bits(norm);
                    self.record_statistic(key.clone(), computed, false);
                    *value = Some(computed);
                }
            }
        }
        Ok(values.into_iter().flatten().collect())
    }

    /// Write one statistic into the cache.  Non-exact writes (recomputed
    /// approximations, values loaded from a possibly-stale file) are
    /// **refused** when the key already holds an exact observed value —
    /// returns `false` and keeps the exact entry.  Exact writes always land
    /// and flag the key exact.
    pub fn record_statistic(&self, key: StatsKey, value: f64, exact: bool) -> bool {
        let mut stats = self.stats.write().expect("statistics cache lock poisoned");
        if !exact && stats.exact.contains(&key) {
            return false;
        }
        if exact {
            stats.exact.insert(key.clone());
        }
        stats.values.insert(key, value);
        true
    }

    /// Number of cached statistics (for tests and instrumentation).
    pub fn cached_stats(&self) -> usize {
        self.stats
            .read()
            .expect("statistics cache lock poisoned")
            .values
            .len()
    }

    /// Number of cached statistics flagged exact (observed, not estimated).
    pub fn exact_stats(&self) -> usize {
        self.stats
            .read()
            .expect("statistics cache lock poisoned")
            .exact
            .len()
    }

    /// Drop every **non-exact** cached statistic of one relation, forcing
    /// recomputation from the relation's actual rows on next use.  Exact
    /// observed entries survive (they are already the truth).  Returns the
    /// number of entries dropped.  This is what a *cold* re-plan does to
    /// recover from stale persisted statistics — the adaptive path instead
    /// absorbs observed intermediates and re-bounds only what they touch.
    pub fn refresh_statistics(&self, relation: &str) -> usize {
        let mut stats = self.stats.write().expect("statistics cache lock poisoned");
        let before = stats.values.len();
        let exact = std::mem::take(&mut stats.exact);
        stats
            .values
            .retain(|k, _| k.relation != relation || exact.contains(k));
        stats.exact = exact;
        before - stats.values.len()
    }

    /// A derived catalog: every relation of `self` is shared (by `Arc`, not
    /// copied) and `relation` is registered under its own name, replacing
    /// any relation previously bound to it.  Cached statistics of the
    /// replaced name are dropped; everything else carries over, so a
    /// derived catalog starts warm.
    ///
    /// This is how the partition-aware planner builds **per-part
    /// sub-catalogs**: one `derive_with(part)` per part of a degree
    /// partition, each ready for per-part statistics collection and
    /// planning without touching the base catalog.  Accepts an
    /// `Arc<Relation>` directly so a part carried inside a plan rebinds in
    /// O(1) — no tuple copy per execution.
    pub fn derive_with(&self, relation: impl Into<Arc<Relation>>) -> Catalog {
        let relation = relation.into();
        let name = relation.name().to_string();
        let mut relations = self.relations.clone();
        let mut stats = self
            .stats
            .read()
            .expect("statistics cache lock poisoned")
            .clone();
        stats.values.retain(|k, _| k.relation != name);
        stats.exact.retain(|k| k.relation != name);
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

    /// Feed an **observed** relation (a materialized intermediate whose
    /// rows are known exactly) back into the catalog: a derived catalog is
    /// returned with the relation registered, its standard statistics
    /// (`Norm::standard_set(max_norm)` conditionals, a superset of what the
    /// planner harvests) computed from the actual rows and flagged
    /// **exact**, and the statistics epoch bumped.  Chainable: absorbing
    /// several intermediates derives through each in turn.
    ///
    /// Exact entries are write-protected until the relation is replaced —
    /// see [`record_statistic`](Self::record_statistic) — so a collector
    /// re-materializing the same relation in the same epoch can never
    /// regress them to approximations.
    pub fn absorb_observed(
        &self,
        relation: impl Into<Arc<Relation>>,
        max_norm: u32,
    ) -> Result<Catalog, DataError> {
        let relation = relation.into();
        let name = relation.name().to_string();
        let mut derived = self.derive_with(relation);
        derived.epoch = self.epoch + 1;
        let set = crate::stats::StatisticsCollector::standard(max_norm)
            .materialize_relation(&derived, &name)?;
        {
            let mut stats = derived
                .stats
                .write()
                .expect("statistics cache lock poisoned");
            for entry in set.entries() {
                stats.exact.insert(entry.key.clone());
            }
        }
        Ok(derived)
    }

    /// Serialize every cached statistic to a plain-text catalog file, one
    /// line per statistic (`relation \t V \t U \t norm \t log₂-norm`, with
    /// attribute sets comma-joined), sorted for determinism.  Returns the
    /// number of lines written.  Values are written with Rust's
    /// shortest-roundtrip float formatting, so a
    /// [`load_statistics`](Self::load_statistics) of the file reproduces
    /// every cached value **bit for bit**.
    pub fn save_statistics<P: AsRef<Path>>(&self, path: P) -> Result<usize, DataError> {
        let stats = self.stats.read().expect("statistics cache lock poisoned");
        let mut lines: Vec<String> = Vec::with_capacity(stats.values.len());
        for (key, &value) in stats.values.iter() {
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
    /// previous run starts up without rescanning any relation.  Loads go
    /// through [`record_statistic`](Self::record_statistic) as non-exact
    /// writes: a possibly-stale file can never clobber exact observed
    /// statistics (refused entries are not counted).
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
            if self.record_statistic(
                StatsKey::new(relation, &split(v), &split(u), norm),
                value,
                false,
            ) {
                loaded += 1;
            }
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

    #[test]
    fn absorb_observed_flags_exact_statistics_and_bumps_the_epoch() {
        let c = catalog();
        assert_eq!(c.epoch(), 1); // one insert
        let observed =
            RelationBuilder::binary_from_pairs("I", "y", "z", vec![(10, 1), (10, 2), (11, 1)]);
        let absorbed = c.absorb_observed(observed, 4).unwrap();
        assert_eq!(absorbed.epoch(), c.epoch() + 1);
        assert!(absorbed.exact_stats() > 0);
        // The observed statistics are the truth: deg_I(z|y) has ℓ∞ = 2.
        let linf = absorbed
            .log_norm("I", &["z"], &["y"], Norm::Infinity)
            .unwrap();
        assert!((linf - 1.0).abs() < 1e-12);
        // Exact entries refuse non-exact overwrites within the epoch...
        let key = StatsKey::new("I", &["z"], &["y"], Norm::Infinity);
        assert!(!absorbed.record_statistic(key.clone(), 99.0, false));
        assert_eq!(
            absorbed
                .log_norm("I", &["z"], &["y"], Norm::Infinity)
                .unwrap(),
            linf
        );
        // ...and survive a stale statistics file load untouched.
        let path = std::env::temp_dir().join("lpbound_catalog_stale_exact_test.stats");
        std::fs::write(&path, "I\tz\ty\tinf\t99.0\n").unwrap();
        assert_eq!(absorbed.load_statistics(&path).unwrap(), 0);
        assert_eq!(
            absorbed
                .log_norm("I", &["z"], &["y"], Norm::Infinity)
                .unwrap(),
            linf
        );
        std::fs::remove_file(&path).ok();
        // A collector re-materializing the relation in the same epoch hits
        // the cache and cannot regress the exact values either.
        let set = crate::stats::StatisticsCollector::standard(4)
            .materialize_relation(&absorbed, "I")
            .unwrap();
        assert_eq!(
            set.log_norm("I", &["z"], &["y"], Norm::Infinity),
            Some(linf)
        );
        // Replacing the relation clears the flags and bumps the epoch.
        let mut absorbed = absorbed;
        let epoch = absorbed.epoch();
        absorbed.insert(RelationBuilder::binary_from_pairs(
            "I",
            "y",
            "z",
            vec![(1, 2)],
        ));
        assert_eq!(absorbed.epoch(), epoch + 1);
        assert_eq!(absorbed.exact_stats(), 0);
        assert!(absorbed.record_statistic(key, 99.0, false));
    }

    #[test]
    fn log_norms_fills_misses_without_touching_exact_entries() {
        let c = catalog();
        let observed =
            RelationBuilder::binary_from_pairs("I", "y", "z", vec![(10, 1), (10, 2), (11, 1)]);
        // ℓ1, ℓ2, ℓ∞ of I's conditionals are now exact; ℓ3 is not cached.
        let absorbed = c.absorb_observed(observed, 2).unwrap();
        let (exact, cached) = (absorbed.exact_stats(), absorbed.cached_stats());
        // Mark the exact ℓ2 entry with a value no recomputation would give.
        let l2 = StatsKey::new("I", &["z"], &["y"], Norm::L2);
        assert!(absorbed.record_statistic(l2, 42.0, true));

        let norms = [Norm::L1, Norm::L2, Norm::Finite(3.0), Norm::Infinity];
        let got = absorbed.log_norms("I", &["z"], &["y"], &norms).unwrap();
        // The ℓ3 miss derived the degree sequence [2, 1]; the exact ℓ2
        // entry was served as it stands and not rewritten.
        assert_eq!(got[1], 42.0);
        assert!((got[0] - 3.0f64.log2()).abs() < 1e-12);
        assert!((got[2] - 9.0f64.log2() / 3.0).abs() < 1e-12);
        assert!((got[3] - 1.0).abs() < 1e-12);
        assert_eq!(
            absorbed.log_norm("I", &["z"], &["y"], Norm::L2).unwrap(),
            42.0
        );
        assert_eq!(absorbed.exact_stats(), exact);
        assert_eq!(absorbed.cached_stats(), cached + 1);
        // Errors surface as from `log_norm`; no norms asks for nothing.
        assert!(absorbed
            .log_norms("missing", &["z"], &["y"], &norms)
            .is_err());
        assert!(absorbed.log_norms("I", &[], &["y"], &norms).is_err());
        assert!(absorbed
            .log_norms("missing", &["z"], &["y"], &[])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn refresh_statistics_drops_only_non_exact_entries() {
        let c = catalog();
        // Poison R's cache with a lie (as a stale persisted file would).
        let lie = StatsKey::new("R", &["y"], &["x"], Norm::L1);
        assert!(c.record_statistic(lie.clone(), 99.0, false));
        assert!((c.log_norm("R", &["y"], &["x"], Norm::L1).unwrap() - 99.0).abs() < 1e-12);
        // An exact entry on the same relation survives the refresh.
        let exact = StatsKey::new("R", &["x"], &["y"], Norm::Infinity);
        assert!(c.record_statistic(exact.clone(), 1.5, true));
        assert_eq!(c.refresh_statistics("R"), 1);
        assert_eq!(c.exact_stats(), 1);
        // The lie is gone: the next read recomputes the truth from rows.
        let truth = c.log_norm("R", &["y"], &["x"], Norm::L1).unwrap();
        assert!((truth - 3.0f64.log2()).abs() < 1e-12);
        assert!((c.log_norm("R", &["x"], &["y"], Norm::Infinity).unwrap() - 1.5).abs() < 1e-12);
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
}
