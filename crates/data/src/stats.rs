//! Eager materialization of ℓp-norm degree statistics.
//!
//! The paper assumes every ℓp-norm a bound computation needs is precomputed
//! (§1.2, §2.1), and [`Catalog::log_norm`] honours that lazily: the first
//! request pays for a degree-sequence scan, later requests are cache hits.
//! [`StatisticsCollector`] is the eager counterpart, for callers that want
//! a relation's whole standard set at once — persisting a catalog's
//! statistics, the workload generators' stale-statistics snapshots: it
//! walks a relation's *simple* conditionals — `(rest | x)` for every
//! attribute `x`, plus the cardinality conditionals `(all | ∅)` and
//! `({x} | ∅)` — and materializes
//! `log₂ ‖deg(V|U)‖_p` for a configurable norm set
//! ([`Norm::standard_set`] by default) into the catalog's cache and into a
//! [`StatisticsSet`] snapshot with direct lookup.  Each conditional's norms
//! come from one [`Catalog::log_norms`] call, i.e. one degree-sequence pass
//! over the relation per conditional, whatever the size of the norm set.
//! (The planner itself reads lazily, once per atom of the query, and only
//! the conditionals on join variables.)
//!
//! After [`StatisticsCollector::materialize_catalog`] runs, every plan-time
//! statistics harvest over base relations is a pure hash-map lookup.

use crate::catalog::{Catalog, StatsKey};
use crate::degree::DegreeSequence;
use crate::error::DataError;
use crate::norms::Norm;
use crate::relation::Relation;
use std::collections::HashMap;

/// One materialized statistic: its identifying key and the value
/// `log₂ ‖deg_R(V|U)‖_p`.
#[derive(Debug, Clone, PartialEq)]
pub struct StatisticEntry {
    /// Relation, attribute sets and norm identifying the statistic.
    pub key: StatsKey,
    /// `log₂` of the ℓp-norm.
    pub log_norm: f64,
}

/// A materialized set of degree-sequence statistics (the data-level
/// counterpart of the bound engine's abstract statistics set): every entry
/// the collector computed, with direct lookup by key.
#[derive(Debug, Clone, Default)]
pub struct StatisticsSet {
    entries: Vec<StatisticEntry>,
    index: HashMap<StatsKey, f64>,
}

impl StatisticsSet {
    /// The entries in collection order.
    pub fn entries(&self) -> &[StatisticEntry] {
        &self.entries
    }

    /// Number of materialized statistics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was materialized.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up `log₂ ‖deg_relation(v|u)‖_norm`, if it was materialized.
    pub fn log_norm(&self, relation: &str, v: &[&str], u: &[&str], norm: Norm) -> Option<f64> {
        self.index
            .get(&StatsKey::new(relation, v, u, norm))
            .copied()
    }

    fn push(&mut self, key: StatsKey, log_norm: f64) {
        self.index.insert(key.clone(), log_norm);
        self.entries.push(StatisticEntry { key, log_norm });
    }
}

/// A relation's simple statistics before any norm is taken: its number of
/// rows and, per attribute `x` by schema position, the degree sequence
/// `deg(rest | x)` — whose length is `|Π_x|`.  Whoever counts them (a
/// degree split counts its parts' while it routes their rows) holds them
/// for a relation with distinct rows, where these are its statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimpleStatistics {
    rows: u64,
    degrees: Vec<DegreeSequence>,
}

impl SimpleStatistics {
    /// `rows` rows and `degrees[x] = deg(rest | x)`, one per attribute.
    pub fn new(rows: u64, degrees: Vec<DegreeSequence>) -> Self {
        SimpleStatistics { rows, degrees }
    }

    /// The entries [`StatisticsCollector::with_norms`]`(norms)` would
    /// materialize for `relation`, the relation these statistics describe,
    /// in the same order and bit for bit: each value is the same
    /// [`DegreeSequence::log2_lp_norm`] of the same multiset of degrees,
    /// computed by the same code as the catalog's.
    pub fn entries(&self, relation: &Relation, norms: &[Norm]) -> Vec<StatisticEntry> {
        let name = relation.name();
        let attrs: Vec<&str> = (0..relation.arity())
            .map(|pos| relation.schema().name(pos))
            .collect();
        let l1 = |count: u64| {
            DegreeSequence::from_counts(vec![count])
                .log2_lp_norm(Norm::L1)
                .unwrap_or(0.0)
        };
        let mut out = Vec::with_capacity(1 + attrs.len() * (1 + norms.len()));
        let mut push = |v: &[&str], u: &[&str], norm: Norm, log_norm: f64| {
            out.push(StatisticEntry {
                key: StatsKey::new(name, v, u, norm),
                log_norm,
            });
        };
        push(&attrs, &[], Norm::L1, l1(self.rows));
        let mut rest = Vec::with_capacity(attrs.len());
        for (pos, degrees) in self.degrees.iter().enumerate() {
            let x = [attrs[pos]];
            push(&x, &[], Norm::L1, l1(degrees.len() as u64));
            if attrs.len() < 2 {
                continue;
            }
            rest.clear();
            rest.extend(
                attrs
                    .iter()
                    .enumerate()
                    .filter(|&(p, _)| p != pos)
                    .map(|(_, a)| *a),
            );
            let values = degrees
                .log2_lp_norms(norms)
                .unwrap_or_else(|| vec![0.0; norms.len()]);
            for (&norm, value) in norms.iter().zip(values) {
                push(&rest, &x, norm, value);
            }
        }
        out
    }
}

/// Materializes degree sequences and their ℓp-norms for whole relations (or
/// catalogs) ahead of time; see the module docs.
#[derive(Debug, Clone)]
pub struct StatisticsCollector {
    norms: Vec<Norm>,
}

impl StatisticsCollector {
    /// A collector over [`Norm::standard_set`]`(max_p)` — the norms
    /// `{1, …, max_p, ∞}` the paper's experiments use.
    pub fn standard(max_p: u32) -> Self {
        StatisticsCollector {
            norms: Norm::standard_set(max_p),
        }
    }

    /// A collector over an explicit norm list.
    pub fn with_norms(norms: Vec<Norm>) -> Self {
        StatisticsCollector { norms }
    }

    /// The norms this collector materializes per degree conditional.
    pub fn norms(&self) -> &[Norm] {
        &self.norms
    }

    /// Materialize every simple statistic of one relation into the
    /// catalog's cache, returning the computed entries.
    ///
    /// Per attribute `x` this records `‖deg(rest | x)‖_p` for every
    /// configured norm (the degree conditionals), plus the ℓ1 cardinalities
    /// `‖deg(all | ∅)‖₁ = |R|` and `‖deg({x} | ∅)‖₁ = |Π_x R|`.
    pub fn materialize_relation(
        &self,
        catalog: &Catalog,
        relation: &str,
    ) -> Result<StatisticsSet, DataError> {
        let rel = catalog.get(relation)?;
        let attrs: Vec<String> = rel.schema().attrs().to_vec();
        let all: Vec<&str> = attrs.iter().map(String::as_str).collect();
        let mut out = StatisticsSet::default();

        let b = catalog.log_norm(relation, &all, &[], Norm::L1)?;
        out.push(StatsKey::new(relation, &all, &[], Norm::L1), b);

        for x in &attrs {
            let x_ref = [x.as_str()];
            let b = catalog.log_norm(relation, &x_ref, &[], Norm::L1)?;
            out.push(StatsKey::new(relation, &x_ref, &[], Norm::L1), b);

            let rest: Vec<&str> = attrs
                .iter()
                .filter(|a| *a != x)
                .map(String::as_str)
                .collect();
            if rest.is_empty() {
                continue;
            }
            let bs = catalog.log_norms(relation, &rest, &x_ref, &self.norms)?;
            for (&norm, b) in self.norms.iter().zip(bs) {
                out.push(StatsKey::new(relation, &rest, &x_ref, norm), b);
            }
        }
        Ok(out)
    }

    /// Materialize every relation of the catalog (see
    /// [`materialize_relation`](Self::materialize_relation)); entries of all
    /// relations land in one combined set.
    pub fn materialize_catalog(&self, catalog: &Catalog) -> Result<StatisticsSet, DataError> {
        let mut names = catalog.relation_names();
        names.sort();
        let mut out = StatisticsSet::default();
        for name in names {
            let one = self.materialize_relation(catalog, &name)?;
            for e in one.entries {
                out.push(e.key, e.log_norm);
            }
        }
        Ok(out)
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
            vec![(1, 10), (1, 11), (2, 10), (3, 12)],
        ));
        c.insert(RelationBuilder::binary_from_pairs(
            "S",
            "y",
            "z",
            vec![(10, 7), (11, 7)],
        ));
        c
    }

    #[test]
    fn materializes_cardinalities_and_degree_norms() {
        let c = catalog();
        let collector = StatisticsCollector::standard(3);
        let set = collector.materialize_relation(&c, "R").unwrap();
        // 1 atom cardinality + per attribute (1 unary + 4 norms) = 1 + 2·5.
        assert_eq!(set.len(), 11);
        assert!(!set.is_empty());
        // |R| = 4.
        let card = set.log_norm("R", &["x", "y"], &[], Norm::L1).unwrap();
        assert!((card - 4.0f64.log2()).abs() < 1e-12);
        // deg(y|x) = [2, 1, 1]: ℓ1 = 4, ℓ∞ = 2.
        let l1 = set.log_norm("R", &["y"], &["x"], Norm::L1).unwrap();
        assert!((l1 - 4.0f64.log2()).abs() < 1e-12);
        let linf = set.log_norm("R", &["y"], &["x"], Norm::Infinity).unwrap();
        assert!((linf - 1.0).abs() < 1e-12);
        // Attribute order in the lookup key is normalized.
        assert_eq!(
            set.log_norm("R", &["y", "x"], &[], Norm::L1),
            set.log_norm("R", &["x", "y"], &[], Norm::L1)
        );
        assert_eq!(set.log_norm("R", &["y"], &["x"], Norm::Finite(9.0)), None);
    }

    #[test]
    fn materialization_prewarms_the_catalog_cache() {
        let c = catalog();
        assert_eq!(c.cached_stats(), 0);
        let set = StatisticsCollector::standard(2)
            .materialize_catalog(&c)
            .unwrap();
        let warmed = c.cached_stats();
        assert_eq!(warmed, set.len());
        // Re-reading any entry is served from the cache (count unchanged).
        for e in set.entries() {
            let v: Vec<&str> = e.key.v.iter().map(String::as_str).collect();
            let u: Vec<&str> = e.key.u.iter().map(String::as_str).collect();
            let again = c.log_norm(&e.key.relation, &v, &u, e.key.norm()).unwrap();
            assert_eq!(again, e.log_norm);
        }
        assert_eq!(c.cached_stats(), warmed);
    }

    #[test]
    fn unknown_relation_is_reported() {
        let c = catalog();
        let collector = StatisticsCollector::with_norms(vec![Norm::L2]);
        assert!(collector.materialize_relation(&c, "MISSING").is_err());
        assert_eq!(collector.norms(), &[Norm::L2]);
    }
}
