//! The four workloads' inputs, their reference answers, and the request
//! schedule derived from `--seed`.
//!
//! The *data* is generated from a fixed generator seed and `--seed` drives
//! only the request schedule.  On the JOB-like catalog a different data seed
//! changes which plan the optimizer picks per shape and with it a shape's
//! execution time by up to 2x, which is wider than any regression bound this
//! benchmark could then fix.  The schedule (where each client starts its
//! rotation, which link table is republished first) is what a seed can vary
//! without changing the amount of work in a run.

use crate::reference::{elimination_count, hash_join_count};
use lpb_core::{collect_simple_statistics, compute_bound, CollectConfig, Cone, JoinQuery};
use lpb_data::Catalog;
use lpb_datagen::{job_like_catalog, job_like_queries, planner_workloads, JobLikeConfig};
use std::sync::Arc;
use std::time::Instant;

/// Generator seed of every JOB-like catalog (the legacy emitters' value).
const DATA_SEED: u64 = 23;

/// The norm budget the planner itself uses (`PlannerConfig::default().max_norm`).
pub fn collect_config() -> CollectConfig {
    CollectConfig::with_max_norm(4)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ServeSteady,
    ServeChurn,
    PlanCold,
    BoundOnly,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::ServeSteady,
        Kind::ServeChurn,
        Kind::PlanCold,
        Kind::BoundOnly,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeSteady => "serve-steady",
            Kind::ServeChurn => "serve-churn",
            Kind::PlanCold => "plan-cold",
            Kind::BoundOnly => "bound-only",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Does the workload go through the planner and executor at all?
    pub fn plans(self) -> bool {
        self != Kind::BoundOnly
    }
}

/// Generated catalogs and the queries over them, before any reference
/// evaluation.  `catalog_of[i]` is the catalog query `i` runs on.
pub struct Data {
    pub catalogs: Vec<Catalog>,
    pub queries: Vec<JoinQuery>,
    pub labels: Vec<String>,
    pub catalog_of: Vec<usize>,
}

fn job_catalog(movies: usize) -> Catalog {
    job_like_catalog(&JobLikeConfig {
        movies,
        link_fanout: 2,
        seed: DATA_SEED,
        ..JobLikeConfig::default()
    })
}

pub fn generate(kind: Kind) -> Data {
    let job = |movies: usize, take: usize| {
        let queries: Vec<JoinQuery> = job_like_queries()
            .into_iter()
            .take(take)
            .map(|q| q.query)
            .collect();
        Data {
            catalogs: vec![job_catalog(movies)],
            labels: queries.iter().map(|q| q.name().to_string()).collect(),
            catalog_of: vec![0; queries.len()],
            queries,
        }
    };
    match kind {
        Kind::ServeSteady => job(1000, 6),
        Kind::ServeChurn => job(200, 6),
        Kind::BoundOnly => job(500, usize::MAX),
        Kind::PlanCold => {
            let mut data = Data {
                catalogs: Vec::new(),
                queries: Vec::new(),
                labels: Vec::new(),
                catalog_of: Vec::new(),
            };
            for w in planner_workloads(4) {
                data.catalog_of.push(data.catalogs.len());
                data.catalogs.push(w.catalog);
                data.queries.push(w.query);
                data.labels.push(w.name.to_string());
            }
            data
        }
    }
}

/// A workload's inputs with their reference answers.
pub struct Inputs {
    pub catalogs: Vec<Arc<Catalog>>,
    pub queries: Vec<JoinQuery>,
    pub labels: Vec<String>,
    pub catalog_of: Vec<usize>,
    /// True answer count per query, from the bench-owned reference.
    pub truths: Vec<u128>,
}

impl Inputs {
    /// Evaluate the reference: the naive hash join where answers are
    /// executed (served shapes, planner adversaries), the count-only
    /// elimination for the 33 acyclic bound-only queries.
    pub fn prepare(kind: Kind, data: Data) -> Result<Inputs, String> {
        let mut truths = Vec::with_capacity(data.queries.len());
        for (query, &c) in data.queries.iter().zip(&data.catalog_of) {
            let catalog = &data.catalogs[c];
            let truth = if kind == Kind::BoundOnly {
                elimination_count(query, catalog)?
            } else {
                hash_join_count(query, catalog)?
            };
            if truth == 0 {
                return Err(format!("`{}` has no answers to check", query.name()));
            }
            truths.push(truth);
        }
        Ok(Inputs {
            catalogs: data.catalogs.into_iter().map(Arc::new).collect(),
            queries: data.queries,
            labels: data.labels,
            catalog_of: data.catalog_of,
            truths,
        })
    }

    pub fn len(&self) -> usize {
        self.queries.len()
    }

    pub fn catalog(&self, query: usize) -> &Catalog {
        &self.catalogs[self.catalog_of[query]]
    }
}

/// The bound-only operation: harvest the query's simple statistics, pick a
/// cone, solve the bound LP.  Returns when the harvest ended (the boundary
/// between the `lpb-data` and `lpb-core` spans) and `log₂` of the bound.
pub fn bound_log2_split(query: &JoinQuery, catalog: &Catalog) -> (Instant, Result<f64, String>) {
    let stats = collect_simple_statistics(query, catalog, &collect_config());
    let harvested = Instant::now();
    let bound = stats.map_err(|e| e.to_string()).and_then(|stats| {
        let cone = Cone::auto(query, &stats);
        let bound = compute_bound(query, &stats, cone).map_err(|e| e.to_string())?;
        if !bound.is_bounded() {
            return Err(format!("`{}` is unbounded", query.name()));
        }
        Ok(bound.log2_bound)
    });
    (harvested, bound)
}

pub fn bound_log2(query: &JoinQuery, catalog: &Catalog) -> Result<f64, String> {
    bound_log2_split(query, catalog).1
}

/// A bound below the true count (beyond rounding) is a wrong answer.
pub fn bound_is_sound(log2_bound: f64, truth: u128) -> bool {
    log2_bound >= (truth as f64).log2() - 1e-6
}

/// Mean over the workload's queries of `log₂ bound − log₂ true count`.
pub fn bound_slack_log2(inputs: &Inputs) -> Result<f64, String> {
    let mut total = 0.0;
    for (i, query) in inputs.queries.iter().enumerate() {
        let log2_bound = bound_log2(query, inputs.catalog(i))?;
        if !bound_is_sound(log2_bound, inputs.truths[i]) {
            return Err(format!(
                "`{}`: bound 2^{log2_bound} is below the true count {}",
                inputs.labels[i], inputs.truths[i]
            ));
        }
        total += log2_bound - (inputs.truths[i] as f64).log2();
    }
    Ok(total / inputs.len() as f64)
}

/// What `--seed` decides.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    seed: u64,
}

impl Schedule {
    pub fn new(seed: u64) -> Self {
        Schedule { seed }
    }

    /// SplitMix64 of the seed and a stream number.
    fn draw(&self, stream: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Where `client` starts its rotation through `len` queries.
    pub fn start(&self, client: usize, len: usize) -> usize {
        (self.draw(client as u64) % len as u64) as usize
    }

    /// Which of `len` link tables `serve-churn` republishes first.
    pub fn first_republished(&self, len: usize) -> usize {
        (self.draw(u64::MAX) % len as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_schedule() {
        let a = Schedule::new(7);
        let b = Schedule::new(7);
        assert_eq!(a.start(0, 6), b.start(0, 6));
        assert_eq!(a.start(1, 33), b.start(1, 33));
        assert_eq!(a.first_republished(7), b.first_republished(7));
        let starts: std::collections::BTreeSet<usize> =
            (0..64).map(|s| Schedule::new(s).start(0, 6)).collect();
        assert_eq!(starts.len(), 6, "seeds reach every start offset");
    }

    #[test]
    fn every_workload_has_the_queries_its_description_names() {
        assert_eq!(generate(Kind::ServeSteady).queries.len(), 6);
        assert_eq!(generate(Kind::ServeChurn).queries.len(), 6);
        assert_eq!(generate(Kind::BoundOnly).queries.len(), 33);
        let cold = generate(Kind::PlanCold);
        assert_eq!(
            cold.labels,
            [
                "skewed-triangle",
                "misleading-chain",
                "bridged-chains",
                "partition-skew",
                "large-mixed-12"
            ]
        );
        for kind in Kind::ALL {
            assert_eq!(Kind::from_name(kind.name()), Some(kind));
        }
    }

    #[test]
    fn bound_soundness_allows_rounding_only() {
        assert!(bound_is_sound(10.0, 1024));
        assert!(bound_is_sound(10.0 - 1e-7, 1024));
        assert!(!bound_is_sound(9.99, 1024));
    }
}
