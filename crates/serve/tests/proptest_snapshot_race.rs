//! S4 — snapshot-catalog concurrency property: readers racing a writer's
//! publishes always see a **complete** catalog version, never a torn one,
//! and every query finishes on the snapshot it was admitted on with zero
//! certificate violations.
//!
//! The oracle is epoch-consistency: every catalog version has a distinct
//! statistics epoch and a precomputed true answer per query shape.  A
//! response must report `(epoch, output)` pairs that match — an executor
//! that ever observed a half-published catalog (some relations old, some
//! new, or a relation mid-replace) would produce an output matching no
//! version, or an output inconsistent with the epoch it claims, or trip a
//! bound certificate planned from different statistics.  Randomization
//! covers version contents, version counts, and writer pacing.

use lpb_core::JoinQuery;
use lpb_data::{Catalog, Relation, RelationBuilder};
use lpb_exec::true_cardinality;
use lpb_serve::{QueryService, Worker};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A deterministic edge relation for one catalog version.
fn version_relation(seed: u64, edges: usize) -> Relation {
    let mut x = seed | 1;
    let pairs = (0..edges).map(move |_| {
        // SplitMix-ish stream; domain 12 keeps triangle counts interesting.
        x = x
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0xBF58_476D_1CE4_E5B9);
        ((x >> 7) % 12, (x >> 29) % 12)
    });
    RelationBuilder::binary_from_pairs("E", "a", "b", pairs)
}

fn queries() -> Vec<JoinQuery> {
    vec![
        JoinQuery::triangle("E", "E", "E"),
        JoinQuery::path(&["E", "E"]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn racing_readers_always_see_complete_epoch_consistent_snapshots(
        seeds in proptest::collection::vec(1u64..1_000_000, 3..6),
        edges in 24usize..60,
        writer_pause_us in 200u64..1500,
    ) {
        let versions: Vec<Relation> =
            seeds.iter().map(|&s| version_relation(s, edges)).collect();

        // Each publish bumps the epoch by exactly one, so version i lives
        // at epoch `base + i` (the base epoch accounts for the bumps the
        // initial catalog's own inserts made).  The oracle: epoch → the
        // true answer of each query on that version.
        let mut expected: Vec<Vec<u128>> = Vec::new();
        for v in &versions {
            let mut c = Catalog::new();
            c.insert(v.clone());
            expected.push(
                queries()
                    .iter()
                    .map(|q| true_cardinality(q, &c).unwrap())
                    .collect(),
            );
        }

        let mut initial = Catalog::new();
        initial.insert(versions[0].clone());
        let service = Arc::new(QueryService::new(initial));
        let base_epoch = service.snapshot().epoch();

        let done = AtomicBool::new(false);
        let observations: Vec<(u64, usize, usize, usize)> = std::thread::scope(|scope| {
            let mut readers = Vec::new();
            for r in 0..3usize {
                let service = Arc::clone(&service);
                let done = &done;
                readers.push(scope.spawn(move || {
                    let worker = Worker::new(service);
                    let qs = queries();
                    let mut seen = Vec::new();
                    let mut i = r; // stagger which query each reader starts on
                    // Keep reading until the writer finishes, then once more
                    // so the final version is observed too.
                    while !done.load(Ordering::Acquire) && seen.len() < 400 {
                        let q = &qs[i % qs.len()];
                        let resp = worker.execute(q).unwrap();
                        seen.push((
                            resp.epoch,
                            i % qs.len(),
                            resp.output_size,
                            resp.certificate_violations,
                        ));
                        i += 1;
                    }
                    let resp = worker.execute(&qs[0]).unwrap();
                    seen.push((resp.epoch, 0, resp.output_size, resp.certificate_violations));
                    seen
                }));
            }
            // The writer publishes every successor version, pausing so the
            // readers genuinely interleave with the swaps.
            for v in &versions[1..] {
                std::thread::sleep(Duration::from_micros(writer_pause_us));
                service.replace_relation(v.clone());
            }
            std::thread::sleep(Duration::from_micros(writer_pause_us));
            done.store(true, Ordering::Release);
            readers
                .into_iter()
                .flat_map(|r| r.join().unwrap())
                .collect()
        });

        prop_assert!(!observations.is_empty());
        let mut epochs_seen = std::collections::BTreeSet::new();
        for (epoch, q_idx, output, violations) in observations {
            prop_assert_eq!(violations, 0, "certificate violation under a racing writer");
            prop_assert!(epoch >= base_epoch);
            let version = (epoch - base_epoch) as usize;
            prop_assert!(
                version < expected.len(),
                "response claims epoch {} but only {} versions were published",
                epoch,
                expected.len()
            );
            prop_assert_eq!(
                output as u128,
                expected[version][q_idx],
                "output does not match the claimed epoch {} — torn snapshot?",
                epoch
            );
            epochs_seen.insert(epoch);
        }
        // The final version was definitely observed (the post-done read).
        prop_assert!(epochs_seen.contains(&(base_epoch + (versions.len() - 1) as u64)));
        prop_assert_eq!(service.stats().certificate_violations, 0);
        prop_assert_eq!(service.stats().publishes, (versions.len() - 1) as u64);
    }
}
