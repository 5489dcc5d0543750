//! The `lpb-serve` query service end to end: a resident [`QueryService`]
//! over the JOB-like catalog, serving threads with per-thread snapshot
//! readers, the plan cache's hit path, a live epoch-bumping publish,
//! single-flight planning of cache misses, and a worker's steady state.
//!
//! The walkthrough:
//!
//! 1. **Cold vs hot** — the first request for a shape pays the full LP +
//!    DP planning batch; the second is one canonicalization, one map
//!    probe, one `Arc` clone (watch `plan_time` collapse and `plan_stats`
//!    go to zero pivots).
//! 2. **Publish** — replacing a relation builds a successor catalog aside
//!    and publishes it with a pointer swap.  The statistics epoch bumps,
//!    so every cached plan keyed to the old epoch silently stops matching;
//!    the next request re-plans against the new statistics and in-flight
//!    requests finish on their admission snapshots (zero certificate
//!    violations, by construction).
//! 3. **Single flight** — eight workers fire one cold shape at once: one of
//!    them plans it and the others that miss wait for that plan, so the
//!    service computes one plan and every request of the flight reports
//!    the same `coalesced_batch` (8 when all eight probe before the plan
//!    lands; a worker that arrives later hits).  Then four workers fire
//!    four distinct cold shapes, which plan side by side, each a flight of
//!    one.
//! 4. **One worker, three rotations** — one worker rotates over the six
//!    shapes three times and prints the execution time per rotation.  A
//!    request answers with its output's size, so the output is counted and
//!    never materialized, and every shape here is served by a Yannakakis
//!    chain that is counted step by step as well: its largest columns are
//!    its reduced relations' (≤ 1 113 rows), and every join key in it is a
//!    dense dictionary code, found in a slot table rather than a hash map.
//!    A rotation executes in 0.9–1.6 ms on a 2-vCPU VM (30 rotations over
//!    ten runs, median ~1.5 ms).
//!
//! ```text
//! cargo run --release --example serve
//! ```

use lpbound::datagen::{job_like_catalog, job_like_queries, JobLikeConfig};
use lpbound::serve::{QueryService, ServeError, Worker};
use lpbound::JoinQuery;
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn main() -> Result<(), ServeError> {
    let catalog = job_like_catalog(&JobLikeConfig {
        movies: 1_000,
        link_fanout: 2,
        seed: 23,
        ..JobLikeConfig::default()
    });
    let queries: Vec<_> = job_like_queries()
        .into_iter()
        .take(6)
        .map(|q| q.query)
        .collect();

    let service = Arc::new(QueryService::new(catalog));

    // 1. Cold, then hot: the plan cache turns repeat shapes into map probes.
    let q = &queries[0];
    let cold = service.execute(q)?;
    let hot = service.execute(q)?;
    println!("query {q}");
    println!(
        "  cold: {:>9.1}us plan, {} LP pivots, flight of {}, {} rows",
        cold.plan_time.as_secs_f64() * 1e6,
        cold.plan_stats.total_pivots(),
        cold.coalesced_batch,
        cold.output_size,
    );
    println!(
        "  hot:  {:>9.1}us plan, {} LP pivots, cache hit: {}, same plan: {}",
        hot.plan_time.as_secs_f64() * 1e6,
        hot.plan_stats.total_pivots(),
        hot.cache_hit,
        Arc::ptr_eq(&cold.plan, &hot.plan),
    );

    // 2. A publish bumps the statistics epoch and invalidates every cached
    //    plan — the next request re-plans against the new snapshot.
    let relation = service.snapshot().get(&q.atoms()[0].relation)?;
    let epoch = service.replace_relation(relation);
    let replanned = service.execute(q)?;
    println!(
        "\npublished epoch {epoch}: cache hit now {}, re-planned in {:.1}us, \
         {} violations",
        replanned.cache_hit,
        replanned.plan_time.as_secs_f64() * 1e6,
        replanned.certificate_violations,
    );

    // 3. Concurrent misses of one key share one planning flight; misses of
    //    distinct keys plan side by side.
    let fire = |shapes: &[JoinQuery]| {
        let before = service.stats().batches;
        let start = Barrier::new(shapes.len());
        std::thread::scope(|scope| {
            for (i, q) in shapes.iter().enumerate() {
                let service = Arc::clone(&service);
                let start = &start;
                scope.spawn(move || {
                    let worker = Worker::new(service);
                    start.wait();
                    let resp = worker.execute(q).expect("served request");
                    let how = match resp.coalesced_batch {
                        0 => "cache hit".to_string(),
                        n => format!("flight of {n}"),
                    };
                    println!(
                        "  worker {i}: {} — {how}, {} rows",
                        q.name(),
                        resp.output_size
                    );
                });
            }
        });
        service.stats().batches - before
    };
    println!("\none cold shape, eight workers:");
    let planned = fire(&vec![queries[1].clone(); 8]);
    println!("  {planned} plan computed");
    println!("four distinct cold shapes, four workers:");
    let planned = fire(&queries[2..]);
    println!("  {planned} plans computed");

    // 4. One worker, three rotations over the six shapes: every request is
    //    a cache hit, so what is left is counting the output.
    println!();
    let worker = Worker::new(Arc::clone(&service));
    for rotation in 1..=3 {
        let mut exec_time = Duration::ZERO;
        for q in &queries {
            exec_time += worker.execute(q)?.exec_time;
        }
        println!(
            "  rotation {rotation}: {:>6.1}ms executing",
            exec_time.as_secs_f64() * 1e3,
        );
    }

    let stats = service.stats();
    println!(
        "\nservice: {} requests, {} hits / {} misses, {} plans computed \
         (largest flight {}, {} shared), {} publishes, epoch {}, {} violations",
        stats.requests,
        stats.cache_hits,
        stats.cache_misses,
        stats.batches,
        stats.max_batch,
        stats.multi_request_batches,
        stats.publishes,
        stats.epoch,
        stats.certificate_violations,
    );
    assert_eq!(stats.certificate_violations, 0);
    Ok(())
}
