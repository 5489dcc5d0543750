//! The `lpb-serve` query service end to end: a resident [`QueryService`]
//! over the JOB-like catalog, serving threads with per-thread snapshot
//! readers, the plan cache's hit path, a live epoch-bumping publish,
//! cross-query LP coalescing, and per-worker column-buffer recycling.
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
//! 3. **Coalescing** — eight client threads fire cache-missing shapes at
//!    once; requests landing in the same gather window are planned one
//!    after the other on their leader's thread while the rest wait
//!    (`coalesced_batch ≥ 2`).
//! 4. **Buffer recycling** — one worker rotates over the shapes three
//!    times.  The first rotation fills its free list of large column
//!    buffers from the allocator; after that every large column is a
//!    reused one (`buffers_fresh` stops moving, `exec_time` drops), and
//!    dropping the worker releases all of it.
//!
//! ```text
//! cargo run --release --example serve
//! ```

use lpbound::datagen::{job_like_catalog, job_like_queries, JobLikeConfig};
use lpbound::serve::{QueryService, ServeConfig, ServeError, Worker};
use std::sync::Arc;
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

    let service = Arc::new(QueryService::with_config(
        ServeConfig {
            gather_window: Duration::from_millis(2),
            ..ServeConfig::default()
        },
        catalog,
    ));

    // 1. Cold, then hot: the plan cache turns repeat shapes into map probes.
    let q = &queries[0];
    let cold = service.execute(q)?;
    let hot = service.execute(q)?;
    println!("query {q}");
    println!(
        "  cold: {:>9.1}us plan, {} LP pivots, batch of {}, {} rows",
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

    // 3. Eight workers fire distinct cache-missing shapes together; the
    //    gather window folds concurrent misses into shared planning rounds.
    std::thread::scope(|scope| {
        for i in 0..8usize {
            let service = Arc::clone(&service);
            let q = queries[i % queries.len()].clone();
            scope.spawn(move || {
                let worker = Worker::new(service);
                let resp = worker.execute(&q).expect("served request");
                println!(
                    "  worker {i}: {} — batch of {}, hit: {}, {} rows",
                    q.name(),
                    resp.coalesced_batch,
                    resp.cache_hit,
                    resp.output_size,
                );
            });
        }
    });

    // 4. One worker, three rotations: large columns come from the worker's
    //    free list once it has seen the shapes.
    println!();
    let worker = Worker::new(Arc::clone(&service));
    for rotation in 1..=3 {
        let before = service.stats();
        let mut exec_time = Duration::ZERO;
        for q in &queries {
            exec_time += worker.execute(q)?.exec_time;
        }
        let after = service.stats();
        println!(
            "  rotation {rotation}: {:>6.1}ms executing, {:>3} large buffers fresh, \
             {:>3} reused, {:.1} MiB retained",
            exec_time.as_secs_f64() * 1e3,
            after.buffers_fresh - before.buffers_fresh,
            after.buffers_reused - before.buffers_reused,
            after.bytes_retained as f64 / (1 << 20) as f64,
        );
    }
    drop(worker);
    println!(
        "  worker dropped: {} bytes retained",
        service.stats().bytes_retained
    );

    let stats = service.stats();
    println!(
        "\nservice: {} requests, {} hits / {} misses, {} batches \
         (max {}, {} multi-request), {} publishes, epoch {}, {} violations",
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
