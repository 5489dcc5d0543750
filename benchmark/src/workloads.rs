//! The four workloads: set-up (inputs, reference, warm-up) and the timed
//! closed loop.  The benchmark sets no knob of the program: services,
//! optimizers and bounds run on their defaults.

use crate::inputs::{
    bound_is_sound, bound_log2_split, bound_slack_log2, generate, Inputs, Kind, Schedule,
};
use crate::stats;
use crate::trace::Recorder;
use lpb_exec::{execute_physical_mode, ExecMode, Optimizer};
use lpb_lp::SolverStats;
use lpb_serve::{QueryService, Worker};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// `serve-churn`: client 0 republishes a link table after every this many
/// requests it completes.
const REQUESTS_PER_PUBLISH: usize = 15;

/// One client's closed loop, cut into cycles that each visit every query of
/// the workload equally often, so every cycle is the same amount of work.
#[derive(Debug, Clone, Default)]
pub struct ClientCycles {
    pub ops_per_cycle: usize,
    pub cycle_s: Vec<f64>,
    /// One entry per operation attempted, in order; NaN where it failed.
    pub latencies_ms: Vec<f64>,
}

/// A stretch of whole cycles, the same stretch of every client's loop.
#[derive(Debug, Clone)]
pub struct Window {
    /// Operations answered correctly per second, summed over clients.
    pub qps: f64,
    /// Latencies of the operations that succeeded, ascending.
    pub latencies_ms: Vec<f64>,
}

/// One served request, as the traced run keeps it.
#[derive(Debug, Clone)]
pub struct Served {
    pub latency_ms: f64,
    pub hit: bool,
    /// `QueryResponse::plan_time`: admission to plan-in-hand.
    pub plan_time_ms: f64,
    /// `OptimizedPlan::plan_time`: the optimizer's own wall-clock.
    pub optimizer_ms: f64,
    pub batch: usize,
    pub batch_pivots: u64,
}

/// What a timed loop measured.
#[derive(Debug, Default)]
pub struct Timed {
    pub attempted: u64,
    pub failed: u64,
    pub clients: Vec<ClientCycles>,
    pub elapsed_s: f64,
    /// Operations that were plan-cache misses (serve workloads).
    pub misses: u64,
    pub publishes: u64,
    /// Per-request detail, traced runs only.
    pub served: Vec<Served>,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Process-wide LP work done inside the timed loop.
    pub lp: SolverStats,
}

impl Timed {
    /// The log of a single client about to start its loop.
    fn for_client(ops_per_cycle: usize) -> Timed {
        Timed {
            clients: vec![ClientCycles {
                ops_per_cycle,
                ..ClientCycles::default()
            }],
            ..Timed::default()
        }
    }

    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Latencies of every operation that succeeded, ascending.
    pub fn latencies_ms(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self
            .clients
            .iter()
            .flat_map(|c| &c.latencies_ms)
            .copied()
            .filter(|l| !l.is_nan())
            .collect();
        stats::sort(&mut all);
        all
    }

    /// Cut the loop into `at_most` stretches of whole cycles (fewer when it
    /// has fewer cycles).  A shared box only ever slows a stretch down, so
    /// the end-to-end timings are read off the good end of them.
    pub fn windows(&self, at_most: usize) -> Vec<Window> {
        let count = self
            .clients
            .iter()
            .map(|c| c.cycle_s.len().min(at_most))
            .min()
            .unwrap_or(0);
        (0..count)
            .map(|w| {
                let mut qps = 0.0;
                let mut latencies_ms = Vec::new();
                for c in &self.clients {
                    let cycles = w * c.cycle_s.len() / count..(w + 1) * c.cycle_s.len() / count;
                    let seconds: f64 = c.cycle_s[cycles.clone()].iter().sum();
                    let ops = cycles.start * c.ops_per_cycle..cycles.end * c.ops_per_cycle;
                    let before = latencies_ms.len();
                    latencies_ms.extend(c.latencies_ms[ops].iter().filter(|l| !l.is_nan()));
                    qps += (latencies_ms.len() - before) as f64 / seconds;
                }
                stats::sort(&mut latencies_ms);
                Window { qps, latencies_ms }
            })
            .collect()
    }

    /// Plain operations answered correctly over elapsed time.
    pub fn mean_qps(&self) -> f64 {
        self.succeeded() as f64 / self.elapsed_s
    }

    /// Operation done: `Ok(latency)` or why it failed.
    fn record(&mut self, outcome: Result<f64, String>) {
        self.attempted += 1;
        let log = &mut self.clients[0];
        match outcome {
            Ok(latency_ms) => log.latencies_ms.push(latency_ms),
            Err(message) => {
                log.latencies_ms.push(f64::NAN);
                self.failed += 1;
                self.keep_failure(message);
            }
        }
    }

    fn keep_failure(&mut self, message: String) {
        if self.failures.len() < 5 {
            self.failures.push(message);
        }
    }

    fn merge(&mut self, other: Timed) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.clients.extend(other.clients);
        self.misses += other.misses;
        self.publishes += other.publishes;
        self.served.extend(other.served);
        for failure in other.failures {
            self.keep_failure(failure);
        }
    }
}

/// What set-up establishes about a workload, besides warming it up.
pub struct Facts {
    pub inputs: Inputs,
    /// Sum over the workload's queries of the executed plan's largest
    /// intermediate; 1 where nothing is executed (`bound-only`).
    pub peak_rows: f64,
    /// Mean `log₂ bound − log₂ true count` over the workload's queries.
    pub bound_slack_log2: f64,
}

/// A workload after set-up: inputs generated, reference evaluated, one
/// warm-up pass done.
pub trait Workload {
    fn facts(&self) -> &Facts;

    /// The timed closed loop, recording spans when `recorder` is given.
    fn run(&self, seconds: f64, schedule: Schedule, recorder: Option<&mut Recorder>) -> Timed;

    /// The service behind a serve workload.
    fn service(&self) -> Option<&Arc<QueryService>> {
        None
    }
}

pub fn set_up(kind: Kind) -> Result<Box<dyn Workload>, String> {
    Ok(match kind {
        Kind::ServeSteady => Box::new(Serve::set_up(kind, false)?),
        Kind::ServeChurn => Box::new(Serve::set_up(kind, true)?),
        Kind::PlanCold => Box::new(PlanCold::set_up()?),
        Kind::BoundOnly => Box::new(BoundOnly::set_up()?),
    })
}

/// [`set_up`], with how long it took appended to `seconds`.
pub fn set_up_timed(kind: Kind, seconds: &mut Vec<f64>) -> Result<Box<dyn Workload>, String> {
    let t = Instant::now();
    let workload = set_up(kind)?;
    seconds.push(t.elapsed().as_secs_f64());
    Ok(workload)
}

/// Client threads of the serve workloads.
pub fn serve_clients() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ---------------------------------------------------------------- serve --

struct Serve {
    churn: bool,
    facts: Facts,
    service: Arc<QueryService>,
    /// Link tables of the served shapes, in name order: what `serve-churn`
    /// republishes, one after the other.
    link_tables: Vec<String>,
}

impl Serve {
    fn set_up(kind: Kind, churn: bool) -> Result<Self, String> {
        let mut inputs = Inputs::prepare(kind, generate(kind))?;
        // The reference has read the catalog; now the service takes it over.
        let catalog = Arc::into_inner(inputs.catalogs.pop().expect("one catalog"))
            .expect("the reference keeps no handle on the catalog");
        let service = Arc::new(QueryService::new(catalog));
        inputs.catalogs.push(service.snapshot());

        // Warm-up: every shape planned (and the process-wide LP skeletons
        // built) through the service, answers checked against the reference.
        let mut peak_rows = 0usize;
        for (i, query) in inputs.queries.iter().enumerate() {
            let response = service.execute(query).map_err(|e| e.to_string())?;
            if response.output_size as u128 != inputs.truths[i] {
                return Err(format!(
                    "warm-up: `{}` answered {} rows, the reference counts {}",
                    inputs.labels[i], response.output_size, inputs.truths[i]
                ));
            }
            let run = execute_physical_mode(
                query,
                inputs.catalog(i),
                &response.plan.physical,
                ExecMode::Vectorized,
            )
            .map_err(|e| e.to_string())?;
            peak_rows += run.max_intermediate();
        }
        let mut link_tables: Vec<String> = inputs
            .queries
            .iter()
            .flat_map(|q| q.atoms())
            .filter(|a| a.vars[0] == "M")
            .map(|a| a.relation.clone())
            .collect();
        link_tables.sort();
        link_tables.dedup();
        let bound_slack_log2 = bound_slack_log2(&inputs)?;
        Ok(Serve {
            churn,
            facts: Facts {
                inputs,
                peak_rows: peak_rows as f64,
                bound_slack_log2,
            },
            service,
            link_tables,
        })
    }

    /// One client's loop.  Client 0 of `serve-churn` also publishes.
    fn client(
        &self,
        client: usize,
        seconds: f64,
        schedule: Schedule,
        barrier: &Barrier,
        mut recorder: Option<Recorder>,
    ) -> (Timed, Option<Recorder>) {
        let inputs = &self.facts.inputs;
        let shapes = inputs.len();
        let publisher = self.churn && client == 0;
        // A publishing cycle spans a whole number of publishes and of
        // rotations, so every cycle is the same work.
        let cycle_len = if publisher {
            shapes * REQUESTS_PER_PUBLISH / gcd(shapes, REQUESTS_PER_PUBLISH)
        } else {
            shapes
        };
        let start_shape = schedule.start(client, shapes);
        let mut next_table = schedule.first_republished(self.link_tables.len());
        let worker = Worker::new(Arc::clone(&self.service));
        let mut timed = Timed::for_client(cycle_len);
        let mut request = (client as u64) << 48;
        barrier.wait();
        let started = Instant::now();
        loop {
            let cycle_started = Instant::now();
            for k in 0..cycle_len {
                let shape = (start_shape + k) % shapes;
                request += 1;
                let label = &inputs.labels[shape];
                let t0 = Instant::now();
                let result = worker.execute(&inputs.queries[shape]);
                let t1 = Instant::now();
                let outcome = match result {
                    Err(e) => Err(format!("{label}: {e}")),
                    Ok(r) if r.output_size as u128 != inputs.truths[shape] => Err(format!(
                        "{label}: {} rows, the reference counts {}",
                        r.output_size, inputs.truths[shape]
                    )),
                    Ok(r) if r.certificate_violations > 0 => Err(format!(
                        "{label}: {} certificate violations",
                        r.certificate_violations
                    )),
                    Ok(r) => {
                        timed.misses += u64::from(!r.cache_hit);
                        if let Some(rec) = recorder.as_mut() {
                            // The service reports when the plan was in hand;
                            // what follows is execution.
                            let planned = (t0 + r.plan_time).min(t1);
                            let root = rec.record("serve.request", t0, t1, None, request);
                            rec.record("serve.plan", t0, planned, Some(root), request);
                            rec.record("exec.run", planned, t1, Some(root), request);
                            timed.served.push(Served {
                                latency_ms: ms(t1 - t0),
                                hit: r.cache_hit,
                                plan_time_ms: ms(r.plan_time),
                                optimizer_ms: ms(r.plan.plan_time),
                                batch: r.coalesced_batch,
                                batch_pivots: r.plan_stats.total_pivots(),
                            });
                        }
                        Ok(ms(t1 - t0))
                    }
                };
                timed.record(outcome);
                if publisher && (k + 1) % REQUESTS_PER_PUBLISH == 0 {
                    let table = &self.link_tables[next_table];
                    next_table = (next_table + 1) % self.link_tables.len();
                    let p0 = Instant::now();
                    // Same rows, new statistics epoch: every cached plan
                    // goes stale and the table's statistics are re-harvested.
                    let relation = self
                        .service
                        .snapshot()
                        .get(table)
                        .expect("the warm-up pass joined this table");
                    self.service.replace_relation(relation);
                    timed.publishes += 1;
                    if let Some(rec) = recorder.as_mut() {
                        rec.record("data.publish", p0, Instant::now(), None, request);
                    }
                }
            }
            timed.clients[0]
                .cycle_s
                .push(cycle_started.elapsed().as_secs_f64());
            if started.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        (timed, recorder)
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl Workload for Serve {
    fn facts(&self) -> &Facts {
        &self.facts
    }

    fn service(&self) -> Option<&Arc<QueryService>> {
        Some(&self.service)
    }

    fn run(&self, seconds: f64, schedule: Schedule, mut recorder: Option<&mut Recorder>) -> Timed {
        let clients = serve_clients();
        let barrier = Barrier::new(clients);
        let lp_before = SolverStats::snapshot();
        let started = Instant::now();
        let results: Vec<(Timed, Option<Recorder>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|client| {
                    let own = recorder.as_ref().map(|r| r.sibling());
                    let barrier = &barrier;
                    scope.spawn(move || self.client(client, seconds, schedule, barrier, own))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut timed = Timed {
            elapsed_s: started.elapsed().as_secs_f64(),
            lp: SolverStats::snapshot().since(&lp_before),
            ..Timed::default()
        };
        for (client, own) in results {
            timed.merge(client);
            if let (Some(rec), Some(own)) = (recorder.as_mut(), own) {
                rec.absorb(own);
            }
        }
        timed
    }
}

// ------------------------------------------------------------ plan-cold --

struct PlanCold {
    facts: Facts,
}

impl PlanCold {
    fn set_up() -> Result<Self, String> {
        let inputs = Inputs::prepare(Kind::PlanCold, generate(Kind::PlanCold))?;
        let bound_slack_log2 = bound_slack_log2(&inputs)?;
        let mut workload = PlanCold {
            facts: Facts {
                inputs,
                peak_rows: 0.0,
                bound_slack_log2,
            },
        };
        let mut warm = Timed::for_client(workload.facts.inputs.len());
        let mut peak_rows = 0usize;
        for i in 0..workload.facts.inputs.len() {
            peak_rows += workload.op(i, 0, &mut warm, &mut None);
        }
        if let Some(failure) = warm.failures.first() {
            return Err(format!("warm-up: {failure}"));
        }
        workload.facts.peak_rows = peak_rows as f64;
        Ok(workload)
    }

    /// Plan query `i` on a fresh optimizer, execute the plan, check the
    /// answer.  Returns the executed plan's largest intermediate.
    fn op(
        &self,
        i: usize,
        request: u64,
        timed: &mut Timed,
        recorder: &mut Option<&mut Recorder>,
    ) -> usize {
        let inputs = &self.facts.inputs;
        let (query, catalog) = (&inputs.queries[i], inputs.catalog(i));
        let label = &inputs.labels[i];
        let t0 = Instant::now();
        let plan = Optimizer::new().plan(query, catalog);
        let t1 = Instant::now();
        let run = plan
            .as_ref()
            .ok()
            .map(|p| execute_physical_mode(query, catalog, &p.physical, ExecMode::Vectorized));
        let t2 = Instant::now();
        if let Some(rec) = recorder.as_mut() {
            let root = rec.record("request", t0, t2, None, request);
            rec.record("exec.plan", t0, t1, Some(root), request);
            rec.record("exec.run", t1, t2, Some(root), request);
        }
        let mut peak = 0;
        timed.record(match (plan, run) {
            (Err(e), _) => Err(format!("{label}: plan: {e}")),
            (Ok(_), Some(Err(e))) => Err(format!("{label}: execute: {e}")),
            (Ok(_), Some(Ok(run))) if run.output_size() as u128 != inputs.truths[i] => {
                Err(format!(
                    "{label}: {} rows, the reference counts {}",
                    run.output_size(),
                    inputs.truths[i]
                ))
            }
            (Ok(_), Some(Ok(run))) if run.certificate_violations() > 0 => Err(format!(
                "{label}: {} certificate violations",
                run.certificate_violations()
            )),
            (Ok(_), Some(Ok(run))) => {
                peak = run.max_intermediate();
                Ok(ms(t2 - t0))
            }
            (Ok(_), None) => unreachable!("a plan that succeeded is executed"),
        });
        peak
    }
}

impl Workload for PlanCold {
    fn facts(&self) -> &Facts {
        &self.facts
    }

    fn run(&self, seconds: f64, schedule: Schedule, mut recorder: Option<&mut Recorder>) -> Timed {
        library_loop(
            self.facts.inputs.len(),
            seconds,
            schedule,
            |i, request, timed| {
                self.op(i, request, timed, &mut recorder);
            },
        )
    }
}

// ----------------------------------------------------------- bound-only --

struct BoundOnly {
    facts: Facts,
}

impl BoundOnly {
    fn set_up() -> Result<Self, String> {
        let inputs = Inputs::prepare(Kind::BoundOnly, generate(Kind::BoundOnly))?;
        // The warm-up pass is the slack computation: one bound per query,
        // which also fills the catalog's statistics cache.
        let bound_slack_log2 = bound_slack_log2(&inputs)?;
        Ok(BoundOnly {
            facts: Facts {
                inputs,
                peak_rows: 1.0,
                bound_slack_log2,
            },
        })
    }
}

impl Workload for BoundOnly {
    fn facts(&self) -> &Facts {
        &self.facts
    }

    fn run(&self, seconds: f64, schedule: Schedule, mut recorder: Option<&mut Recorder>) -> Timed {
        let inputs = &self.facts.inputs;
        library_loop(inputs.len(), seconds, schedule, |i, request, timed| {
            let label = &inputs.labels[i];
            let t0 = Instant::now();
            let (harvested, result) = bound_log2_split(&inputs.queries[i], inputs.catalog(i));
            let t1 = Instant::now();
            if let Some(rec) = recorder.as_mut() {
                let root = rec.record("request", t0, t1, None, request);
                rec.record("data.stats", t0, harvested, Some(root), request);
                rec.record("core.bound", harvested, t1, Some(root), request);
            }
            timed.record(match result {
                Err(e) => Err(format!("{label}: {e}")),
                Ok(log2) if !bound_is_sound(log2, inputs.truths[i]) => Err(format!(
                    "{label}: bound 2^{log2} is below the true count {}",
                    inputs.truths[i]
                )),
                Ok(_) => Ok(ms(t1 - t0)),
            });
        })
    }
}

/// The single-threaded closed loop of the library workloads: whole passes
/// over the `len` queries, starting where the schedule says, until the time
/// is up.
fn library_loop(
    len: usize,
    seconds: f64,
    schedule: Schedule,
    mut op: impl FnMut(usize, u64, &mut Timed),
) -> Timed {
    let mut timed = Timed::for_client(len);
    let start = schedule.start(0, len);
    let lp_before = SolverStats::snapshot();
    let started = Instant::now();
    let mut request = 0;
    loop {
        let cycle_started = Instant::now();
        for k in 0..len {
            request += 1;
            op((start + k) % len, request, &mut timed);
        }
        timed.clients[0]
            .cycle_s
            .push(cycle_started.elapsed().as_secs_f64());
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    timed.elapsed_s = started.elapsed().as_secs_f64();
    timed.lp = SolverStats::snapshot().since(&lp_before);
    timed
}
