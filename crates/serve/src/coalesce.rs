//! Cross-query coalescing: concurrent cache-missing plan requests are
//! planned by one thread, one after the other.
//!
//! Left alone, concurrent misses would each plan on their own thread at
//! once.  The [`Coalescer`] gathers them with a **gather window**: the first
//! cache-missing request opens a *round* and becomes its leader; requests
//! arriving while the leader waits out the window join as followers; the
//! leader then plans the sealed round's requests in arrival order on its
//! own thread — [`lpb_exec::Optimizer::plan`] per request, every LP solved
//! cold — and every participant receives its shared plan.  A round saves no
//! solver work over its requests planned apart; what it fixes is who plans
//! (one thread per round, the others wait instead of competing for cores)
//! and what is accounted (one exact [`SolverStats`] delta per round).  A
//! leader that panics while planning fails the whole round with a typed
//! error instead of leaving its followers to time out.  See the crate docs
//! for the window semantics.

use crate::ServeError;
use lpb_core::JoinQuery;
use lpb_data::Catalog;
use lpb_exec::OptimizedPlan;
use lpb_lp::SolverStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How long a follower waits for its round's leader before giving up.  A
/// leader plans synchronously and publishes a failure if it unwinds, so
/// hitting this means the leader thread wedged — a bug, not a load
/// condition.
const ROUND_TIMEOUT: Duration = Duration::from_secs(30);

/// One gather round: the requests collected during the window, and the
/// results the leader eventually publishes (plus the whole round's solver
/// stats measured on the leader's thread).
struct Round {
    state: Mutex<RoundState>,
    cv: Condvar,
}

struct RoundState {
    requests: Vec<(JoinQuery, Arc<Catalog>)>,
    #[allow(clippy::type_complexity)]
    results: Option<(Vec<Result<Arc<OptimizedPlan>, ServeError>>, SolverStats)>,
}

/// What one coalesced plan request resolved to: the shared plan, the size
/// of the batch it rode in, and the batch's solver-work accounting.
#[derive(Debug, Clone)]
pub struct CoalescedPlan {
    /// The planned (and by now cached) plan for this request's query.
    pub plan: Arc<OptimizedPlan>,
    /// Number of requests folded into the same batch (≥ 1; this request
    /// included).
    pub batch_size: usize,
    /// True when this request led the round (and therefore did the
    /// planning work on its own thread).
    pub leader: bool,
    /// Solver work of the **whole batch**, measured as a thread-local
    /// delta on the leader's thread.  Shared verbatim by every follower of
    /// the round: the batch is the unit of work a coalesced request waits
    /// on, so per-request attribution below batch granularity would be
    /// fiction.
    pub batch_stats: SolverStats,
}

/// The gather-window coalescer; see the module docs for the protocol.
///
/// Lock ordering: `current` before a round's `state`, always — followers
/// push into the round while still holding `current`, so once the leader
/// detaches the round from `current`, the batch is frozen and the leader
/// can read it without racing late joiners.
#[derive(Debug)]
pub struct Coalescer {
    window: Duration,
    current: Mutex<Option<Arc<Round>>>,
    batches: AtomicU64,
    coalesced_requests: AtomicU64,
    multi_request_batches: AtomicU64,
    max_batch: AtomicU64,
}

/// Held by a leader while it plans its sealed round: if the leader unwinds
/// before publishing, every slot of the round gets a typed failure and the
/// followers are woken, instead of each sitting out [`ROUND_TIMEOUT`].
struct LeaderGuard<'a> {
    round: &'a Round,
    slots: usize,
    published: bool,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if self.published {
            return;
        }
        // Runs while unwinding, so it must not panic: a poisoned round lock
        // is taken anyway (`results` is one store, valid at every step).
        let mut st = self
            .round
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if st.results.is_none() {
            let failed = Err(ServeError::new(
                "the coalescing round's leader panicked while planning",
            ));
            st.results = Some((vec![failed; self.slots], SolverStats::default()));
        }
        drop(st);
        self.round.cv.notify_all();
    }
}

impl std::fmt::Debug for Round {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Round").finish_non_exhaustive()
    }
}

impl Coalescer {
    /// A coalescer gathering for `window` per round.  Zero disables
    /// gathering (every request leads a singleton round) without changing
    /// semantics.
    pub fn new(window: Duration) -> Self {
        Coalescer {
            window,
            current: Mutex::new(None),
            batches: AtomicU64::new(0),
            coalesced_requests: AtomicU64::new(0),
            multi_request_batches: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
        }
    }

    /// The configured gather window.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// Submit one cache-missing plan request.  Blocks until the request's
    /// round is planned — by this thread if it leads the round (in which
    /// case `plan_batch` is invoked once with the entire frozen batch, and
    /// must return one result per batch entry, positionally), or by the
    /// round's leader otherwise.
    pub fn submit<F>(
        &self,
        query: JoinQuery,
        catalog: Arc<Catalog>,
        plan_batch: F,
    ) -> Result<CoalescedPlan, ServeError>
    where
        F: FnOnce(&[(JoinQuery, Arc<Catalog>)]) -> Vec<Result<Arc<OptimizedPlan>, ServeError>>,
    {
        // Join the open round, or open one and lead it.  A follower pushes
        // while holding `current`, so a sealed round can never gain
        // members.
        let (round, index, leader) = {
            let mut current = self.current.lock().expect("coalescer lock poisoned");
            match &*current {
                Some(round) => {
                    let round = Arc::clone(round);
                    let index = {
                        let mut st = round.state.lock().expect("round lock poisoned");
                        st.requests.push((query, catalog));
                        st.requests.len() - 1
                    };
                    (round, index, false)
                }
                None => {
                    let round = Arc::new(Round {
                        state: Mutex::new(RoundState {
                            requests: vec![(query, catalog)],
                            results: None,
                        }),
                        cv: Condvar::new(),
                    });
                    *current = Some(Arc::clone(&round));
                    (round, 0, true)
                }
            }
        };

        if leader {
            if !self.window.is_zero() {
                std::thread::sleep(self.window);
            }
            // Seal the round: later arrivals open a fresh one.
            {
                let mut current = self.current.lock().expect("coalescer lock poisoned");
                if current.as_ref().is_some_and(|r| Arc::ptr_eq(r, &round)) {
                    *current = None;
                }
            }
            let requests = {
                let st = round.state.lock().expect("round lock poisoned");
                st.requests.clone()
            };
            let n = requests.len() as u64;
            self.batches.fetch_add(1, Ordering::Relaxed);
            self.coalesced_requests.fetch_add(n, Ordering::Relaxed);
            if n >= 2 {
                self.multi_request_batches.fetch_add(1, Ordering::Relaxed);
            }
            self.max_batch.fetch_max(n, Ordering::Relaxed);

            // Plan outside every lock; measure the round's solver work as
            // a thread-local delta (exact: the optimizer solves every LP on
            // the calling thread).
            let mut guard = LeaderGuard {
                round: &round,
                slots: requests.len(),
                published: false,
            };
            let (results, stats) = SolverStats::on_thread(|| plan_batch(&requests));
            debug_assert_eq!(results.len(), requests.len());

            let mut st = round.state.lock().expect("round lock poisoned");
            st.results = Some((results, stats));
            round.cv.notify_all();
            guard.published = true;
            let (results, stats) = st.results.as_ref().expect("just published");
            let plan = results[index].clone()?;
            Ok(CoalescedPlan {
                plan,
                batch_size: results.len(),
                leader: true,
                batch_stats: *stats,
            })
        } else {
            let st = round.state.lock().expect("round lock poisoned");
            let (st, timeout) = round
                .cv
                .wait_timeout_while(st, ROUND_TIMEOUT, |s| s.results.is_none())
                .expect("round lock poisoned");
            if timeout.timed_out() {
                return Err(ServeError::new(
                    "coalescing round timed out waiting for its leader",
                ));
            }
            let (results, stats) = st.results.as_ref().expect("woken with results");
            let plan = results[index].clone()?;
            Ok(CoalescedPlan {
                plan,
                batch_size: results.len(),
                leader: false,
                batch_stats: *stats,
            })
        }
    }

    /// Rounds planned so far.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Requests that went through a round (batch sizes summed).
    pub fn coalesced_requests(&self) -> u64 {
        self.coalesced_requests.load(Ordering::Relaxed)
    }

    /// Rounds that gathered ≥ 2 requests — actual cross-query coalescing.
    pub fn multi_request_batches(&self) -> u64 {
        self.multi_request_batches.load(Ordering::Relaxed)
    }

    /// The largest batch any round gathered.
    pub fn max_batch(&self) -> u64 {
        self.max_batch.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpb_data::RelationBuilder;
    use lpb_exec::Optimizer;
    use std::sync::mpsc;
    use std::time::Instant;

    fn catalog() -> Arc<Catalog> {
        let mut c = Catalog::new();
        c.insert(RelationBuilder::binary_from_pairs(
            "E",
            "a",
            "b",
            (0..60u64).map(|i| (i % 10, (i * 7 + 1) % 10)),
        ));
        Arc::new(c)
    }

    /// What a leader does with its round: plan each request in turn.
    fn plan_each(
        optimizer: &Optimizer,
        round: &[(JoinQuery, Arc<Catalog>)],
    ) -> Vec<Result<Arc<OptimizedPlan>, ServeError>> {
        round
            .iter()
            .map(|(q, c)| Ok(Arc::new(optimizer.plan(q, c)?)))
            .collect()
    }

    #[test]
    fn a_singleton_round_plans_and_accounts() {
        let coalescer = Coalescer::new(Duration::ZERO);
        let optimizer = Optimizer::new();
        let catalog = catalog();
        let q = JoinQuery::triangle("E", "E", "E");
        let out = coalescer
            .submit(q.clone(), Arc::clone(&catalog), |round| {
                plan_each(&optimizer, round)
            })
            .unwrap();
        assert!(out.leader);
        assert_eq!(out.batch_size, 1);
        assert!(out.plan.predicted_log2_cost.is_finite());
        assert!(out.batch_stats.total_pivots() > 0);
        assert_eq!(coalescer.batches(), 1);
        assert_eq!(coalescer.coalesced_requests(), 1);
        assert_eq!(coalescer.multi_request_batches(), 0);
    }

    /// Hold the leader in a generous window while followers join, then
    /// check the round actually coalesced (≥ 2 requests in a round) and
    /// that every participant got *its own* query's plan back — the
    /// positional result alignment the protocol promises.
    #[test]
    fn followers_join_during_the_window_and_share_the_batch() {
        let coalescer = Arc::new(Coalescer::new(Duration::from_millis(200)));
        let optimizer = Arc::new(Optimizer::new());
        let catalog = catalog();
        let (tx, rx) = mpsc::channel::<(usize, CoalescedPlan)>();

        std::thread::scope(|scope| {
            for i in 0..4usize {
                let coalescer = Arc::clone(&coalescer);
                let optimizer = Arc::clone(&optimizer);
                let catalog = Arc::clone(&catalog);
                let tx = tx.clone();
                scope.spawn(move || {
                    // Distinct atom counts per thread exercise positional
                    // result alignment, not just shared-plan reuse.
                    let q = match i % 2 {
                        0 => JoinQuery::triangle("E", "E", "E"),
                        _ => JoinQuery::path(&["E", "E"]),
                    };
                    let out = coalescer
                        .submit(q, catalog, |round| plan_each(&optimizer, round))
                        .unwrap();
                    tx.send((i, out)).unwrap();
                });
                // Give the first thread time to open the round so the rest
                // join as followers (merely an ordering nudge: correctness
                // never depends on who leads).
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(30));
                }
            }
        });
        drop(tx);

        let outs: Vec<(usize, CoalescedPlan)> = rx.iter().collect();
        assert_eq!(outs.len(), 4);
        let leaders = outs.iter().filter(|(_, o)| o.leader).count();
        let max_batch = outs.iter().map(|(_, o)| o.batch_size).max().unwrap();
        assert!(
            max_batch >= 2,
            "no coalescing happened (batches: {:?})",
            outs.iter().map(|(_, o)| o.batch_size).collect::<Vec<_>>()
        );
        assert!(leaders >= 1);
        assert_eq!(coalescer.coalesced_requests(), 4);
        assert!(coalescer.multi_request_batches() >= 1);
        // Triangle threads (3 atoms) and 2-path threads must have received
        // *their own* query's plan — positional alignment held.
        for (i, out) in &outs {
            let expected_atoms = if i % 2 == 0 { 3 } else { 2 };
            assert_eq!(out.plan.order.len(), expected_atoms);
        }
    }

    /// A leader whose planning closure panics must fail its round, not
    /// strand it: the follower that joined during the window gets a typed
    /// error as soon as the leader unwinds (not after `ROUND_TIMEOUT`), and
    /// the coalescer keeps working — the next request opens a fresh round.
    #[test]
    fn a_panicking_leader_fails_its_followers_at_once() {
        let coalescer = Coalescer::new(Duration::from_millis(300));
        let optimizer = Optimizer::new();
        let catalog = catalog();
        let q = JoinQuery::path(&["E", "E"]);
        let panicked_at: Mutex<Option<Instant>> = Mutex::new(None);

        let (leader, follower, returned_at) = std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                coalescer.submit(q.clone(), Arc::clone(&catalog), |round| {
                    assert_eq!(round.len(), 2, "the follower joined during the window");
                    *panicked_at.lock().unwrap() = Some(Instant::now());
                    panic!("injected leader failure");
                })
            });
            // Join only once the leader's round is open.
            while coalescer.current.lock().unwrap().is_none() {
                assert!(!leader.is_finished(), "the leader never opened a round");
                std::thread::yield_now();
            }
            let follower = coalescer.submit(q.clone(), Arc::clone(&catalog), |round| {
                // Only runs if this request missed the window and leads a
                // round of its own; the assertions below then fail.
                plan_each(&optimizer, round)
            });
            let returned_at = Instant::now();
            (leader.join(), follower, returned_at)
        });

        assert!(
            leader.is_err(),
            "the leader's panic propagates to its caller"
        );
        let err = follower.expect_err("the follower's round failed");
        assert!(err.message().contains("leader panicked"), "{err}");
        let panicked_at = panicked_at.lock().unwrap().expect("the leader planned");
        assert!(
            returned_at - panicked_at < Duration::from_secs(1),
            "the follower waited {:?} after the leader unwound",
            returned_at - panicked_at
        );
        assert_eq!(coalescer.batches(), 1);

        let next = coalescer
            .submit(q, catalog, |round| plan_each(&optimizer, round))
            .unwrap();
        assert!(next.leader);
        assert_eq!(next.batch_size, 1);
        assert_eq!(coalescer.batches(), 2);
    }
}
