//! The bound-driven query optimizer: cost plans with ℓp-norm cardinality
//! bounds instead of guesswork.
//!
//! This is the point of the whole reproduction: KhamisNOS24's bounds exist
//! to replace cardinality *estimates* in plan costing with cardinality
//! *guarantees*.  [`Optimizer::plan`] enumerates the connected sub-joins of
//! the query's [`crate::LogicalPlan`], asks
//! [`BatchEstimator::bound_subqueries`] for all their bounds in **one
//! batch** (each a column-generated normal-cone LP of a few dozen columns,
//! solved cold in tens of microseconds, and solved once however many
//! sub-joins of the batch pose it), and runs a bottleneck dynamic
//! program over the subset lattice — over **bushy** plans, not just
//! left-deep orders:
//!
//! ```text
//! best[S] = min(  min over j  max(best[S∖{j}], bound[S]),            // extend
//!                 min over S₁⊎S₂=S  max(best[S₁], best[S₂], bound[S]) )  // split
//! ```
//!
//! where splits range over connected, variable-sharing halves.  The cost of
//! a plan is the largest bound of any sub-join it materializes — exactly
//! the worst intermediate the pipeline can produce.  A hash chain's probe
//! relations stream and are not charged; a bushy split materializes both
//! branches, so each branch's scans *are* charged.  The Yannakakis
//! reducer's semi-join passes are charged too (each pass materializes up to
//! a full base relation), instead of being assumed free.
//!
//! Plans that share a bottleneck are common — every order of a chain ends on
//! the output bound — so `min` and `max` above are **leximax**: the tables
//! carry every materialized bound of a plan, largest first, and compare the
//! lists lexicographically (smallest bottleneck, then smallest next-largest
//! intermediate, and so on).  The bounds themselves enter the tables rounded
//! up onto a fixed grid, so which plan wins depends on what the LPs bound
//! and not on the last bits a particular solver left in them.
//!
//! The lattice is addressed by atom mask from the harvest to lowering.  The
//! estimator bounds each sub-join from its atom list (its variable count,
//! its atoms' variable sets and its statistics, [`lpb_core::SubJoin`]; no
//! [`JoinQuery`] is built for it), and the bound table and both DP tables
//! are vectors indexed by the mask, with `None` where no connected sub-join
//! sits.  They hold `2^m` slots each, so the DP stops at 12 atoms (4 096
//! slots); a larger query is planned greedily by size.  The split loop
//! above already visits every submask of every connected subset.
//!
//! Lowering picks a strategy per subtree:
//!
//! * bushy split strictly better than every left-deep strategy → a
//!   [`crate::PhysicalNode::HashJoin`] tree;
//! * α-acyclic query → Yannakakis semi-join reduction then the DP order,
//!   unless the reduction's pass cost exceeds the best chain's bottleneck;
//! * cyclic core covering everything → leapfrog WCOJ when the output bound
//!   beats the best chain's bottleneck, else the DP hash chain;
//! * cyclic core plus acyclic residue → WCOJ over the core, hash-joining
//!   the residue on afterwards (greedily ordered by sub-join bounds).
//!
//! Every bound is a provable upper bound on the sub-join's true size, so a
//! plan chosen here comes with a guarantee — and the guarantee is carried
//! into the plan as **bound certificates**: every emitted node is annotated
//! with its sub-join's `log₂` bound, and [`crate::execute_physical_mode`] checks
//! each observed intermediate against it (see
//! [`crate::IntermediateCounters::certificate_violations`]).
//!
//! **Degree-partitioned planning** (the paper's Lemma 2.5 put to work at
//! plan time): ℓp bounds are dramatically tighter on relations whose
//! degrees are homogeneous, so when an atom's relation is skewed
//! (`log₂(max/avg degree)` of at least 2, the heaviest value past 4× the
//! average fan-out) the planner splits it into a light and a heavy part
//! ([`crate::split_light_heavy`]) and derives a per-part sub-catalog
//! ([`lpb_data::Catalog::derive_with`]) seeded with per-part statistics —
//! counted by the split in the passes that route the rows, so no part is
//! harvested cold.  Lemma 2.5
//! bounds the split relation's query by the **sum** of its parts' bounds,
//! and that sum is part of a partitioned plan's cost (the union
//! materializes it), so the search computes it *first*: it bounds the full
//! query on each part, and a candidate whose sum already reaches the
//! monolithic bottleneck is refused for the price of one LP per part.
//! A surviving candidate re-bounds — in one more batch per part, same LPs
//! with per-part right-hand sides — only the connected sub-joins
//! **through the split atom**; every other sub-join is the same sub-join in
//! every part and keeps its bound from the monolithic table.  The same
//! bottleneck DP then runs independently per part, and each part may
//! choose a *different* join order — the whole point under two-sided
//! skew.  The
//! partitioned plan (max-over-parts bottleneck, plus the sum-of-parts union
//! bound) replaces the monolithic pick exactly when its predicted cost is
//! lower, so the decision is made from LP bounds alone; per-part bounds
//! ride into the [`crate::PhysicalNode::PartitionedUnion`] as certificates
//! like everywhere else.  [`OptimizedPlan::partition_candidates`],
//! [`partition_candidates_refused`](OptimizedPlan::partition_candidates_refused)
//! and [`partition_subqueries_bounded`](OptimizedPlan::partition_subqueries_bounded)
//! count what the search paid.

use crate::error::ExecError;
use crate::logical::{validate_atom_permutation, JoinPlan, LogicalPlan, DP_ATOM_LIMIT};
use crate::partition::split_light_heavy;
use crate::physical::{PartitionBranch, PhysicalNode, PhysicalPlan};
use lpb_core::{
    BatchEstimator, BoundResult, CollectConfig, Cone, CoreError, JoinQuery, SubqueryBounds,
};
use lpb_data::{Catalog, Norm, Relation};
use lpb_lp::SolverStats;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Planner settings: the two a caller varies.  The rest is fixed: the DP
/// runs on queries of up to 12 atoms and always considers bushy splits, and
/// the partition search tries the two most skewed candidates whose
/// `log₂(max/avg degree)` is at least 2.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Norm budget for the costing statistics (`{1, …, max_norm, ∞}`).
    /// Small budgets keep the LPs tiny; the default of 4 already separates
    /// skewed from flat workloads.
    pub max_norm: u32,
    /// Consider degree-partitioned plans: split a skewed relation into a
    /// light and a heavy part ([`crate::split_light_heavy`]), plan each part
    /// independently on per-part statistics, and pick the partitioned plan
    /// when its max-over-parts bottleneck (plus the sum-of-parts output
    /// bound) beats the monolithic one.  Off, the planner returns its best
    /// monolithic plan, the baseline a partitioned plan is measured against.
    pub enable_partitioning: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            max_norm: 4,
            enable_partitioning: true,
        }
    }
}

/// Most atoms for which the full subset DP runs; larger queries fall back
/// to the greedy-by-size order, and [`Optimizer::harvest`] and
/// [`Optimizer::cost_order`] answer [`ExecError::NotApplicable`].  The DP's
/// tables hold one slot per atom mask, `2^m` of them: 4 096 here.
const MAX_DP_ATOMS: usize = 12;
const _: () = assert!(MAX_DP_ATOMS <= DP_ATOM_LIMIT);

/// How many skew candidates (atom, conditional) the partition search tries
/// per planning call, most-skewed first.  Each candidate costs the split,
/// the parts' statistics and one LP per part; only a candidate whose
/// sum-of-parts output bound beats the cost so far also costs a batch per
/// part over the connected sub-joins through the split atom.
const MAX_PARTITION_CANDIDATES: usize = 2;

/// Minimum skew — `log₂(max degree / average degree)` of a conditional —
/// before an atom is considered for partitioning: the heaviest value must
/// reach 4× the average fan-out; below that, per-part bounds cannot
/// meaningfully undercut the monolithic bound.
const PARTITION_SKEW_LOG2: f64 = 2.0;

/// The chosen plan plus everything a caller (or benchmark) wants to report
/// about how it was chosen.
#[derive(Debug, Clone)]
pub struct OptimizedPlan {
    /// The executable strategy tree, certified with the DP's sub-join
    /// bounds wherever a node corresponds to a bounded sub-join.
    pub physical: PhysicalPlan,
    /// The atom order the plan evaluates (join order of the tree leaves).
    pub order: Vec<usize>,
    /// `log₂` of the predicted bottleneck: the largest sub-join bound any
    /// step of the chosen plan can materialize.  `NaN` when the planner fell
    /// back to greedy without bounding (too many atoms, disconnected graph).
    pub predicted_log2_cost: f64,
    /// The best **left-deep** order the same DP finds without bushy splits,
    /// for bushy-vs-left-deep comparisons.  Equal to `order` when the
    /// chosen plan is not bushy.
    pub leftdeep_order: Vec<usize>,
    /// `log₂` of the left-deep order's predicted bottleneck (`NaN` when not
    /// costed).  `bushy_vs_leftdeep` gains are
    /// `leftdeep_predicted_log2_cost − predicted_log2_cost` in log₂ space.
    pub leftdeep_predicted_log2_cost: f64,
    /// The greedy-by-size order, for comparison.
    pub greedy_order: Vec<usize>,
    /// `log₂` of the greedy order's predicted bottleneck under the same
    /// bounds (`NaN` when not costed).  Prefixes the bound batch did not
    /// cover — cross-product prefixes of a greedy order that leaves a
    /// connected component early — are costed with the pessimistic
    /// per-atom product fallback, never silently skipped.
    pub greedy_predicted_log2_cost: f64,
    /// Number of sub-joins **successfully** bounded while planning (LP
    /// solved to a finite bound).  Requested-but-fallen-back sub-joins are
    /// counted in [`bound_fallbacks`](Self::bound_fallbacks) instead.
    pub subqueries_bounded: usize,
    /// Number of sub-joins whose bound attempt failed (statistics harvest
    /// error, unbounded LP) and fell back to the pessimistic per-atom
    /// product bound.  Zero on healthy corpora; planner-quality tests
    /// assert exactly that.
    pub bound_fallbacks: usize,
    /// `log₂` of the best **monolithic** (non-partitioned) plan's predicted
    /// bottleneck — what the planner would have chosen with partitioning
    /// disabled.  Equal to [`predicted_log2_cost`](Self::predicted_log2_cost)
    /// when the chosen plan is not partitioned; the gap is the sum-of-parts
    /// win the partition proved at plan time.
    pub monolithic_predicted_log2_cost: f64,
    /// Number of degree-partition parts the chosen plan evaluates (zero for
    /// monolithic plans, the light/heavy part count otherwise).
    pub parts_planned: usize,
    /// Partition candidates the search split and bounded (skewed atoms whose
    /// light/heavy split left two non-empty parts): at most two.
    pub partition_candidates: usize,
    /// Candidates refused by the bound-first test: the sum of their parts'
    /// full-query bounds alone already reached the cost to beat, so no
    /// per-part planning was paid for them.
    pub partition_candidates_refused: usize,
    /// Sub-joins successfully bounded **for per-part planning** (across all
    /// partition candidates tried), on top of
    /// [`subqueries_bounded`](Self::subqueries_bounded): per part, the full
    /// query, and for candidates that survive the bound-first test the
    /// other connected sub-joins through the split atom.
    pub partition_subqueries_bounded: usize,
    /// Per-part bound attempts that fell back to the pessimistic product
    /// bound.  Zero on healthy corpora, like
    /// [`bound_fallbacks`](Self::bound_fallbacks).
    pub partition_bound_fallbacks: usize,
    /// The LPs this planning call solved, in its harvest and in its
    /// partition search.  Within one [`BatchEstimator::bound_subqueries`]
    /// call a sub-join identical to an earlier one takes that one's result
    /// and no LP, so on self-joins this is well below the sub-joins
    /// bounded: 94 of 224 on `large-mixed-12`.
    pub lps_solved: usize,
    /// Wall-clock planning time: the three phases below, which partition it.
    pub plan_time: Duration,
    /// From the start of the planning call until this request's bound table
    /// was ready: greedy baseline, sub-join enumeration, statistics
    /// collection and every sub-join LP.  Zero on the greedy fallback, which
    /// bounds nothing.
    pub harvest_time: Duration,
    /// Costing the greedy baseline, the bottleneck DP and lowering its
    /// winner to a certified physical plan.
    pub dp_time: Duration,
    /// The degree-partition search (splits, per-part bounds, per-part DP);
    /// next to nothing when partitioning is disabled.
    pub partition_time: Duration,
    /// The part of [`partition_time`](Self::partition_time) spent splitting
    /// candidates — routing the rows, counting the parts' statistics and
    /// seeding their sub-catalogs — across every candidate tried.
    pub split_time: Duration,
    /// The LP work of the planning call that produced this plan: every LP
    /// is solved on the calling thread, so this [`SolverStats::on_thread`]
    /// delta is exact whatever other threads plan meanwhile.
    pub lp_stats: SolverStats,
}

impl OptimizedPlan {
    /// Short strategy label (delegates to [`PhysicalPlan::strategy`]).
    pub fn strategy(&self) -> &'static str {
        self.physical.strategy()
    }
}

/// How the bottleneck DP proved `best[S]`: a single scan, a left-deep
/// extension by one atom, or a bushy split into two connected halves.
#[derive(Debug, Clone, Copy)]
enum Choice {
    Leaf(usize),
    Extend(usize),
    Split(u64),
}

/// Everything the bound batch produced, addressed by atom mask for the DP.
///
/// `log2` has one slot per mask of the query's atoms (`2^m` slots, 4 096
/// at the default 12-atom gate), so the DP, lowering and the partition
/// search's reuse read a sub-join's bound by indexing, never by hashing.
struct Bounds {
    /// `log₂` bound (or pessimistic product fallback) of every connected
    /// subset at index `mask`, and `log₂` scan size at each singleton's;
    /// `None` at every mask that is not a connected sub-join (a
    /// cross-product), which nothing bounded.
    log2: Vec<Option<f64>>,
    /// `log₂` scan size per atom.
    scan_log2: Vec<f64>,
    /// The enumerated connected subsets, ascending (so every proper subset
    /// precedes its supersets) — the DP iterates these.
    subsets: Vec<u64>,
    /// Sub-joins whose LP produced a finite bound.
    bounded: usize,
    /// Sub-joins that fell back to the product bound.
    fallbacks: usize,
    /// LPs the batch behind this table solved.
    solved: usize,
}

/// Bound-driven planner; see the module docs.
///
/// Planning is a function of the query, the catalog's statistics and the
/// configuration: every LP is solved cold on the calling thread, nothing is
/// carried from one planning call to the next, and the plan chosen does not
/// depend on which cone or solver the estimator was built with (on the
/// planner's simple statistics the cones agree, and the DP reads the bounds
/// off a grid coarser than their disagreement).  A server gets its
/// parallelism from concurrent requests, as `lpb-serve` does.
#[derive(Debug, Clone)]
pub struct Optimizer {
    estimator: BatchEstimator,
    config: PlannerConfig,
}

impl Default for Optimizer {
    /// The planner harvests simple statistics only
    /// ([`BatchEstimator::bound_subqueries`] collects nothing else), on
    /// which the normal cone gives the polymatroid bound (Theorem 6.1) from
    /// the cheaper LP at every size: it asks for that cone outright instead
    /// of leaving the choice to `Cone::auto`'s size rule.
    fn default() -> Self {
        Optimizer {
            estimator: BatchEstimator::new().with_cone(Cone::Normal),
            config: PlannerConfig::default(),
        }
    }
}

impl Optimizer {
    /// An optimizer with the default configuration and estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the planner configuration.
    pub fn with_config(mut self, config: PlannerConfig) -> Self {
        self.config = config;
        self
    }

    /// Use (and share the LP counters of) an existing estimator — e.g. one
    /// with a forced cone, to cross-check the default route.
    pub fn with_estimator(mut self, estimator: BatchEstimator) -> Self {
        self.estimator = estimator;
        self
    }

    /// The estimator backing this optimizer, shared with its clones: its
    /// [`lps_estimated`](BatchEstimator::lps_estimated) counts the sub-join
    /// bounds the planner asked for,
    /// [`shape_cache_misses`](BatchEstimator::shape_cache_misses) the LPs it
    /// solved for them and
    /// [`shape_cache_hits`](BatchEstimator::shape_cache_hits) the rest,
    /// answered within a harvest from an identical earlier sub-join.  Per
    /// plan, the solved count is [`OptimizedPlan::lps_solved`].
    pub fn estimator(&self) -> &BatchEstimator {
        &self.estimator
    }

    /// Bound every connected sub-join of `query` in one batch and fold the
    /// results into the DP's lookup table.  Singletons cost
    /// their scan size; a multi-atom subset whose bound attempt fails costs
    /// the pessimistic per-atom product.
    fn harvest_bounds(
        &self,
        query: &JoinQuery,
        catalog: &Catalog,
        logical: &LogicalPlan,
    ) -> Result<Bounds, ExecError> {
        let subsets = logical.connected_subsets();
        let multi = multi_atom(&subsets);
        let batch = self.estimator.bound_subqueries(
            query,
            catalog,
            &atom_lists(logical, &multi),
            &CollectConfig::with_max_norm(self.config.max_norm),
        );
        fold_bounds(query, catalog, logical, subsets, &[], &multi, &batch)
    }

    /// Predicted `log₂` bottleneck of evaluating `order` as a left-deep
    /// hash chain, under the same sub-join bounds [`Optimizer::plan`] uses.
    /// Prefixes that are not connected sub-joins (cross-product prefixes)
    /// are costed with the pessimistic per-atom product bound — the join of
    /// unrelated atoms can reach the full product, and a costing that
    /// skipped them would understate the order's bottleneck.
    ///
    /// Unlike [`Optimizer::plan`], this costs *any* permutation of *any*
    /// query (connected or not) with at most 12 atoms, the DP's gate.
    pub fn cost_order(
        &self,
        query: &JoinQuery,
        catalog: &Catalog,
        order: &[usize],
    ) -> Result<f64, ExecError> {
        validate_atom_permutation(query.n_atoms(), order)?;
        if query.n_atoms() > MAX_DP_ATOMS {
            return Err(ExecError::NotApplicable {
                reason: format!(
                    "cost_order enumerates connected sub-joins; {} atoms exceeds {MAX_DP_ATOMS}",
                    query.n_atoms()
                ),
            });
        }
        let logical = LogicalPlan::of(query);
        let bounds = self.harvest_bounds(query, catalog, &logical)?;
        Ok(order_bottleneck(order, &bounds))
    }

    /// Bound every connected sub-join of `query` in one batch — the
    /// planner's harvest phase on its own, without the DP — and return how
    /// many got a finite bound.  Like the DP, it takes connected queries of
    /// 2 to 12 atoms.
    pub fn harvest(&self, query: &JoinQuery, catalog: &Catalog) -> Result<usize, ExecError> {
        let m = query.n_atoms();
        if !(2..=MAX_DP_ATOMS).contains(&m) {
            return Err(ExecError::NotApplicable {
                reason: format!("sub-join bound harvest needs 2..={MAX_DP_ATOMS} atoms, got {m}"),
            });
        }
        let logical = LogicalPlan::of(query);
        if !logical.is_connected((1u64 << m) - 1) {
            return Err(ExecError::NotApplicable {
                reason: "sub-join bound harvest needs a connected join graph".to_string(),
            });
        }
        Ok(self.harvest_bounds(query, catalog, &logical)?.bounded)
    }

    /// Choose a physical plan for `query` over `catalog`.
    pub fn plan(&self, query: &JoinQuery, catalog: &Catalog) -> Result<OptimizedPlan, ExecError> {
        let started = Instant::now();
        let lp_before = SolverStats::thread_snapshot();
        let m = query.n_atoms();
        let greedy = JoinPlan::greedy_by_size(query, catalog)?;

        // Greedy fallback without enumeration: single atoms, queries past
        // the DP gate, and — checked below once the join graph exists —
        // disconnected queries.
        if m == 1 || m > MAX_DP_ATOMS {
            return Ok(Self::fallback_plan(
                &greedy,
                m,
                crate::yannakakis::is_acyclic(query),
                started,
                &lp_before,
            ));
        }

        let logical = LogicalPlan::of(query);
        let full: u64 = (1u64 << m) - 1;
        if !logical.is_connected(full) {
            return Ok(Self::fallback_plan(
                &greedy,
                m,
                logical.cyclic_core().is_empty(),
                started,
                &lp_before,
            ));
        }

        // --- Bound every connected sub-join, in enumeration order. ---
        let bounds = self.harvest_bounds(query, catalog, &logical)?;
        let harvested = Instant::now();
        // Greedy order's predicted bottleneck under the same bounds (with
        // the product fallback for any cross-product prefix).
        let greedy_cost = order_bottleneck(greedy.order(), &bounds);

        // --- DP + lowering over the monolithic bound table. ---
        let chosen = self.choose(&logical, &bounds);
        let monolithic_predicted = chosen.predicted;
        let mut physical = chosen.physical;
        let mut order = chosen.order;
        let mut predicted = chosen.predicted;
        let chose = Instant::now();

        // --- Degree-partitioned alternative: split a skewed relation,
        // plan each part on its own statistics, and switch when the
        // max-over-parts bottleneck beats the monolithic one. ---
        let mut parts_planned = 0usize;
        let mut partition_stats = PartitionSearchStats::default();
        if self.config.enable_partitioning {
            if let Some(pick) = self.partitioned_plan(
                query,
                catalog,
                &logical,
                &bounds,
                predicted,
                &mut partition_stats,
            )? {
                let plan = PhysicalPlan::from_root(pick.node);
                order = plan.atom_order();
                physical = plan;
                predicted = pick.cost;
                parts_planned = pick.parts;
            }
        }
        let finished = Instant::now();

        Ok(OptimizedPlan {
            physical,
            order,
            predicted_log2_cost: predicted,
            leftdeep_order: chosen.leftdeep_order,
            leftdeep_predicted_log2_cost: chosen.leftdeep_cost,
            greedy_order: greedy.order().to_vec(),
            greedy_predicted_log2_cost: greedy_cost,
            subqueries_bounded: bounds.bounded,
            bound_fallbacks: bounds.fallbacks,
            monolithic_predicted_log2_cost: monolithic_predicted,
            parts_planned,
            partition_candidates: partition_stats.candidates,
            partition_candidates_refused: partition_stats.refused,
            partition_subqueries_bounded: partition_stats.bounded,
            partition_bound_fallbacks: partition_stats.fallbacks,
            lps_solved: bounds.solved + partition_stats.solved,
            plan_time: finished - started,
            harvest_time: harvested - started,
            dp_time: chose - harvested,
            partition_time: finished - chose,
            split_time: partition_stats.split_time,
            lp_stats: SolverStats::thread_snapshot().since(&lp_before),
        })
    }

    /// The greedy plan for queries the DP cannot bound: single atoms,
    /// queries past the DP gate, disconnected join graphs.
    fn fallback_plan(
        greedy: &JoinPlan,
        m: usize,
        acyclic: bool,
        started: Instant,
        lp_before: &SolverStats,
    ) -> OptimizedPlan {
        let order = greedy.order().to_vec();
        let physical = if m > 1 && acyclic {
            PhysicalPlan::reduced(order.clone())
        } else {
            PhysicalPlan::hash_chain(order.clone())
        };
        OptimizedPlan {
            physical,
            order: order.clone(),
            predicted_log2_cost: f64::NAN,
            leftdeep_order: order.clone(),
            leftdeep_predicted_log2_cost: f64::NAN,
            greedy_order: order,
            greedy_predicted_log2_cost: f64::NAN,
            subqueries_bounded: 0,
            bound_fallbacks: 0,
            monolithic_predicted_log2_cost: f64::NAN,
            parts_planned: 0,
            partition_candidates: 0,
            partition_candidates_refused: 0,
            partition_subqueries_bounded: 0,
            partition_bound_fallbacks: 0,
            lps_solved: 0,
            plan_time: started.elapsed(),
            harvest_time: Duration::ZERO,
            dp_time: Duration::ZERO,
            partition_time: Duration::ZERO,
            split_time: Duration::ZERO,
            lp_stats: SolverStats::thread_snapshot().since(lp_before),
        }
    }

    /// Run the bottleneck DP over one bound table and lower the winner to a
    /// certified physical plan; see the module docs for the recurrence and
    /// the strategy selection.  Shared by monolithic planning and by every
    /// part of a degree partition (each part brings its own [`Bounds`]).
    fn choose(&self, logical: &LogicalPlan, bounds: &Bounds) -> Chosen {
        let m = logical.n_atoms();
        let full: u64 = (1u64 << m) - 1;
        let bound_log2 = bounds.log2.as_slice();
        let scan_log2 = &bounds.scan_log2;

        // --- Bottleneck DP over the connected-subset lattice. ---
        // best_ld[S]: the smallest achievable list of materialized bounds,
        // largest first, over left-deep orders of S with connected prefixes
        // — `[0]` is the bottleneck, the rest breaks ties between orders
        // that share it.  best[S]: the same over bushy trees whose every
        // subtree is connected (split branches both materialize, so a split
        // charges both halves; extension streams its probe atom and charges
        // only the joined result).
        // Both tables are indexed by mask; an empty slot is a subset the
        // DP has not proved (not connected, or not reached yet).
        let subsets = &bounds.subsets;
        let mut best_ld: Vec<Option<(Vec<f64>, usize)>> = vec![None; bound_log2.len()];
        let mut best: Vec<Option<(Vec<f64>, Choice)>> = vec![None; bound_log2.len()];
        for (j, &scan) in scan_log2.iter().enumerate() {
            best_ld[1 << j] = Some((vec![scan], j));
            best[1 << j] = Some((vec![scan], Choice::Leaf(j)));
        }
        let mut candidate: Vec<f64> = Vec::with_capacity(m + 1);
        for &mask in subsets {
            if mask.count_ones() < 2 {
                continue;
            }
            let own = bound_log2[mask as usize].expect("every connected sub-join has a bound");
            let mut ld_choice: Option<(Vec<f64>, usize)> = None;
            let mut choice: Option<(Vec<f64>, Choice)> = None;
            for j in logical.atoms_of(mask) {
                let rest = (mask & !(1u64 << j)) as usize;
                let (Some((rest_ld, _)), Some((rest_best, _))) = (&best_ld[rest], &best[rest])
                else {
                    continue; // disconnected prefix
                };
                materialized(rest_ld, &[], own, &mut candidate);
                keep_smaller(&mut ld_choice, &mut candidate, j);
                // The bushy table may have improved the rest through an
                // inner split.
                materialized(rest_best, &[], own, &mut candidate);
                keep_smaller(&mut choice, &mut candidate, Choice::Extend(j));
            }
            if mask.count_ones() >= 4 {
                // Both halves ≥ 2 atoms: singleton splits are dominated by
                // extension (they additionally charge the singleton's scan).
                // Connected halves of a connected set always share a
                // variable, so every considered split is a genuine join.
                let mut half = (mask - 1) & mask;
                while half != 0 {
                    let other = mask & !half;
                    if half < other && half.count_ones() >= 2 && other.count_ones() >= 2 {
                        if let (Some((a, _)), Some((b, _))) =
                            (&best[half as usize], &best[other as usize])
                        {
                            materialized(a, b, own, &mut candidate);
                            keep_smaller(&mut choice, &mut candidate, Choice::Split(half));
                        }
                    }
                    half = (half - 1) & mask;
                }
            }
            best_ld[mask as usize] = ld_choice;
            best[mask as usize] = choice;
        }
        let proved = "a connected query's full set is proved";
        let chain_cost = best_ld[full as usize].as_ref().expect(proved).0[0];
        let bushy_cost = best[full as usize].as_ref().expect(proved).0[0];
        let mut dp_order = Vec::with_capacity(m);
        let mut mask = full;
        while mask != 0 {
            let last = best_ld[mask as usize].as_ref().expect(proved).1;
            dp_order.push(last);
            mask &= !(1u64 << last);
        }
        dp_order.reverse();

        // Certified left-deep chain over `order`: scan certificate on the
        // first atom, prefix-bound certificates on every join step.
        let certified_chain = |order: &[usize]| -> PhysicalPlan {
            let input = Box::new(PhysicalNode::Scan {
                atom: order[0],
                log2_bound: Some(scan_log2[order[0]]),
            });
            if order.len() == 1 {
                return PhysicalPlan::from_root(*input);
            }
            PhysicalPlan::from_root(PhysicalNode::HashChain {
                input,
                atoms: order[1..].to_vec(),
                step_bounds: prefix_step_bounds(1u64 << order[0], &order[1..], bound_log2),
            })
        };
        // Certified Yannakakis plan: scan certificates bound every
        // semi-join pass and reduced relation (reduction only shrinks);
        // prefix bounds certify the chain steps over the reduced inputs
        // (the leading `None` pads the slot of the order's first atom,
        // which joins nothing).
        let certified_reduced = |order: &[usize]| -> PhysicalPlan {
            let scan_bounds = order.iter().map(|&j| Some(scan_log2[j])).collect();
            let mut step_bounds = vec![None];
            step_bounds.extend(prefix_step_bounds(
                1u64 << order[0],
                &order[1..],
                bound_log2,
            ));
            PhysicalPlan::from_root(PhysicalNode::Reduced {
                atoms: order.to_vec(),
                scan_bounds,
                step_bounds,
            })
        };

        // --- Strategy selection among left-deep lowerings. ---
        let core = logical.cyclic_core();
        let max_scan = scan_log2.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (mut physical, mut order, mut predicted) = if core.is_empty() {
            // Acyclic: the full reducer's semi-join passes materialize up
            // to every base relation once, so reduction costs
            // max(chain bottleneck, largest scan) — no longer assumed free.
            let reduced_cost = chain_cost.max(max_scan);
            if chain_cost < reduced_cost {
                (certified_chain(&dp_order), dp_order.clone(), chain_cost)
            } else {
                // Ties go to the reducer: same predicted peak, and dangling
                // tuples never reach an intermediate.
                (certified_reduced(&dp_order), dp_order.clone(), reduced_cost)
            }
        } else {
            let core_mask: u64 = core.iter().map(|&j| 1u64 << j).sum();
            let core_bound = bound_log2[core_mask as usize].unwrap_or(f64::INFINITY);
            // Extend the core greedily by the smallest-bound connected
            // extension; the hybrid's bottleneck is the max along the way.
            let mut tail = Vec::new();
            let mut tail_bounds = Vec::new();
            let mut s = core_mask;
            let mut hybrid_cost = core_bound;
            while s != full {
                let mut pick: Option<(f64, usize)> = None;
                for j in logical.atoms_of(full & !s) {
                    let grown = s | (1u64 << j);
                    if !logical.is_connected(grown) {
                        continue;
                    }
                    let b = bound_log2[grown as usize].unwrap_or(f64::INFINITY);
                    if pick.is_none_or(|(c, _)| b < c) {
                        pick = Some((b, j));
                    }
                }
                let (b, j) = pick.expect("connected query always extends");
                tail.push(j);
                tail_bounds.push(if b.is_finite() { Some(b) } else { None });
                s |= 1u64 << j;
                hybrid_cost = hybrid_cost.max(b);
            }
            // Ties go to the WCOJ: the chain's bottleneck already includes
            // the output bound, and the WCOJ never materializes more than
            // the output, so at equal predictions it is never worse.
            if hybrid_cost <= chain_cost {
                let mut order = core.clone();
                order.extend_from_slice(&tail);
                let wcoj = PhysicalNode::Wcoj {
                    atoms: core,
                    log2_bound: bound_log2[core_mask as usize],
                };
                let root = if tail.is_empty() {
                    wcoj
                } else {
                    PhysicalNode::HashChain {
                        input: Box::new(wcoj),
                        atoms: tail,
                        step_bounds: tail_bounds,
                    }
                };
                (PhysicalPlan::from_root(root), order, hybrid_cost)
            } else {
                (certified_chain(&dp_order), dp_order.clone(), chain_cost)
            }
        };

        // --- A strictly better bushy tree overrides the left-deep pick. ---
        if bushy_cost < predicted {
            let root = build_bushy(full, &best, bounds);
            let plan = PhysicalPlan::from_root(root);
            order = plan.atom_order();
            physical = plan;
            predicted = bushy_cost;
        }

        Chosen {
            physical,
            order,
            predicted,
            leftdeep_order: dp_order,
            leftdeep_cost: chain_cost,
        }
    }

    /// The atoms worth splitting: every `(atom, conditional)` whose relation
    /// has a skewed simple conditional (`log₂(max/avg degree) ≥`
    /// [`PARTITION_SKEW_LOG2`]), most-skewed first, cut to
    /// [`MAX_PARTITION_CANDIDATES`].  A join attribute's
    /// norms are lookups (the harvest cached them); any other attribute
    /// costs one degree sequence here — on a builder-made relation one sort
    /// of a copy of that attribute's column
    /// ([`lpb_data::Relation::degree_sequence`]'s counting case).
    fn skew_candidates(
        &self,
        query: &JoinQuery,
        catalog: &Catalog,
    ) -> Result<Vec<SkewCandidate>, ExecError> {
        let mut candidates: Vec<(f64, SkewCandidate)> = Vec::new();
        for atom in 0..query.n_atoms() {
            let rel_name = &query.atoms()[atom].relation;
            let rel = catalog.get(rel_name)?;
            if rel.arity() < 2 || rel.is_empty() {
                continue;
            }
            let attrs: Vec<String> = rel.schema().attrs().to_vec();
            for (pos, u_attr) in attrs.iter().enumerate() {
                let v: Vec<&str> = attrs
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != pos)
                    .map(|(_, a)| a.as_str())
                    .collect();
                let u = [u_attr.as_str()];
                let norms = catalog.log_norms(rel_name, &v, &u, &[Norm::Infinity, Norm::L1])?;
                let (linf, l1) = (norms[0], norms[1]);
                let distinct_u = catalog.log_norm(rel_name, &u, &[], Norm::L1)?;
                // log₂(max degree / average degree).
                let skew = linf - (l1 - distinct_u);
                if skew >= PARTITION_SKEW_LOG2 {
                    candidates.push((
                        skew,
                        SkewCandidate {
                            atom,
                            v: v.iter().map(|s| s.to_string()).collect(),
                            u: vec![u_attr.clone()],
                        },
                    ));
                }
            }
        }
        candidates.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.atom.cmp(&b.1.atom)));
        candidates.truncate(MAX_PARTITION_CANDIDATES);
        Ok(candidates.into_iter().map(|(_, c)| c).collect())
    }

    /// Split a candidate's relation light/heavy
    /// ([`crate::split_light_heavy`]) and pose the query once per non-empty
    /// part: the atom rebound to the part, over a derived sub-catalog that
    /// shares every other relation (and its cached statistics).  `None`
    /// when the split leaves fewer than two parts.  The part's tuples sit
    /// behind one `Arc` shared by the sub-catalog and, later, the plan's
    /// [`PartitionBranch`].
    ///
    /// A part exists only for this plan, so its statistics live in its
    /// sub-catalog only — never in `catalog`.  The split counts them while
    /// it routes the rows ([`crate::SplitPart::statistics`]), and they are
    /// seeded into the sub-catalog here, for every attribute and every norm
    /// of [`PlannerConfig::max_norm`], with the norms taken from the same
    /// degrees, by the same code, as a cold harvest would take them
    /// ([`lpb_data::DegreeSequence::log2_lp_norm`]).  So every statistic
    /// the part's batches ask for is a cache hit, equal bit for bit to the
    /// value a cold harvest of the part computes.
    fn split_candidate(
        &self,
        query: &JoinQuery,
        catalog: &Catalog,
        candidate: &SkewCandidate,
    ) -> Result<Option<Vec<PartRun>>, ExecError> {
        let rel = catalog.get(&query.atoms()[candidate.atom].relation)?;
        let v: Vec<&str> = candidate.v.iter().map(String::as_str).collect();
        let u: Vec<&str> = candidate.u.iter().map(String::as_str).collect();
        let Some((light, heavy)) = split_light_heavy(&rel, &v, &u)? else {
            return Ok(None);
        };
        let norms = Norm::standard_set(self.config.max_norm);
        let mut runs = Vec::with_capacity(2);
        for part in [light, heavy] {
            if part.relation.is_empty() {
                continue;
            }
            let relation = Arc::new(part.relation);
            let part_catalog = catalog.derive_with(Arc::clone(&relation));
            for entry in part.statistics.entries(&relation, &norms) {
                part_catalog.record_statistic(entry.key, entry.log_norm);
            }
            runs.push(PartRun {
                query: query.with_atom_relation(candidate.atom, relation.name())?,
                catalog: part_catalog,
                relation,
            });
        }
        Ok((runs.len() >= 2).then_some(runs))
    }

    /// Search for a degree-partitioned plan that beats `monolithic_cost`,
    /// paying only for what can change the answer.
    ///
    /// Per [skew candidate](Self::skew_candidates), after the
    /// [split](Self::split_candidate):
    ///
    /// 1. **Bound first.**  Only the *full* query is bounded on each part
    ///    (one LP per part).  Their `log₂`-sum is the union bound
    ///    the partitioned plan is charged anyway, so a candidate whose
    ///    union bound already reaches the monolithic bottleneck — or the
    ///    best candidate so far — can never be picked and is refused here.
    /// 2. **Reuse.**  A surviving candidate bounds, in one more batch per
    ///    part, only the connected sub-joins that contain the split atom.
    ///    Every other sub-join has the same atoms, relations and statistics
    ///    in every part, so its entry is the monolithic table's
    ///    ([`reusable_bounds`]).
    /// 3. The shared [`Optimizer::choose`] DP plans each part on its table.
    ///
    /// The partitioned cost is the max over parts of the per-part
    /// bottleneck, combined with the union bound that certifies the final
    /// union; the best candidate is returned only when that cost strictly
    /// beats the monolithic prediction — so the decision is made from LP
    /// bounds alone.
    fn partitioned_plan(
        &self,
        query: &JoinQuery,
        catalog: &Catalog,
        logical: &LogicalPlan,
        monolithic: &Bounds,
        monolithic_cost: f64,
        stats: &mut PartitionSearchStats,
    ) -> Result<Option<PartitionedPick>, ExecError> {
        if !monolithic_cost.is_finite() {
            return Ok(None);
        }
        let m = query.n_atoms();
        let full: u64 = (1u64 << m) - 1;
        let config = CollectConfig::with_max_norm(self.config.max_norm);
        let mut best: Option<PartitionedPick> = None;
        for candidate in self.skew_candidates(query, catalog)? {
            let splitting = Instant::now();
            let split = self.split_candidate(query, catalog, &candidate)?;
            stats.split_time += splitting.elapsed();
            let Some(runs) = split else {
                continue;
            };
            stats.candidates += 1;
            let j = candidate.atom;

            // --- Bound first: the full query on every part. ---
            let every_atom = [(0..m).collect()];
            let mut union_bound = f64::NEG_INFINITY;
            let mut part_output_bounds = Vec::with_capacity(runs.len());
            for run in &runs {
                let batch =
                    self.estimator
                        .bound_subqueries(&run.query, &run.catalog, &every_atom, &config);
                let mut scan_log2 = monolithic.scan_log2.clone();
                scan_log2[j] = (run.relation.len().max(1) as f64).log2();
                let (value, by_lp) = bound_or_product(&batch.results[0], full, logical, &scan_log2);
                stats.solved += batch.solved;
                stats.bounded += usize::from(by_lp);
                stats.fallbacks += usize::from(!by_lp);
                union_bound = log2_sum(union_bound, value);
                part_output_bounds.push(value);
            }
            // The union materializes the sum of the parts' outputs, so the
            // candidate's cost is at least `union_bound`.
            let to_beat = best.as_ref().map_or(monolithic_cost, |b| b.cost);
            if union_bound >= to_beat {
                stats.refused += 1;
                continue;
            }

            // --- Reuse: only sub-joins through atom `j` are re-bounded. ---
            let (reused, fresh) = reusable_bounds(monolithic, j);
            let fresh_atoms = atom_lists(logical, &fresh);

            // Plan each part independently with the shared DP.
            let mut cost = f64::NEG_INFINITY;
            let mut branches = Vec::with_capacity(runs.len());
            for (run, output_bound) in runs.into_iter().zip(part_output_bounds) {
                let batch = self.estimator.bound_subqueries(
                    &run.query,
                    &run.catalog,
                    &fresh_atoms,
                    &config,
                );
                let mut known = reused.clone();
                known.push((full, output_bound));
                let bounds = fold_bounds(
                    &run.query,
                    &run.catalog,
                    logical,
                    monolithic.subsets.clone(),
                    &known,
                    &fresh,
                    &batch,
                )?;
                stats.solved += bounds.solved;
                stats.bounded += bounds.bounded;
                stats.fallbacks += bounds.fallbacks;
                let chosen = self.choose(logical, &bounds);
                cost = cost.max(chosen.predicted);
                branches.push(PartitionBranch {
                    relation: run.relation,
                    plan: chosen.physical,
                    log2_bound: Some(output_bound),
                });
            }
            let total_cost = cost.max(union_bound);
            if total_cost < to_beat {
                best = Some(PartitionedPick {
                    parts: branches.len(),
                    node: PhysicalNode::PartitionedUnion {
                        atom: j,
                        parts: branches,
                        log2_bound: Some(union_bound),
                    },
                    cost: total_cost,
                });
            }
        }
        Ok(best)
    }
}

/// What [`Optimizer::choose`] proved for one bound table: the lowered plan,
/// its predicted bottleneck, and the left-deep comparison baseline.
struct Chosen {
    physical: PhysicalPlan,
    order: Vec<usize>,
    predicted: f64,
    leftdeep_order: Vec<usize>,
    leftdeep_cost: f64,
}

/// A partitioned plan that beat the monolithic prediction.
struct PartitionedPick {
    node: PhysicalNode,
    cost: f64,
    parts: usize,
}

/// An atom the partition search may split, with the skewed simple
/// conditional `(v | u)` of its relation to split on.
struct SkewCandidate {
    atom: usize,
    v: Vec<String>,
    u: Vec<String>,
}

/// One part of a split candidate posed as a planning run: the query with
/// the split atom rebound to the part, the per-part sub-catalog, and the
/// part itself.
struct PartRun {
    query: JoinQuery,
    catalog: Catalog,
    relation: Arc<Relation>,
}

/// Work accounting for the partitioned search (across every candidate
/// tried, picked or not).
#[derive(Debug, Default)]
struct PartitionSearchStats {
    candidates: usize,
    refused: usize,
    bounded: usize,
    fallbacks: usize,
    solved: usize,
    split_time: Duration,
}

/// The multi-atom masks among `subsets` — the sub-joins an LP bounds
/// (singletons cost their scan size).
fn multi_atom(subsets: &[u64]) -> Vec<u64> {
    subsets
        .iter()
        .copied()
        .filter(|s| s.count_ones() >= 2)
        .collect()
}

/// The atom list of every mask, in the form the batch estimator takes.
fn atom_lists(logical: &LogicalPlan, masks: &[u64]) -> Vec<Vec<usize>> {
    masks
        .iter()
        .map(|&mask| logical.atoms_of(mask).collect())
        .collect()
}

/// Split the connected multi-atom sub-joins of a query whose atom
/// `split_atom` is rebound to a degree part into the entries the monolithic
/// table already proved and the masks to bound per part.  A sub-join
/// without the split atom has the same atoms, relations and statistics in
/// every part, so its LP is literally the one the monolithic table bounded
/// and its entry is reused.  Every other one but the full query (bounded
/// first, on its own) is to be bounded per part, in enumeration order.
fn reusable_bounds(monolithic: &Bounds, split_atom: usize) -> (Vec<(u64, f64)>, Vec<u64>) {
    let full = (1u64 << monolithic.scan_log2.len()) - 1;
    let mut reused = Vec::new();
    let mut fresh = Vec::new();
    for mask in multi_atom(&monolithic.subsets) {
        if mask & (1u64 << split_atom) == 0 {
            let value =
                monolithic.log2[mask as usize].expect("every connected sub-join has a bound");
            reused.push((mask, value));
        } else if mask != full {
            fresh.push(mask);
        }
    }
    (reused, fresh)
}

/// Grid steps per bit of a planner bound: `2⁻³⁰` bits, about the solver's
/// `1e-9` optimality tolerance.
const BOUND_GRID_STEPS_PER_BIT: f64 = (1u64 << 30) as f64;

/// An LP's `log₂` bound as the planner uses it: rounded **up** onto the
/// grid (so it still bounds, and certifies, whatever the LP bounded).  Two
/// solves of one LP — another cone, another pivot order — agree to `1e-13`
/// but not to the bit; on the grid they are one number, so exact ties
/// between plans are ties for every solver and are broken by the DP's own
/// rule.  Scaling by a power of two is exact: the result is never below
/// `log2_bound`, less than one step above it, and a fixed point.
fn canonical(log2_bound: f64) -> f64 {
    let steps = log2_bound * BOUND_GRID_STEPS_PER_BIT;
    if !steps.is_finite() {
        // ±∞, or a magnitude far past where the grid is finer than f64.
        return log2_bound;
    }
    steps.ceil() / BOUND_GRID_STEPS_PER_BIT
}

/// The value a bound attempt contributes to the DP table, and whether the
/// LP produced it: the [`canonical`] `log₂` bound, or — when the attempt
/// failed or came back unbounded — the pessimistic per-atom product of
/// `mask`'s scans.  Every LP result becomes a planner number here and
/// nowhere else.
fn bound_or_product(
    result: &Result<BoundResult, CoreError>,
    mask: u64,
    logical: &LogicalPlan,
    scan_log2: &[f64],
) -> (f64, bool) {
    match result {
        Ok(b) if b.is_bounded() => (canonical(b.log2_bound), true),
        _ => (logical.atoms_of(mask).map(|j| scan_log2[j]).sum(), false),
    }
}

/// Assemble the DP's [`Bounds`] table over `subsets`: singletons cost their
/// scan size, `reused` entries are taken as given, and `batch.results[i]`
/// bounds the multi-atom mask `fresh[i]` (see [`bound_or_product`] for
/// failures).
fn fold_bounds(
    query: &JoinQuery,
    catalog: &Catalog,
    logical: &LogicalPlan,
    subsets: Vec<u64>,
    reused: &[(u64, f64)],
    fresh: &[u64],
    batch: &SubqueryBounds,
) -> Result<Bounds, ExecError> {
    let m = logical.n_atoms();
    let mut scan_log2 = Vec::with_capacity(m);
    let mut log2: Vec<Option<f64>> = vec![None; 1 << m];
    for &(mask, value) in reused {
        log2[mask as usize] = Some(value);
    }
    for j in 0..m {
        let size = catalog.get(&query.atoms()[j].relation)?.len();
        let s = (size.max(1) as f64).log2();
        scan_log2.push(s);
        log2[1 << j] = Some(s);
    }
    debug_assert_eq!(fresh.len(), batch.results.len());
    let mut bounded = 0usize;
    for (&mask, result) in fresh.iter().zip(&batch.results) {
        let (value, by_lp) = bound_or_product(result, mask, logical, &scan_log2);
        bounded += usize::from(by_lp);
        log2[mask as usize] = Some(value);
    }
    Ok(Bounds {
        log2,
        scan_log2,
        subsets,
        bounded,
        fallbacks: fresh.len() - bounded,
        solved: batch.solved,
    })
}

/// `log₂(2^a + 2^b)` without overflowing: the sum-of-parts combination of
/// two `log₂` bounds.
fn log2_sum(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (1.0 + (lo - hi).exp2()).log2()
}

/// Certificates for a left-deep run: starting from the (already evaluated)
/// atoms of `start_mask`, join `atoms` one at a time and look up each grown
/// prefix's bound.  This is the single source of truth for step-bound
/// alignment — `step_bounds[i]` always certifies the intermediate right
/// after `atoms[i]` joins.
fn prefix_step_bounds(start_mask: u64, atoms: &[usize], log2: &[Option<f64>]) -> Vec<Option<f64>> {
    let mut prefix = start_mask;
    atoms
        .iter()
        .map(|&j| {
            prefix |= 1u64 << j;
            log2[prefix as usize]
        })
        .collect()
}

/// The bounds a plan materializes, largest first, into `out`: those of its
/// input plan(s) `a` and `b` plus `own`, the bound of the join on top.
fn materialized(a: &[f64], b: &[f64], own: f64, out: &mut Vec<f64>) {
    out.clear();
    out.extend_from_slice(a);
    out.extend_from_slice(b);
    out.push(own);
    out.sort_unstable_by(|x, y| y.total_cmp(x));
}

/// Keep in `slot` the lexicographically smaller of its list and `candidate`
/// — smaller bottleneck first, then smaller next-largest intermediate, and
/// so on; the incumbent stays on a full tie.  `candidate` is scratch space
/// and holds the loser afterwards.
fn keep_smaller<T>(slot: &mut Option<(Vec<f64>, T)>, candidate: &mut Vec<f64>, how: T) {
    match slot {
        Some((list, _)) if list.as_slice() <= candidate.as_slice() => {}
        Some((list, tag)) => {
            std::mem::swap(list, candidate);
            *tag = how;
        }
        None => *slot = Some((candidate.clone(), how)),
    }
}

/// Predicted bottleneck of a left-deep order: the largest prefix bound,
/// with the pessimistic per-atom product fallback for prefixes the bound
/// table does not cover (cross-product prefixes are not connected
/// sub-joins, but their intermediates are real — up to the full product).
fn order_bottleneck(order: &[usize], bounds: &Bounds) -> f64 {
    let mut cost = f64::NEG_INFINITY;
    let mut prefix = 0u64;
    for &j in order {
        prefix |= 1u64 << j;
        let b = bounds.log2[prefix as usize].unwrap_or_else(|| {
            bounds
                .scan_log2
                .iter()
                .enumerate()
                .filter(|&(k, _)| prefix & (1u64 << k) != 0)
                .map(|(_, &s)| s)
                .sum()
        });
        cost = cost.max(b);
    }
    cost
}

/// Reconstruct the certified physical tree the bushy DP proved optimal for
/// `mask`: scans at the leaves, left-deep [`PhysicalNode::HashChain`] runs
/// for extension choices, [`PhysicalNode::HashJoin`] nodes for splits —
/// every node annotated with its sub-join's bound.
fn build_bushy(mask: u64, best: &[Option<(Vec<f64>, Choice)>], bounds: &Bounds) -> PhysicalNode {
    let choice = |mask: u64| {
        best[mask as usize]
            .as_ref()
            .expect("the DP proved every subtree")
            .1
    };
    match choice(mask) {
        Choice::Leaf(j) => PhysicalNode::Scan {
            atom: j,
            log2_bound: Some(bounds.scan_log2[j]),
        },
        Choice::Split(half) => PhysicalNode::HashJoin {
            left: Box::new(build_bushy(half, best, bounds)),
            right: Box::new(build_bushy(mask & !half, best, bounds)),
            log2_bound: bounds.log2[mask as usize],
        },
        Choice::Extend(_) => {
            // Collect the maximal run of extensions into one chain node.
            let mut atoms_rev = Vec::new();
            let mut s = mask;
            while let Choice::Extend(j) = choice(s) {
                atoms_rev.push(j);
                s &= !(1u64 << j);
            }
            let input = Box::new(build_bushy(s, best, bounds));
            let atoms: Vec<usize> = atoms_rev.into_iter().rev().collect();
            let step_bounds = prefix_step_bounds(s, &atoms, &bounds.log2);
            PhysicalNode::HashChain {
                input,
                atoms,
                step_bounds,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{execute_physical_mode, ColumnRun, ExecMode};
    use lpb_data::RelationBuilder;

    fn exec(query: &JoinQuery, catalog: &Catalog, plan: &PhysicalPlan) -> ColumnRun {
        execute_physical_mode(query, catalog, plan, ExecMode::Vectorized).unwrap()
    }

    fn clique_catalog() -> Catalog {
        let mut edges = Vec::new();
        for a in 0..6u64 {
            for b in 0..6u64 {
                if a != b {
                    edges.push((a, b));
                }
            }
        }
        let mut catalog = Catalog::new();
        catalog.insert(RelationBuilder::binary_from_pairs("E", "a", "b", edges));
        catalog
    }

    #[test]
    fn planning_a_triangle_prefers_the_wcoj_and_warms_the_cache() {
        let catalog = clique_catalog();
        let q = JoinQuery::triangle("E", "E", "E");
        let optimizer = Optimizer::new();
        let plan = optimizer.plan(&q, &catalog).unwrap();
        assert_eq!(plan.strategy(), "wcoj");
        assert_eq!(plan.subqueries_bounded, 4); // three pairs + the full set
        assert_eq!(plan.bound_fallbacks, 0);
        assert!(plan.predicted_log2_cost.is_finite());
        assert!(plan.predicted_log2_cost <= plan.greedy_predicted_log2_cost);
        // Plan-time bounding goes through the optimizer's batch estimator.
        assert_eq!(optimizer.estimator().lps_estimated(), 4);
        // The chosen plan executes to the right answer, and its WCOJ output
        // is certified by the full query's bound.
        let run = exec(&q, &catalog, &plan.physical);
        assert_eq!(run.output_size(), 6 * 5 * 4);
        assert!(run.counters.certificates_checked() > 0);
        assert_eq!(run.certificate_violations(), 0);
    }

    #[test]
    fn planning_an_acyclic_query_reduces_then_chains() {
        let catalog = clique_catalog();
        let q = JoinQuery::path(&["E", "E", "E"]);
        let plan = Optimizer::new().plan(&q, &catalog).unwrap();
        assert_eq!(plan.strategy(), "yannakakis");
        assert_eq!(plan.order.len(), 3);
        let run = exec(&q, &catalog, &plan.physical);
        assert!(run.output_size() > 0);
        // Semi-join passes and chain steps all checked their certificates.
        assert!(run.counters.certificates_checked() >= 3);
        assert_eq!(run.certificate_violations(), 0);
    }

    /// A star on `K`: `R` and `T` hold one row per key, `S` twenty.  Every
    /// left-deep order ends on the full join, so all of them share the
    /// bottleneck; what differs is whether the output-sized `R ⋈ S` (or
    /// `S ⋈ T`) is materialized on the way.  The DP must break the tie by
    /// the next-largest intermediate and join the fan-out atom last.
    #[test]
    fn equal_bottleneck_orders_join_the_fan_out_atom_last() {
        let mut catalog = Catalog::new();
        let keys = 0..50u64;
        catalog.insert(RelationBuilder::binary_from_pairs(
            "R",
            "k",
            "a",
            keys.clone().map(|k| (k, k + 1000)),
        ));
        catalog.insert(RelationBuilder::binary_from_pairs(
            "S",
            "k",
            "b",
            keys.clone()
                .flat_map(|k| (0..20u64).map(move |b| (k, 100 * k + b))),
        ));
        catalog.insert(RelationBuilder::binary_from_pairs(
            "T",
            "k",
            "c",
            keys.map(|k| (k, k + 2000)),
        ));
        let q = JoinQuery::new(
            "fan-out-star",
            vec![
                lpb_core::Atom::new("R", &["K", "A"]),
                lpb_core::Atom::new("S", &["K", "B"]),
                lpb_core::Atom::new("T", &["K", "C"]),
            ],
        )
        .unwrap();
        let optimizer = Optimizer::new();
        let fan_out_last = optimizer.cost_order(&q, &catalog, &[0, 2, 1]).unwrap();
        let fan_out_first = optimizer.cost_order(&q, &catalog, &[0, 1, 2]).unwrap();
        assert_eq!(fan_out_last.to_bits(), fan_out_first.to_bits(), "a tie");

        let plan = optimizer.plan(&q, &catalog).unwrap();
        assert_eq!(plan.predicted_log2_cost.to_bits(), fan_out_last.to_bits());
        assert_eq!(plan.order.last(), Some(&1), "{}", plan.physical.describe());
        assert_eq!(plan.leftdeep_order.last(), Some(&1));
        let run = exec(&q, &catalog, &plan.physical);
        assert_eq!(run.output_size(), 50 * 20);
        assert_eq!(run.certificate_violations(), 0);
    }

    #[test]
    fn canonical_bounds_round_up_onto_the_grid_and_stay_there() {
        let step = 1.0 / BOUND_GRID_STEPS_PER_BIT;
        for x in [
            0.0,
            1.0,
            -3.25e-7,
            1e-12,
            12.0 - 1e-13,
            12.0 + 1e-13,
            11.312719029439,
            17.862511557519,
            4.0e6 + 0.1,
            1e300,
        ] {
            let c = canonical(x);
            assert!(c >= x, "{x}: rounded down to {c}");
            assert!(c - x < step, "{x}: {c} is a step or more away");
            assert_eq!(
                canonical(c).to_bits(),
                c.to_bits(),
                "{x}: not a fixed point"
            );
        }
        // Two solves of one LP differ in their last bits and are one number
        // to the planner.
        assert_eq!(
            canonical(11.312719029439).to_bits(),
            canonical(11.312719029439 + 1e-13).to_bits()
        );
        assert_eq!(canonical(f64::INFINITY), f64::INFINITY);
        assert_eq!(canonical(f64::NEG_INFINITY), f64::NEG_INFINITY);
    }

    /// A query past [`MAX_DP_ATOMS`] is planned on the greedy-by-size order:
    /// no predicted cost, no bounded sub-join, no certificate.
    #[test]
    fn oversized_queries_fall_back_to_greedy() {
        let mut catalog = Catalog::new();
        catalog.insert(RelationBuilder::binary_from_pairs(
            "E",
            "a",
            "b",
            (0..30u64).map(|i| (i % 5, (i + 1) % 5)),
        ));
        let q = JoinQuery::path(&["E"; MAX_DP_ATOMS + 1]);
        let optimizer = Optimizer::new();
        let plan = optimizer.plan(&q, &catalog).unwrap();
        assert!(plan.predicted_log2_cost.is_nan());
        assert!(plan.leftdeep_predicted_log2_cost.is_nan());
        assert_eq!(plan.subqueries_bounded, 0);
        assert_eq!(plan.bound_fallbacks, 0);
        assert_eq!(plan.strategy(), "yannakakis");
        assert_eq!(plan.order, plan.greedy_order);
        // Fallback plans carry no certificates.
        assert!(plan.physical.certificates().is_empty());
        assert_eq!(optimizer.estimator().lps_estimated(), 0);
    }

    /// The DP's tables are dense over the atom masks, so 16 atoms is as far
    /// as it can go, and the planner's own gate, [`MAX_DP_ATOMS`], sits at
    /// or below that and no configuration moves it: a 12-atom chain is
    /// planned by the DP, while 13-, 16- and 17-atom chains fall back to
    /// greedy under every configuration, and the harvest and `cost_order`
    /// decline them before any LP.
    #[test]
    fn the_dp_gate_stops_at_sixteen_atoms_whatever_the_configuration() {
        assert_eq!(DP_ATOM_LIMIT, 16);
        assert_eq!(MAX_DP_ATOMS, 12);
        let mut catalog = Catalog::new();
        catalog.insert(RelationBuilder::binary_from_pairs(
            "E",
            "a",
            "b",
            (0..12u64).map(|i| (i % 4, (i * 3 + 1) % 4)),
        ));
        let twelve = JoinQuery::path(&["E"; 12]);
        let optimizer = Optimizer::new().with_config(PlannerConfig {
            enable_partitioning: false,
            ..PlannerConfig::default()
        });
        let plan = optimizer.plan(&twelve, &catalog).unwrap();
        assert!(plan.predicted_log2_cost.is_finite());
        assert_eq!(
            plan.subqueries_bounded,
            11 * 12 / 2,
            "every multi-atom path"
        );
        assert_eq!(plan.bound_fallbacks, 0);
        assert!(optimizer.harvest(&twelve, &catalog).is_ok());

        let configurations = [
            PlannerConfig::default(),
            PlannerConfig {
                enable_partitioning: false,
                ..PlannerConfig::default()
            },
            PlannerConfig {
                max_norm: 1,
                ..PlannerConfig::default()
            },
            PlannerConfig {
                max_norm: 8,
                ..PlannerConfig::default()
            },
        ];
        for n in [MAX_DP_ATOMS + 1, DP_ATOM_LIMIT, DP_ATOM_LIMIT + 1] {
            let q = JoinQuery::path(&vec!["E"; n]);
            let order: Vec<usize> = (0..n).collect();
            for config in &configurations {
                let optimizer = Optimizer::new().with_config(config.clone());
                let plan = optimizer.plan(&q, &catalog).unwrap();
                assert!(plan.predicted_log2_cost.is_nan(), "{n} atoms");
                assert_eq!(plan.subqueries_bounded, 0, "{n} atoms");
                assert_eq!(plan.order, plan.greedy_order, "{n} atoms");
                assert!(matches!(
                    optimizer.cost_order(&q, &catalog, &order),
                    Err(ExecError::NotApplicable { .. })
                ));
                assert!(matches!(
                    optimizer.harvest(&q, &catalog),
                    Err(ExecError::NotApplicable { .. })
                ));
                assert_eq!(optimizer.estimator().lps_estimated(), 0, "{n} atoms");
            }
        }
    }

    #[test]
    fn single_atom_queries_plan_trivially() {
        let mut catalog = Catalog::new();
        catalog.insert(RelationBuilder::binary_from_pairs(
            "E",
            "a",
            "b",
            vec![(1, 2)],
        ));
        let q = JoinQuery::new("one", vec![lpb_core::Atom::new("E", &["X", "Y"])]).unwrap();
        let plan = Optimizer::new().plan(&q, &catalog).unwrap();
        assert_eq!(plan.strategy(), "scan");
        let run = exec(&q, &catalog, &plan.physical);
        assert_eq!(run.output_size(), 1);
    }

    #[test]
    fn flat_catalogs_never_partition_and_the_knob_disables_the_search() {
        // The 6-clique has zero skew: no candidate passes the gate.
        let catalog = clique_catalog();
        let q = JoinQuery::triangle("E", "E", "E");
        let plan = Optimizer::new().plan(&q, &catalog).unwrap();
        assert_eq!(plan.parts_planned, 0);
        assert_eq!(plan.partition_subqueries_bounded, 0);
        assert_eq!(
            plan.predicted_log2_cost, plan.monolithic_predicted_log2_cost,
            "non-partitioned plans keep both predictions equal"
        );

        // A skewed self-join partitions by default…
        let mut skewed = Catalog::new();
        let mut edges: Vec<(u64, u64)> = Vec::new();
        for hub in 0..2u64 {
            for j in 0..40u64 {
                edges.push((hub, 10 + j));
                edges.push((10 + j, hub));
            }
        }
        for i in 0..30u64 {
            edges.push((100 + i, 100 + (i + 1) % 30));
        }
        skewed.insert(RelationBuilder::binary_from_pairs("E", "a", "b", edges));
        let plan = Optimizer::new().plan(&q, &skewed).unwrap();
        if plan.parts_planned > 0 {
            assert_eq!(plan.strategy(), "partitioned");
            assert!(plan.predicted_log2_cost < plan.monolithic_predicted_log2_cost);
            assert!(plan.partition_subqueries_bounded > 0);
            let run = exec(&q, &skewed, &plan.physical);
            assert_eq!(run.certificate_violations(), 0);
            assert_eq!(run.counters.parts_executed(), plan.parts_planned);
        }
        // …and the knob turns the whole search off.
        let off = Optimizer::new()
            .with_config(PlannerConfig {
                enable_partitioning: false,
                ..PlannerConfig::default()
            })
            .plan(&q, &skewed)
            .unwrap();
        assert_eq!(off.parts_planned, 0);
        assert_ne!(off.strategy(), "partitioned");
        assert_eq!(off.partition_subqueries_bounded, 0);
    }

    /// A split seeds its parts' sub-catalogs with everything their batches
    /// read: on every planner adversary's candidates, bounding the full
    /// query on a part adds no statistic to its sub-catalog, and every
    /// simple statistic seeded there equals a cold harvest of the part,
    /// bit for bit.
    #[test]
    fn a_split_seeds_every_statistic_its_parts_are_bounded_with() {
        let mut splits = 0;
        for w in lpb_datagen::planner_workloads(1) {
            let optimizer = Optimizer::new();
            // The plan leaves the base relations' statistics cached, as
            // the harvest before a partition search does.
            optimizer.plan(&w.query, &w.catalog).unwrap();
            let config = CollectConfig::with_max_norm(optimizer.config.max_norm);
            let every_atom = [(0..w.query.n_atoms()).collect::<Vec<usize>>()];
            for candidate in optimizer.skew_candidates(&w.query, &w.catalog).unwrap() {
                let Some(runs) = optimizer
                    .split_candidate(&w.query, &w.catalog, &candidate)
                    .unwrap()
                else {
                    continue;
                };
                splits += 1;
                for run in &runs {
                    let seeded = run.catalog.cached_stats();
                    let batch = optimizer.estimator.bound_subqueries(
                        &run.query,
                        &run.catalog,
                        &every_atom,
                        &config,
                    );
                    assert!(batch.results[0].is_ok());
                    assert_eq!(
                        run.catalog.cached_stats(),
                        seeded,
                        "{}",
                        run.relation.name()
                    );

                    let mut cold = Catalog::new();
                    cold.insert((*run.relation).clone());
                    let harvest =
                        lpb_data::StatisticsCollector::standard(optimizer.config.max_norm)
                            .materialize_relation(&cold, run.relation.name())
                            .unwrap();
                    for entry in harvest.entries() {
                        let v: Vec<&str> = entry.key.v.iter().map(String::as_str).collect();
                        let u: Vec<&str> = entry.key.u.iter().map(String::as_str).collect();
                        let got = run
                            .catalog
                            .log_norm(run.relation.name(), &v, &u, entry.key.norm())
                            .unwrap();
                        assert_eq!(got.to_bits(), entry.log_norm.to_bits(), "{:?}", entry.key);
                    }
                    assert_eq!(
                        run.catalog.cached_stats(),
                        seeded,
                        "{}",
                        run.relation.name()
                    );
                }
            }
        }
        assert!(splits >= 3, "{splits} candidates split");
    }

    impl Optimizer {
        /// The partition search before it became bound-first and
        /// incremental: a full bound table over **every** connected
        /// sub-join of every part of every candidate, the union bound
        /// formed last.  Kept as the reference the incremental
        /// [`Optimizer::partitioned_plan`] must agree with.
        fn partitioned_plan_exhaustive(
            &self,
            query: &JoinQuery,
            catalog: &Catalog,
            logical: &LogicalPlan,
            monolithic_cost: f64,
        ) -> Option<PartitionedPick> {
            let full: u64 = (1u64 << query.n_atoms()) - 1;
            let mut best: Option<PartitionedPick> = None;
            for candidate in self.skew_candidates(query, catalog).unwrap() {
                let Some(runs) = self.split_candidate(query, catalog, &candidate).unwrap() else {
                    continue;
                };
                let mut cost = f64::NEG_INFINITY;
                let mut union_bound = f64::NEG_INFINITY;
                let mut branches = Vec::new();
                for run in runs {
                    let bounds = self
                        .harvest_bounds(&run.query, &run.catalog, logical)
                        .unwrap();
                    let chosen = self.choose(logical, &bounds);
                    cost = cost.max(chosen.predicted);
                    let output = bounds.log2[full as usize].unwrap();
                    union_bound = log2_sum(union_bound, output);
                    branches.push(PartitionBranch {
                        relation: run.relation,
                        plan: chosen.physical,
                        log2_bound: Some(output),
                    });
                }
                let total_cost = cost.max(union_bound);
                if total_cost < monolithic_cost && best.as_ref().is_none_or(|b| total_cost < b.cost)
                {
                    best = Some(PartitionedPick {
                        parts: branches.len(),
                        node: PhysicalNode::PartitionedUnion {
                            atom: candidate.atom,
                            parts: branches,
                            log2_bound: Some(union_bound),
                        },
                        cost: total_cost,
                    });
                }
            }
            best
        }
    }

    /// Run the incremental and the exhaustive partition search over one
    /// monolithic bound table and assert they decide alike: same pick or no
    /// pick, and for a pick the same split atom, part count, predicted cost
    /// and physical plan (tree, part relations, every certificate).  Returns
    /// whether a partition was picked.
    fn assert_searches_agree(query: &JoinQuery, catalog: &Catalog) -> bool {
        let optimizer = Optimizer::new();
        let logical = LogicalPlan::of(query);
        let bounds = optimizer.harvest_bounds(query, catalog, &logical).unwrap();
        let cost = optimizer.choose(&logical, &bounds).predicted;
        let mut stats = PartitionSearchStats::default();
        let new = optimizer
            .partitioned_plan(query, catalog, &logical, &bounds, cost, &mut stats)
            .unwrap();
        let old = optimizer.partitioned_plan_exhaustive(query, catalog, &logical, cost);
        assert_eq!(
            new.is_some(),
            old.is_some(),
            "{}: only one of the searches picked a partition",
            query.name()
        );
        let (Some(new), Some(old)) = (new, old) else {
            return false;
        };
        assert_eq!(new.parts, old.parts, "{}", query.name());
        assert!((new.cost - old.cost).abs() < 1e-9, "{}", query.name());
        let (
            PhysicalNode::PartitionedUnion {
                atom,
                parts: new_parts,
                ..
            },
            PhysicalNode::PartitionedUnion {
                atom: old_atom,
                parts: old_parts,
                ..
            },
        ) = (&new.node, &old.node)
        else {
            panic!("a partitioned pick is a PartitionedUnion");
        };
        assert_eq!(atom, old_atom, "{}", query.name());
        for (a, b) in new_parts.iter().zip(old_parts) {
            assert_eq!(a.relation, b.relation, "{}", query.name());
        }
        let (new, old) = (
            PhysicalPlan::from_root(new.node),
            PhysicalPlan::from_root(old.node),
        );
        assert_eq!(new.describe(), old.describe(), "{}", query.name());
        let (new_certs, old_certs) = (new.certificates(), old.certificates());
        assert_eq!(new_certs.len(), old_certs.len(), "{}", query.name());
        for ((what, a), (old_what, b)) in new_certs.iter().zip(&old_certs) {
            assert_eq!(what, old_what, "{}", query.name());
            assert!((a - b).abs() < 1e-9, "{}: {what}: {a} vs {b}", query.name());
        }
        true
    }

    #[test]
    fn incremental_partition_search_matches_the_exhaustive_one_on_the_planner_workloads() {
        let mut partitioned = Vec::new();
        for w in lpb_datagen::planner_workloads(1) {
            if assert_searches_agree(&w.query, &w.catalog) {
                partitioned.push(w.name);
            }
        }
        assert_eq!(partitioned, vec!["skewed-triangle", "partition-skew"]);
    }

    #[test]
    fn incremental_partition_search_matches_the_exhaustive_one_on_the_served_shapes() {
        let catalog = lpb_datagen::job_like_catalog(&lpb_datagen::JobLikeConfig {
            movies: 200,
            link_fanout: 2,
            seed: 23,
            ..lpb_datagen::JobLikeConfig::default()
        });
        for q in lpb_datagen::job_like_queries().into_iter().take(6) {
            assert_searches_agree(&q.query, &catalog);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// Random skewed middle relation of a chain `R ⋈ S ⋈ T` and of a
        /// triangle over `S` alone: whatever the searches decide, they
        /// decide alike.
        #[test]
        fn incremental_partition_search_matches_the_exhaustive_one_on_skewed_pairs(
            hubs in 1u64..4,
            fanout in 8u64..40,
            background in 1usize..120,
            seed in 0u64..1_000_000,
        ) {
            let mut catalog = Catalog::new();
            catalog.insert(RelationBuilder::binary_from_pairs(
                "S", "b", "c",
                lpb_datagen::skewed_pairs(hubs, fanout, background, seed),
            ));
            catalog.insert(RelationBuilder::binary_from_pairs(
                "R", "a", "b",
                (0..60u64).map(|i| (i, 1000 + (i * 7) % 300)),
            ));
            catalog.insert(RelationBuilder::binary_from_pairs(
                "T", "c", "d",
                (0..24u64).map(|i| (i % 12, i)),
            ));
            let chain = JoinQuery::new(
                "skewed-chain",
                vec![
                    lpb_core::Atom::new("R", &["A", "B"]),
                    lpb_core::Atom::new("S", &["B", "C"]),
                    lpb_core::Atom::new("T", &["C", "D"]),
                ],
            )
            .unwrap();
            assert_searches_agree(&chain, &catalog);
            assert_searches_agree(&JoinQuery::triangle("S", "S", "S"), &catalog);
        }
    }

    #[test]
    fn cost_order_uses_the_product_fallback_for_cross_product_prefixes() {
        // Path R – S – T; the order [R, T, S] crosses the cross-product
        // prefix {R, T} (its atoms share no variable), which no connected
        // sub-join bound covers.  The costing must charge the pessimistic
        // product |R|·|T|, not skip the prefix.
        let mut catalog = Catalog::new();
        catalog.insert(RelationBuilder::binary_from_pairs(
            "R",
            "a",
            "b",
            (0..16u64).map(|i| (i, i % 4)),
        ));
        catalog.insert(RelationBuilder::binary_from_pairs(
            "S",
            "b",
            "c",
            (0..8u64).map(|i| (i % 4, i)),
        ));
        catalog.insert(RelationBuilder::binary_from_pairs(
            "T",
            "c",
            "d",
            (0..32u64).map(|i| (i % 8, i)),
        ));
        let q = JoinQuery::new(
            "rst",
            vec![
                lpb_core::Atom::new("R", &["A", "B"]),
                lpb_core::Atom::new("S", &["B", "C"]),
                lpb_core::Atom::new("T", &["C", "D"]),
            ],
        )
        .unwrap();
        let optimizer = Optimizer::new();
        let crossing = optimizer.cost_order(&q, &catalog, &[0, 2, 1]).unwrap();
        // The cross-product prefix costs exactly log2(|R|·|T|) = log2(512);
        // nothing later in the order can exceed it here.
        assert!(
            crossing >= (16f64 * 32f64).log2() - 1e-9,
            "cross-product prefix must be charged, got 2^{crossing:.3}"
        );
        // A connected order is strictly cheaper than the crossing one.
        let connected = optimizer.cost_order(&q, &catalog, &[0, 1, 2]).unwrap();
        assert!(connected < crossing);
        // Malformed orders are rejected.
        assert!(optimizer.cost_order(&q, &catalog, &[0, 1]).is_err());
        assert!(optimizer.cost_order(&q, &catalog, &[0, 1, 1]).is_err());
    }

    #[test]
    fn greedy_costing_never_understates_a_cross_product_prefix() {
        // Disconnected queries skip bound costing entirely (NaN), so the
        // greedy-costing loop only ever sees connected queries today — but
        // its missing-prefix fallback must still be pessimistic, which
        // cost_order (same helper) locks in above.  Here: on a connected
        // query the greedy predicted cost always has a finite value and is
        // an upper bound max over *all* its prefixes.
        let catalog = clique_catalog();
        let q = JoinQuery::path(&["E", "E", "E"]);
        let plan = Optimizer::new().plan(&q, &catalog).unwrap();
        assert!(plan.greedy_predicted_log2_cost.is_finite());
        assert!(plan.greedy_predicted_log2_cost >= plan.predicted_log2_cost);
    }
}
