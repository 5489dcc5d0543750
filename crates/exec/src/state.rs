//! Resumable stage-machine execution: a [`crate::PhysicalPlan`] lowered to
//! a flat DAG of **stages**, executed by an explicit [`ExecState`] that can
//! suspend at any stage boundary and resume bit-identically.
//!
//! A one-shot recursive walk over the plan tree cannot stop halfway: a
//! blown bound certificate could only be *counted*, never acted on.  The
//! stage machine is the crate's one executor:
//!
//! * **Lowering** flattens the strategy tree depth-first into `Vec<Stage>`:
//!   one stage per scan, per hash-chain step, per bushy join, per WCOJ
//!   core, per Yannakakis-reduced residue, per partition branch, and per
//!   partitioned union.  Stage ids are DFS order, so executing stages in id
//!   order is *exactly* the depth-first walk of the tree — same operator
//!   calls, same step labels, same recorded sizes.
//! * **Slots** hold completed intermediates (one [`ColumnTable`] each),
//!   with the [`IntermediateCounters`] its stage recorded.  A slot's table
//!   is released as soon as its single consumer has completed (the slot and
//!   its counters stay), so a hash chain holds two intermediates at a time,
//!   not all of them.  The run's
//!   counters are assembled by merging per-stage recordings in stage-id
//!   order, which makes them independent of *when* a stage actually ran —
//!   the key to bit-identical suspend/resume.
//! * **Scheduling**: one stage at a time on the calling thread, always the
//!   lowest incomplete one, so a run is the depth-first walk however often
//!   it is suspended.  A server gets its parallelism from concurrent
//!   requests, each on its own thread.
//! * **Certificates** are checked per [`CertificatePolicy`]: `Ignore`
//!   records sizes only, `Count` (the default) tallies violations in every
//!   build profile, and `React { slack_log2 }` additionally returns
//!   [`ExecStatus::Suspended`] with a typed [`BoundViolation`] after the
//!   violating stage materializes — leaving the state resumable, with its
//!   completed intermediates exposed through [`ExecState::live_slots`] for
//!   the re-planning controller ([`crate::AdaptiveExecutor`]).
//! * **Counting the root** (crate-private, for [`crate::count_physical`]):
//!   every stage output records its row count, and the root's table is
//!   never filled — a hash-join root stops after its probe pass, a WCOJ
//!   root counts emissions, a scan root reads its relation's length, and a
//!   partitioned union sums its branches' counted roots.  A Yannakakis root counts its whole chain,
//!   not just the last step: after the full reducer each step keeps only
//!   the prefix's frontier — the variables a later relation joins on — one
//!   row per distinct tuple with the number of prefix rows it stands for,
//!   so no prefix is materialized (`count_chain`).  Stages below the root
//!   run as usual.  The recorded steps are the materializing run's, size
//!   for size and certificate for certificate.
//!
//! Partition branches and reduced residues execute as *atomic* stages (a
//! branch drains its whole sub-plan before yielding); a violation inside
//! one surfaces when the stage completes.

use crate::columns::ColumnTable;
use crate::counters::{BoundViolation, CertificatePolicy, IntermediateCounters, CERTIFICATE_SLACK};
use crate::error::ExecError;
use crate::hash_join::{hash_join_columns, hash_join_count, hash_join_grouped, Grouped};
use crate::physical::{assert_parts_disjoint, PartitionBranch, PhysicalNode, PhysicalPlan};
use crate::wcoj::{wcoj_count, wcoj_materialize_columns};
use crate::yannakakis::full_reducer_columns;
use lpb_core::JoinQuery;
use lpb_data::Catalog;
use std::collections::HashMap;

/// One executable unit of the lowered plan.
#[derive(Debug, Clone)]
enum StageOp {
    /// Bind one atom's relation.
    Scan {
        atom: usize,
        log2_bound: Option<f64>,
    },
    /// One hash-chain step: join the input slot with one atom.
    JoinAtom {
        input: usize,
        atom: usize,
        log2_bound: Option<f64>,
    },
    /// Bushy binary join of two completed slots.
    JoinPair {
        left: usize,
        right: usize,
        label: String,
        log2_bound: Option<f64>,
    },
    /// Leapfrog WCOJ over a sub-join.
    Wcoj {
        atoms: Vec<usize>,
        log2_bound: Option<f64>,
    },
    /// Yannakakis full reducer + hash chain over an acyclic sub-join
    /// (atomic: the reducer's passes and chain steps run as one stage).
    Reduced {
        atoms: Vec<usize>,
        scan_bounds: Vec<Option<f64>>,
        step_bounds: Vec<Option<f64>>,
    },
    /// One partition part: the full query with `atom` rebound to the part,
    /// executed by the branch's own plan as a nested (atomic) run.
    Branch {
        atom: usize,
        branch: PartitionBranch,
    },
    /// Union the completed branch slots of a partitioned node.
    Union {
        branch_slots: Vec<usize>,
        log2_bound: Option<f64>,
    },
}

impl StageOp {
    /// Slot ids this stage consumes.
    fn deps(&self) -> Vec<usize> {
        match self {
            StageOp::Scan { .. }
            | StageOp::Wcoj { .. }
            | StageOp::Reduced { .. }
            | StageOp::Branch { .. } => Vec::new(),
            StageOp::JoinAtom { input, .. } => vec![*input],
            StageOp::JoinPair { left, right, .. } => vec![*left, *right],
            StageOp::Union { branch_slots, .. } => branch_slots.clone(),
        }
    }
}

/// A stage plus the original-query atom indices its output covers, in join
/// order.
#[derive(Debug, Clone)]
struct Stage {
    op: StageOp,
    atoms: Vec<usize>,
}

/// What a completed stage produced.
#[derive(Debug, Clone)]
struct StageOutput {
    /// The output's row count, the size its steps record.
    rows: usize,
    /// The output's rows; an empty table when the stage was counted.
    value: ColumnTable,
    /// Steps this stage recorded, assembled into the run's counters in
    /// stage-id order.  Empty for `Branch` stages (see `branch`).
    counters: IntermediateCounters,
    /// For `Branch` stages only: the part name and the branch's raw
    /// recording, rolled up (re-labelled) by the consuming `Union` stage.
    branch: Option<(String, IntermediateCounters)>,
}

impl StageOutput {
    /// A materialized output, with nothing recorded yet.
    fn table(value: ColumnTable) -> Self {
        StageOutput {
            rows: value.len(),
            value,
            counters: IntermediateCounters::new(),
            branch: None,
        }
    }

    /// A counted output: its size and no rows.
    fn counted(rows: usize) -> Self {
        StageOutput {
            rows,
            value: ColumnTable::default(),
            counters: IntermediateCounters::new(),
            branch: None,
        }
    }

    /// Record the output's size as one step under `label`.
    fn recorded(
        mut self,
        label: impl Into<String>,
        log2_bound: Option<f64>,
        policy: CertificatePolicy,
    ) -> Self {
        let _ = self
            .counters
            .record_with_policy(label, self.rows, log2_bound, policy);
        self
    }
}

/// Outcome of [`ExecState::run`] / [`ExecState::run_until`].
#[derive(Debug, Clone, PartialEq)]
pub enum ExecStatus {
    /// Every stage executed; the output is available.
    Done,
    /// The stage limit was reached with stages remaining (no violation).
    Paused,
    /// Under [`CertificatePolicy::React`], an intermediate exceeded its
    /// certificate plus the reaction slack.  The state is resumable:
    /// calling `run` again continues past the violation, or the adaptive
    /// controller can splice a re-planned frontier instead.
    Suspended(BoundViolation),
}

/// A completed intermediate not yet consumed by any completed stage — the
/// resumable frontier the adaptive re-planner builds on.
#[derive(Debug, Clone)]
pub struct LiveSlot {
    /// Original-query atom indices this intermediate covers, in join order.
    pub atoms: Vec<usize>,
    /// The materialized rows, in columnar form.
    pub table: ColumnTable,
    /// True when this is a partition-branch output: it covers the whole
    /// query but only *part* of the data, so it cannot be spliced as a
    /// self-contained intermediate.
    pub partial: bool,
}

/// Resumable execution state of one physical plan: the lowered stage DAG
/// plus every completed intermediate.  Create with [`ExecState::new`],
/// drive with [`run`](Self::run) / [`run_until`](Self::run_until) — always
/// passing the *same* query and catalog the state was built for.
#[derive(Debug, Clone)]
pub struct ExecState {
    policy: CertificatePolicy,
    stages: Vec<Stage>,
    slots: Vec<Option<StageOutput>>,
    root: usize,
    /// Stages that record their output's size without materializing it
    /// (none unless [`counting_root`](Self::counting_root)).
    counted: Vec<bool>,
}

impl ExecState {
    /// Lower a plan into its stage DAG (no execution happens yet).
    ///
    /// Panics when a partitioned node's parts are not disjoint (debug
    /// builds only).
    pub fn new(plan: &PhysicalPlan, policy: CertificatePolicy) -> Self {
        let mut stages = Vec::new();
        let root = lower(plan.root(), &mut stages);
        let slots = vec![None; stages.len()];
        let counted = vec![false; stages.len()];
        ExecState {
            policy,
            stages,
            slots,
            root,
            counted,
        }
    }

    /// Count the root instead of materializing it: the root stage — and,
    /// under a partitioned union, every branch's root — records the sizes
    /// its operators would write, under the same labels and certificates,
    /// so the run's counters equal a materializing run's.  A Yannakakis
    /// root counts every step of its chain; other roots run their inputs as
    /// usual and count their last operator.  The root's table stays empty;
    /// every stage below it is unchanged.
    pub(crate) fn counting_root(mut self) -> Self {
        self.counted[self.root] = true;
        if let StageOp::Union { branch_slots, .. } = &self.stages[self.root].op {
            for &b in branch_slots {
                self.counted[b] = true;
            }
        }
        self
    }

    /// Number of stages in the lowered plan.
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// How many stages have completed.
    pub fn completed_stages(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// True once the root stage has produced the output.
    pub fn is_done(&self) -> bool {
        self.slots[self.root].is_some()
    }

    /// The certificate policy in force.
    pub fn policy(&self) -> CertificatePolicy {
        self.policy
    }

    /// Change the certificate policy for the *remaining* stages (e.g. the
    /// adaptive controller downgrading `React` to `Count` when its re-plan
    /// budget is exhausted).
    pub fn set_policy(&mut self, policy: CertificatePolicy) {
        self.policy = policy;
    }

    /// Run every remaining stage (or until a `React` suspension).
    pub fn run(&mut self, query: &JoinQuery, catalog: &Catalog) -> Result<ExecStatus, ExecError> {
        self.run_until(query, catalog, usize::MAX)
    }

    /// Run until every stage with id `< limit` has completed (or a `React`
    /// suspension fires).  Because lowering is depth-first, dependencies
    /// always have lower ids than their consumers, so the lowest incomplete
    /// stage is always ready, and after a `Paused` return exactly the stages
    /// `0..limit` are complete — which is what makes injected-breakpoint
    /// differential tests exact.
    pub fn run_until(
        &mut self,
        query: &JoinQuery,
        catalog: &Catalog,
        limit: usize,
    ) -> Result<ExecStatus, ExecError> {
        while !self.is_done() {
            let Some(id) = (0..self.stages.len().min(limit)).find(|&id| self.slots[id].is_none())
            else {
                return Ok(ExecStatus::Paused);
            };
            let out = self.exec_stage(id, query, catalog)?;
            let violation = match self.policy {
                CertificatePolicy::React { slack_log2 } => {
                    let rec = out.branch.as_ref().map_or(&out.counters, |(_, c)| c);
                    first_violation(rec, slack_log2)
                }
                _ => None,
            };
            self.slots[id] = Some(out);
            // Each slot has one consumer: its table is dead now.
            for dep in self.stages[id].op.deps() {
                let consumed = self.slots[dep].as_mut().expect("dependency completed");
                drop(std::mem::take(&mut consumed.value));
            }
            if let Some(v) = violation {
                return Ok(ExecStatus::Suspended(v));
            }
        }
        Ok(ExecStatus::Done)
    }

    /// The counters recorded so far, assembled in stage-id order — hence
    /// identical however the run was chopped up.  Branch
    /// recordings not yet absorbed by their union are rolled up
    /// (re-labelled) at the branch's position.
    pub fn counters(&self) -> IntermediateCounters {
        let mut absorbed = vec![false; self.stages.len()];
        for (id, stage) in self.stages.iter().enumerate() {
            if self.slots[id].is_some() {
                if let StageOp::Union { branch_slots, .. } = &stage.op {
                    for &b in branch_slots {
                        absorbed[b] = true;
                    }
                }
            }
        }
        let mut total = IntermediateCounters::new();
        for (id, slot) in self.slots.iter().enumerate() {
            let Some(out) = slot else { continue };
            match &out.branch {
                Some((name, rec)) if !absorbed[id] => total.absorb_part(name, rec.clone()),
                Some(_) => {} // the completed union already holds it
                None => total.merge(out.counters.clone()),
            }
        }
        total
    }

    /// A copy of the output, once [`is_done`](Self::is_done).
    pub fn output_columns(&self) -> Option<ColumnTable> {
        self.slots[self.root].as_ref().map(|o| o.value.clone())
    }

    /// Take the root output out of the state.
    pub(crate) fn take_output(&mut self) -> Option<ColumnTable> {
        self.slots[self.root].take().map(|o| o.value)
    }

    /// The output's row count, once [`is_done`](Self::is_done) — the one
    /// reading of a counted root.
    pub(crate) fn output_rows(&self) -> Option<usize> {
        self.slots[self.root].as_ref().map(|o| o.rows)
    }

    /// Completed intermediates no completed stage has consumed — the
    /// frontier a re-planner treats as exact-statistics scans.  Single-atom
    /// slots are included (the re-planner keeps them as ordinary atoms).
    pub fn live_slots(&self) -> Vec<LiveSlot> {
        let mut consumed = vec![false; self.stages.len()];
        for (id, stage) in self.stages.iter().enumerate() {
            if self.slots[id].is_some() {
                for d in stage.op.deps() {
                    consumed[d] = true;
                }
            }
        }
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| {
                let out = slot.as_ref()?;
                if consumed[id] {
                    return None;
                }
                Some(LiveSlot {
                    atoms: self.stages[id].atoms.clone(),
                    table: out.value.clone(),
                    partial: out.branch.is_some(),
                })
            })
            .collect()
    }

    /// Original-query atoms not covered by any live slot — the part of the
    /// query still to be joined from base relations.
    pub fn remaining_atoms(&self) -> Vec<usize> {
        let live: std::collections::HashSet<usize> = self
            .live_slots()
            .iter()
            .flat_map(|s| s.atoms.iter().copied())
            .collect();
        self.stages[self.root]
            .atoms
            .iter()
            .copied()
            .filter(|a| !live.contains(a))
            .collect()
    }

    /// Execute one stage against the completed slots; the caller stores
    /// the output.  A counted stage (see [`counting_root`](Self::counting_root))
    /// runs every operator below its output as usual and then only counts
    /// what its last operator would write.
    fn exec_stage(
        &self,
        id: usize,
        query: &JoinQuery,
        catalog: &Catalog,
    ) -> Result<StageOutput, ExecError> {
        let policy = self.policy;
        let count = self.counted[id];
        match &self.stages[id].op {
            StageOp::Scan { atom, log2_bound } => {
                let out = if count {
                    StageOutput::counted(ColumnTable::atom_len(query, catalog, *atom)?)
                } else {
                    StageOutput::table(ColumnTable::from_atom(query, catalog, *atom)?)
                };
                let label = format!("scan {}", query.atoms()[*atom].relation);
                Ok(out.recorded(label, *log2_bound, policy))
            }
            StageOp::JoinAtom {
                input,
                atom,
                log2_bound,
            } => {
                let next = ColumnTable::from_atom(query, catalog, *atom)?;
                let input = self.slot_value(*input);
                let out = if count {
                    StageOutput::counted(hash_join_count(input, &next))
                } else {
                    StageOutput::table(hash_join_columns(input, &next))
                };
                let label = format!("⋈ {}", query.atoms()[*atom].relation);
                Ok(out.recorded(label, *log2_bound, policy))
            }
            StageOp::JoinPair {
                left,
                right,
                label,
                log2_bound,
            } => {
                let (left, right) = (self.slot_value(*left), self.slot_value(*right));
                let out = if count {
                    StageOutput::counted(hash_join_count(left, right))
                } else {
                    StageOutput::table(hash_join_columns(left, right))
                };
                Ok(out.recorded(label.clone(), *log2_bound, policy))
            }
            StageOp::Wcoj { atoms, log2_bound } => {
                let sub = query.subquery(atoms)?;
                let out = if count {
                    let rows = wcoj_count(&sub, catalog)?;
                    StageOutput::counted(
                        usize::try_from(rows).expect("the leapfrog counts emissions one by one"),
                    )
                } else {
                    StageOutput::table(wcoj_materialize_columns(&sub, catalog)?)
                };
                Ok(out.recorded(format!("wcoj {}", sub.name()), *log2_bound, policy))
            }
            StageOp::Reduced {
                atoms,
                scan_bounds,
                step_bounds,
            } => {
                let mut out = exec_reduced(query, catalog, atoms, scan_bounds, step_bounds, count)?;
                if matches!(policy, CertificatePolicy::Ignore) {
                    out.counters = strip_checks(&out.counters);
                }
                Ok(out)
            }
            StageOp::Branch { atom, branch } => {
                let part_query = query.with_atom_relation(*atom, branch.relation.name())?;
                let part_catalog = catalog.derive_with(branch.relation.clone());
                // A branch is atomic: it drains its whole sub-plan before
                // the parent state can yield, so React downgrades to Count
                // inside — the violation surfaces when the stage completes.
                let nested_policy = match policy {
                    CertificatePolicy::React { .. } => CertificatePolicy::Count,
                    p => p,
                };
                let mut nested = ExecState::new(&branch.plan, nested_policy);
                if count {
                    nested = nested.counting_root();
                }
                let status = nested.run(&part_query, &part_catalog)?;
                debug_assert_eq!(status, ExecStatus::Done);
                let mut rec = nested.counters();
                let mut out = nested.slots[nested.root]
                    .take()
                    .expect("nested run completed");
                let _ = rec.record_with_policy(
                    format!("output {}", branch.relation.name()),
                    out.rows,
                    branch.log2_bound,
                    nested_policy,
                );
                out.counters = IntermediateCounters::new();
                out.branch = Some((branch.relation.name().to_string(), rec));
                Ok(out)
            }
            StageOp::Union {
                branch_slots,
                log2_bound,
            } => {
                let mut counters = IntermediateCounters::new();
                counters.note_parts_planned(branch_slots.len());
                let mut parts: Vec<&ColumnTable> = Vec::with_capacity(branch_slots.len());
                let mut rows = 0;
                for &b in branch_slots {
                    let out = self.slots[b].as_ref().expect("union deps complete");
                    let (name, rec) = out.branch.as_ref().expect("union deps are branches");
                    counters.absorb_part(name, rec.clone());
                    parts.push(&out.value);
                    rows += out.rows;
                }
                let mut out = if count {
                    StageOutput::counted(rows)
                } else {
                    let first = parts
                        .first()
                        .expect("a partitioned union has at least one part");
                    StageOutput::table(ColumnTable::concat(first.vars().to_vec(), &parts))
                };
                out.counters = counters;
                Ok(out.recorded("∪ partitioned", *log2_bound, policy))
            }
        }
    }

    fn slot_value(&self, id: usize) -> &ColumnTable {
        &self.slots[id].as_ref().expect("dependency completed").value
    }
}

/// Yannakakis: full reducer over the acyclic sub-join, then a hash chain
/// over the reduced relations in the given order.  With `count`, the chain
/// is counted ([`count_chain`]) and no step of it is materialized.
fn exec_reduced(
    query: &JoinQuery,
    catalog: &Catalog,
    atoms: &[usize],
    scan_bounds: &[Option<f64>],
    step_bounds: &[Option<f64>],
    count: bool,
) -> Result<StageOutput, ExecError> {
    let mut counters = IntermediateCounters::new();
    let sub = query.subquery(atoms)?;
    let reduced = full_reducer_columns(&sub, catalog, &mut counters, scan_bounds)?;
    let relation = |i: usize| &query.atoms()[atoms[i]].relation;
    // Step `i` records the reduced relation's size and, past the first, the
    // size of the chain's prefix up to it.
    let mut record = |i: usize, reduced_rows: usize, prefix_rows: Option<usize>| {
        counters.record_checked(
            format!("reduce {}", relation(i)),
            reduced_rows,
            scan_bounds.get(i).copied().flatten(),
        );
        if let Some(rows) = prefix_rows {
            counters.record_checked(
                format!("⋈ {}", relation(i)),
                rows,
                step_bounds.get(i).copied().flatten(),
            );
        }
    };
    let mut out = if count {
        StageOutput::counted(count_chain(reduced, &mut record))
    } else {
        let mut acc: Option<ColumnTable> = None;
        for (i, next) in reduced.into_iter().enumerate() {
            acc = Some(match acc.take() {
                None => {
                    record(i, next.len(), None);
                    next
                }
                Some(prev) => {
                    let joined = hash_join_columns(&prev, &next);
                    record(i, next.len(), Some(joined.len()));
                    joined
                }
            });
        }
        StageOutput::table(acc.expect("a reduced stage has an atom"))
    };
    out.counters = counters;
    Ok(out)
}

/// The hash chain over `reduced`, counted: after each step the prefix is
/// kept grouped on its frontier — the variables a later relation joins on —
/// one row per distinct tuple with the number of prefix rows it stands for
/// ([`hash_join_grouped`]).  The first relation enters with multiplicity 1
/// per row, and the last step's frontier is empty.  Every step's recorded
/// size is the multiplicities' sum, exactly the materialized prefix's row
/// count.  Returns the whole chain's row count.
fn count_chain(
    reduced: Vec<ColumnTable>,
    record: &mut impl FnMut(usize, usize, Option<usize>),
) -> usize {
    // The last relation each variable occurs in.
    let last_use: HashMap<String, usize> = reduced
        .iter()
        .enumerate()
        .flat_map(|(i, t)| t.vars().iter().map(move |v| (v.clone(), i)))
        .collect();
    let mut prefix: Option<Grouped> = None;
    let mut rows = 0;
    for (i, next) in reduced.into_iter().enumerate() {
        let Some(prev) = prefix.take() else {
            rows = next.len();
            record(i, rows, None);
            prefix = Some(Grouped::ones(next));
            continue;
        };
        let frontier: Vec<String> = prev
            .keys
            .vars()
            .iter()
            .chain(
                next.vars()
                    .iter()
                    .filter(|v| prev.keys.position(v).is_none()),
            )
            .filter(|v| last_use[*v] > i)
            .cloned()
            .collect();
        let (total, grouped) = hash_join_grouped(&prev, &next, &frontier);
        // Past `usize` no prefix could have been materialized; the size
        // saturates rather than wraps.
        rows = usize::try_from(total).unwrap_or(usize::MAX);
        record(i, next.len(), Some(rows));
        prefix = Some(grouped);
    }
    rows
}

/// First step in `counters` whose observed size exceeds its certificate by
/// more than the reaction slack.
fn first_violation(counters: &IntermediateCounters, slack_log2: f64) -> Option<BoundViolation> {
    counters.steps().iter().find_map(|s| {
        let bound = s.log2_bound?;
        ((s.rows.max(1) as f64).log2() > bound + CERTIFICATE_SLACK + slack_log2).then(|| {
            BoundViolation {
                label: s.label.clone(),
                rows: s.rows,
                log2_bound: bound,
                slack_log2,
            }
        })
    })
}

/// Re-record every step without certificate checking (the `Ignore` policy
/// for compound stages whose inner operators record through the default
/// counting path).
fn strip_checks(counters: &IntermediateCounters) -> IntermediateCounters {
    let mut out = IntermediateCounters::new();
    for s in counters.steps() {
        let _ = out.record_with_policy(
            s.label.clone(),
            s.rows,
            s.log2_bound,
            CertificatePolicy::Ignore,
        );
    }
    out
}

/// Depth-first lowering: children push their stages before the parent, so
/// stage-id order is the plan tree's depth-first recording order.
fn lower(node: &PhysicalNode, stages: &mut Vec<Stage>) -> usize {
    let push = |stages: &mut Vec<Stage>, op: StageOp, atoms: Vec<usize>| {
        stages.push(Stage { op, atoms });
        stages.len() - 1
    };
    match node {
        PhysicalNode::Scan { atom, log2_bound } => push(
            stages,
            StageOp::Scan {
                atom: *atom,
                log2_bound: *log2_bound,
            },
            vec![*atom],
        ),
        PhysicalNode::HashChain {
            input,
            atoms,
            step_bounds,
        } => {
            let mut slot = lower(input, stages);
            for (i, &j) in atoms.iter().enumerate() {
                let mut cover = stages[slot].atoms.clone();
                cover.push(j);
                slot = push(
                    stages,
                    StageOp::JoinAtom {
                        input: slot,
                        atom: j,
                        log2_bound: step_bounds.get(i).copied().flatten(),
                    },
                    cover,
                );
            }
            slot
        }
        PhysicalNode::HashJoin {
            left,
            right,
            log2_bound,
        } => {
            let l = lower(left, stages);
            let r = lower(right, stages);
            let list = |atoms: &[usize]| {
                atoms
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let label = format!(
                "⋈ bushy[{}|{}]",
                list(&stages[l].atoms),
                list(&stages[r].atoms)
            );
            let mut cover = stages[l].atoms.clone();
            cover.extend_from_slice(&stages[r].atoms);
            push(
                stages,
                StageOp::JoinPair {
                    left: l,
                    right: r,
                    label,
                    log2_bound: *log2_bound,
                },
                cover,
            )
        }
        PhysicalNode::Wcoj { atoms, log2_bound } => push(
            stages,
            StageOp::Wcoj {
                atoms: atoms.clone(),
                log2_bound: *log2_bound,
            },
            atoms.clone(),
        ),
        PhysicalNode::Reduced {
            atoms,
            scan_bounds,
            step_bounds,
        } => push(
            stages,
            StageOp::Reduced {
                atoms: atoms.clone(),
                scan_bounds: scan_bounds.clone(),
                step_bounds: step_bounds.clone(),
            },
            atoms.clone(),
        ),
        PhysicalNode::PartitionedUnion {
            atom,
            parts,
            log2_bound,
        } => {
            assert_parts_disjoint(*atom, parts);
            let branch_slots: Vec<usize> = parts
                .iter()
                .map(|b| {
                    let atoms = b.plan.atom_order();
                    push(
                        stages,
                        StageOp::Branch {
                            atom: *atom,
                            branch: b.clone(),
                        },
                        atoms,
                    )
                })
                .collect();
            let cover = stages[branch_slots[0]].atoms.clone();
            push(
                stages,
                StageOp::Union {
                    branch_slots,
                    log2_bound: *log2_bound,
                },
                cover,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpb_data::RelationBuilder;

    /// A consumed intermediate is released the moment its consumer has
    /// completed — at every pause a hash chain holds one table, not all of
    /// them — while the slot itself stays: stage counts, the frontier and
    /// the counters read as if nothing had been dropped.
    #[test]
    fn consumed_slots_release_their_tables_and_keep_their_counters() {
        let mut catalog = Catalog::new();
        for name in ["R", "S", "T"] {
            catalog.insert(RelationBuilder::binary_from_pairs(
                name,
                "a",
                "b",
                (0..30u64).map(|i| (i % 6, (i * 5) % 6)),
            ));
        }
        let query = JoinQuery::path(&["R", "S", "T"]);
        let plan = PhysicalPlan::hash_chain(vec![0, 1, 2]);
        let mut state = ExecState::new(&plan, CertificatePolicy::Count);
        for limit in 1..=state.n_stages() {
            state.run_until(&query, &catalog, limit).unwrap();
            assert_eq!(state.completed_stages(), limit);
            let held: Vec<usize> = (0..limit)
                .filter(|&id| !state.slot_value(id).vars().is_empty())
                .collect();
            assert_eq!(held, [limit - 1], "only the newest table is held");
            assert_eq!(state.live_slots().len(), 1);
            assert_eq!(state.counters().steps().len(), limit);
        }
        assert!(state.is_done());
        let one_shot =
            crate::execute_physical_mode(&query, &catalog, &plan, crate::ExecMode::Vectorized)
                .unwrap();
        assert_eq!(state.counters(), one_shot.counters);
        assert_eq!(state.output_columns(), Some(one_shot.output));
    }
}
