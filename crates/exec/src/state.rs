//! The executor's walk: a [`crate::PhysicalPlan`] runs as one depth-first
//! recursion over its [`PhysicalNode`] tree, on the calling thread.
//!
//! * **Order**: a node's children run before it, left to right, so the
//!   recording is the tree's post-order — one step per scan, per hash-chain
//!   step, per bushy join, per WCOJ core, per reduced relation and chain
//!   step of a Yannakakis residue, per partition branch's output and per
//!   partitioned union.  Every node records into the run's one
//!   [`IntermediateCounters`]; a partition branch records into its own,
//!   which the union rolls up (re-labelled with the part's name).  A server
//!   gets its parallelism from concurrent requests, each on its own thread.
//! * **Relations**: every scan, trie, WCOJ and full reducer reads its
//!   relations through one [`RelationView`] — the caller's catalog plus
//!   the parts bound on the way down.  A partition branch runs on its
//!   parent's view with the branch's part bound under the part's name (the
//!   branch's query names it in place of the split atom's relation), so a
//!   branch copies no relation and no cached statistic, and a branch nested
//!   in another falls back to its parent's view for every other name.
//! * **Release**: an intermediate is dropped as soon as the node that
//!   consumes it returns, so a hash chain holds its input, the relation it
//!   joins and its output, never the whole chain.
//! * **Certificates**: every step that carries one is checked
//!   ([`IntermediateCounters::record_checked`]) and a violation is counted,
//!   in every build profile.
//! * **Counting the root** (for [`crate::count_physical`]): every node
//!   records its output's row count, and the root's table is never filled
//!   — a hash-join root stops after its probe pass, a WCOJ root counts
//!   emissions, a scan root reads its relation's length, and a partitioned
//!   union sums its branches' counted roots.  A Yannakakis root counts its
//!   whole chain, not just the last step: after the full reducer each step
//!   keeps only the prefix's frontier — the variables a later relation
//!   joins on — one row per distinct tuple with the number of prefix rows
//!   it stands for, so no prefix is materialized (`count_chain`).  Nodes
//!   below the root run as usual.  The recorded steps are the materializing
//!   run's, size for size and certificate for certificate.

use crate::columns::{ColumnTable, RelationView};
use crate::counters::IntermediateCounters;
use crate::error::ExecError;
use crate::hash_join::{hash_join_columns, hash_join_count, hash_join_grouped, Grouped};
use crate::physical::{assert_parts_disjoint, PhysicalNode};
use crate::wcoj::{build_run_tries, wcoj_count_runs, wcoj_materialize_columns};
use crate::yannakakis::full_reducer_columns;
use lpb_core::JoinQuery;
use std::collections::HashMap;

/// What one node produced: its row count and, unless it was counted, its
/// rows.
pub(crate) struct Output {
    /// The output's row count, the size its step records.
    pub(crate) rows: usize,
    /// The output's rows; an empty table when the node was counted.
    pub(crate) table: ColumnTable,
}

impl Output {
    /// A materialized output.
    fn table(table: ColumnTable) -> Self {
        Output {
            rows: table.len(),
            table,
        }
    }

    /// A counted output: its size and no rows.
    fn counted(rows: usize) -> Self {
        Output {
            rows,
            table: ColumnTable::default(),
        }
    }
}

/// Run `node` depth-first, recording every step into `counters`.  With
/// `count`, the node's last operator only counts what it would write (a
/// partitioned union counts each branch's root); everything below it runs
/// as usual.
pub(crate) fn walk(
    node: &PhysicalNode,
    query: &JoinQuery,
    view: &RelationView<'_>,
    count: bool,
    counters: &mut IntermediateCounters,
) -> Result<Output, ExecError> {
    match node {
        PhysicalNode::Scan { atom, log2_bound } => {
            let out = if count {
                Output::counted(ColumnTable::atom_len(query, view, *atom)?)
            } else {
                Output::table(ColumnTable::bind(query, view, *atom)?)
            };
            let label = format!("scan {}", query.atoms()[*atom].relation);
            counters.record_checked(label, out.rows, *log2_bound);
            Ok(out)
        }
        PhysicalNode::HashChain {
            input,
            atoms,
            step_bounds,
        } => {
            let mut acc = walk(input, query, view, count && atoms.is_empty(), counters)?;
            for (i, &atom) in atoms.iter().enumerate() {
                let next = ColumnTable::bind(query, view, atom)?;
                acc = join(&acc.table, &next, count && i + 1 == atoms.len());
                let label = format!("⋈ {}", query.atoms()[atom].relation);
                counters.record_checked(label, acc.rows, step_bounds.get(i).copied().flatten());
            }
            Ok(acc)
        }
        PhysicalNode::HashJoin {
            left,
            right,
            log2_bound,
        } => {
            let list = |side: &PhysicalNode| {
                let mut atoms = Vec::new();
                side.atom_order(&mut atoms);
                atoms
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let label = format!("⋈ bushy[{}|{}]", list(left), list(right));
            let left = walk(left, query, view, false, counters)?;
            let right = walk(right, query, view, false, counters)?;
            let out = join(&left.table, &right.table, count);
            counters.record_checked(label, out.rows, *log2_bound);
            Ok(out)
        }
        PhysicalNode::Wcoj { atoms, log2_bound } => {
            let sub = query.subquery(atoms)?;
            let tries = build_run_tries(&sub, view)?;
            let out = if count {
                let rows = wcoj_count_runs(&sub, &tries);
                Output::counted(
                    usize::try_from(rows).expect("the leapfrog counts emissions one by one"),
                )
            } else {
                Output::table(wcoj_materialize_columns(&sub, &tries))
            };
            counters.record_checked(format!("wcoj {}", sub.name()), out.rows, *log2_bound);
            Ok(out)
        }
        PhysicalNode::Reduced {
            atoms,
            scan_bounds,
            step_bounds,
        } => exec_reduced(
            query,
            view,
            atoms,
            scan_bounds,
            step_bounds,
            count,
            counters,
        ),
        PhysicalNode::PartitionedUnion {
            atom,
            parts,
            log2_bound,
        } => {
            if parts.is_empty() {
                return Err(ExecError::NotApplicable {
                    reason: format!("the partitioned union of atom {atom} has no parts"),
                });
            }
            assert_parts_disjoint(*atom, parts);
            counters.note_parts_planned(parts.len());
            let mut tables = Vec::with_capacity(parts.len());
            let mut rows = 0;
            for branch in parts {
                // One part: the full query with `atom` rebound to it, run by
                // the branch's own plan into the branch's own recording.
                let name = branch.relation.name();
                let part_query = query.with_atom_relation(*atom, name)?;
                let part_view = view.with_part(&branch.relation);
                let mut part = IntermediateCounters::new();
                let out = walk(
                    branch.plan.root(),
                    &part_query,
                    &part_view,
                    count,
                    &mut part,
                )?;
                part.record_checked(format!("output {name}"), out.rows, branch.log2_bound);
                counters.absorb_part(name, part);
                rows += out.rows;
                tables.push(out.table);
            }
            let out = if count {
                Output::counted(rows)
            } else {
                let parts: Vec<&ColumnTable> = tables.iter().collect();
                Output::table(ColumnTable::concat(tables[0].vars().to_vec(), &parts))
            };
            counters.record_checked("∪ partitioned", out.rows, *log2_bound);
            Ok(out)
        }
    }
}

/// Hash-join two inputs, or with `count` only count what the join would
/// write (its probe pass).
fn join(left: &ColumnTable, right: &ColumnTable, count: bool) -> Output {
    if count {
        Output::counted(hash_join_count(left, right))
    } else {
        Output::table(hash_join_columns(left, right))
    }
}

/// Yannakakis: full reducer over the acyclic sub-join, then a hash chain
/// over the reduced relations in the given order, recorded into
/// `counters`.  With `count`, the chain is counted ([`count_chain`]) and no
/// step of it is materialized.
fn exec_reduced(
    query: &JoinQuery,
    view: &RelationView<'_>,
    atoms: &[usize],
    scan_bounds: &[Option<f64>],
    step_bounds: &[Option<f64>],
    count: bool,
    counters: &mut IntermediateCounters,
) -> Result<Output, ExecError> {
    let sub = query.subquery(atoms)?;
    let reduced = full_reducer_columns(&sub, view, counters, scan_bounds)?;
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
    if count {
        return Ok(Output::counted(count_chain(reduced, &mut record)));
    }
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
    Ok(Output::table(acc.expect("a reduced residue has an atom")))
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Seventeen relations `Rᵢ(X, Aᵢ)` of 256 rows, all on `X = 0`: the
    /// chain's prefix after `k` of them has `256^k` rows, past `usize` from
    /// the eighth on and past `u128` at the last.  Every recorded size
    /// saturates rather than wraps.
    #[test]
    fn a_counted_chain_past_usize_records_usize_max() {
        let reduced: Vec<ColumnTable> = (0..17)
            .map(|i| {
                ColumnTable::new(
                    vec!["X".into(), format!("A{i}")],
                    vec![vec![0; 256], (0..256).collect()],
                )
            })
            .collect();
        let mut recorded = Vec::new();
        let rows = count_chain(reduced, &mut |i, reduced_rows, prefix_rows| {
            recorded.push((i, reduced_rows, prefix_rows))
        });
        assert_eq!(rows, usize::MAX);
        assert_eq!(recorded.len(), 17);
        for (i, reduced_rows, prefix_rows) in recorded {
            assert_eq!(reduced_rows, 256);
            let exact = 256u128
                .checked_pow(i as u32 + 1)
                .and_then(|n| usize::try_from(n).ok());
            let expect = (i > 0).then_some(exact.unwrap_or(usize::MAX));
            assert_eq!(prefix_rows, expect, "step {i}");
        }
    }
}
