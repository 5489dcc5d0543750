//! Columnar intermediates: the executor's data layout.
//!
//! Every intermediate is a [`ColumnTable`]: one dense `Vec<u64>` per query
//! variable (no per-row allocation, no pointer chasing), processed a
//! fixed-size [`ColumnBatch`] (≤ [`BATCH_ROWS`] rows) at a time, so operators
//!
//! * **scan** by cloning whole columns (a relation is already columnar —
//!   binding an atom is `arity` memcpys, not `n` row allocations),
//! * **probe** hash tables batch-at-a-time, gathering matches into
//!   pre-sized output columns through index lists,
//! * **filter** through bitmaps (one `bool` per row of a batch, then one
//!   compaction pass per column),
//! * **intersect** dictionary-encoded sorted `u64` runs with galloping
//!   ([`gallop_ge`]) — the leapfrog primitive of the WCOJ
//!   (`RunTrie` in the `trie` module).
//!
//! Values are dictionary codes (`u64`) throughout — the dictionary lives in
//! `lpb-data`; this module only fixes the layout.  Tests read results back
//! row-wise through [`ColumnTable::sorted_rows`], which is what the
//! differential tests against the nested-loop oracle ([`crate::oracle`])
//! compare.

use crate::error::ExecError;
use lpb_core::JoinQuery;
use lpb_data::{Catalog, Relation};

/// Rows per [`ColumnBatch`]: operators process at most this many rows per
/// inner loop, keeping the working set (a few columns × 1024 × 8 bytes) in
/// L1/L2 while amortizing per-batch setup.
pub(crate) const BATCH_ROWS: usize = 1024;

/// A materialized columnar intermediate: named columns (query variables),
/// one dense `u64` vector per column.
///
/// Row `i` is `(cols[0][i], …, cols[k-1][i])`.  All columns always have
/// equal length.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnTable {
    vars: Vec<String>,
    cols: Vec<Vec<u64>>,
}

impl ColumnTable {
    /// An empty table with the given variables.
    pub fn empty(vars: Vec<String>) -> Self {
        let cols = vec![Vec::new(); vars.len()];
        ColumnTable { vars, cols }
    }

    /// Build from raw parts; all columns must have equal length.
    pub fn new(vars: Vec<String>, cols: Vec<Vec<u64>>) -> Self {
        assert_eq!(vars.len(), cols.len(), "one column per variable");
        let n = cols.first().map_or(0, Vec::len);
        assert!(
            cols.iter().all(|c| c.len() == n),
            "all columns must have equal length"
        );
        ColumnTable { vars, cols }
    }

    /// Bind atom `atom_idx` of `query`: borrow its relation from the catalog
    /// and copy the columns under the atom's variable names.  This is the
    /// vectorized scan — `arity` memcpys, no per-row work.
    pub fn from_atom(
        query: &JoinQuery,
        catalog: &Catalog,
        atom_idx: usize,
    ) -> Result<Self, ExecError> {
        let atom = &query.atoms()[atom_idx];
        let rel = catalog.get(&atom.relation)?;
        Self::from_relation(&rel, &atom.vars)
    }

    /// Rename a relation's columns to the given query variables.
    pub fn from_relation(rel: &Relation, vars: &[String]) -> Result<Self, ExecError> {
        if rel.arity() != vars.len() {
            return Err(ExecError::AtomArityMismatch {
                relation: rel.name().to_string(),
                atom_arity: vars.len(),
                relation_arity: rel.arity(),
            });
        }
        let cols: Vec<Vec<u64>> = (0..rel.arity()).map(|a| rel.column(a).to_vec()).collect();
        Ok(ColumnTable {
            vars: vars.to_vec(),
            cols,
        })
    }

    /// Column (variable) names.
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// Borrow column `i`.
    pub fn col(&self, i: usize) -> &[u64] {
        &self.cols[i]
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.cols.first().map_or(0, Vec::len)
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The rows in row-major form, sorted — the one row accessor, for tests
    /// and reports that compare result multisets.
    pub fn sorted_rows(&self) -> Vec<Vec<u64>> {
        let mut rows: Vec<Vec<u64>> = (0..self.len())
            .map(|i| self.cols.iter().map(|c| c[i]).collect())
            .collect();
        rows.sort_unstable();
        rows
    }

    /// Position of variable `var`, if present.
    pub fn position(&self, var: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == var)
    }

    /// The variables shared with `other`, as (position here, position
    /// there).
    pub(crate) fn shared_positions(&self, other: &ColumnTable) -> Vec<(usize, usize)> {
        self.vars
            .iter()
            .enumerate()
            .filter_map(|(i, v)| other.position(v).map(|j| (i, j)))
            .collect()
    }

    /// Iterate over the table in fixed-size [`ColumnBatch`] views of at most
    /// [`BATCH_ROWS`] rows each.
    pub(crate) fn batches(&self) -> impl Iterator<Item = ColumnBatch<'_>> {
        let n = self.len();
        (0..n).step_by(BATCH_ROWS).map(move |start| ColumnBatch {
            table: self,
            start,
            end: (start + BATCH_ROWS).min(n),
        })
    }

    /// Append one row (used by the vectorized WCOJ's output writer, which
    /// emits assignments variable-wise).
    #[inline]
    pub(crate) fn push_row(&mut self, row: &[u64]) {
        debug_assert_eq!(row.len(), self.cols.len());
        for (c, &v) in row.iter().enumerate() {
            self.cols[c].push(v);
        }
    }

    /// Gather rows `indices` of column `src` of `from` onto the end of this
    /// table's column `dst` — the columnar join's output move: one tight
    /// loop per column, no per-row allocation.
    #[inline]
    pub(crate) fn gather(&mut self, dst: usize, from: &ColumnTable, src: usize, indices: &[u32]) {
        let source = &from.cols[src];
        self.cols[dst].extend(indices.iter().map(|&i| source[i as usize]));
    }

    /// Keep exactly the rows whose bitmap entry is `true` (the semi-join
    /// filter).  `bitmap.len()` must equal the row count.
    pub(crate) fn retain_rows(&mut self, bitmap: &[bool]) {
        debug_assert_eq!(bitmap.len(), self.len());
        for col in &mut self.cols {
            let mut write = 0usize;
            for (read, &keep) in bitmap.iter().enumerate() {
                if keep {
                    col[write] = col[read];
                    write += 1;
                }
            }
            col.truncate(write);
        }
    }

    /// Reorder columns to match `vars` (a permutation of this table's
    /// variables).
    pub fn reorder(&self, vars: &[&str]) -> ColumnTable {
        assert_eq!(vars.len(), self.vars.len(), "reorder needs a permutation");
        let cols = vars
            .iter()
            .map(|v| {
                let p = self.position(v).expect("reorder variable exists");
                self.cols[p].clone()
            })
            .collect();
        ColumnTable {
            vars: vars.iter().map(|s| s.to_string()).collect(),
            cols,
        }
    }

    /// Append `other`'s rows, reordering its columns to this table's
    /// variable order (both must cover the same variable set).  No
    /// deduplication — the partitioned-union executor relies on disjoint
    /// parts.
    pub(crate) fn extend_reordered(&mut self, other: &ColumnTable) {
        for (dst, var) in self.vars.clone().iter().enumerate() {
            let src = other
                .position(var)
                .expect("union covers the same variables");
            self.cols[dst].extend_from_slice(&other.cols[src]);
        }
    }
}

/// A borrowed view of up to [`BATCH_ROWS`] consecutive rows of a
/// [`ColumnTable`] — the unit of work of every vectorized operator.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColumnBatch<'a> {
    table: &'a ColumnTable,
    start: usize,
    end: usize,
}

impl<'a> ColumnBatch<'a> {
    /// Index (within the parent table) of the batch's first row.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Rows in this batch.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// The batch's slice of column `i`.
    pub fn col(&self, i: usize) -> &'a [u64] {
        &self.table.col(i)[self.start..self.end]
    }
}

/// First index `i ≥ from` with `run[i] >= target`, by exponential
/// (galloping) search: doubling probes from `from`, then a binary search in
/// the bracketed window.  `O(log distance)` instead of `O(distance)`, which
/// is what makes leapfrog seeks over long sorted runs cheap.  `run` must be
/// sorted ascending.
#[inline]
pub(crate) fn gallop_ge(run: &[u64], from: usize, target: u64) -> usize {
    let n = run.len();
    if from >= n || run[from] >= target {
        return from;
    }
    // Invariant: run[lo] < target.  Double the step until we overshoot.
    let mut lo = from;
    let mut step = 1usize;
    while lo + step < n && run[lo + step] < target {
        lo += step;
        step <<= 1;
    }
    let hi = (lo + step).min(n);
    // Binary search in (lo, hi].
    lo + run[lo + 1..hi].partition_point(|&v| v < target) + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpb_data::RelationBuilder;

    #[test]
    fn from_relation_copies_columns_and_renames() {
        let rel = RelationBuilder::binary_from_pairs("E", "src", "dst", vec![(1, 2), (3, 4)]);
        let t = ColumnTable::from_relation(&rel, &["X".into(), "Y".into()]).unwrap();
        assert_eq!(t.vars(), &["X".to_string(), "Y".to_string()]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.col(0), &[1, 3]);
        assert_eq!(t.col(1), &[2, 4]);
        assert!(ColumnTable::from_relation(&rel, &["X".into()]).is_err());
    }

    #[test]
    fn sorted_rows_reads_the_table_back_row_major() {
        let c = ColumnTable::new(
            vec!["X".into(), "Y".into()],
            vec![vec![3, 1, 2, 1], vec![30, 10, 20, 5]],
        );
        assert_eq!(
            c.sorted_rows(),
            vec![vec![1, 5], vec![1, 10], vec![2, 20], vec![3, 30]]
        );
        assert!(ColumnTable::empty(vec!["X".into()])
            .sorted_rows()
            .is_empty());
    }

    #[test]
    fn batches_cover_the_table_in_fixed_chunks() {
        let n = 2 * BATCH_ROWS + 7;
        let c = ColumnTable::new(vec!["X".into()], vec![(0..n as u64).collect()]);
        let batches: Vec<_> = c.batches().collect();
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), BATCH_ROWS);
        assert_eq!(batches[2].len(), 7);
        assert_eq!(batches[1].start(), BATCH_ROWS);
        let total: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, n);
        assert_eq!(batches[2].col(0)[6], (n - 1) as u64);
        // Empty tables produce no batches.
        assert_eq!(ColumnTable::empty(vec!["X".into()]).batches().count(), 0);
    }

    #[test]
    fn gather_and_retain_move_rows_without_rebuilding() {
        let src = ColumnTable::new(
            vec!["X".into(), "Y".into()],
            vec![vec![1, 2, 3, 4], vec![10, 20, 30, 40]],
        );
        let mut out = ColumnTable::empty(vec!["Y".into()]);
        out.gather(0, &src, 1, &[3, 0, 3]);
        assert_eq!(out.col(0), &[40, 10, 40]);

        let mut filtered = src.clone();
        filtered.retain_rows(&[true, false, false, true]);
        assert_eq!(filtered.len(), 2);
        assert_eq!(filtered.col(0), &[1, 4]);
        assert_eq!(filtered.col(1), &[10, 40]);
    }

    #[test]
    fn reorder_and_extend_align_columns() {
        let a = ColumnTable::new(vec!["X".into(), "Y".into()], vec![vec![1, 2], vec![10, 20]]);
        let b = ColumnTable::new(vec!["Y".into(), "X".into()], vec![vec![30], vec![3]]);
        let r = b.reorder(&["X", "Y"]);
        assert_eq!(r.col(0), &[3]);
        let mut u = a.clone();
        u.extend_reordered(&b);
        assert_eq!(u.len(), 3);
        assert_eq!(u.col(0), &[1, 2, 3]);
        assert_eq!(u.col(1), &[10, 20, 30]);
    }

    #[test]
    fn gallop_finds_lower_bounds_like_a_binary_search() {
        let run: Vec<u64> = vec![2, 3, 5, 8, 8, 13, 21, 34, 55];
        for from in 0..run.len() {
            for target in 0..60u64 {
                let expect = run[from..].partition_point(|&v| v < target) + from;
                assert_eq!(
                    gallop_ge(&run, from, target),
                    expect,
                    "from {from} target {target}"
                );
            }
        }
        assert_eq!(gallop_ge(&run, 9, 1), 9);
        assert_eq!(gallop_ge(&[], 0, 7), 0);
    }
}
