//! Columnar intermediates: the executor's data layout.
//!
//! Every intermediate is a [`ColumnTable`]: one dense `Vec<u64>` per query
//! variable (no per-row allocation, no pointer chasing), processed a
//! fixed-size [`ColumnBatch`] (≤ [`BATCH_ROWS`] rows) at a time, so operators
//!
//! * **scan** by copying whole columns into buffers of exactly the
//!   relation's length (a relation is already columnar — binding an atom is
//!   `arity` memcpys, not `n` row allocations),
//! * **probe** hash tables batch-at-a-time, gathering matches through index
//!   lists into output columns sized exactly to the match count,
//! * **filter** through bitmaps (one `bool` per row, then one pass per
//!   column that writes only the surviving rows),
//! * **intersect** dictionary-encoded sorted `u64` runs with galloping
//!   ([`gallop_ge`]) — the leapfrog primitive of the WCOJ
//!   (`RunTrie` in the `trie` module).
//!
//! Values are dictionary codes (`u64`) throughout — the dictionary lives in
//! `lpb-data`; this module only fixes the layout.  Tests read results back
//! row-wise through [`ColumnTable::sorted_rows`], which is what the
//! differential tests against the nested-loop oracle ([`crate::oracle`])
//! compare.
//!
//! **Buffer lifecycle.**  Every table carries the [`ColumnBuffers`] handle
//! it was built with.  Each construction site here — the scan
//! ([`ColumnTable::from_relation`]), the exactly-sized operator output
//! (`with_rows_in`: hash join, semi-join filter, union, [`reorder`]) and
//! `Clone` — takes its columns from that handle, and `Drop` gives them
//! back.  Operators know their output's row count before they write a
//! value, so every column of a table has the same capacity and a buffer one
//! request returns fits the same column of the next.  With the default
//! handle all of this is `Vec::with_capacity` and `drop`; with a serving
//! worker's handle the large columns circulate on its free list (see the
//! `buffers` module) and a request in steady state maps no new memory.
//!
//! [`reorder`]: ColumnTable::reorder

use crate::buffers::ColumnBuffers;
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
/// equal length.  Equality compares variables and values, not where the
/// columns were allocated.
#[derive(Debug, Default)]
pub struct ColumnTable {
    vars: Vec<String>,
    cols: Vec<Vec<u64>>,
    buffers: ColumnBuffers,
}

impl PartialEq for ColumnTable {
    fn eq(&self, other: &Self) -> bool {
        self.vars == other.vars && self.cols == other.cols
    }
}

impl Eq for ColumnTable {}

impl Clone for ColumnTable {
    fn clone(&self) -> Self {
        let mut copy = Self::with_rows_in(self.vars.clone(), self.len(), &self.buffers);
        for (dst, src) in copy.cols.iter_mut().zip(&self.cols) {
            dst.extend_from_slice(src);
        }
        copy
    }
}

impl Drop for ColumnTable {
    fn drop(&mut self) {
        for col in self.cols.drain(..) {
            self.buffers.give(col);
        }
    }
}

impl ColumnTable {
    /// An empty table with the given variables.
    pub fn empty(vars: Vec<String>) -> Self {
        Self::with_rows_in(vars, 0, &ColumnBuffers::default())
    }

    /// Build from raw parts; all columns must have equal length.
    pub fn new(vars: Vec<String>, cols: Vec<Vec<u64>>) -> Self {
        assert_eq!(vars.len(), cols.len(), "one column per variable");
        let n = cols.first().map_or(0, Vec::len);
        assert!(
            cols.iter().all(|c| c.len() == n),
            "all columns must have equal length"
        );
        ColumnTable {
            vars,
            cols,
            buffers: ColumnBuffers::default(),
        }
    }

    /// An empty table whose columns each have room for exactly `rows`
    /// values, taken from `buffers` — what every operator that knows its
    /// output size starts from.
    pub(crate) fn with_rows_in(vars: Vec<String>, rows: usize, buffers: &ColumnBuffers) -> Self {
        let cols = vars.iter().map(|_| buffers.take(rows)).collect();
        ColumnTable {
            vars,
            cols,
            buffers: buffers.clone(),
        }
    }

    /// Bind atom `atom_idx` of `query`: borrow its relation from the catalog
    /// and copy the columns under the atom's variable names.  This is the
    /// vectorized scan — `arity` memcpys, no per-row work.
    pub fn from_atom(
        query: &JoinQuery,
        catalog: &Catalog,
        atom_idx: usize,
    ) -> Result<Self, ExecError> {
        Self::from_atom_in(query, catalog, atom_idx, &ColumnBuffers::default())
    }

    /// [`from_atom`](Self::from_atom) with the columns taken from `buffers`.
    pub(crate) fn from_atom_in(
        query: &JoinQuery,
        catalog: &Catalog,
        atom_idx: usize,
        buffers: &ColumnBuffers,
    ) -> Result<Self, ExecError> {
        let atom = &query.atoms()[atom_idx];
        let rel = catalog.get(&atom.relation)?;
        Self::from_relation_in(&rel, &atom.vars, buffers)
    }

    /// Rename a relation's columns to the given query variables.
    pub fn from_relation(rel: &Relation, vars: &[String]) -> Result<Self, ExecError> {
        Self::from_relation_in(rel, vars, &ColumnBuffers::default())
    }

    fn from_relation_in(
        rel: &Relation,
        vars: &[String],
        buffers: &ColumnBuffers,
    ) -> Result<Self, ExecError> {
        if rel.arity() != vars.len() {
            return Err(ExecError::AtomArityMismatch {
                relation: rel.name().to_string(),
                atom_arity: vars.len(),
                relation_arity: rel.arity(),
            });
        }
        let mut scan = Self::with_rows_in(vars.to_vec(), rel.len(), buffers);
        for (a, col) in scan.cols.iter_mut().enumerate() {
            col.extend_from_slice(rel.column(a));
        }
        Ok(scan)
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

    /// The rows whose bitmap entry is `true` (the semi-join filter), as a
    /// new table from `buffers` sized to the survivor count: only surviving
    /// rows are ever written.  `bitmap.len()` must equal the row count.
    pub(crate) fn filtered(&self, bitmap: &[bool], buffers: &ColumnBuffers) -> ColumnTable {
        debug_assert_eq!(bitmap.len(), self.len());
        let kept = bitmap.iter().filter(|&&keep| keep).count();
        let mut out = Self::with_rows_in(self.vars.clone(), kept, buffers);
        for (dst, src) in out.cols.iter_mut().zip(&self.cols) {
            dst.extend(
                src.iter()
                    .zip(bitmap)
                    .filter_map(|(&v, &keep)| keep.then_some(v)),
            );
        }
        out
    }

    /// Reorder columns to match `vars` (a permutation of this table's
    /// variables).
    pub fn reorder(&self, vars: &[&str]) -> ColumnTable {
        assert_eq!(vars.len(), self.vars.len(), "reorder needs a permutation");
        let names = vars.iter().map(|s| s.to_string()).collect();
        Self::concat(names, &[self], &self.buffers)
    }

    /// The rows of all `parts` under `vars`, in part order: columns sized
    /// once to the total, one copy per part, each part's columns matched to
    /// `vars` by name (every part must cover exactly these variables).  No
    /// deduplication — the partitioned-union executor relies on disjoint
    /// parts.
    pub(crate) fn concat(
        vars: Vec<String>,
        parts: &[&ColumnTable],
        buffers: &ColumnBuffers,
    ) -> ColumnTable {
        let rows = parts.iter().map(|p| p.len()).sum();
        let mut out = Self::with_rows_in(vars, rows, buffers);
        for part in parts {
            for (dst, var) in out.cols.iter_mut().zip(&out.vars) {
                let src = part.position(var).expect("parts cover the same variables");
                dst.extend_from_slice(&part.cols[src]);
            }
        }
        out
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

        let filtered = src.filtered(&[true, false, false, true], &ColumnBuffers::default());
        assert_eq!(filtered.vars(), src.vars());
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
        let u = ColumnTable::concat(a.vars().to_vec(), &[&a, &b], &ColumnBuffers::default());
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
