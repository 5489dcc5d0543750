//! In-memory hash join of two columnar intermediates on their shared
//! variables.
//!
//! [`hash_join_columns`] / [`semi_join_columns`] build from column slices,
//! probe a batch at a time, and move matches with column-wise gathers
//! instead of allocating a `Vec<u64>` per output tuple.  Both know their
//! output's row count before they write it, so every output column is taken
//! from the caller's [`ColumnBuffers`] at exactly that size.  The unit
//! tests pin both against the nested-loop oracle ([`crate::oracle`]).

use crate::buffers::ColumnBuffers;
use crate::columns::{ColumnBatch, ColumnTable};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-rotate hasher (rustc's FxHash recipe) for the columnar join
/// tables.  The probe loop is hash-lookup bound, and SipHash's DoS
/// resistance buys nothing for in-memory `u64` join keys — swapping it out
/// is worth ~30% on join-heavy plans.
#[derive(Default)]
struct JoinHasher(u64);

const JOIN_HASH_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for JoinHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(JOIN_HASH_SEED);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }
}

/// Distinct join keys of type `K`, numbered in first-seen order, with the
/// fast hasher.
type KeyMap<K> = HashMap<K, u32, BuildHasherDefault<JoinHasher>>;

/// The distinct keys of a build side, with a dedicated single-column fast
/// path (one `u64`, no key allocation at all — the common case for
/// graph-shaped queries).
enum KeyIndex {
    /// Keyed by one column's value.
    Single(KeyMap<u64>),
    /// Keyed by a composite of several columns.
    Multi(KeyMap<Vec<u64>>),
}

impl KeyIndex {
    /// Number the distinct keys of `side`, reading the key columns as
    /// slices, and report every row's key number to `key_of_row`, in row
    /// order.
    fn build(side: &ColumnTable, key_pos: &[usize], mut key_of_row: impl FnMut(u32)) -> KeyIndex {
        if let [pos] = key_pos {
            let col = side.col(*pos);
            let mut keys: KeyMap<u64> =
                KeyMap::with_capacity_and_hasher(col.len(), BuildHasherDefault::default());
            for &v in col {
                let next = keys.len() as u32;
                key_of_row(*keys.entry(v).or_insert(next));
            }
            KeyIndex::Single(keys)
        } else {
            let mut keys: KeyMap<Vec<u64>> =
                KeyMap::with_capacity_and_hasher(side.len(), BuildHasherDefault::default());
            let mut key = vec![0u64; key_pos.len()];
            for i in 0..side.len() {
                for (k, &p) in key_pos.iter().enumerate() {
                    key[k] = side.col(p)[i];
                }
                let next = keys.len() as u32;
                // Look up by slice first: only a new key pays for a clone.
                key_of_row(match keys.get(key.as_slice()) {
                    Some(&number) => number,
                    None => {
                        keys.insert(key.clone(), next);
                        next
                    }
                });
            }
            KeyIndex::Multi(keys)
        }
    }

    fn len(&self) -> usize {
        match self {
            KeyIndex::Single(keys) => keys.len(),
            KeyIndex::Multi(keys) => keys.len(),
        }
    }

    /// Look up every row of `batch` (key columns at `key_pos`), in row
    /// order.  `scratch` is a reused key buffer, so the multi-key probe
    /// allocates nothing per row.
    fn probe_batch(
        &self,
        batch: &ColumnBatch<'_>,
        key_pos: &[usize],
        scratch: &mut Vec<u64>,
        mut found: impl FnMut(Option<u32>),
    ) {
        match self {
            KeyIndex::Single(keys) => {
                for v in batch.col(key_pos[0]) {
                    found(keys.get(v).copied());
                }
            }
            KeyIndex::Multi(keys) => {
                scratch.clear();
                scratch.resize(key_pos.len(), 0);
                for i in 0..batch.len() {
                    for (k, &p) in key_pos.iter().enumerate() {
                        scratch[k] = batch.col(p)[i];
                    }
                    found(keys.get(scratch.as_slice()).copied());
                }
            }
        }
    }
}

/// The hash table of a columnar join build in CSR form: the rows of key
/// number `k` are `rows[starts[k]..starts[k + 1]]`, ascending.  Two flat
/// arrays instead of one `Vec` per key, and a probe hit is a `(start, len)`
/// pair that can be stored and expanded later without a second lookup.
struct BuildTable {
    keys: KeyIndex,
    starts: Vec<u32>,
    rows: Vec<u32>,
}

impl BuildTable {
    fn build(side: &ColumnTable, key_pos: &[usize]) -> BuildTable {
        let mut key_of_row: Vec<u32> = Vec::with_capacity(side.len());
        let keys = KeyIndex::build(side, key_pos, |k| key_of_row.push(k));
        let n_keys = keys.len();
        // Counting sort by key number: count, prefix-sum, scatter.
        let mut starts = vec![0u32; n_keys + 1];
        for &k in &key_of_row {
            starts[k as usize + 1] += 1;
        }
        for k in 0..n_keys {
            starts[k + 1] += starts[k];
        }
        let mut cursor = starts.clone();
        let mut rows = vec![0u32; key_of_row.len()];
        for (row, &k) in key_of_row.iter().enumerate() {
            rows[cursor[k as usize] as usize] = row as u32;
            cursor[k as usize] += 1;
        }
        BuildTable { keys, starts, rows }
    }

    /// `(start, len)` of key number `k`'s rows, packed into one word.
    #[inline]
    fn packed_range(&self, k: u32) -> u64 {
        let start = self.starts[k as usize];
        let len = self.starts[k as usize + 1] - start;
        u64::from(start) << 32 | u64::from(len)
    }
}

/// The `(start, len)` of a [`BuildTable::packed_range`]; `0` unpacks to an
/// empty range.
#[inline]
fn unpack_range(range: u64) -> (usize, usize) {
    ((range >> 32) as usize, (range & 0xffff_ffff) as usize)
}

/// Natural join of two columnar intermediates on all variables they share.
///
/// The output schema is `left.vars()` followed by the variables of `right`
/// that are not in `left`; the smaller side is built; no shared variables
/// means cartesian product.  Two passes over the probe side, both
/// batch-at-a-time: the first looks every row up once and keeps its matches
/// as a packed `(start, len)` range into the build table, which also gives
/// the output's row count; the second expands each [`ColumnBatch`]'s ranges
/// into index pairs and fills the exactly-sized output columns with one
/// gather per column.
pub(crate) fn hash_join_columns(
    left: &ColumnTable,
    right: &ColumnTable,
    buffers: &ColumnBuffers,
) -> ColumnTable {
    let shared = left.shared_positions(right);
    let left_key_pos: Vec<usize> = shared.iter().map(|&(l, _)| l).collect();
    let right_key_pos: Vec<usize> = shared.iter().map(|&(_, r)| r).collect();
    let right_extra_pos: Vec<usize> = (0..right.vars().len())
        .filter(|p| !right_key_pos.contains(p))
        .collect();

    let mut out_vars: Vec<String> = left.vars().to_vec();
    out_vars.extend(right_extra_pos.iter().map(|&p| right.vars()[p].clone()));

    let (build, probe, build_is_left) = if left.len() <= right.len() {
        (left, right, true)
    } else {
        (right, left, false)
    };
    let (build_key_pos, probe_key_pos) = if build_is_left {
        (&left_key_pos, &right_key_pos)
    } else {
        (&right_key_pos, &left_key_pos)
    };
    if build.is_empty() || probe.is_empty() {
        return ColumnTable::with_rows_in(out_vars, 0, buffers);
    }

    let table = BuildTable::build(build, build_key_pos);

    // Pass 1: one packed range per probe row (0 = no match).
    let mut ranges = buffers.take(probe.len());
    let mut out_rows = 0usize;
    let mut scratch: Vec<u64> = Vec::new();
    for batch in probe.batches() {
        table
            .keys
            .probe_batch(&batch, probe_key_pos, &mut scratch, |hit| {
                let range = hit.map_or(0, |k| table.packed_range(k));
                out_rows += unpack_range(range).1;
                ranges.push(range);
            });
    }

    // Pass 2: index pairs for one probe batch, reused across batches.
    let mut out = ColumnTable::with_rows_in(out_vars, out_rows, buffers);
    let mut probe_idx: Vec<u32> = Vec::new();
    let mut build_idx: Vec<u32> = Vec::new();
    let n_left = left.vars().len();
    for batch in probe.batches() {
        probe_idx.clear();
        build_idx.clear();
        let base = batch.start();
        for (i, &range) in ranges[base..base + batch.len()].iter().enumerate() {
            let (start, len) = unpack_range(range);
            probe_idx.extend(std::iter::repeat_n((base + i) as u32, len));
            build_idx.extend_from_slice(&table.rows[start..start + len]);
        }
        if probe_idx.is_empty() {
            continue;
        }
        let (left_idx, right_idx) = if build_is_left {
            (&build_idx, &probe_idx)
        } else {
            (&probe_idx, &build_idx)
        };
        // One gather per output column: left columns verbatim, then right
        // extras.
        for c in 0..n_left {
            out.gather(c, left, c, left_idx);
        }
        for (o, &p) in right_extra_pos.iter().enumerate() {
            out.gather(n_left + o, right, p, right_idx);
        }
    }
    buffers.give(ranges);
    out
}

/// Left semi-join: the rows of `left` that have at least one match in
/// `right` on the shared variables (the Yannakakis full reducer's pass),
/// executed as a bitmap filter — probe every batch of `left` against the
/// key set of `right`'s columns, mark survivors in a `Vec<bool>`, then write
/// the surviving rows of each column in one pass.
pub(crate) fn semi_join_columns(
    left: &ColumnTable,
    right: &ColumnTable,
    buffers: &ColumnBuffers,
) -> ColumnTable {
    left.filtered(&semi_join_bitmap(left, right), buffers)
}

/// The bitmap of a semi-join: `true` at the rows of `left` with at least
/// one match in `right` on the shared variables.  With no shared variable
/// it is all-true when `right` is non-empty and all-false when it is empty.
fn semi_join_bitmap(left: &ColumnTable, right: &ColumnTable) -> Vec<bool> {
    let shared = left.shared_positions(right);
    if shared.is_empty() {
        return vec![!right.is_empty(); left.len()];
    }
    let left_key_pos: Vec<usize> = shared.iter().map(|&(l, _)| l).collect();
    let right_key_pos: Vec<usize> = shared.iter().map(|&(_, r)| r).collect();
    let keys = KeyIndex::build(right, &right_key_pos, |_| {});

    let mut bitmap = Vec::with_capacity(left.len());
    let mut scratch: Vec<u64> = Vec::new();
    for batch in left.batches() {
        keys.probe_batch(&batch, &left_key_pos, &mut scratch, |hit| {
            bitmap.push(hit.is_some())
        });
    }
    bitmap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::nested_loop_join;
    use lpb_core::{Atom, JoinQuery};
    use lpb_data::{Catalog, RelationBuilder};

    fn t(vars: &[&str], rows: &[&[u64]]) -> ColumnTable {
        let mut out = ColumnTable::empty(vars.iter().map(|s| s.to_string()).collect());
        for row in rows {
            out.push_row(row);
        }
        out
    }

    /// What the nested-loop oracle says `l ⋈ r` is, with columns in
    /// `out_vars` order: the two tables become relations `L` and `R` of a
    /// two-atom query.
    fn oracle_join(l: &ColumnTable, r: &ColumnTable, out_vars: &[String]) -> Vec<Vec<u64>> {
        let mut catalog = Catalog::new();
        let mut atoms = Vec::new();
        for (name, table) in [("L", l), ("R", r)] {
            let vars: Vec<&str> = table.vars().iter().map(String::as_str).collect();
            let mut b = RelationBuilder::new(name, vars.iter().copied())
                .unwrap()
                .keep_duplicates();
            for row in table.sorted_rows() {
                b.push_codes(&row).unwrap();
            }
            catalog.insert(b.build());
            atoms.push(Atom::new(name, &vars));
        }
        let query = JoinQuery::new("l-join-r", atoms).unwrap();
        nested_loop_join(&query, &catalog, out_vars).unwrap()
    }

    #[test]
    fn join_matches_the_oracle() {
        let cases = [
            // One shared variable, duplicates on both sides.
            (
                t(&["X", "Y"], &[&[1, 10], &[2, 10], &[3, 20], &[3, 20]]),
                t(&["Y", "Z"], &[&[10, 100], &[10, 101], &[20, 7], &[30, 1]]),
            ),
            // Two shared variables (multi-key path).
            (
                t(&["X", "Y", "A"], &[&[1, 2, 5], &[1, 3, 6], &[1, 2, 9]]),
                t(&["Y", "X", "B"], &[&[2, 1, 7], &[3, 9, 8], &[2, 1, 4]]),
            ),
            // No shared variables (cartesian product).
            (t(&["X"], &[&[1], &[2]]), t(&["Y"], &[&[7], &[8], &[9]])),
            // Empty side.
            (t(&["X", "Y"], &[]), t(&["Y", "Z"], &[&[1, 2]])),
        ];
        for (l, r) in &cases {
            // Both argument orders: either side may be the build side.
            for (a, b) in [(l, r), (r, l)] {
                let out = hash_join_columns(a, b, &ColumnBuffers::default());
                let mut expect_vars = a.vars().to_vec();
                expect_vars.extend(b.vars().iter().filter(|v| !a.vars().contains(v)).cloned());
                assert_eq!(out.vars(), expect_vars.as_slice());
                assert_eq!(out.sorted_rows(), oracle_join(a, b, out.vars()));
            }
        }
    }

    #[test]
    fn join_on_two_shared_variables() {
        let r = t(&["X", "Y", "A"], &[&[1, 2, 5], &[1, 3, 6]]);
        let s = t(&["Y", "X", "B"], &[&[2, 1, 7], &[3, 9, 8]]);
        // Only (X=1, Y=2) matches.
        assert_eq!(
            hash_join_columns(&r, &s, &ColumnBuffers::default()).sorted_rows(),
            vec![vec![1, 2, 5, 7]]
        );
    }

    #[test]
    fn join_crosses_batch_boundaries() {
        // More probe rows than one batch, matching a small build side.
        let n = 3000u64;
        let l = ColumnTable::new(
            vec!["X".into(), "Y".into()],
            vec![(0..n).collect(), (0..n).map(|i| i % 5).collect()],
        );
        let r = t(&["Y", "Z"], &[&[0, 100], &[3, 101], &[3, 102]]);
        let out = hash_join_columns(&l, &r, &ColumnBuffers::default());
        assert_eq!(out.len() as u64, n / 5 * 3);
        assert_eq!(out.sorted_rows(), oracle_join(&l, &r, out.vars()));
    }

    #[test]
    fn semi_join_filters_dangling_rows() {
        let r = t(&["X", "Y"], &[&[1, 10], &[2, 20], &[3, 30], &[4, 10]]);
        let s = t(&["Y", "Z"], &[&[10, 1], &[30, 2]]);
        assert_eq!(semi_join_bitmap(&r, &s), vec![true, false, true, true]);
        assert_eq!(
            semi_join_columns(&r, &s, &ColumnBuffers::default()).sorted_rows(),
            vec![vec![1, 10], vec![3, 30], vec![4, 10]]
        );
        // With no shared variables everything survives a non-empty right
        // side and nothing survives an empty one.
        assert_eq!(
            semi_join_columns(&r, &t(&["W"], &[&[5]]), &ColumnBuffers::default()).len(),
            4
        );
        assert_eq!(
            semi_join_columns(&r, &t(&["W"], &[]), &ColumnBuffers::default()).len(),
            0
        );
    }
}
