//! In-memory hash join of two columnar intermediates on their shared
//! variables.
//!
//! [`hash_join_columns`] / [`semi_join_columns`] build from column slices,
//! probe a batch at a time, and move matches with column-wise gathers
//! instead of allocating a `Vec<u64>` per output tuple.  The unit tests pin
//! both against the nested-loop oracle ([`crate::oracle`]).

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

/// A join hash table keyed by `K` with the fast hasher.
type JoinMap<K> = HashMap<K, Vec<u32>, BuildHasherDefault<JoinHasher>>;

/// The hash table of a columnar join build: row indices of the build side
/// keyed by join key, with a dedicated single-column fast path (one `u64`,
/// no key allocation at all — the common case for graph-shaped queries).
enum BuildTable {
    /// Keyed by one column's value.
    Single(JoinMap<u64>),
    /// Keyed by a composite of several columns.
    Multi(JoinMap<Vec<u64>>),
}

impl BuildTable {
    /// Insert every build-side row, reading the key columns as slices.
    fn build(side: &ColumnTable, key_pos: &[usize]) -> BuildTable {
        if let [pos] = key_pos {
            let col = side.col(*pos);
            let mut table: JoinMap<u64> =
                JoinMap::with_capacity_and_hasher(col.len(), BuildHasherDefault::default());
            for (i, &v) in col.iter().enumerate() {
                table.entry(v).or_default().push(i as u32);
            }
            BuildTable::Single(table)
        } else {
            let mut table: JoinMap<Vec<u64>> =
                JoinMap::with_capacity_and_hasher(side.len(), BuildHasherDefault::default());
            let mut key = vec![0u64; key_pos.len()];
            for i in 0..side.len() {
                for (k, &p) in key_pos.iter().enumerate() {
                    key[k] = side.col(p)[i];
                }
                table.entry(key.clone()).or_default().push(i as u32);
            }
            BuildTable::Multi(table)
        }
    }

    /// Probe one batch: for every batch row with matches, push one
    /// (probe row, build row) index pair per match.  `scratch` is a reused
    /// key buffer, so the multi-key probe allocates nothing per row.
    fn probe_batch(
        &self,
        batch: &ColumnBatch<'_>,
        key_pos: &[usize],
        scratch: &mut Vec<u64>,
        probe_idx: &mut Vec<u32>,
        build_idx: &mut Vec<u32>,
    ) {
        let base = batch.start() as u32;
        match self {
            BuildTable::Single(table) => {
                let col = batch.col(key_pos[0]);
                for (i, v) in col.iter().enumerate() {
                    if let Some(matches) = table.get(v) {
                        for &b in matches {
                            probe_idx.push(base + i as u32);
                            build_idx.push(b);
                        }
                    }
                }
            }
            BuildTable::Multi(table) => {
                scratch.clear();
                scratch.resize(key_pos.len(), 0);
                for i in 0..batch.len() {
                    for (k, &p) in key_pos.iter().enumerate() {
                        scratch[k] = batch.col(p)[i];
                    }
                    if let Some(matches) = table.get(scratch.as_slice()) {
                        for &b in matches {
                            probe_idx.push(base + i as u32);
                            build_idx.push(b);
                        }
                    }
                }
            }
        }
    }
}

/// Natural join of two columnar intermediates on all variables they share.
///
/// The output schema is `left.vars()` followed by the variables of `right`
/// that are not in `left`; the smaller side is built; no shared variables
/// means cartesian product.  Executed batch-at-a-time: the probe side is
/// walked in [`ColumnBatch`]es, matches accumulate as index pairs, and each
/// output column is filled with one gather per batch.
pub(crate) fn hash_join_columns(left: &ColumnTable, right: &ColumnTable) -> ColumnTable {
    let shared = left.shared_positions(right);
    let left_key_pos: Vec<usize> = shared.iter().map(|&(l, _)| l).collect();
    let right_key_pos: Vec<usize> = shared.iter().map(|&(_, r)| r).collect();
    let right_extra_pos: Vec<usize> = (0..right.vars().len())
        .filter(|p| !right_key_pos.contains(p))
        .collect();

    let mut out_vars: Vec<String> = left.vars().to_vec();
    out_vars.extend(right_extra_pos.iter().map(|&p| right.vars()[p].clone()));
    let mut out = ColumnTable::empty(out_vars);

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
        return out;
    }

    let table = BuildTable::build(build, build_key_pos);

    // Index pairs for one probe batch, reused across batches.
    let mut probe_idx: Vec<u32> = Vec::new();
    let mut build_idx: Vec<u32> = Vec::new();
    let mut scratch: Vec<u64> = Vec::new();
    let n_left = left.vars().len();
    for batch in probe.batches() {
        probe_idx.clear();
        build_idx.clear();
        table.probe_batch(
            &batch,
            probe_key_pos,
            &mut scratch,
            &mut probe_idx,
            &mut build_idx,
        );
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
    out
}

/// Left semi-join: the rows of `left` that have at least one match in
/// `right` on the shared variables (the Yannakakis full reducer's pass),
/// executed as a bitmap filter — probe every batch of `left` against a key
/// set built from `right`'s columns, mark survivors in a `Vec<bool>`, then
/// compact each column in one pass.
pub(crate) fn semi_join_columns(left: &ColumnTable, right: &ColumnTable) -> ColumnTable {
    let mut filtered = left.clone();
    let bitmap = semi_join_bitmap(left, right);
    filtered.retain_rows(&bitmap);
    filtered
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
    let keys = BuildTable::build(right, &right_key_pos);

    let mut bitmap = vec![false; left.len()];
    let mut scratch: Vec<u64> = Vec::new();
    for batch in left.batches() {
        let base = batch.start();
        match &keys {
            BuildTable::Single(table) => {
                let col = batch.col(left_key_pos[0]);
                for (i, v) in col.iter().enumerate() {
                    bitmap[base + i] = table.contains_key(v);
                }
            }
            BuildTable::Multi(table) => {
                scratch.clear();
                scratch.resize(left_key_pos.len(), 0);
                for i in 0..batch.len() {
                    for (k, &p) in left_key_pos.iter().enumerate() {
                        scratch[k] = batch.col(p)[i];
                    }
                    bitmap[base + i] = table.contains_key(scratch.as_slice());
                }
            }
        }
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
                let out = hash_join_columns(a, b);
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
            hash_join_columns(&r, &s).sorted_rows(),
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
        let out = hash_join_columns(&l, &r);
        assert_eq!(out.len() as u64, n / 5 * 3);
        assert_eq!(out.sorted_rows(), oracle_join(&l, &r, out.vars()));
    }

    #[test]
    fn semi_join_filters_dangling_rows() {
        let r = t(&["X", "Y"], &[&[1, 10], &[2, 20], &[3, 30], &[4, 10]]);
        let s = t(&["Y", "Z"], &[&[10, 1], &[30, 2]]);
        assert_eq!(semi_join_bitmap(&r, &s), vec![true, false, true, true]);
        assert_eq!(
            semi_join_columns(&r, &s).sorted_rows(),
            vec![vec![1, 10], vec![3, 30], vec![4, 10]]
        );
        // With no shared variables everything survives a non-empty right
        // side and nothing survives an empty one.
        assert_eq!(semi_join_columns(&r, &t(&["W"], &[&[5]])).len(), 4);
        assert_eq!(semi_join_columns(&r, &t(&["W"], &[])).len(), 0);
    }
}
