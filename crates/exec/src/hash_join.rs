//! In-memory hash join of two columnar intermediates on their shared
//! variables.
//!
//! [`hash_join_columns`] / [`semi_join_columns`] build from column slices,
//! probe a batch at a time, and move matches with column-wise gathers
//! instead of allocating a `Vec<u64>` per output tuple.  Both know their
//! output's row count before they write it, so every output column is
//! allocated at exactly that size.
//! [`hash_join_count`] stops there: it is the join's first pass alone, for a
//! caller that needs only the row count.  [`hash_join_grouped`] is that pass
//! with multiplicities: a counted Yannakakis chain joins its prefix, kept
//! grouped on the variables later steps read ([`Grouped`]), and gets the
//! step's exact size and the next grouping without writing the join.  The
//! unit tests pin all four against the nested-loop oracle
//! ([`crate::oracle`]).

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
    /// Number the distinct keys of `side`'s `rows` rows (passed in, since a
    /// side without columns has no length of its own), reading the key
    /// columns as slices, and report every row's key number to
    /// `key_of_row`, in row order.
    fn build(
        side: &ColumnTable,
        rows: usize,
        key_pos: &[usize],
        mut key_of_row: impl FnMut(u32),
    ) -> KeyIndex {
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
            let mut keys = KeyIndex::Multi(KeyMap::with_capacity_and_hasher(
                rows,
                BuildHasherDefault::default(),
            ));
            let mut key = vec![0u64; key_pos.len()];
            for i in 0..rows {
                for (k, &p) in key_pos.iter().enumerate() {
                    key[k] = side.col(p)[i];
                }
                key_of_row(keys.number(&key));
            }
            keys
        }
    }

    fn len(&self) -> usize {
        match self {
            KeyIndex::Single(keys) => keys.len(),
            KeyIndex::Multi(keys) => keys.len(),
        }
    }

    /// An empty index for keys of `width` values.
    fn for_width(width: usize) -> KeyIndex {
        if width == 1 {
            KeyIndex::Single(KeyMap::default())
        } else {
            KeyIndex::Multi(KeyMap::default())
        }
    }

    /// The number of `key` (of the width the index is for), numbering it
    /// next if it is new.
    #[inline]
    fn number(&mut self, key: &[u64]) -> u32 {
        let next = self.len() as u32;
        match self {
            KeyIndex::Single(keys) => *keys.entry(key[0]).or_insert(next),
            // Look up by slice first: only a new key pays for a copy.
            KeyIndex::Multi(keys) => match keys.get(key) {
                Some(&number) => number,
                None => {
                    keys.insert(key.to_vec(), next);
                    next
                }
            },
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
    fn build(side: &ColumnTable, rows: usize, key_pos: &[usize]) -> BuildTable {
        let mut key_of_row: Vec<u32> = Vec::with_capacity(rows);
        let keys = KeyIndex::build(side, rows, key_pos, |k| key_of_row.push(k));
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

/// A join's smaller side hashed on the shared variables, ready to be probed
/// with the other side.
struct HashProbe<'a> {
    table: BuildTable,
    probe: &'a ColumnTable,
    probe_key_pos: Vec<usize>,
    build_is_left: bool,
}

impl<'a> HashProbe<'a> {
    /// Build on the smaller of `left` and `right`; `None` when either side
    /// is empty, and with it the join.
    fn new(left: &'a ColumnTable, right: &'a ColumnTable) -> Option<Self> {
        Self::with_build(left, left.len(), right, left.len() <= right.len())
    }

    /// Build on `left` (its first `left_rows` rows: a `left` without
    /// columns stands for that many empty tuples) when `build_is_left`,
    /// else on `right`; `None` when either side is empty.  A side without
    /// columns can only be built.
    fn with_build(
        left: &'a ColumnTable,
        left_rows: usize,
        right: &'a ColumnTable,
        build_is_left: bool,
    ) -> Option<Self> {
        if left_rows == 0 || right.is_empty() {
            return None;
        }
        debug_assert!(build_is_left || !left.vars().is_empty());
        let (left_key_pos, right_key_pos): (Vec<usize>, Vec<usize>) =
            left.shared_positions(right).into_iter().unzip();
        let (build, build_rows, probe, build_key_pos, probe_key_pos) = if build_is_left {
            (left, left_rows, right, left_key_pos, right_key_pos)
        } else {
            (right, right.len(), left, right_key_pos, left_key_pos)
        };
        Some(HashProbe {
            table: BuildTable::build(build, build_rows, &build_key_pos),
            probe,
            probe_key_pos,
            build_is_left,
        })
    }

    /// Pass 1: look every probe row up once, batch-at-a-time, and report its
    /// matches as one packed range into the build table (0 = no match), in
    /// row order.
    fn ranges(&self, mut on_range: impl FnMut(u64)) {
        let mut scratch: Vec<u64> = Vec::new();
        for batch in self.probe.batches() {
            self.table
                .keys
                .probe_batch(&batch, &self.probe_key_pos, &mut scratch, |hit| {
                    on_range(hit.map_or(0, |k| self.table.packed_range(k)))
                });
        }
    }
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
pub(crate) fn hash_join_columns(left: &ColumnTable, right: &ColumnTable) -> ColumnTable {
    let right_extra_pos: Vec<usize> = (0..right.vars().len())
        .filter(|&p| left.position(&right.vars()[p]).is_none())
        .collect();
    let mut out_vars: Vec<String> = left.vars().to_vec();
    out_vars.extend(right_extra_pos.iter().map(|&p| right.vars()[p].clone()));

    let Some(join) = HashProbe::new(left, right) else {
        return ColumnTable::empty(out_vars);
    };

    // Pass 1: one packed range per probe row.
    let mut ranges = Vec::with_capacity(join.probe.len());
    let mut out_rows = 0usize;
    join.ranges(|range| {
        out_rows += unpack_range(range).1;
        ranges.push(range);
    });

    // Pass 2: index pairs for one probe batch, reused across batches.
    let mut out = ColumnTable::with_rows(out_vars, out_rows);
    let mut probe_idx: Vec<u32> = Vec::new();
    let mut build_idx: Vec<u32> = Vec::new();
    let n_left = left.vars().len();
    for batch in join.probe.batches() {
        probe_idx.clear();
        build_idx.clear();
        let base = batch.start();
        for (i, &range) in ranges[base..base + batch.len()].iter().enumerate() {
            let (start, len) = unpack_range(range);
            probe_idx.extend(std::iter::repeat_n((base + i) as u32, len));
            build_idx.extend_from_slice(&join.table.rows[start..start + len]);
        }
        if probe_idx.is_empty() {
            continue;
        }
        let (left_idx, right_idx) = if join.build_is_left {
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

/// The row count of [`hash_join_columns`]`(left, right, ..)` from its first
/// pass alone: build, probe, and sum the matched ranges' lengths — no range
/// buffer, no output column, no gather.
pub(crate) fn hash_join_count(left: &ColumnTable, right: &ColumnTable) -> usize {
    let Some(join) = HashProbe::new(left, right) else {
        return 0;
    };
    let mut rows = 0usize;
    join.ranges(|range| rows += unpack_range(range).1);
    rows
}

/// A join input grouped on some of its variables: row `i` of `keys` stands
/// for `weights[i]` rows.  The row count is `weights.len()` — with no
/// variables (`keys` has no columns) a grouping is one row holding the
/// total.
#[derive(Debug)]
pub(crate) struct Grouped {
    pub(crate) keys: ColumnTable,
    pub(crate) weights: Vec<u128>,
}

impl Grouped {
    /// Every row of `table`, standing for itself.
    pub(crate) fn ones(table: ColumnTable) -> Self {
        let weights = vec![1; table.len()];
        Grouped {
            keys: table,
            weights,
        }
    }
}

/// `prev ⋈ next` without writing it: every joined row stands for its `prev`
/// row's weight.  Returns the weights' sum — the row count of the join the
/// weights stand for — and the join grouped on `frontier` (variables of
/// either side, in the order given), one row per distinct tuple with its
/// rows' weights summed, its columns sized exactly.
///
/// Built on `prev` and probed batch-at-a-time with `next` through
/// [`hash_join_count`]'s probe loop.  A probe row's matches are one range of
/// the build table, so their weight is a difference of prefix sums: with an
/// empty frontier that is all the work.  When `next` holds every frontier
/// variable a probe row is one tuple — its own group, unhashed, when the
/// frontier is all of `next`'s variables (a relation's rows are distinct;
/// were they not, the sums would still be exact).  Otherwise each match
/// adds its own weight to the group of its tuple.
pub(crate) fn hash_join_grouped(
    prev: &Grouped,
    next: &ColumnTable,
    frontier: &[String],
) -> (u128, Grouped) {
    let mut weights: Vec<u128> = Vec::new();
    let Some(join) = HashProbe::with_build(&prev.keys, prev.weights.len(), next, true) else {
        let keys = ColumnTable::empty(frontier.to_vec());
        return (0, Grouped { keys, weights });
    };
    let mut sums: Vec<u128> = Vec::with_capacity(join.table.rows.len() + 1);
    sums.push(0);
    for &row in &join.table.rows {
        sums.push(sums[sums.len() - 1] + prev.weights[row as usize]);
    }
    // Where each frontier value is read: `next`'s probe row (`Ok`) when it
    // has the variable, else `prev`'s build row (`Err`).
    let sources: Vec<Result<usize, usize>> = frontier
        .iter()
        .map(|v| match next.position(v) {
            Some(p) => Ok(p),
            None => Err(prev
                .keys
                .position(v)
                .expect("a frontier variable is joined")),
        })
        .collect();
    let per_probe_row = sources.iter().all(Result::is_ok);
    let unhashed = per_probe_row && next.vars().iter().all(|v| frontier.contains(v));
    let read = |key: &mut [u64], probe_row: usize, build_row: usize| {
        for (value, src) in key.iter_mut().zip(&sources) {
            *value = match *src {
                Ok(p) => next.col(p)[probe_row],
                Err(p) => prev.keys.col(p)[build_row],
            };
        }
    };
    // Each group's first joined row, as (probe row, build row): its tuple is
    // gathered from there at the end.
    let (mut probe_of, mut build_of): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
    let mut groups = KeyIndex::for_width(frontier.len());
    let mut add = |key: &[u64], probe_row: usize, build_row: u32, weight: u128| {
        let g = if unhashed {
            weights.len()
        } else {
            groups.number(key) as usize
        };
        if g == weights.len() {
            probe_of.push(probe_row as u32);
            build_of.push(build_row);
            weights.push(weight);
        } else {
            weights[g] += weight;
        }
    };
    let mut key = vec![0u64; frontier.len()];
    let mut total = 0u128;
    let mut probe_row = 0usize;
    join.ranges(|range| {
        let (start, len) = unpack_range(range);
        let weight = sums[start + len] - sums[start];
        total += weight;
        if !frontier.is_empty() && weight > 0 {
            if per_probe_row {
                if !unhashed {
                    read(&mut key, probe_row, 0);
                }
                add(&key, probe_row, 0, weight);
            } else {
                for &build_row in &join.table.rows[start..start + len] {
                    read(&mut key, probe_row, build_row as usize);
                    add(&key, probe_row, build_row, prev.weights[build_row as usize]);
                }
            }
        }
        probe_row += 1;
    });
    if frontier.is_empty() {
        weights.push(total);
    }
    let mut keys = ColumnTable::with_rows(frontier.to_vec(), probe_of.len());
    for (c, src) in sources.iter().enumerate() {
        match *src {
            Ok(p) => keys.gather(c, next, p, &probe_of),
            Err(p) => keys.gather(c, &prev.keys, p, &build_of),
        }
    }
    (total, Grouped { keys, weights })
}

/// Left semi-join: the rows of `left` that have at least one match in
/// `right` on the shared variables (the Yannakakis full reducer's pass),
/// executed as a bitmap filter — probe every batch of `left` against the
/// key set of `right`'s columns, mark survivors in a `Vec<bool>`, then write
/// the surviving rows of each column in one pass.
pub(crate) fn semi_join_columns(left: &ColumnTable, right: &ColumnTable) -> ColumnTable {
    left.filtered(&semi_join_bitmap(left, right))
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
    let keys = KeyIndex::build(right, right.len(), &right_key_pos, |_| {});

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
                let out = hash_join_columns(a, b);
                let mut expect_vars = a.vars().to_vec();
                expect_vars.extend(b.vars().iter().filter(|v| !a.vars().contains(v)).cloned());
                assert_eq!(out.vars(), expect_vars.as_slice());
                let truth = oracle_join(a, b, out.vars());
                assert_eq!(out.sorted_rows(), truth);
                assert_eq!(hash_join_count(a, b), truth.len());
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
        assert_eq!(hash_join_count(&l, &r), out.len());
        assert_eq!(out.sorted_rows(), oracle_join(&l, &r, out.vars()));
    }

    /// `(tuple, weight)` pairs of a grouping, sorted, equal tuples' weights
    /// summed and zero weights left out.
    fn groups(g: &Grouped) -> Vec<(Vec<u64>, u128)> {
        let width = g.keys.vars().len();
        let mut out = std::collections::BTreeMap::<Vec<u64>, u128>::new();
        for (i, &w) in g.weights.iter().enumerate().filter(|(_, &w)| w > 0) {
            *out.entry((0..width).map(|c| g.keys.col(c)[i]).collect())
                .or_default() += w;
        }
        out.into_iter().collect()
    }

    /// What the nested-loop oracle says `prev ⋈ next` is, with every row of
    /// `prev` written out as many times as it weighs, then grouped on
    /// `frontier`: the row count and the groups.
    fn oracle_grouped(
        prev: &Grouped,
        next: &ColumnTable,
        frontier: &[String],
    ) -> (u128, Vec<(Vec<u64>, u128)>) {
        let mut vars = prev.keys.vars().to_vec();
        let extra: Vec<String> = next
            .vars()
            .iter()
            .filter(|v| !vars.contains(v))
            .cloned()
            .collect();
        vars.extend(extra);
        let rows: Vec<Vec<u64>> = if prev.keys.vars().is_empty() {
            // The empty tuple joins every row of `next`.
            let times = prev.weights.iter().sum::<u128>() as usize;
            next.sorted_rows()
                .into_iter()
                .flat_map(|row| std::iter::repeat_n(row, times))
                .collect()
        } else {
            let mut expanded = ColumnTable::empty(prev.keys.vars().to_vec());
            for (i, &w) in prev.weights.iter().enumerate() {
                let row: Vec<u64> = (0..prev.keys.vars().len())
                    .map(|c| prev.keys.col(c)[i])
                    .collect();
                for _ in 0..w {
                    expanded.push_row(&row);
                }
            }
            oracle_join(&expanded, next, &vars)
        };
        let at: Vec<usize> = frontier
            .iter()
            .map(|v| vars.iter().position(|x| x == v).unwrap())
            .collect();
        let mut grouped = std::collections::BTreeMap::<Vec<u64>, u128>::new();
        for row in &rows {
            *grouped
                .entry(at.iter().map(|&p| row[p]).collect())
                .or_default() += 1;
        }
        (rows.len() as u128, grouped.into_iter().collect())
    }

    fn weighted(table: ColumnTable, weights: &[u128]) -> Grouped {
        assert!(table.vars().is_empty() || table.len() == weights.len());
        Grouped {
            keys: table,
            weights: weights.to_vec(),
        }
    }

    #[test]
    fn grouped_join_matches_the_oracle() {
        let names = |vs: &[&str]| vs.iter().map(|v| v.to_string()).collect::<Vec<_>>();
        let cases: Vec<(Grouped, ColumnTable, Vec<&[&str]>)> = vec![
            // Duplicate rows and multiplicities above one, one join variable;
            // frontiers of 0, 1 (from either side) and 3 variables.
            (
                weighted(
                    t(&["X", "Y"], &[&[1, 10], &[2, 10], &[3, 20], &[4, 30]]),
                    &[3, 1, 2, 5],
                ),
                t(
                    &["Y", "Z"],
                    &[&[10, 100], &[10, 100], &[10, 101], &[20, 7], &[40, 1]],
                ),
                vec![
                    &[],
                    &["Z"],
                    &["X"],
                    &["Y"],
                    &["Z", "Y"],
                    &["X", "Y", "Z"],
                    &["Z", "X"],
                ],
            ),
            // A two-variable join key (the multi-key build and probe).
            (
                weighted(
                    t(
                        &["X", "Y", "A"],
                        &[&[1, 2, 5], &[1, 3, 6], &[1, 2, 9], &[4, 4, 4]],
                    ),
                    &[2, 7, 1, 3],
                ),
                t(
                    &["Y", "X", "B"],
                    &[&[2, 1, 7], &[3, 9, 8], &[2, 1, 4], &[2, 1, 4], &[4, 4, 0]],
                ),
                vec![
                    &[],
                    &["B"],
                    &["A", "B", "X"],
                    &["X", "Y"],
                    &["B", "X", "Y"],
                    &["A"],
                ],
            ),
            // No shared variable: a cross product ahead.
            (
                weighted(t(&["X"], &[&[1], &[2]]), &[4, 1]),
                t(&["Z"], &[&[7], &[8], &[8]]),
                vec![&[], &["Z"], &["X"], &["X", "Z"]],
            ),
            // A grouping without variables: one row holding its total.
            (
                weighted(ColumnTable::empty(Vec::new()), &[6]),
                t(&["Y", "Z"], &[&[1, 2], &[1, 3], &[5, 2]]),
                vec![&[], &["Z"], &["Y", "Z"]],
            ),
            // Empty inputs on either side.
            (
                weighted(t(&["X", "Y"], &[]), &[]),
                t(&["Y", "Z"], &[&[1, 2]]),
                vec![&[], &["Z"]],
            ),
            (
                weighted(t(&["X", "Y"], &[&[1, 2]]), &[9]),
                t(&["Y", "Z"], &[]),
                vec![&[], &["X"]],
            ),
        ];
        for (prev, next, frontiers) in &cases {
            for frontier in frontiers {
                let frontier = names(frontier);
                let (total, grouped) = hash_join_grouped(prev, next, &frontier);
                let (truth, truth_groups) = oracle_grouped(prev, next, &frontier);
                assert_eq!(total, truth, "{:?} on {frontier:?}", prev.keys.vars());
                assert_eq!(grouped.keys.vars(), frontier.as_slice());
                assert_eq!(groups(&grouped), truth_groups, "{frontier:?}");
                let next_is_a_set = next.sorted_rows().windows(2).all(|w| w[0] != w[1]);
                if next_is_a_set && !frontier.is_empty() {
                    // One row per distinct tuple.
                    assert_eq!(grouped.weights.len(), truth_groups.len());
                }
                if frontier.is_empty() && total > 0 {
                    // One row holding the total.
                    assert_eq!(grouped.weights, [total]);
                }
            }
            if prev.weights.iter().all(|&w| w == 1) && !prev.keys.vars().is_empty() {
                let truth = oracle_grouped(prev, next, &[]).0;
                assert_eq!(hash_join_count(&prev.keys, next) as u128, truth);
            }
        }
        // Unit weights are `hash_join_count`'s pass, across batch boundaries.
        let n = 3000u64;
        let l = ColumnTable::new(
            vec!["X".into(), "Y".into()],
            vec![(0..n).collect(), (0..n).map(|i| i % 5).collect()],
        );
        let r = t(&["Y", "Z"], &[&[0, 100], &[3, 101], &[3, 102]]);
        let ones = Grouped::ones(r.clone());
        for frontier in [names(&[]), names(&["X"]), names(&["Z"])] {
            let (total, grouped) = hash_join_grouped(&ones, &l, &frontier);
            assert_eq!(total, hash_join_count(&r, &l) as u128);
            assert_eq!(
                (total, groups(&grouped)),
                oracle_grouped(&ones, &l, &frontier)
            );
        }
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
