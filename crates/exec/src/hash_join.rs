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
//! ([`crate::oracle`]).  [`KeyWeights`] is the Yannakakis counter's
//! message ([`crate::yannakakis_count`]): a side's row weights summed per
//! key, looked up by the parent's rows.
//!
//! Every kernel, and the counter, finds keys through one [`KeyIndex`], and
//! a key of one variable — the common case: values are dictionary codes,
//! and a chain or a full reducer joins on one variable at a time — is not
//! hashed when it need not be.  One pass over the column the keys are drawn from finds its
//! span (`max − min`); when that is under [`DENSE_SPAN_PER_ROW`] values per
//! row or under [`DENSE_SPAN_FLOOR`] values, a key's number sits in a slot
//! table at `value − min`, and otherwise in a hash map.  The input alone
//! picks the regime, and keys are numbered in first-seen order in both, so
//! outputs, their row order and every recorded size are the same either way.

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

/// A one-variable [`KeyIndex`] is direct-addressed when the column its keys
/// are drawn from spans (`max − min`) fewer than this many values per row —
/// a slot table then costs at most 16 bytes per row, no more than a hash
/// table of the same keys — ...
const DENSE_SPAN_PER_ROW: u64 = 4;

/// ... or fewer than this many values, whatever the column's length: a slot
/// table of at most 16 KiB.
const DENSE_SPAN_FLOOR: u64 = 4096;

/// A [`KeyIndex::Dense`] slot that no key has taken.
const NO_KEY: u32 = u32::MAX;

/// The distinct keys of a build side, numbered in first-seen order.
///
/// A key of one variable is found by its value alone.  When the column the
/// keys are drawn from spans fewer than [`DENSE_SPAN_PER_ROW`] values per
/// row, or fewer than [`DENSE_SPAN_FLOOR`] values (one pass over the column
/// finds its `min` and `max`), its number is direct-addressed in a slot
/// table at `value − min` (`Dense`); otherwise it is hashed (`Single`).
/// Dictionary codes are dense, so one-variable joins take the slot table.  A
/// key of several variables is hashed as a composite (`Multi`).  A key of
/// no variable (a cross product, an empty separator) is the one empty key,
/// number 0, found with no table at all (`Keyless`).  The regime changes
/// how a key is found, never its number.
enum KeyIndex {
    /// Keyed by one column's value `v`, direct-addressed: its number is
    /// `slots[v − min]` unless that is [`NO_KEY`], and a value outside
    /// `min..min + slots.len()` is no key.  `len` keys are numbered.
    Dense {
        min: u64,
        slots: Vec<u32>,
        len: usize,
    },
    /// Keyed by one column's value, hashed.
    Single(KeyMap<u64>),
    /// Keyed by a composite of several columns.
    Multi(KeyMap<Vec<u64>>),
    /// Keyed by no column: every row has the empty key, number 0, which
    /// exists once `len` is 1.
    Keyless { len: usize },
}

impl KeyIndex {
    /// An empty index for one-variable keys drawn from the values of `col`:
    /// direct-addressed when they are dense, else a hash map with room for
    /// `capacity` keys.
    fn single(col: &[u64], capacity: usize) -> KeyIndex {
        let (min, max) = col
            .iter()
            .fold((u64::MAX, 0), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        // An empty column spans nothing.
        let span = max.saturating_sub(min);
        let limit = (col.len() as u64)
            .saturating_mul(DENSE_SPAN_PER_ROW)
            .max(DENSE_SPAN_FLOOR);
        if span < limit {
            #[cfg(test)]
            tally(Regime::Dense);
            KeyIndex::Dense {
                min,
                slots: vec![NO_KEY; span as usize + 1],
                len: 0,
            }
        } else {
            #[cfg(test)]
            tally(Regime::Hashed);
            KeyIndex::Single(KeyMap::with_capacity_and_hasher(
                capacity,
                BuildHasherDefault::default(),
            ))
        }
    }

    /// An empty index for keys of several variables, with room for
    /// `capacity` keys.
    fn multi(capacity: usize) -> KeyIndex {
        #[cfg(test)]
        tally(Regime::Multi);
        KeyIndex::Multi(KeyMap::with_capacity_and_hasher(
            capacity,
            BuildHasherDefault::default(),
        ))
    }

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
        if key_pos.is_empty() {
            #[cfg(test)]
            tally(Regime::Keyless);
            for _ in 0..rows {
                key_of_row(0);
            }
            return KeyIndex::Keyless {
                len: usize::from(rows > 0),
            };
        }
        if let [pos] = key_pos {
            let col = side.col(*pos);
            let mut keys = KeyIndex::single(col, col.len());
            for &v in col {
                key_of_row(keys.number_value(v));
            }
            keys
        } else {
            let mut keys = KeyIndex::multi(rows);
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
            KeyIndex::Dense { len, .. } => *len,
            KeyIndex::Single(keys) => keys.len(),
            KeyIndex::Multi(keys) => keys.len(),
            KeyIndex::Keyless { len } => *len,
        }
    }

    /// The number of the one-variable key `v`, numbering it next if it is
    /// new.  A dense index takes only values of the column it was sized
    /// from.
    #[inline]
    fn number_value(&mut self, v: u64) -> u32 {
        match self {
            KeyIndex::Dense { min, slots, len } => {
                let slot = &mut slots[(v - *min) as usize];
                if *slot == NO_KEY {
                    *slot = *len as u32;
                    *len += 1;
                }
                *slot
            }
            KeyIndex::Single(keys) => {
                let next = keys.len() as u32;
                *keys.entry(v).or_insert(next)
            }
            KeyIndex::Multi(_) | KeyIndex::Keyless { .. } => {
                unreachable!("a composite or empty key is not one value")
            }
        }
    }

    /// The number of `key` (of the width the index is for), numbering it
    /// next if it is new.
    #[inline]
    fn number(&mut self, key: &[u64]) -> u32 {
        match self {
            // Look up by slice first: only a new key pays for a copy.
            KeyIndex::Multi(keys) => match keys.get(key) {
                Some(&number) => number,
                None => {
                    let next = keys.len() as u32;
                    keys.insert(key.to_vec(), next);
                    next
                }
            },
            _ => self.number_value(key[0]),
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
            KeyIndex::Dense { min, slots, .. } => {
                for &v in batch.col(key_pos[0]) {
                    // A value below `min` wraps around past the table's end.
                    let at = v.wrapping_sub(*min);
                    let number = if at < slots.len() as u64 {
                        slots[at as usize]
                    } else {
                        NO_KEY
                    };
                    found((number != NO_KEY).then_some(number));
                }
            }
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
            KeyIndex::Keyless { len } => {
                for _ in 0..batch.len() {
                    found((*len > 0).then_some(0));
                }
            }
        }
    }
}

/// How a [`KeyIndex`] finds its keys, as the unit tests tally them.
#[cfg(test)]
#[derive(Clone, Copy)]
enum Regime {
    Dense,
    Hashed,
    Multi,
    Keyless,
}

#[cfg(test)]
thread_local! {
    /// The key indexes this thread built, by [`Regime`].
    static BUILDS: std::cell::Cell<[usize; 4]> = const { std::cell::Cell::new([0; 4]) };
}

/// Count a key index of `regime` built on this thread.
#[cfg(test)]
fn tally(regime: Regime) {
    BUILDS.with(|builds| {
        let mut now = builds.get();
        now[regime as usize] += 1;
        builds.set(now);
    });
}

/// The key indexes the calling thread built so far: `[dense, hashed on one
/// variable, hashed on several, keyless]`.
#[cfg(test)]
pub(crate) fn key_index_builds() -> [usize; 4] {
    BUILDS.with(std::cell::Cell::get)
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

/// Row weights summed per distinct key, numbered by a [`KeyIndex`]: a
/// Yannakakis counter's message, a child's weight per separator value.
pub(crate) struct KeyWeights {
    keys: KeyIndex,
    sums: Vec<u128>,
}

impl KeyWeights {
    /// Sum `weights[i]` over the rows `i` of `side` with equal key columns
    /// `key_pos` (no columns: one key, the total); every sum saturates at
    /// `u128::MAX`.
    pub(crate) fn sum(side: &ColumnTable, key_pos: &[usize], weights: &[u128]) -> Self {
        let mut sums: Vec<u128> = Vec::new();
        let mut row = 0;
        let keys = KeyIndex::build(side, side.len(), key_pos, |k| {
            let k = k as usize;
            if k == sums.len() {
                sums.push(0);
            }
            sums[k] = sums[k].saturating_add(weights[row]);
            row += 1;
        });
        KeyWeights { keys, sums }
    }

    /// Multiply `weights[i]`, saturating, by the summed weight of row `i`'s
    /// key in `table`'s columns `key_pos` (the summed key's variables, in
    /// order), or by 0 when that key is not here.
    pub(crate) fn scale(&self, table: &ColumnTable, key_pos: &[usize], weights: &mut [u128]) {
        let mut scratch = Vec::new();
        let mut row = 0;
        for batch in table.batches() {
            self.keys.probe_batch(&batch, key_pos, &mut scratch, |hit| {
                let matched = hit.map_or(0, |k| self.sums[k as usize]);
                weights[row] = weights[row].saturating_mul(matched);
                row += 1;
            });
        }
    }
}

/// `prev ⋈ next` without writing it: every joined row stands for its `prev`
/// row's weight.  Returns the weights' sum — the row count of the join the
/// weights stand for — and the join grouped on `frontier` (variables of
/// either side, in the order given), one row per distinct tuple with its
/// rows' weights summed, its columns sized exactly.  Every sum saturates at
/// `u128::MAX` rather than wraps.
///
/// Built on `prev` and probed batch-at-a-time with `next` through
/// [`hash_join_count`]'s probe loop.  A probe row's matches are one range of
/// the build table, so their weight is a difference of prefix sums: with an
/// empty frontier that is all the work.  When `next` holds every frontier
/// variable a probe row is one tuple — its own group, looked up nowhere,
/// when the frontier is all of `next`'s variables (a relation's rows are
/// distinct; were they not, the sums would still be exact).  Otherwise each
/// match adds its own weight to the group of its tuple, numbered by a
/// [`KeyIndex`]: one sized from the column a one-variable frontier is read
/// from, so dense codes are direct-addressed here too.
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
        sums.push(sums[sums.len() - 1].saturating_add(prev.weights[row as usize]));
    }
    // The weight of the build rows `rows[start..start + len]`.
    let range_weight = |start: usize, len: usize| {
        if sums[start + len] < u128::MAX {
            sums[start + len] - sums[start]
        } else {
            // Past a saturated prefix sum a difference says nothing.
            join.table.rows[start..start + len]
                .iter()
                .fold(0u128, |w, &row| {
                    w.saturating_add(prev.weights[row as usize])
                })
        }
    };
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
    let own_group = per_probe_row && next.vars().iter().all(|v| frontier.contains(v));
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
    // Numbers the groups, unless each probe row is its own (an empty
    // frontier has no group to number).
    let mut groups = match sources.as_slice() {
        [] => None,
        _ if own_group => None,
        [Ok(p)] => Some(KeyIndex::single(next.col(*p), 0)),
        [Err(p)] => Some(KeyIndex::single(prev.keys.col(*p), 0)),
        _ => Some(KeyIndex::multi(0)),
    };
    let mut add = |key: &[u64], probe_row: usize, build_row: u32, weight: u128| {
        let g = match &mut groups {
            Some(groups) => groups.number(key) as usize,
            None => weights.len(),
        };
        if g == weights.len() {
            probe_of.push(probe_row as u32);
            build_of.push(build_row);
            weights.push(weight);
        } else {
            weights[g] = weights[g].saturating_add(weight);
        }
    };
    let mut key = vec![0u64; frontier.len()];
    let mut total = 0u128;
    let mut probe_row = 0usize;
    join.ranges(|range| {
        let (start, len) = unpack_range(range);
        let weight = range_weight(start, len);
        total = total.saturating_add(weight);
        if !frontier.is_empty() && weight > 0 {
            if per_probe_row {
                if !own_group {
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
        let (vars, rows) = oracle_weighted_join(prev, next);
        group_on(&vars, &rows, frontier)
    }

    /// The nested-loop oracle's `prev ⋈ next`, every row of `prev` written
    /// out as many times as it weighs: its variables and its rows.
    fn oracle_weighted_join(prev: &Grouped, next: &ColumnTable) -> (Vec<String>, Vec<Vec<u64>>) {
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
        (vars, rows)
    }

    /// `rows` (columns in `vars` order) grouped on `frontier`: the row count
    /// and the groups.
    fn group_on(
        vars: &[String],
        rows: &[Vec<u64>],
        frontier: &[String],
    ) -> (u128, Vec<(Vec<u64>, u128)>) {
        let at: Vec<usize> = frontier
            .iter()
            .map(|v| vars.iter().position(|x| x == v).unwrap())
            .collect();
        let mut grouped = std::collections::BTreeMap::<Vec<u64>, u128>::new();
        for row in rows {
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

    #[test]
    fn multiplicity_sums_saturate() {
        let near = u128::MAX - 1;
        // Key 1's two rows take the build's prefix sums to the ceiling, and
        // key 2's row comes after them.
        let prev = weighted(
            t(&["X", "Y"], &[&[1, 7], &[1, 8], &[2, 7]]),
            &[near, near, 5],
        );
        let next = t(&["X", "Z"], &[&[1, 5], &[2, 5], &[2, 6]]);
        let names = |vs: &[&str]| vs.iter().map(|v| v.to_string()).collect::<Vec<_>>();
        let check = |frontier: &[&str], expect: Vec<(Vec<u64>, u128)>| {
            let (total, grouped) = hash_join_grouped(&prev, &next, &names(frontier));
            assert_eq!(total, u128::MAX, "{frontier:?}");
            assert_eq!(groups(&grouped), expect, "{frontier:?}");
        };
        check(&[], vec![(vec![], u128::MAX)]);
        check(&["X"], vec![(vec![1], u128::MAX), (vec![2], 10)]);
        check(&["Z"], vec![(vec![5], u128::MAX), (vec![6], 5)]);
        check(&["Y"], vec![(vec![7], u128::MAX), (vec![8], near)]);
    }

    /// A key of no variable (a cross product, an empty Yannakakis
    /// separator) is the one empty key: the join, its count, a grouped
    /// join with an empty frontier and the counter's message each build a
    /// keyless index and no composite map, and match the oracle.  A
    /// message summed over no rows has no key, so it scales every weight
    /// to 0.
    #[test]
    fn an_empty_key_builds_no_composite_index() {
        let keyless = [0, 0, 0, 1];
        let builds = |f: &mut dyn FnMut()| {
            let before = key_index_builds();
            f();
            let after = key_index_builds();
            [0, 1, 2, 3].map(|r| after[r] - before[r])
        };
        let left = t(&["X", "Y"], &[&[1, 2], &[3, 4], &[5, 6]]);
        let right = t(&["Z"], &[&[7], &[8]]);
        let mut out = ColumnTable::default();
        assert_eq!(
            builds(&mut || out = hash_join_columns(&left, &right)),
            keyless
        );
        assert_eq!(out.sorted_rows(), oracle_join(&left, &right, out.vars()));
        assert_eq!(out.len(), 6);
        let mut count = 0;
        assert_eq!(
            builds(&mut || count = hash_join_count(&left, &right)),
            keyless
        );
        assert_eq!(count, 6);
        let prev = weighted(left.clone(), &[1, 2, 3]);
        let mut total = 0;
        assert_eq!(
            builds(&mut || total = hash_join_grouped(&prev, &right, &[]).0),
            keyless
        );
        assert_eq!(total, 12);

        let mut weights = vec![2u128, 5];
        assert_eq!(
            builds(&mut || KeyWeights::sum(&left, &[], &[1, 2, 3]).scale(
                &right,
                &[],
                &mut weights
            )),
            keyless
        );
        assert_eq!(weights, [12, 30]);
        let nothing = t(&["X", "Y"], &[]);
        assert_eq!(
            builds(&mut || KeyWeights::sum(&nothing, &[], &[]).scale(&right, &[], &mut weights)),
            keyless
        );
        assert_eq!(weights, [0, 0]);
    }

    /// The key indexes `f` built on this thread, by regime: `[dense, hashed
    /// on one variable, hashed on several]`.
    fn tallied<T>(f: impl FnOnce() -> T) -> (T, [usize; 3]) {
        let before = key_index_builds();
        let out = f();
        let after = key_index_builds();
        (out, [0, 1, 2].map(|r| after[r] - before[r]))
    }

    /// The selection rule, restated: one variable's keys drawn from `col`
    /// are direct-addressed when its values span fewer than
    /// `DENSE_SPAN_PER_ROW` values per row or fewer than `DENSE_SPAN_FLOOR`.
    fn rule_says_dense(col: &[u64]) -> bool {
        let span = col.iter().max().unwrap_or(&0) - col.iter().min().unwrap_or(&0);
        span < (col.len() as u64 * DENSE_SPAN_PER_ROW).max(DENSE_SPAN_FLOOR)
    }

    /// One index over `col`, tallied as the rule says.
    fn one_index(col: &[u64]) -> [usize; 3] {
        if rule_says_dense(col) {
            [1, 0, 0]
        } else {
            [0, 1, 0]
        }
    }

    fn plus(a: [usize; 3], b: [usize; 3]) -> [usize; 3] {
        [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
    }

    /// `n ≥ 2` codes from `lo` to `lo + span`, evenly spread, both ends
    /// included.
    fn spread(n: u64, lo: u64, span: u64) -> Vec<u64> {
        (0..n)
            .map(|i| lo + (u128::from(span) * u128::from(i) / u128::from(n - 1)) as u64)
            .collect()
    }

    /// The join codes of a build side, which holds each of them twice, and
    /// the regime its one-variable key index must take.
    fn key_regimes() -> Vec<(&'static str, Vec<u64>, bool)> {
        vec![
            ("dense", spread(8, 100, 7), true),
            ("under the floor", spread(8, 5, DENSE_SPAN_FLOOR - 1), true),
            ("at the floor", spread(8, 5, DENSE_SPAN_FLOOR), false),
            // 520 codes twice: 1 040 rows, whose per-row span is past the floor.
            (
                "under the per-row span",
                spread(520, 9, 1040 * DENSE_SPAN_PER_ROW - 1),
                true,
            ),
            (
                "at the per-row span",
                spread(520, 9, 1040 * DENSE_SPAN_PER_ROW),
                false,
            ),
            ("sparse, 0 and u64::MAX", spread(8, 0, u64::MAX), false),
        ]
    }

    /// `(X, Y)`: every code as `X` twice, with `Y` drawn from the codes too.
    fn build_side(codes: &[u64]) -> ColumnTable {
        let n = codes.len();
        let rows: Vec<[u64; 2]> = (0..2 * n)
            .map(|r| [codes[r % n], codes[(3 * r + r / n + 1) % n]])
            .collect();
        t(
            &["X", "Y"],
            &rows.iter().map(|r| &r[..]).collect::<Vec<_>>(),
        )
    }

    /// `(X, Z)`: three rows for three codes in four, then `X` values that
    /// are no code — below the smallest, above the largest, between two, and
    /// `0` and `u64::MAX` unless they are codes — so it is longer than
    /// [`build_side`], which either argument order of a join then builds.
    fn probe_side(codes: &[u64]) -> ColumnTable {
        let n = codes.len();
        let mut rows: Vec<[u64; 2]> = (0..n)
            .filter(|i| i % 4 != 3)
            .flat_map(|i| (0..3).map(move |j| [codes[i], codes[(5 * i + j + 2) % n]]))
            .collect();
        let (lo, hi) = (codes[0], codes[n - 1]);
        let misses = [
            lo.checked_sub(1),
            hi.checked_add(1),
            Some(lo + 1),
            Some(0),
            Some(u64::MAX),
        ];
        for x in misses.into_iter().flatten().filter(|x| !codes.contains(x)) {
            rows.push([x, lo]);
        }
        t(
            &["X", "Z"],
            &rows.iter().map(|r| &r[..]).collect::<Vec<_>>(),
        )
    }

    /// Every kernel against the nested-loop oracle, with its one-variable
    /// join key in each regime — dense codes, spans just under and at the
    /// selection limits, sparse codes — and probe values outside the build
    /// side's range; each run also tallies which index it built.
    #[test]
    fn every_kernel_matches_the_oracle_in_both_key_regimes() {
        let names = |vs: &[&str]| vs.iter().map(|v| v.to_string()).collect::<Vec<_>>();
        for (regime, codes, dense) in key_regimes() {
            let build = build_side(&codes);
            let probe = probe_side(&codes);
            assert!(probe.len() > build.len(), "{regime}");
            assert_eq!(rule_says_dense(build.col(0)), dense, "{regime}");
            let built = one_index(build.col(0));

            for (a, b) in [(&build, &probe), (&probe, &build)] {
                let (out, tally) = tallied(|| hash_join_columns(a, b));
                let truth = oracle_join(a, b, out.vars());
                assert_eq!(out.sorted_rows(), truth, "{regime}: join");
                assert_eq!(tally, built, "{regime}: join");
                let (count, tally) = tallied(|| hash_join_count(a, b));
                assert_eq!(count, truth.len(), "{regime}: count");
                assert_eq!(tally, built, "{regime}: count");
            }

            // A semi-join builds its right side.
            for (left, right) in [(&probe, &build), (&build, &probe)] {
                let (out, tally) = tallied(|| semi_join_columns(left, right));
                let mut vars = left.vars().to_vec();
                vars.push(right.vars()[1].clone());
                let mut truth: Vec<Vec<u64>> = oracle_join(left, right, &vars)
                    .into_iter()
                    .map(|row| row[..left.vars().len()].to_vec())
                    .collect();
                truth.dedup();
                assert_eq!(out.sorted_rows(), truth, "{regime}: semi-join");
                assert_eq!(tally, one_index(right.col(0)), "{regime}: semi-join");
            }

            // Grouped joins build on `prev`, either side in turn, and number
            // groups on a frontier of 0, 1 (from `next`, from `prev`, the
            // join variable) or 2 variables.
            for (prev, next) in [(&build, &probe), (&probe, &build)] {
                let weights: Vec<u128> = (0..prev.len() as u128).map(|r| r % 2 + 1).collect();
                let prev = weighted(prev.clone(), &weights);
                let (own, other) = (&next.vars()[1], &prev.keys.vars()[1]);
                let frontiers = [
                    (vec![], [0; 3]),
                    (vec![own.clone()], one_index(next.col(1))),
                    (vec![other.clone()], one_index(prev.keys.col(1))),
                    (names(&["X"]), one_index(next.col(0))),
                    (vec![other.clone(), own.clone()], [0, 0, 1]),
                    // All of `next`: each probe row is its own group.
                    (vec![own.clone(), "X".to_string()], [0; 3]),
                ];
                let (vars, rows) = oracle_weighted_join(&prev, next);
                for (frontier, groups_built) in frontiers {
                    let ((total, grouped), tally) =
                        tallied(|| hash_join_grouped(&prev, next, &frontier));
                    let (truth, truth_groups) = group_on(&vars, &rows, &frontier);
                    assert_eq!(total, truth, "{regime}: {frontier:?}");
                    assert_eq!(groups(&grouped), truth_groups, "{regime}: {frontier:?}");
                    let expect = plus(one_index(prev.keys.col(0)), groups_built);
                    assert_eq!(tally, expect, "{regime}: {frontier:?}");
                }
            }
        }
    }
}
