//! Tries over atom tuples, ordered by the global variable order — the
//! access structure of the generic worst-case-optimal join.
//!
//! [`RunTrie`] is a CSR layout holding each level's keys as one dense sorted
//! `u64` run plus a child-offset array, so leapfrog seeks are galloping
//! searches over contiguous memory ([`crate::columns::gallop_ge`]) instead
//! of pointer-chasing tree descents.
//!
//! A trie is built straight from its relation's columns, with no copy of
//! them and no allocation per row, in at most one sort:
//!
//! * **No sort** when the level order is the stored attribute order and the
//!   rows are strictly increasing
//!   ([`Relation::is_strictly_increasing`]): storage order already is the
//!   trie's order, duplicates none.
//! * **One sort** otherwise: of packed `(first, second)` pairs for a binary
//!   atom, and of row indices compared column by column in level order for
//!   any other arity.
//!
//! One pass over the rows in that order then fills every level: a row's
//! keys from the first level where it differs from the previous row down
//! are new, and a row equal to the previous one adds nothing.  The WCOJ
//! builds one trie per (relation, level order) of a query
//! ([`crate::wcoj`]), so self-join atoms that read a relation in the same
//! order share it.

use crate::columns::{check_arity, gallop_ge};
use crate::error::ExecError;
use lpb_core::JoinQuery;
use lpb_data::Relation;

/// One level of a [`RunTrie`] in CSR form: all the level's keys
/// concatenated into one sorted run per parent node, plus the offsets into
/// the *next* level where each key's children live.
#[derive(Debug, Clone, Default)]
struct RunLevel {
    /// The level's keys; each parent node owns a contiguous, sorted,
    /// duplicate-free slice.
    keys: Vec<u64>,
    /// `child_start[i]..child_start[i+1]` is key `i`'s child slice in the
    /// next level's `keys` (empty and unused on the last level).
    child_start: Vec<u32>,
}

/// A cache-friendly trie over one atom's tuples: levels in sorted *global*
/// variable order (so the generic join can advance every atom's trie in
/// lockstep), deduplicated paths, flat CSR layout.  A "node" is just a
/// `(level, lo, hi)` range over that level's key run, so the leapfrog join's
/// seek is a galloping search over a dense slice — no per-node allocation,
/// no pointer chasing.
#[derive(Debug)]
pub(crate) struct RunTrie {
    /// One level per variable of the atom, in ascending global index.
    levels: Vec<RunLevel>,
}

/// Atom `atom_idx`'s attribute positions in the trie's level order: by
/// ascending global index of the query variable each one binds.
pub(crate) fn level_order(query: &JoinQuery, atom_idx: usize) -> Vec<usize> {
    let reg = query.registry();
    let vars = &query.atoms()[atom_idx].vars;
    let mut order: Vec<usize> = (0..vars.len()).collect();
    order.sort_unstable_by_key(|&a| reg.index_of(&vars[a]).expect("atom variable is registered"));
    order
}

impl RunTrie {
    /// Build the trie for atom `atom_idx` of `query` over `rel` (its
    /// relation, or a partition of it).
    pub fn for_atom(query: &JoinQuery, atom_idx: usize, rel: &Relation) -> Result<Self, ExecError> {
        check_arity(rel, &query.atoms()[atom_idx].vars)?;
        Ok(Self::from_relation(rel, &level_order(query, atom_idx)))
    }

    /// The trie over `rel`'s distinct rows whose level `l` holds attribute
    /// `order[l]`; `order` is a permutation of the attribute positions.
    pub fn from_relation(rel: &Relation, order: &[usize]) -> Self {
        let cols: Vec<&[u64]> = order.iter().map(|&a| rel.column(a)).collect();
        let n = rel.len();
        let stored = order.iter().enumerate().all(|(l, &a)| l == a);
        if n == 0 || (stored && rel.is_strictly_increasing()) {
            return Self::fill(cols.len(), n, |i, l| cols[l][i]);
        }
        match cols[..] {
            [first, second] => {
                let mut pairs: Vec<u128> = first
                    .iter()
                    .zip(second)
                    .map(|(&a, &b)| u128::from(a) << 64 | u128::from(b))
                    .collect();
                pairs.sort_unstable();
                Self::fill(2, n, |i, l| (pairs[i] >> (64 * (1 - l))) as u64)
            }
            _ => {
                let rows = u32::try_from(n).expect("a trie's rows are numbered in u32");
                let mut perm: Vec<u32> = (0..rows).collect();
                perm.sort_unstable_by(|&x, &y| {
                    cols.iter()
                        .map(|c| c[x as usize].cmp(&c[y as usize]))
                        .find(|o| o.is_ne())
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                Self::fill(cols.len(), n, |i, l| cols[l][perm[i] as usize])
            }
        }
    }

    /// Fill the levels of a `depth`-level trie in one pass over `n` rows
    /// that `value(row, level)` reads in sorted order, equal rows adjacent.
    /// A row's keys from the first level where it differs from the previous
    /// row down are new; each new key but the deepest opens its child slice
    /// at the next level's current end.
    fn fill(depth: usize, n: usize, value: impl Fn(usize, usize) -> u64) -> Self {
        let mut levels = vec![RunLevel::default(); depth];
        if depth == 0 || n == 0 {
            return RunTrie { levels };
        }
        levels[depth - 1].keys.reserve(n);
        for i in 0..n {
            let first = if i == 0 {
                0
            } else {
                match (0..depth).find(|&l| value(i, l) != value(i - 1, l)) {
                    Some(l) => l,
                    None => continue,
                }
            };
            for l in first..depth {
                if l + 1 < depth {
                    let start = levels[l + 1].keys.len() as u32;
                    levels[l].child_start.push(start);
                }
                levels[l].keys.push(value(i, l));
            }
        }
        // Every level but the deepest closes its last child slice.
        for l in 0..depth - 1 {
            debug_assert_eq!(levels[l].child_start.len(), levels[l].keys.len());
            let end = levels[l + 1].keys.len() as u32;
            levels[l].child_start.push(end);
        }
        RunTrie { levels }
    }

    /// The root "node": the whole key run of level 0.
    pub fn root(&self) -> RunRange {
        RunRange {
            level: 0,
            lo: 0,
            hi: self.levels.first().map_or(0, |l| l.keys.len() as u32),
        }
    }

    /// The key slice of a node (empty below the deepest level).
    #[cfg(test)]
    fn keys(&self, node: RunRange) -> &[u64] {
        match self.levels.get(node.level as usize) {
            Some(level) => &level.keys[node.lo as usize..node.hi as usize],
            None => &[],
        }
    }

    /// The child node of the key at absolute index `idx` within `node`'s
    /// level (as returned by [`seek`](Self::seek)).  At the deepest level
    /// keys have no children; an empty range is returned (the generic join
    /// never seeks it — once an atom's variables are all bound the atom is
    /// no longer active).
    #[inline]
    pub fn child(&self, node: RunRange, idx: u32) -> RunRange {
        let level = &self.levels[node.level as usize];
        if level.child_start.is_empty() {
            return RunRange {
                level: node.level + 1,
                lo: 0,
                hi: 0,
            };
        }
        RunRange {
            level: node.level + 1,
            lo: level.child_start[idx as usize],
            hi: level.child_start[idx as usize + 1],
        }
    }

    /// Leapfrog seek: the smallest key `>= lower` within `node`, returned
    /// with its absolute index (for [`child`](Self::child)), found by
    /// galloping from `node.lo`.
    #[inline]
    pub fn seek(&self, node: RunRange, lower: u64) -> Option<(u64, u32)> {
        let level = &self.levels[node.level as usize];
        let idx = gallop_ge(&level.keys[..node.hi as usize], node.lo as usize, lower) as u32;
        (idx < node.hi).then(|| (level.keys[idx as usize], idx))
    }
}

/// A node of a [`RunTrie`]: a `(level, lo, hi)` window over that level's
/// key run.  Copy-sized — the join keeps one per atom per recursion level
/// with zero allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RunRange {
    level: u32,
    lo: u32,
    hi: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns::RelationView;
    use crate::wcoj::build_run_tries;
    use lpb_data::{Catalog, RelationBuilder, Schema};
    use std::rc::Rc;

    /// The reference builder: every row copied into a `Vec<u64>` in level
    /// order, the rows sorted and deduplicated, then one pass per level.
    fn reference(rel: &Relation, order: &[usize]) -> RunTrie {
        let mut rows: Vec<Vec<u64>> = (0..rel.len())
            .map(|i| order.iter().map(|&a| rel.column(a)[i]).collect())
            .collect();
        rows.sort_unstable();
        rows.dedup();

        let depth = order.len();
        let mut levels = vec![RunLevel::default(); depth];
        if depth == 0 || rows.is_empty() {
            return RunTrie { levels };
        }
        // Level l's keys are the distinct prefixes of length l+1, in order;
        // a key's children are the level-(l+1) keys extending its prefix.
        for l in 0..depth {
            let (head, tail) = levels.split_at_mut(l);
            let level = &mut tail[0];
            for (i, row) in rows.iter().enumerate() {
                // A new level-l key starts where the length-(l+1) prefix
                // first differs from the previous row's.
                if i == 0 || rows[i - 1][..=l] != row[..=l] {
                    if l > 0 && (i == 0 || rows[i - 1][..l] != row[..l]) {
                        // New parent too: close the parent's child slice.
                        head[l - 1].child_start.push(level.keys.len() as u32);
                    }
                    level.keys.push(row[l]);
                }
            }
        }
        // Close the CSR offsets: every key has at least one child, so level
        // l's `child_start` holds one slice start per key; append the end.
        for l in 0..depth - 1 {
            let end = levels[l + 1].keys.len() as u32;
            levels[l].child_start.push(end);
        }
        RunTrie { levels }
    }

    /// A trie's levels as `(keys, child_start)`, top down.
    fn layout(trie: &RunTrie) -> Vec<(Vec<u64>, Vec<u32>)> {
        trie.levels
            .iter()
            .map(|l| (l.keys.clone(), l.child_start.clone()))
            .collect()
    }

    /// Every permutation of `0..k`.
    fn permutations(k: usize) -> Vec<Vec<usize>> {
        if k == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for shorter in permutations(k - 1) {
            for at in 0..k {
                let mut p = shorter.clone();
                p.insert(at, k - 1);
                out.push(p);
            }
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The trie built from the columns equals the reference builder's,
        /// keys and `child_start` level by level: arity 1–3, every level
        /// order, over builder-made rows (strictly increasing, so the
        /// stored order is not sorted) and over a raw copy of them (the
        /// rows reversed, then again: neither sorted nor distinct), and
        /// over the empty relation.  Through a query of three self-join
        /// atoms (the stored order, its reverse, and the stored order on
        /// shifted variables) the WCOJ's tries are one per level order:
        /// atoms share a trie exactly when their level orders agree, and
        /// each equals the reference for its atom's order.
        #[test]
        fn the_trie_equals_the_reference_builder(
            arity in 1usize..4,
            rows in proptest::collection::vec((0u64..6, 0u64..6, 0u64..6), 0..40),
            built in 0u64..2,
        ) {
            let attrs = &["a", "b", "c"][..arity];
            let rows: Vec<Vec<u64>> = rows
                .iter()
                .map(|&(x, y, z)| [x, y, z][..arity].to_vec())
                .collect();
            let schema = Schema::new(attrs.iter().copied()).unwrap();
            let rel = if built == 1 {
                let mut builder = RelationBuilder::new("T", attrs.iter().copied()).unwrap();
                for row in &rows {
                    builder.push_codes(row).unwrap();
                }
                builder.build()
            } else {
                let columns = (0..arity)
                    .map(|c| rows.iter().rev().chain(&rows).map(|r| r[c]).collect())
                    .collect();
                Relation::from_columns("T", schema.clone(), columns).unwrap()
            };
            let empty = Relation::from_columns("T", schema, vec![Vec::new(); arity]).unwrap();
            for r in [&rel, &empty] {
                for order in permutations(arity) {
                    proptest::prop_assert_eq!(
                        layout(&RunTrie::from_relation(r, &order)),
                        layout(&reference(r, &order)),
                        "{} rows, strict {}, order {:?}",
                        r.len(),
                        r.is_strictly_increasing(),
                        order
                    );
                }
            }

            let stored: Vec<String> = (0..arity).map(|i| format!("X{i}")).collect();
            let reversed: Vec<String> = stored.iter().rev().cloned().collect();
            let shifted: Vec<String> = (1..=arity).map(|i| format!("X{i}")).collect();
            let atoms = [stored, reversed, shifted]
                .iter()
                .map(|v| {
                    let names: Vec<&str> = v.iter().map(String::as_str).collect();
                    lpb_core::Atom::new("T", &names)
                })
                .collect();
            let query = JoinQuery::new("self-join", atoms).unwrap();
            let mut catalog = Catalog::new();
            catalog.insert(rel.clone());
            let tries = build_run_tries(&query, &RelationView::new(&catalog)).unwrap();
            let orders: Vec<Vec<usize>> = (0..3).map(|j| level_order(&query, j)).collect();
            let reversed_order: Vec<usize> = (0..arity).rev().collect();
            proptest::prop_assert_eq!(&orders[1], &reversed_order);
            for j in 0..3 {
                proptest::prop_assert_eq!(layout(&tries[j]), layout(&reference(&rel, &orders[j])), "atom {}", j);
                for i in 0..j {
                    proptest::prop_assert_eq!(
                        Rc::ptr_eq(&tries[i], &tries[j]),
                        orders[i] == orders[j],
                        "atoms {} and {}",
                        i,
                        j
                    );
                }
            }
        }
    }

    #[test]
    fn run_trie_uses_global_variable_order() {
        // T(Z, X): in the triangle query the global order is X=0, Y=1, Z=2,
        // so the trie's first level is X even though the relation stores Z
        // first.
        let mut catalog = Catalog::new();
        catalog.insert(RelationBuilder::binary_from_pairs(
            "T",
            "z",
            "x",
            vec![(30, 1), (30, 2), (40, 1)],
        ));
        catalog.insert(RelationBuilder::binary_from_pairs(
            "R",
            "x",
            "y",
            vec![(1, 2)],
        ));
        catalog.insert(RelationBuilder::binary_from_pairs(
            "S",
            "y",
            "z",
            vec![(2, 30)],
        ));
        let q = JoinQuery::triangle("R", "S", "T");
        let run = RunTrie::for_atom(&q, 2, &catalog.get("T").unwrap()).unwrap();
        // Levels are (X, Z): X ∈ {1, 2}.
        assert_eq!(run.levels.len(), 2);
        let root = run.root();
        assert_eq!(run.keys(root), &[1, 2]);
        let (k, idx) = run.seek(root, 0).unwrap();
        assert_eq!(k, 1);
        let c1 = run.child(root, idx);
        assert_eq!(run.keys(c1), &[30, 40]);
        let (k2, idx2) = run.seek(root, 2).unwrap();
        assert_eq!(k2, 2);
        assert_eq!(run.keys(run.child(root, idx2)), &[30]);
        assert!(run.seek(root, 3).is_none());
    }

    #[test]
    fn run_trie_nodes_hold_the_sorted_distinct_extensions_of_their_prefix() {
        // Ternary atom, shuffled duplicated rows.  The reference is computed
        // straight from the rows: a node's keys are the sorted distinct
        // next values among the rows extending its prefix.
        let mut b = RelationBuilder::new("A", ["p", "q", "r"]).unwrap();
        for i in 0..200u64 {
            b.push_codes(&[(i * 7) % 9, (i * 5) % 6, (i * 11) % 8])
                .unwrap();
            b.push_codes(&[(i * 3) % 9, (i * 13) % 6, i % 8]).unwrap();
        }
        let rel = b.build();
        let rows: Vec<Vec<u64>> = rel.rows().collect();
        let mut catalog = Catalog::new();
        catalog.insert(rel);
        // A single-atom "query" over A(p, q, r).
        let q = JoinQuery::new(
            "single-atom",
            vec![lpb_core::Atom::new("A", &["P", "Q", "R"])],
        )
        .unwrap();
        let run = RunTrie::for_atom(&q, 0, &catalog.get("A").unwrap()).unwrap();
        assert_eq!(run.levels.len(), 3);

        fn check(rows: &[Vec<u64>], prefix: &mut Vec<u64>, run: &RunTrie, node: RunRange) {
            let depth = prefix.len();
            let mut expect: Vec<u64> = rows
                .iter()
                .filter(|r| r[..depth] == prefix[..])
                .map(|r| r[depth])
                .collect();
            expect.sort_unstable();
            expect.dedup();
            assert_eq!(run.keys(node), expect.as_slice(), "prefix {prefix:?}");
            if depth + 1 == run.levels.len() {
                return;
            }
            for k in expect {
                let (found, idx) = run.seek(node, k).unwrap();
                assert_eq!(found, k);
                prefix.push(k);
                check(rows, prefix, run, run.child(node, idx));
                prefix.pop();
            }
        }
        check(&rows, &mut Vec::new(), &run, run.root());
    }

    #[test]
    fn run_trie_handles_empty_relations() {
        let mut catalog = Catalog::new();
        catalog.insert(RelationBuilder::new("E", ["a", "b"]).unwrap().build());
        catalog.insert(RelationBuilder::binary_from_pairs(
            "R",
            "x",
            "y",
            vec![(1, 2)],
        ));
        catalog.insert(RelationBuilder::binary_from_pairs(
            "S",
            "y",
            "z",
            vec![(2, 3)],
        ));
        let q = JoinQuery::triangle("R", "S", "E");
        let run = RunTrie::for_atom(&q, 2, &catalog.get("E").unwrap()).unwrap();
        assert!(run.keys(run.root()).is_empty());
        assert!(run.seek(run.root(), 0).is_none());
    }
}
