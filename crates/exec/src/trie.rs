//! Tries over atom tuples, ordered by the global variable order — the
//! access structure of the generic worst-case-optimal join.
//!
//! [`RunTrie`] is a CSR layout holding each level's keys as one dense sorted
//! `u64` run plus a child-offset array, so leapfrog seeks are galloping
//! searches over contiguous memory ([`crate::columns::gallop_ge`]) instead
//! of pointer-chasing tree descents.

use crate::columns::{gallop_ge, ColumnTable, RelationView};
use crate::error::ExecError;
use lpb_core::JoinQuery;

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

impl RunTrie {
    /// Build the trie for atom `atom_idx` of `query`, reading its relation
    /// through `view`.
    pub fn build(
        query: &JoinQuery,
        view: &RelationView<'_>,
        atom_idx: usize,
    ) -> Result<Self, ExecError> {
        let cols = ColumnTable::bind(query, view, atom_idx)?;
        Ok(Self::from_columns(query, atom_idx, &cols))
    }

    /// Build the trie for atom `atom_idx` from already-materialized columns
    /// (possibly a partition of the relation) named by the atom's variables.
    pub fn from_columns(query: &JoinQuery, atom_idx: usize, cols: &ColumnTable) -> Self {
        let reg = query.registry();
        let mut var_order: Vec<usize> = query.atom_vars(atom_idx).iter().collect();
        var_order.sort_unstable();
        let level_positions: Vec<usize> = var_order
            .iter()
            .map(|&v| {
                cols.position(reg.name(v))
                    .expect("atom variable is a column")
            })
            .collect();

        // Project onto the level order and sort+dedup lexicographically:
        // afterwards each node's key slice is sorted and duplicate-free by
        // construction.
        let mut rows: Vec<Vec<u64>> = (0..cols.len())
            .map(|i| level_positions.iter().map(|&p| cols.col(p)[i]).collect())
            .collect();
        rows.sort_unstable();
        rows.dedup();

        let depth = var_order.len();
        let mut levels = vec![RunLevel::default(); depth];
        if depth == 0 || rows.is_empty() {
            return RunTrie { levels };
        }
        // Level l's keys are the distinct prefixes of length l+1, in order;
        // a key's children are the level-(l+1) keys extending its prefix.
        // One pass per level over the sorted rows builds both arrays.
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
        // Close the CSR offsets: after the passes, level l's `child_start`
        // holds one slice *start* per key (every key has at least one child
        // since all prefixes come from full rows); append the final end.
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
    use lpb_data::{Catalog, RelationBuilder};

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
        let run = RunTrie::build(&q, &RelationView::new(&catalog), 2).unwrap();
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
        let run = RunTrie::build(&q, &RelationView::new(&catalog), 0).unwrap();
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
        let run = RunTrie::build(&q, &RelationView::new(&catalog), 2).unwrap();
        assert!(run.keys(run.root()).is_empty());
        assert!(run.seek(run.root(), 0).is_none());
    }
}
