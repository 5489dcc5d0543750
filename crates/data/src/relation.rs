//! Columnar relation storage with set semantics.

use crate::degree::DegreeSequence;
use crate::error::DataError;
use crate::schema::{AttrId, Schema};

/// An in-memory relation: a named schema plus one `u64` column per attribute.
///
/// Relations follow **set semantics** (the paper's setting): the
/// [`RelationBuilder`](crate::RelationBuilder) deduplicates rows on build, and
/// [`Relation::project`] deduplicates its output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    name: String,
    schema: Schema,
    columns: Vec<Vec<u64>>,
    n_rows: usize,
    /// Every row lexicographically (schema order) smaller than the next —
    /// found once, when the relation is built.
    strictly_increasing: bool,
}

impl Relation {
    /// Construct a relation directly from columns.
    ///
    /// All columns must have equal length and there must be exactly one
    /// column per schema attribute.  Rows are **not** deduplicated here; use
    /// [`Relation::deduplicated`] or the builder when set semantics must be
    /// enforced.  One `O(n)` pass records whether the rows are strictly
    /// increasing ([`is_strictly_increasing`](Self::is_strictly_increasing)).
    pub fn from_columns(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<Vec<u64>>,
    ) -> Result<Self, DataError> {
        if columns.len() != schema.arity() {
            return Err(DataError::ArityMismatch {
                expected: schema.arity(),
                got: columns.len(),
            });
        }
        let n_rows = columns.first().map_or(0, Vec::len);
        if columns.iter().any(|c| c.len() != n_rows) {
            return Err(DataError::ArityMismatch {
                expected: n_rows,
                got: columns.iter().map(Vec::len).max().unwrap_or(0),
            });
        }
        let strictly_increasing = strictly_increasing(&columns, n_rows);
        Ok(Relation {
            name: name.into(),
            schema,
            columns,
            n_rows,
            strictly_increasing,
        })
    }

    /// [`from_columns`](Self::from_columns) for columns of equal length, one
    /// per schema attribute, whose rows are sorted and distinct: no pass
    /// over them.
    pub(crate) fn from_distinct_sorted_columns(
        name: String,
        schema: Schema,
        columns: Vec<Vec<u64>>,
    ) -> Relation {
        Relation {
            name,
            schema,
            n_rows: columns.first().map_or(0, Vec::len),
            columns,
            strictly_increasing: true,
        }
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the relation (useful for self-joins where the same data plays
    /// two roles).
    pub fn with_name(&self, name: impl Into<String>) -> Relation {
        Relation {
            name: name.into(),
            ..self.clone()
        }
    }

    /// Schema of the relation.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Rebind the attribute names (same arity, same data).  Used for
    /// self-joins, e.g. using an edge relation `R(src, dst)` as the atom
    /// `R(Y, Z)` of a query.
    pub fn with_schema(&self, schema: Schema) -> Result<Relation, DataError> {
        if schema.arity() != self.schema.arity() {
            return Err(DataError::ArityMismatch {
                expected: self.schema.arity(),
                got: schema.arity(),
            });
        }
        Ok(Relation {
            name: self.name.clone(),
            schema,
            columns: self.columns.clone(),
            n_rows: self.n_rows,
            strictly_increasing: self.strictly_increasing,
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// True when the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// True when every row is lexicographically (schema order) smaller than
    /// the next, so the rows are distinct and in the order the
    /// [`RelationBuilder`](crate::RelationBuilder) stores them.  Recorded
    /// when the relation is built: the builder, [`deduplicated`] and
    /// [`project`] know it, [`from_columns`] checks it in one pass, and
    /// [`gather`](Self::gather) reads it off its source's flag and row list
    /// when it can.
    ///
    /// [`deduplicated`]: Self::deduplicated
    /// [`project`]: Self::project
    /// [`from_columns`]: Self::from_columns
    pub fn is_strictly_increasing(&self) -> bool {
        self.strictly_increasing
    }

    /// A relation named `name` with this schema holding rows `rows` of this
    /// one, in that order.  On a strictly increasing relation the result is
    /// strictly increasing exactly when `rows` ascends strictly, so no
    /// value is compared to say so; gathering from any other relation
    /// checks the gathered rows like [`from_columns`](Self::from_columns).
    ///
    /// # Panics
    ///
    /// When a row index is out of range.
    pub fn gather(&self, name: impl Into<String>, rows: &[usize]) -> Relation {
        let columns: Vec<Vec<u64>> = self
            .columns
            .iter()
            .map(|column| rows.iter().map(|&r| column[r]).collect())
            .collect();
        let strictly_increasing = if self.strictly_increasing {
            rows.is_sorted_by(|a, b| a < b)
        } else {
            strictly_increasing(&columns, rows.len())
        };
        Relation {
            name: name.into(),
            schema: self.schema.clone(),
            columns,
            n_rows: rows.len(),
            strictly_increasing,
        }
    }

    /// Borrow the column at attribute position `attr`.
    pub fn column(&self, attr: AttrId) -> &[u64] {
        &self.columns[attr]
    }

    /// Value of attribute `attr` in row `row`.
    #[inline]
    pub fn value(&self, row: usize, attr: AttrId) -> u64 {
        self.columns[attr][row]
    }

    /// Materialize row `row` as a vector of values in schema order.
    pub fn row(&self, row: usize) -> Vec<u64> {
        self.columns.iter().map(|c| c[row]).collect()
    }

    /// Iterate over all rows in storage order.
    pub fn rows(&self) -> impl Iterator<Item = Vec<u64>> + '_ {
        (0..self.n_rows).map(move |i| self.row(i))
    }

    /// Materialize the key of row `row` restricted to attribute positions
    /// `attrs` (in the order given).
    pub fn key(&self, row: usize, attrs: &[AttrId]) -> Vec<u64> {
        attrs.iter().map(|&a| self.columns[a][row]).collect()
    }

    /// Return a copy with duplicate rows removed, in lexicographic order.
    pub fn deduplicated(&self) -> Relation {
        let mut rows: Vec<Vec<u64>> = self.rows().collect();
        rows.sort_unstable();
        rows.dedup();
        Self::from_sorted_rows(self.name.clone(), self.schema.clone(), rows)
    }

    /// Project onto the named attributes (with duplicate elimination).
    pub fn project(&self, attrs: &[&str]) -> Result<Relation, DataError> {
        let positions = self.schema.positions(attrs.iter().copied())?;
        let mut rows: Vec<Vec<u64>> = (0..self.n_rows).map(|r| self.key(r, &positions)).collect();
        rows.sort_unstable();
        rows.dedup();
        let schema = Schema::new(attrs.iter().map(|s| s.to_string()))?;
        Ok(Self::from_sorted_rows(
            format!("π_{{{}}}({})", attrs.join(","), self.name),
            schema,
            rows,
        ))
    }

    /// Number of distinct values of the given attribute set, `|Π_attrs(R)|`.
    pub fn distinct_count(&self, attrs: &[&str]) -> Result<usize, DataError> {
        Ok(self.project(attrs)?.len())
    }

    /// The degree sequence `deg_R(V | U)` of the paper (§1.2): project onto
    /// `U ∪ V` (with deduplication), group by `U`, and collect the group
    /// sizes in non-increasing order.
    ///
    /// When `U` is empty the bipartite graph has a single `U`-node, so the
    /// sequence is the single value `|Π_V(R)|`.
    ///
    /// Cost: the conditionals a statistics harvest asks for are counted off
    /// one column, with no row index sorted.  `|Π_X|` is the number of runs
    /// of `X`'s sorted column; on a relation whose storage is strictly
    /// increasing (every [`RelationBuilder`](crate::RelationBuilder)
    /// relation, every part of a degree split; the flag is read, not
    /// checked, see [`is_strictly_increasing`](Self::is_strictly_increasing))
    /// `|R|` is `len()`, and `deg(V | X)` with `{X} ∪ V` the whole schema is
    /// the run lengths of `X`'s sorted column — one sort of a copy of that
    /// column, skipped when it already is sorted.  Any other input
    /// (unsorted or duplicated [`Relation::from_columns`] rows, `|U| ≥ 2`,
    /// `U ∪ V` short of the schema) sorts row indices by `(U, V)`:
    /// `O(n log n)` row comparisons.  A degree split counts its parts'
    /// simple statistics while it routes their rows, so the planner asks
    /// this for none of them.
    pub fn degree_sequence(&self, v: &[&str], u: &[&str]) -> Result<DegreeSequence, DataError> {
        if v.is_empty() {
            return Err(DataError::InvalidConditional {
                reason: "the dependent attribute set V of deg(V | U) must be non-empty".into(),
            });
        }
        Ok(self.grouping(v, u)?.degree_sequence())
    }

    /// `Π_{U∪V}(R)` grouped by `U`: each group's degree in `deg_R(V | U)`
    /// and the rows that make it up — the grouping behind
    /// [`degree_sequence`](Self::degree_sequence), at its cost.  An empty
    /// `V` gives degree 1 everywhere (one empty tuple per `U`-value).
    pub fn grouping(&self, v: &[&str], u: &[&str]) -> Result<Grouping<'_>, DataError> {
        let u_pos = self.schema.positions(u.iter().copied())?;
        let v_pos = self.schema.positions(v.iter().copied())?;
        Ok(self.group_by_u(&v_pos, &u_pos))
    }

    /// The one grouping routine behind [`grouping`] and
    /// [`degree_sequence`]: `Π_{U∪V}(R)` grouped by `U`, groups in
    /// ascending `U` order.  Two cases, chosen from the
    /// input:
    ///
    /// * **Counting.**  A group's degree is counted off one column when
    ///   the input allows it.  With `U = ∅` and one `V` attribute the one
    ///   degree is the number of runs of `V`'s sorted column.  When the rows
    ///   are distinct (storage strictly increasing) and `U ∪ V` is the whole
    ///   schema, no two rows of a `U`-group share their `V`-value, so a
    ///   degree is a row count: storage order already groups a schema
    ///   prefix `U` (`∅` gives `|R| = len()`, all attributes give one group
    ///   per row), and a single `U` attribute off the prefix sorts a copy of
    ///   its column (skipped when it is sorted) and takes run lengths.
    /// * **Row order.**  Otherwise row indices are sorted by `(U, V)` and a
    ///   group's degree counts the changes of `V` inside it.
    ///
    /// [`grouping`]: Self::grouping
    /// [`degree_sequence`]: Self::degree_sequence
    fn group_by_u(&self, v_pos: &[AttrId], u_pos: &[AttrId]) -> Grouping<'_> {
        let n = self.n_rows;
        if n == 0 {
            return Grouping {
                rel: self,
                degrees: Vec::new(),
                rows: GroupRows::Runs {
                    order: None,
                    ends: Vec::new(),
                },
            };
        }
        if let ([], &[v]) = (u_pos, v_pos) {
            let col = &self.columns[v];
            let distinct = if col.is_sorted() {
                col.chunk_by(|a, b| a == b).count()
            } else {
                let mut sorted = col.clone();
                sorted.sort_unstable();
                sorted.chunk_by(|a, b| a == b).count()
            };
            return Grouping {
                rel: self,
                degrees: vec![distinct as u64],
                rows: GroupRows::Runs {
                    order: None,
                    ends: vec![n],
                },
            };
        }
        let covers_schema = (0..self.arity()).all(|a| u_pos.contains(&a) || v_pos.contains(&a));
        let prefix = u_pos.iter().enumerate().all(|(i, &a)| i == a);
        if covers_schema && (prefix || u_pos.len() == 1) && self.strictly_increasing {
            if prefix && u_pos.len() == self.arity() {
                // Every row is a group of its own.
                return Grouping {
                    rel: self,
                    degrees: vec![1; n],
                    rows: GroupRows::Runs {
                        order: None,
                        ends: (1..=n).collect(),
                    },
                };
            }
            if prefix || self.columns[u_pos[0]].is_sorted() {
                let ends: Vec<usize> = if let &[c] = u_pos {
                    // One sorted column: its runs.
                    self.columns[c]
                        .chunk_by(|a, b| a == b)
                        .scan(0, |end, run| {
                            *end += run.len();
                            Some(*end)
                        })
                        .collect()
                } else {
                    (1..n)
                        .filter(|&r| {
                            u_pos
                                .iter()
                                .any(|&c| self.columns[c][r - 1] != self.columns[c][r])
                        })
                        .chain([n])
                        .collect()
                };
                let degrees = ends
                    .iter()
                    .scan(0, |start, &end| {
                        Some((end - std::mem::replace(start, end)) as u64)
                    })
                    .collect();
                return Grouping {
                    rel: self,
                    degrees,
                    rows: GroupRows::Runs { order: None, ends },
                };
            }
            let column = u_pos[0];
            let mut sorted = self.columns[column].clone();
            sorted.sort_unstable();
            let (keys, degrees) = sorted
                .chunk_by(|a, b| a == b)
                .map(|run| (run[0], run.len() as u64))
                .unzip();
            return Grouping {
                rel: self,
                degrees,
                rows: GroupRows::Keyed { column, keys },
            };
        }
        let order = self.order_by(&[u_pos, v_pos].concat());
        let (mut ends, mut degrees) = (Vec::new(), Vec::new());
        let mut start = 0;
        while start < n {
            let mut end = start + 1;
            let mut degree = 1u64;
            while end < n && self.same_on(order[start], order[end], u_pos) {
                if !self.same_on(order[end - 1], order[end], v_pos) {
                    degree += 1;
                }
                end += 1;
            }
            ends.push(end);
            degrees.push(degree);
            start = end;
        }
        Grouping {
            rel: self,
            degrees,
            rows: GroupRows::Runs {
                order: Some(order),
                ends,
            },
        }
    }

    /// Row indices sorted lexicographically by the values in `cols`.  The
    /// rows are compared in place — no per-row key vectors — and the sort is
    /// skipped when storage order already is that order.
    fn order_by(&self, cols: &[AttrId]) -> Vec<usize> {
        let cmp = |a: &usize, b: &usize| {
            cols.iter()
                .map(|&c| self.columns[c][*a].cmp(&self.columns[c][*b]))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        };
        let mut order: Vec<usize> = (0..self.n_rows).collect();
        if !order.windows(2).all(|w| cmp(&w[0], &w[1]).is_le()) {
            order.sort_unstable_by(cmp);
        }
        order
    }

    /// True when rows `a` and `b` agree on every column of `cols`.
    fn same_on(&self, a: usize, b: usize, cols: &[AttrId]) -> bool {
        cols.iter()
            .all(|&c| self.columns[c][a] == self.columns[c][b])
    }

    /// A relation of `rows`, which must be sorted and distinct.
    fn from_sorted_rows(name: String, schema: Schema, rows: Vec<Vec<u64>>) -> Relation {
        let arity = schema.arity();
        let mut columns = vec![Vec::with_capacity(rows.len()); arity];
        for row in &rows {
            for (c, &v) in row.iter().enumerate() {
                columns[c].push(v);
            }
        }
        Relation {
            name,
            schema,
            n_rows: rows.len(),
            columns,
            strictly_increasing: true,
        }
    }
}

/// True when every one of the `n_rows` rows of `columns` is
/// lexicographically smaller than the next: `O(n)` column comparisons, most
/// rows deciding on their first.
fn strictly_increasing(columns: &[Vec<u64>], n_rows: usize) -> bool {
    (1..n_rows).all(|r| {
        columns
            .iter()
            .map(|c| c[r - 1].cmp(&c[r]))
            .find(|o| o.is_ne())
            .is_some_and(std::cmp::Ordering::is_lt)
    })
}

/// `Π_{U∪V}(R)` grouped by `U`, groups in ascending `U` order: what
/// [`Relation::grouping`] returns.
#[derive(Debug)]
pub struct Grouping<'a> {
    /// The relation the rows are in.
    rel: &'a Relation,
    /// Each group's degree (its number of distinct `V`-values).
    degrees: Vec<u64>,
    /// Which rows make up each group.
    rows: GroupRows,
}

/// Where the rows of group `g` of a [`Grouping`] are.
#[derive(Debug)]
enum GroupRows {
    /// Rows `ends[g - 1]..ends[g]` of `order`, a row order sorted by
    /// `(U, V)` — or of storage, when `order` is `None` (storage order
    /// groups `U`).
    Runs {
        order: Option<Vec<usize>>,
        ends: Vec<usize>,
    },
    /// The rows whose `column` (the one `U` attribute) holds `keys[g]`;
    /// `keys` ascend.
    Keyed { column: AttrId, keys: Vec<u64> },
}

impl Grouping<'_> {
    /// Each group's degree: its number of distinct `V`-values.
    pub fn degrees(&self) -> &[u64] {
        &self.degrees
    }

    /// The groups' degrees as the degree sequence `deg_R(V | U)`.
    pub fn degree_sequence(self) -> DegreeSequence {
        DegreeSequence::from_counts(self.degrees)
    }

    /// Calls `f(row, group)` once for every row of the relation, `group`
    /// indexing [`degrees`](Self::degrees).  A group of rows adjacent in
    /// storage or in a sorted row order is visited as a run; a group found
    /// by sorting a copy of one column costs a binary search per row.
    pub fn for_each_row(&self, mut f: impl FnMut(usize, usize)) {
        match &self.rows {
            GroupRows::Runs { order, ends } => {
                let mut start = 0;
                for (group, &end) in ends.iter().enumerate() {
                    match order {
                        None => (start..end).for_each(|row| f(row, group)),
                        Some(order) => order[start..end].iter().for_each(|&row| f(row, group)),
                    }
                    start = end;
                }
            }
            GroupRows::Keyed { column, keys } => {
                for (row, value) in self.rel.column(*column).iter().enumerate() {
                    let group = keys.binary_search(value).expect("every value is a key");
                    f(row, group);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge_relation() -> Relation {
        // R(x, y) = {(1,10),(1,11),(1,12),(2,10),(3,10)}
        let schema = Schema::new(["x", "y"]).unwrap();
        Relation::from_columns(
            "R",
            schema,
            vec![vec![1, 1, 1, 2, 3], vec![10, 11, 12, 10, 10]],
        )
        .unwrap()
    }

    #[test]
    fn basic_accessors() {
        let r = edge_relation();
        assert_eq!(r.name(), "R");
        assert_eq!(r.len(), 5);
        assert!(!r.is_empty());
        assert_eq!(r.arity(), 2);
        assert_eq!(r.row(3), vec![2, 10]);
        assert_eq!(r.value(1, 1), 11);
        assert_eq!(r.column(0), &[1, 1, 1, 2, 3]);
        assert_eq!(r.rows().count(), 5);
        assert_eq!(r.key(0, &[1, 0]), vec![10, 1]);
    }

    #[test]
    fn from_columns_validates_shape() {
        let schema = Schema::new(["a", "b"]).unwrap();
        assert!(Relation::from_columns("T", schema.clone(), vec![vec![1]]).is_err());
        assert!(Relation::from_columns("T", schema, vec![vec![1, 2], vec![3]]).is_err());
    }

    #[test]
    fn projection_deduplicates() {
        let r = edge_relation();
        let px = r.project(&["x"]).unwrap();
        assert_eq!(px.len(), 3);
        let py = r.project(&["y"]).unwrap();
        assert_eq!(py.len(), 3);
        assert_eq!(r.distinct_count(&["x", "y"]).unwrap(), 5);
    }

    #[test]
    fn degree_sequence_simple_conditional() {
        let r = edge_relation();
        // deg(y | x): x=1 has 3 partners, x=2 has 1, x=3 has 1.
        let d = r.degree_sequence(&["y"], &["x"]).unwrap();
        assert_eq!(d.as_slice(), &[3, 1, 1]);
        // deg(x | y): y=10 has 3 partners, y=11 and y=12 have 1.
        let d = r.degree_sequence(&["x"], &["y"]).unwrap();
        assert_eq!(d.as_slice(), &[3, 1, 1]);
    }

    #[test]
    fn degree_sequence_empty_u_is_projection_size() {
        let r = edge_relation();
        let d = r.degree_sequence(&["y"], &[]).unwrap();
        assert_eq!(d.as_slice(), &[3]);
        let d = r.degree_sequence(&["x", "y"], &[]).unwrap();
        assert_eq!(d.as_slice(), &[5]);
    }

    #[test]
    fn degree_sequence_requires_nonempty_v() {
        let r = edge_relation();
        assert!(matches!(
            r.degree_sequence(&[], &["x"]),
            Err(DataError::InvalidConditional { .. })
        ));
    }

    #[test]
    fn degree_sequence_ignores_duplicate_uv_pairs() {
        let schema = Schema::new(["x", "y", "z"]).unwrap();
        // Two rows share the same (x, y) but different z: deg(y|x) counts the
        // (x, y) pair once.
        let r = Relation::from_columns(
            "T",
            schema,
            vec![vec![1, 1, 2], vec![5, 5, 6], vec![100, 200, 300]],
        )
        .unwrap();
        let d = r.degree_sequence(&["y"], &["x"]).unwrap();
        assert_eq!(d.as_slice(), &[1, 1]);
    }

    #[test]
    fn deduplicated_removes_repeated_rows() {
        let schema = Schema::new(["a"]).unwrap();
        let r = Relation::from_columns("T", schema, vec![vec![1, 1, 2, 2, 2]]).unwrap();
        assert_eq!(r.deduplicated().len(), 2);
    }

    #[test]
    fn with_schema_renames_attributes() {
        let r = edge_relation();
        let s = r.with_schema(Schema::new(["y", "z"]).unwrap()).unwrap();
        assert_eq!(s.schema().attrs(), &["y".to_string(), "z".to_string()]);
        assert_eq!(s.len(), r.len());
        assert!(r.with_schema(Schema::new(["a"]).unwrap()).is_err());
        let renamed = r.with_name("S");
        assert_eq!(renamed.name(), "S");
    }
}
