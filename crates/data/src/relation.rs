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
}

impl Relation {
    /// Construct a relation directly from columns.
    ///
    /// All columns must have equal length and there must be exactly one
    /// column per schema attribute.  Rows are **not** deduplicated here; use
    /// [`Relation::deduplicated`] or the builder when set semantics must be
    /// enforced.
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
        Ok(Relation {
            name: name.into(),
            schema,
            columns,
            n_rows,
        })
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

    /// Return a copy with duplicate rows removed.
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
    pub fn degree_sequence(&self, v: &[&str], u: &[&str]) -> Result<DegreeSequence, DataError> {
        if v.is_empty() {
            return Err(DataError::InvalidConditional {
                reason: "the dependent attribute set V of deg(V | U) must be non-empty".into(),
            });
        }
        let u_pos = self.schema.positions(u.iter().copied())?;
        let v_pos = self.schema.positions(v.iter().copied())?;
        let mut counts = Vec::new();
        self.for_each_u_group(&v_pos, &u_pos, |_, degree| counts.push(degree));
        Ok(DegreeSequence::from_counts(counts))
    }

    /// The degree of every **row**'s `U`-value in `deg_R(V | U)`:
    /// `out[r]` is the number of distinct `V`-values paired with row `r`'s
    /// `U`-value — the same grouping as
    /// [`degree_sequence`](Self::degree_sequence), reported per row instead
    /// of per group.  This is what a degree partition needs to route rows to
    /// parts.  An empty `V` gives degree 1 everywhere (one empty tuple per
    /// `U`-value).
    pub fn row_degrees(&self, v: &[&str], u: &[&str]) -> Result<Vec<u64>, DataError> {
        let u_pos = self.schema.positions(u.iter().copied())?;
        let v_pos = self.schema.positions(v.iter().copied())?;
        let mut degrees = vec![0u64; self.n_rows];
        self.for_each_u_group(&v_pos, &u_pos, |rows, degree| {
            for &r in rows {
                degrees[r] = degree;
            }
        });
        Ok(degrees)
    }

    /// The row indices of the distinct rows in lexicographic (schema-order)
    /// order — the order [`RelationBuilder`](crate::RelationBuilder) stores
    /// rows in.  On a builder-made relation this is `0..len()`; gathering
    /// any subsequence of it yields a relation the builder would have built
    /// from the same rows.
    pub fn distinct_row_order(&self) -> Vec<usize> {
        let all: Vec<AttrId> = (0..self.arity()).collect();
        let mut order = self.order_by(&all);
        order.dedup_by(|a, b| self.same_on(*a, *b, &all));
        order
    }

    /// Row indices sorted lexicographically by the values in `cols`.  The
    /// rows are compared in place — no per-row key vectors — and the sort is
    /// skipped when storage order already is that order (builder-made
    /// relations conditioned on a schema prefix).
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

    /// One pass over the relation grouped by `U`: calls `f(rows, degree)`
    /// per distinct `U`-value with the rows carrying it and the number of
    /// distinct `V`-values among them.  With `U = ∅` there is one group.
    fn for_each_u_group(
        &self,
        v_pos: &[AttrId],
        u_pos: &[AttrId],
        mut f: impl FnMut(&[usize], u64),
    ) {
        let order = self.order_by(&[u_pos, v_pos].concat());
        let mut start = 0;
        while start < order.len() {
            let mut end = start + 1;
            let mut degree = 1u64;
            while end < order.len() && self.same_on(order[start], order[end], u_pos) {
                if !self.same_on(order[end - 1], order[end], v_pos) {
                    degree += 1;
                }
                end += 1;
            }
            f(&order[start..end], degree);
            start = end;
        }
    }

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
