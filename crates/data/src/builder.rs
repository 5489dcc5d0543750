//! Builder for assembling relations from tuples, with set semantics.

use crate::error::DataError;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::value::{Dictionary, Value};

/// Accumulates tuples and produces a deduplicated [`Relation`].
///
/// Values may be pushed either as logical [`Value`]s (strings are
/// dictionary-encoded) or directly as `u64` codes.
#[derive(Debug, Clone)]
pub struct RelationBuilder {
    name: String,
    schema: Schema,
    dictionary: Dictionary,
    rows: Vec<Vec<u64>>,
    deduplicate: bool,
}

impl RelationBuilder {
    /// Start building a relation with the given name and attribute names.
    pub fn new<S, I, A>(name: S, attrs: I) -> Result<Self, DataError>
    where
        S: Into<String>,
        I: IntoIterator<Item = A>,
        A: Into<String>,
    {
        Ok(RelationBuilder {
            name: name.into(),
            schema: Schema::new(attrs)?,
            dictionary: Dictionary::new(),
            rows: Vec::new(),
            deduplicate: true,
        })
    }

    /// Disable deduplication (bag semantics); mostly useful in tests.
    pub fn keep_duplicates(mut self) -> Self {
        self.deduplicate = false;
        self
    }

    /// Number of tuples pushed so far (before deduplication).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no tuples were pushed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Push a tuple of raw `u64` codes.
    pub fn push_codes(&mut self, tuple: &[u64]) -> Result<(), DataError> {
        if tuple.len() != self.schema.arity() {
            return Err(DataError::ArityMismatch {
                expected: self.schema.arity(),
                got: tuple.len(),
            });
        }
        self.rows.push(tuple.to_vec());
        Ok(())
    }

    /// Push a tuple of logical values, dictionary-encoding strings.
    pub fn push_values(&mut self, tuple: &[Value]) -> Result<(), DataError> {
        if tuple.len() != self.schema.arity() {
            return Err(DataError::ArityMismatch {
                expected: self.schema.arity(),
                got: tuple.len(),
            });
        }
        let encoded: Vec<u64> = tuple.iter().map(|v| self.dictionary.encode(v)).collect();
        self.rows.push(encoded);
        Ok(())
    }

    /// Finish building: deduplicate (unless disabled) and return the
    /// relation together with the string dictionary.
    pub fn build_with_dictionary(mut self) -> (Relation, Dictionary) {
        if self.deduplicate {
            self.rows.sort_unstable();
            self.rows.dedup();
        }
        let arity = self.schema.arity();
        let mut columns = vec![Vec::with_capacity(self.rows.len()); arity];
        for row in &self.rows {
            for (c, &v) in row.iter().enumerate() {
                columns[c].push(v);
            }
        }
        let relation = if self.deduplicate {
            Relation::from_distinct_sorted_columns(self.name, self.schema, columns)
        } else {
            Relation::from_columns(self.name, self.schema, columns)
                .expect("builder produces consistent columns")
        };
        (relation, self.dictionary)
    }

    /// Finish building and discard the dictionary.
    pub fn build(self) -> Relation {
        self.build_with_dictionary().0
    }

    /// Convenience: build a binary relation from `(u64, u64)` pairs.
    pub fn binary_from_pairs(
        name: impl Into<String>,
        attr_a: impl Into<String>,
        attr_b: impl Into<String>,
        pairs: impl IntoIterator<Item = (u64, u64)>,
    ) -> Relation {
        let mut b = RelationBuilder::new(name, [attr_a.into(), attr_b.into()])
            .expect("two distinct attribute names");
        for (x, y) in pairs {
            b.push_codes(&[x, y]).expect("arity 2");
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_deduplicated_relation() {
        let mut b = RelationBuilder::new("R", ["x", "y"]).unwrap();
        b.push_codes(&[1, 2]).unwrap();
        b.push_codes(&[1, 2]).unwrap();
        b.push_codes(&[3, 4]).unwrap();
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        let r = b.build();
        assert_eq!(r.len(), 2);
        assert_eq!(r.name(), "R");
    }

    #[test]
    fn keep_duplicates_preserves_bag() {
        let mut b = RelationBuilder::new("R", ["x"]).unwrap().keep_duplicates();
        b.push_codes(&[1]).unwrap();
        b.push_codes(&[1]).unwrap();
        assert_eq!(b.build().len(), 2);
    }

    #[test]
    fn arity_is_checked() {
        let mut b = RelationBuilder::new("R", ["x", "y"]).unwrap();
        assert!(b.push_codes(&[1]).is_err());
        assert!(b.push_values(&[Value::Int(1)]).is_err());
    }

    #[test]
    fn string_values_are_dictionary_encoded() {
        let mut b = RelationBuilder::new("Movies", ["id", "title"]).unwrap();
        b.push_values(&[Value::Int(1), Value::str("Alien")])
            .unwrap();
        b.push_values(&[Value::Int(2), Value::str("Brazil")])
            .unwrap();
        b.push_values(&[Value::Int(3), Value::str("Alien")])
            .unwrap();
        let (r, dict) = b.build_with_dictionary();
        assert_eq!(r.len(), 3);
        assert_eq!(dict.len(), 2);
        // rows 1 and 3 share the same title code
        let title_col = r.column(1);
        let alien_code = title_col[0];
        assert!(title_col.contains(&alien_code));
        assert_eq!(dict.decode(alien_code), Some(Value::str("Alien")));
    }

    #[test]
    fn binary_from_pairs_shortcut() {
        let r = RelationBuilder::binary_from_pairs("E", "src", "dst", vec![(1, 2), (2, 3), (1, 2)]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.schema().attrs(), &["src".to_string(), "dst".to_string()]);
    }

    #[test]
    fn empty_builder_produces_empty_relation() {
        let b = RelationBuilder::new("E", ["a", "b"]).unwrap();
        let r = b.build();
        assert!(r.is_empty());
        assert_eq!(r.arity(), 2);
    }
}
