//! Error type for the join evaluation engine.

use lpb_core::CoreError;
use lpb_data::DataError;
use std::fmt;

/// Errors raised while planning or executing joins.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Error from the data layer.
    Data(DataError),
    /// Error from the bound engine (query validation).
    Core(String),
    /// A query atom's arity does not match its relation.
    AtomArityMismatch {
        /// Relation name.
        relation: String,
        /// Variables in the atom.
        atom_arity: usize,
        /// Arity of the relation.
        relation_arity: usize,
    },
    /// The requested algorithm needs an acyclic query but the query is
    /// cyclic (or vice versa).
    NotApplicable {
        /// Human-readable reason.
        reason: String,
    },
    /// The planning call of a plan-cache flight panicked, so the requests
    /// waiting on that flight got no plan; the next request plans again.
    PlanningPanicked,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Data(e) => write!(f, "data error: {e}"),
            ExecError::Core(e) => write!(f, "query error: {e}"),
            ExecError::AtomArityMismatch {
                relation,
                atom_arity,
                relation_arity,
            } => write!(
                f,
                "atom over `{relation}` has {atom_arity} variables but the relation has arity {relation_arity}"
            ),
            ExecError::NotApplicable { reason } => write!(f, "not applicable: {reason}"),
            ExecError::PlanningPanicked => {
                write!(f, "the planning call this request waited on panicked")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<DataError> for ExecError {
    fn from(e: DataError) -> Self {
        ExecError::Data(e)
    }
}

impl From<CoreError> for ExecError {
    fn from(e: CoreError) -> Self {
        ExecError::Core(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e: ExecError = DataError::UnknownRelation { name: "R".into() }.into();
        assert!(e.to_string().contains("R"));
        let e = ExecError::NotApplicable {
            reason: "cyclic".into(),
        };
        assert!(e.to_string().contains("cyclic"));
        let e = ExecError::AtomArityMismatch {
            relation: "S".into(),
            atom_arity: 2,
            relation_arity: 3,
        };
        assert!(e.to_string().contains("S"));
        let e = ExecError::Core("bad query".into());
        assert!(e.to_string().contains("bad query"));
        assert!(ExecError::PlanningPanicked.to_string().contains("panicked"));
    }
}
