//! Error type for LP construction and solving.

use std::fmt;

/// Errors produced while building or solving a linear program.
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// A constraint or objective refers to a variable index that does not
    /// exist in the problem.
    VariableOutOfRange {
        /// Offending variable index.
        index: usize,
        /// Number of variables in the problem.
        n_vars: usize,
    },
    /// A coefficient or right-hand side is NaN or infinite.
    NonFiniteCoefficient {
        /// Human-readable location of the offending value.
        location: String,
    },
    /// The problem has no constraints and an unbounded direction, or the
    /// simplex iteration limit was exceeded (which indicates a bug or a
    /// pathological input).
    IterationLimit {
        /// The limit that was hit.
        limit: usize,
    },
    /// The problem has zero variables.
    EmptyProblem,
    /// The attached shared tail block was built for a different number of
    /// structural columns than the problem has.
    SharedTailWidthMismatch {
        /// Columns the tail block was built for.
        tail_cols: usize,
        /// Number of variables in the problem.
        n_vars: usize,
    },
    /// The solver reached a numerically inconsistent state (e.g. accumulated
    /// round-off made phase 1 look unbounded).  No other engine retries the
    /// solve; a looser tolerance is the recovery to try.
    NumericalInstability {
        /// Human-readable description of where the inconsistency appeared.
        detail: String,
    },
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::VariableOutOfRange { index, n_vars } => write!(
                f,
                "variable index {index} out of range for problem with {n_vars} variables"
            ),
            LpError::NonFiniteCoefficient { location } => {
                write!(f, "non-finite coefficient at {location}")
            }
            LpError::IterationLimit { limit } => {
                write!(f, "simplex iteration limit of {limit} exceeded")
            }
            LpError::EmptyProblem => write!(f, "linear program has no variables"),
            LpError::SharedTailWidthMismatch { tail_cols, n_vars } => write!(
                f,
                "shared tail block built for {tail_cols} columns attached to a \
                 problem with {n_vars} variables"
            ),
            LpError::NumericalInstability { detail } => {
                write!(f, "numerical instability in the solver: {detail}")
            }
        }
    }
}

impl std::error::Error for LpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_key_data() {
        let e = LpError::VariableOutOfRange {
            index: 7,
            n_vars: 3,
        };
        assert!(e.to_string().contains('7'));
        assert!(e.to_string().contains('3'));
        let e = LpError::IterationLimit { limit: 10 };
        assert!(e.to_string().contains("10"));
        let e = LpError::NonFiniteCoefficient {
            location: "row 2".into(),
        };
        assert!(e.to_string().contains("row 2"));
        assert!(LpError::EmptyProblem.to_string().contains("no variables"));
        let e = LpError::SharedTailWidthMismatch {
            tail_cols: 4,
            n_vars: 2,
        };
        assert!(e.to_string().contains('4') && e.to_string().contains('2'));
        let e = LpError::NumericalInstability {
            detail: "phase 1".into(),
        };
        assert!(e.to_string().contains("phase 1"));
    }
}
