//! Error types for probabilistic queries.

use std::fmt;

use pxml_core::{CoreError, Exhausted, ObjectId};
use pxml_algebra::AlgebraError;

/// Errors raised by the query engine.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // variant payload fields are self-describing
pub enum QueryError {
    /// An underlying data-model error.
    Core(CoreError),
    /// An underlying algebra error.
    Algebra(AlgebraError),
    /// A chain query was given an empty chain.
    EmptyChain,
    /// Simple object chains start at the root (Section 6.2).
    ChainMustStartAtRoot,
    /// An object in the chain is not in the instance.
    UnknownObject(ObjectId),
    /// `child` is not a potential child of `parent`.
    NotAChild { parent: ObjectId, child: ObjectId },
    /// A name was not found in the catalog.
    NameNotFound(String),
    /// The ε computation assumes a tree-shaped kept region (Section 6);
    /// use the naive engine for DAGs.
    NotTreeShaped(ObjectId),
    /// Too many label-matching chains for inclusion–exclusion
    /// ([`crate::dag::MAX_CHAINS`]); use the Bayesian-network engine.
    TooManyChains(usize),
}

impl QueryError {
    /// The budget-exhaustion record, when this is the typed
    /// `Exhausted` error a governed run returns.
    pub fn exhaustion(&self) -> Option<Exhausted> {
        match self {
            QueryError::Core(CoreError::Exhausted(x)) => Some(*x),
            _ => None,
        }
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Core(e) => write!(f, "{e}"),
            QueryError::Algebra(e) => write!(f, "{e}"),
            QueryError::EmptyChain => write!(f, "object chain is empty"),
            QueryError::ChainMustStartAtRoot => {
                write!(f, "simple object chains must start at the root (Section 6.2)")
            }
            QueryError::UnknownObject(o) => write!(f, "object {o:?} is not in the instance"),
            QueryError::NotAChild { parent, child } => {
                write!(f, "{child:?} is not a potential child of {parent:?}")
            }
            QueryError::NameNotFound(n) => write!(f, "name {n:?} not found in catalog"),
            QueryError::NotTreeShaped(o) => write!(
                f,
                "object {o:?} has multiple kept parents; the ε computation assumes tree shape (Section 6)"
            ),
            QueryError::TooManyChains(n) => write!(
                f,
                "{n} label-matching chains exceed the inclusion–exclusion bound; use pxml-bayes"
            ),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Core(e) => Some(e),
            QueryError::Algebra(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for QueryError {
    fn from(e: CoreError) -> Self {
        QueryError::Core(e)
    }
}
impl From<AlgebraError> for QueryError {
    fn from(e: AlgebraError) -> Self {
        QueryError::Algebra(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T, E = QueryError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_messages() {
        let e: QueryError = CoreError::MissingRoot.into();
        assert!(e.to_string().contains("root"));
        let e: QueryError = AlgebraError::EmptySelection.into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(QueryError::ChainMustStartAtRoot.to_string().contains("6.2"));
    }
}
