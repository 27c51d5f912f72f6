//! The query AST, generic over how it holds names: the parser builds
//! it over `&str` slices of the query line
//! ([`crate::parser::parse_borrowed`]), and [`crate::parse`] returns it
//! over owned `String`s.

use pxml_core::Value;

/// A path expression in textual form: a root object name followed by
/// label names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathText<S = String> {
    /// Root object name.
    pub root: S,
    /// Edge label names, outermost first.
    pub labels: Vec<S>,
}

impl<S> PathText<S> {
    /// Builds from dotted segments (first = root).
    pub fn new(segments: Vec<S>) -> Option<Self> {
        let mut it = segments.into_iter();
        let root = it.next()?;
        Some(PathText { root, labels: it.collect() })
    }
}

impl PathText<&str> {
    /// The same path over owned names.
    pub fn into_owned(self) -> PathText {
        PathText {
            root: self.root.to_owned(),
            labels: self.labels.into_iter().map(str::to_owned).collect(),
        }
    }
}

impl<S: std::fmt::Display> std::fmt::Display for PathText<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.root)?;
        for l in &self.labels {
            write!(f, ".{l}")?;
        }
        Ok(())
    }
}

/// Which projection operator to apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProjectKind {
    /// Ancestor projection (Definition 5.2) — the default.
    Ancestor,
    /// Single projection (targets directly under the root).
    Single,
    /// Descendant projection (targets plus their subtrees).
    Descendant,
}

/// A parsed query.
#[derive(Clone, Debug, PartialEq)]
pub enum Query<S = String> {
    /// `PROJECT [ANCESTOR|SINGLE|DESCENDANT] <path>`
    Project {
        /// The projection operator.
        kind: ProjectKind,
        /// The path expression.
        path: PathText<S>,
    },
    /// `SELECT <path> = <object>` — object selection (Definition 5.4).
    SelectObject {
        /// The locating path.
        path: PathText<S>,
        /// The selected object's name.
        object: S,
    },
    /// `SELECT VALUE <path> [@ <object>] = <literal>` — value selection
    /// (Definition 5.5), optionally pinned to one object.
    SelectValue {
        /// The locating path.
        path: PathText<S>,
        /// The designated object, if any.
        object: Option<S>,
        /// The value to match.
        value: Value,
    },
    /// `POINT <object> IN <path>` — `P(o ∈ p)` (Definition 6.1).
    Point {
        /// The queried object's name.
        object: S,
        /// The path expression.
        path: PathText<S>,
    },
    /// `EXISTS <path>` — `P(∃o ∈ p)`.
    Exists {
        /// The path expression.
        path: PathText<S>,
    },
    /// `CHAIN <o1>.<o2>.…` — simple object-chain probability (§6.2).
    Chain {
        /// The object names, root first.
        objects: Vec<S>,
    },
    /// `PROB <object>` — presence probability (Bayesian network).
    Prob {
        /// The queried object's name.
        object: S,
    },
    /// `WORLDS [TOP <n>]` — enumerate compatible worlds (most probable
    /// first).
    Worlds {
        /// Optional cap on the number of worlds reported.
        top: Option<usize>,
    },
    /// `RENDER` — pretty-print the instance's Figure-2-style tables.
    Render,
}

impl Query<&str> {
    /// The same query over owned names.
    pub fn into_owned(self) -> Query {
        match self {
            Query::Project { kind, path } => Query::Project { kind, path: path.into_owned() },
            Query::SelectObject { path, object } => {
                Query::SelectObject { path: path.into_owned(), object: object.to_owned() }
            }
            Query::SelectValue { path, object, value } => Query::SelectValue {
                path: path.into_owned(),
                object: object.map(str::to_owned),
                value,
            },
            Query::Point { object, path } => {
                Query::Point { object: object.to_owned(), path: path.into_owned() }
            }
            Query::Exists { path } => Query::Exists { path: path.into_owned() },
            Query::Chain { objects } => {
                Query::Chain { objects: objects.into_iter().map(str::to_owned).collect() }
            }
            Query::Prob { object } => Query::Prob { object: object.to_owned() },
            Query::Worlds { top } => Query::Worlds { top },
            Query::Render => Query::Render,
        }
    }
}
