//! # pxml-core — the PXML probabilistic semistructured data model
//!
//! This crate implements the data model and possible-worlds semantics of
//!
//! > Edward Hung, Lise Getoor, V. S. Subrahmanian.
//! > *PXML: A Probabilistic Semistructured Data Model and Algebra.*
//! > ICDE 2003.
//!
//! ## Layered model
//!
//! * [`SdInstance`] — an ordinary semistructured instance: a rooted,
//!   edge-labelled directed graph with typed leaf values (Definition 3.3).
//! * [`WeakInstance`] — `(V, lch, τ, val, card)`: which objects *may* be
//!   children of which, with per-label cardinality intervals
//!   (Definition 3.4). [`potential`] derives `PL(o, l)` and `PC(o)`
//!   (Definitions 3.5–3.6) and [`hitting`] provides the literal
//!   hitting-set formulation.
//! * [`ProbInstance`] — a weak instance plus a local interpretation: an
//!   [`Opf`] per non-leaf object and a [`Vpf`] per typed leaf
//!   (Definitions 3.8–3.11).
//!
//! ## Semantics
//!
//! [`worlds`] enumerates the distribution over compatible instances
//! induced by the local interpretation (Definition 4.4, Theorem 1);
//! [`global`] checks the independence condition of Definition 4.5; and
//! [`factorize`] constructively inverts the mapping (Theorem 2).
//!
//! ## Quick example
//!
//! ```
//! use pxml_core::fixtures::{fig2_instance, fig3_s1};
//! use pxml_core::worlds::world_probability;
//!
//! let pi = fig2_instance();            // the paper's Figure 2
//! let s1 = fig3_s1();                  // S1 of Figure 3
//! let p = world_probability(&pi, &s1).unwrap();
//! assert!((p - 0.00448).abs() < 1e-12); // Example 4.1
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arena;
pub mod budget;
pub mod catalog;
pub mod childset;
pub mod error;
pub mod factorize;
pub mod fixtures;
pub mod global;
pub mod hitting;
pub mod ids;
pub mod instance;
pub mod lint;
pub mod mutate;
pub mod opf;
pub mod pathkey;
pub mod potential;
pub mod prob_instance;
pub mod types;
pub mod value;
pub mod vpf;
pub mod weak;
pub mod worlds;

pub use arena::{ArenaInstance, DirtyScope, EpsBounds, OnePass, OpfView};
pub use budget::{Budget, CancelToken, DegradePolicy, Exhausted, Resource};
pub use catalog::Catalog;
pub use childset::{ChildSet, ChildUniverse};
pub use error::{CoreError, Result, PROB_EPS};
pub use global::GlobalInterpretation;
pub use ids::{IdMap, Label, ObjectId, TypeId};
pub use instance::{SdInstance, SdInstanceBuilder, SdNode};
pub use lint::{lint, lint_governed, LintClass, LintFinding, LintOutcome, Severity};
pub use mutate::{parse_ops, render_ops, Mutation, MutationEffect};
pub use opf::{IndependentOpf, LabelProductOpf, Opf, OpfTable};
pub use pathkey::LabelPath;
pub use prob_instance::{ProbInstance, ProbInstanceBuilder};
pub use types::{LeafType, TypeTable};
pub use value::Value;
pub use vpf::Vpf;
pub use weak::{Card, LeafInfo, WeakInstance, WeakInstanceBuilder, WeakNode};
pub use worlds::{
    enumerate_worlds, enumerate_worlds_budgeted, enumerate_worlds_with_limit, world_probability,
    WorldTable,
};
