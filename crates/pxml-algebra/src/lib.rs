//! # pxml-algebra — the PXML algebra (Sections 5 and 6.1)
//!
//! Operators over probabilistic semistructured instances:
//!
//! * [`path`] — path expressions `r.l₁.…` (Definition 5.1) and
//!   [`locate`] — their evaluation on ordinary and weak instances.
//! * [`project_sd`] — ancestor (Definition 5.2), descendant and single
//!   projection on ordinary instances.
//! * [`project_prob`] — the efficient Section 6.1 algorithm for ancestor
//!   projection on probabilistic instances (bottom-up marginalisation,
//!   ε-normalisation and `card` update), with per-phase timing for the
//!   Figure 7 harness.
//! * [`selection`] — object/value/cardinality selection (Definitions
//!   5.4–5.6) by local chain conditioning on tree-shaped instances.
//! * [`product`] — Cartesian product (Definition 5.7).
//! * [`join`](mod@join) and [`setops`] — join, union and intersection, which the
//!   paper defers to a longer version; evaluated under the global
//!   semantics with Theorem-2 factorisation on demand.
//! * [`naive`] — the possible-worlds oracle: every operator executed
//!   literally per Definitions 5.3 and 5.6. Exact on arbitrary DAGs and
//!   the reference the efficient algorithms are tested against.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod join;
pub mod locate;
pub mod naive;
pub mod path;
pub mod product;
pub mod project_prob;
pub mod project_sd;
pub mod project_single;
pub mod selection;
pub mod setops;
pub mod timing;

pub use error::{AlgebraError, Result};
pub use join::{join, join_on_paths, JoinCond, Joined};
pub use locate::{layers_sd, layers_weak, locate_sd, locate_weak, satisfies_sd};
pub use path::PathExpr;
pub use product::{cartesian_product, cartesian_product_budgeted, Product};
pub use project_prob::{ancestor_project, ancestor_project_budgeted, ancestor_project_timed};
pub use project_sd::{ancestor_project_sd, descendant_project_sd, single_project_sd};
pub use project_single::{descendant_project, joint_target_distribution, single_project};
pub use selection::{select, select_budgeted, select_timed, SelectCond, Selected};
pub use setops::{intersection, try_factorize, union};
pub use timing::PhaseTimes;
