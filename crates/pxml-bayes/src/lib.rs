//! # pxml-bayes — Bayesian-network inference for PXML
//!
//! Section 6 of the paper observes that "there is a mapping between a
//! probabilistic instance and a Bayesian network" and that off-the-shelf
//! inference answers PXML queries without enumerating compatible worlds.
//! This crate *is* that substrate, built from scratch:
//!
//! * [`factor`] — discrete potential tables with multiply / sum-out /
//!   restrict;
//! * [`ordering`] — greedy min-degree and min-fill elimination orderings
//!   over the interaction graph (induced-width control);
//! * [`elimination`] — bucket elimination (Dechter \[8\]) with evidence;
//! * [`network`] — the object-variable encoding of a probabilistic
//!   instance (gated CPTs: an object is absent unless some parent's
//!   chosen child set contains it) and marginal / joint-presence queries.
//!
//! Unlike the ε-propagation of `pxml-query` (exact only on trees), the
//! network answers presence and value marginals exactly on arbitrary
//! acyclic instances, at a cost governed by the induced width.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod elimination;
pub mod factor;
pub mod network;
pub mod ordering;

pub use elimination::{eliminate_all_but, eliminate_in_order, with_evidence};
pub use factor::{Factor, Var};
pub use network::{Network, State, VarInfo};
pub use ordering::{interaction_graph, min_degree_order, min_fill_order};
