//! # pxml-interval — interval probabilities (the PIXML track)
//!
//! The paper's introduction points to "a companion paper \[14\] \[that\]
//! describes an approach which uses interval probabilities". This crate
//! implements that extension over the same weak-instance skeleton:
//!
//! * [`iprob`] — probability intervals, coherence (`Σ lo ≤ 1 ≤ Σ hi`),
//!   tightening to attainable bounds, and canonical point selection;
//! * [`iopf`] — interval OPFs/VPFs and [`iopf::IProbInstance`], whose
//!   semantics is the *set* of point instances inside the intervals;
//! * [`ipoint`] — interval-valued chain queries whose bounds enclose the
//!   answer of every contained point instance;
//! * [`ieps`] — interval ε propagation: sound bounds on point and
//!   existential path probabilities, with an exact simplex-constrained
//!   expectation bound at each node.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ieps;
pub mod iopf;
pub mod ipoint;
pub mod iprob;

pub use ieps::{bound_expectation, interval_exists_query, interval_point_query};
pub use iopf::{IOpf, IProbInstance, IVpf};
pub use ipoint::interval_chain_probability;
pub use iprob::{coherent, pick_point, tighten, Interval};
