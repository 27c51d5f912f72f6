//! # pxml-gen — the Section 7.1 workload generator
//!
//! Reproduces the paper's experimental setup exactly:
//!
//! * [`tree::generate`] — balanced trees (depth 3–9, branching 2–8) with
//!   no cardinality constraints, `2^b` random OPF entries per non-leaf,
//!   and SL (same-label) or FR (fully-random) edge labelling.
//! * [`queries`] — random path queries of length equal to the depth,
//!   accepted only when some object satisfies them, and random `p = o`
//!   selection queries drawn from `SelObj`.
//! * [`workload::Grid`] — the full depth × branching × labelling sweep.
//!
//! Everything is deterministic given the seeds.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod dag;
pub mod mutations;
pub mod queries;
pub mod requests;
pub mod tree;
pub mod workload;

pub use config::{Labeling, WorkloadConfig};
pub use dag::{random_dag, random_dag_with, DagConfig};
pub use mutations::random_mutations;
pub use requests::{serve_workload, ServeRequest};
pub use queries::{query_batch, random_path_query, random_selection_query, selection_batch};
pub use tree::{generate, GeneratedInstance};
pub use workload::{Grid, GridCell};
