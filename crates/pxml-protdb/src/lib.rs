//! # pxml-protdb — the related-work baselines of Section 8
//!
//! Re-implementations (from scratch) of the two prior probabilistic
//! semistructured models the paper positions itself against, plus the
//! mappings *into* PXML that establish subsumption:
//!
//! * [`model`] — ProTDB (Nierman & Jagadish \[19\]): trees with independent
//!   per-child existence probabilities; [`convert::to_pxml`] embeds them
//!   as PXML instances using compact `Opf::Independent` representations,
//!   and the tests exhibit a PXML instance (exactly-one-of-two children)
//!   no ProTDB tree can express.
//! * [`spo`] — the SPO flat probability tables of Dekhtyar et al. \[9\],
//!   encoded with the `card = [1, 1]` construction the paper describes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod convert;
pub mod model;
pub mod query;
pub mod spo;

pub use convert::to_pxml;
pub use model::{ProtNode, ProtTree};
pub use query::{conjunctive_query, PatternMatch, PatternNode};
pub use spo::{encode_spo, SpoVariable};
