//! # pxml-ql — a textual query language for PXML
//!
//! A small query surface over probabilistic instances, compiling to the
//! algebra (`pxml-algebra`), the §6.2 query engines (`pxml-query`) and
//! the Bayesian network (`pxml-bayes`), with automatic engine fallback:
//!
//! ```text
//! PROJECT [ANCESTOR|SINGLE|DESCENDANT] R.book.author
//! SELECT R.book = B1
//! SELECT VALUE R.book.title [@ T1] = "VQDB"
//! POINT A1 IN R.book.author
//! EXISTS R.book.title
//! CHAIN R.B1.A1
//! PROB A1
//! WORLDS [TOP n]
//! RENDER
//! ```
//!
//! ```
//! use pxml_core::fixtures::fig2_instance;
//! use pxml_ql::{run, Output};
//!
//! let pi = fig2_instance();
//! let Output::Probability(p) = run(&pi, "POINT T2 IN R.book.title").unwrap() else {
//!     unreachable!()
//! };
//! assert!((p - 0.8).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod analyze;
pub mod ast;
pub mod error;
pub mod exec;
pub mod lexer;
pub mod parser;

pub use analyze::{analyze as analyze_text, analyze_query, QueryAnalysis};
pub use ast::{PathText, ProjectKind, Query};
pub use error::{QlError, Result};
pub use exec::{execute, run, Engine, Output};
pub use parser::{parse, parse_borrowed};
