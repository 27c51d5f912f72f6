//! # pxml-query — probabilistic point queries (Section 6.2)
//!
//! Queries that return probabilities rather than instances:
//!
//! * [`chain::chain_probability`] — the probability of a simple object
//!   chain `r.o₁.….oᵢ` (product of OPF marginals along the chain, exact
//!   on arbitrary DAGs).
//! * [`point::point_query`] — `P(o ∈ p)` (Definition 6.1) via the
//!   path-ancestor extraction and ε propagation of Section 6.2.
//! * [`point::exists_query`] — `P(∃o ∈ p)`, the extension discussed at
//!   the end of Section 6.2.
//! * [`conditional`] — point queries composed with selection
//!   (Definition 5.6), answering the "now we know B1 surely exists"
//!   scenario of Section 2.
//! * [`engine::QueryEngine`] — batch evaluation of the above through a
//!   shared marginalisation cache ([`cache::MarginalCache`]), with
//!   optional multi-threaded fan-out and [`stats::EngineStats`]
//!   instrumentation. Engine answers are exactly equal (`==`) to the
//!   sequential functions' answers: the engine's flat §6.1 sweep
//!   ([`pxml_core::ArenaInstance::eps_flat`]) replicates the sequential
//!   recursion's arithmetic operation for operation. The recursion in
//!   [`point`] is the sequential reference only; no engine path runs
//!   it.
//!
//! ## Resource governance
//!
//! Every evaluation path exists in a budgeted form
//! ([`point_query_budgeted`], [`exists_query_budgeted`],
//! [`chain_probability_budgeted`], the `*_budgeted` conditional
//! queries) charging a [`pxml_core::Budget`] — a work-step counter,
//! wall-clock deadline and cooperative cancellation token — at every
//! expansion point. Exhaustion surfaces as the typed
//! [`pxml_core::Exhausted`] error (via `CoreError::Exhausted`), never a
//! panic and never silently. [`engine::QueryEngine::run_governed`] /
//! [`engine::QueryEngine::run_batch_governed`] additionally support
//! graceful degradation: under [`engine::DegradePolicy::Interval`] an
//! exhausted query returns a guaranteed-bracketing
//! [`engine::Answer::Interval`] built from the partially-marginalised
//! state instead of an error. Governed and ungoverned queries share one
//! evaluator: the engine's flat sweep charges the budget one step per
//! kept node in the sequential recursion's depth-first order, so on a
//! tree-shaped point/exists query or a chain a governed engine run
//! spends exactly the steps the `*_budgeted` sequential function
//! spends. The shared cache can be byte-capped via
//! [`engine::QueryEngine::set_max_cache_bytes`].
//!
//! ## Observability
//!
//! The engine carries an opt-in tracing + metrics layer (off by
//! default, one relaxed atomic load on the hot path when disabled):
//! [`engine::QueryEngine::set_trace_mode`] switches between
//! [`trace::TraceMode::Off`], `Timing` (per-query latency /
//! budget-spend histograms in [`stats::EngineStats`]) and `Full`
//! (per-query [`trace::QueryTrace`] records — phase spans, cache
//! provenance per memo layer, `|℘|` OPF-entry work, budget spend — in a
//! bounded ring buffer drained via
//! [`engine::QueryEngine::take_traces`]). Every query records into one
//! per-query ledger, folded into the counters once whatever the trace
//! mode, so traced and untraced runs count alike. Everything measured exports
//! to Prometheus text exposition format through
//! [`engine::QueryEngine::export_metrics`] /
//! [`metrics::MetricsRegistry`].
//!
//! The ε computations assume tree-shaped kept regions (the standing
//! assumption of Section 6) and return [`QueryError::NotTreeShaped`]
//! otherwise; `pxml_algebra::naive` and `pxml-bayes` handle general DAGs.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod audit;
pub mod cache;
pub mod chain;
pub mod conditional;
pub mod dag;
pub mod engine;
pub mod error;
pub mod metrics;
pub mod point;
pub mod preflight;
pub mod stats;
pub mod trace;

pub use cache::{InvalidationCounts, MarginalCache};
pub use chain::{chain_probability, chain_probability_budgeted, chain_probability_named};
pub use conditional::{
    conditional_exists_query, conditional_exists_query_budgeted, conditional_point_query,
    conditional_point_query_budgeted, presence_probability, presence_probability_budgeted,
};
pub use dag::{exists_query_dag, point_query_dag};
pub use engine::{Answer, BudgetSpec, DegradePolicy, MutationOutcome, Query, QueryEngine};
pub use error::{QueryError, Result};
pub use metrics::MetricsRegistry;
pub use point::{exists_query, exists_query_budgeted, point_query, point_query_budgeted};
pub use preflight::{analyze, normalise, CostEstimate, DiagCode, Diagnostic, Report, Verdict};
pub use stats::{EngineStats, HistSnapshot, LogHistogram, StatsSnapshot};
pub use trace::{push_json_escaped, QueryKind, QueryTrace, TraceMode, TraceOutcome, TraceRing};

// Re-exported so downstream users (the CLI, tests) can build budgets
// without importing pxml-core directly.
pub use pxml_core::{
    parse_ops, render_ops, Budget, CancelToken, Exhausted, Mutation, MutationEffect, Resource,
};
