//! The batch query engine: shared-cache, multi-threaded evaluation of
//! point / exists / chain query batches over one [`ProbInstance`].
//!
//! A [`QueryEngine`] owns the instance, a [`MarginalCache`] shared by
//! every query it answers, and an [`EngineStats`] counter block. Batches
//! fan out over `crossbeam` scoped worker threads pulling query indices
//! from an atomic counter; results land in per-index slots, so the output
//! vector order always matches the input order regardless of thread
//! count.
//!
//! Every query, governed or not, runs one pipeline: count → result
//! probe → optional pre-flight → budgeted evaluation → writeback → one
//! fold of the query's ledger into the counters → optional trace
//! record. An ungoverned run is a run on an unlimited budget. The
//! stages record into one stack ledger per query (`TraceTally`),
//! traced or not, and only the fold writes the counters. Point/exists
//! queries evaluate through the flat §6.1 sweep of
//! [`pxml_core::ArenaInstance`], chains through a link walk over the
//! same arena. On a forest an ungoverned point or exists query computes
//! ε in the walk that finds its region (`point_pass` folding up the
//! target's one ancestor walk, `exists_pass` depth-first down the
//! path). Everywhere else (governed runs, non-forest arenas, and to name
//! an error) the sweep runs over a kept region (`eps_flat`): on a forest
//! a point query's region is what the same ancestor walk collects
//! (`point_region`), otherwise it is filtered from the path's located
//! layers (`locate` → `kept_flat`). The optional pre-flight
//! ([`crate::preflight`]) analyses the same arena, so no write leaves
//! an analysis to rebuild.
//!
//! Engine answers are **exactly** (`==`, not within-epsilon) the answers
//! of the sequential functions [`crate::point_query`],
//! [`crate::exists_query`] and [`crate::chain_probability`]: the sweep's
//! arithmetic replicates the sequential recursion operation for
//! operation, charges a budget in the recursion's order, and its errors
//! name the same objects; the engine only adds whole-result and
//! chain-link memos.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use pxml_algebra::path::PathExpr;
use pxml_core::catalog::DisplayObject;
use pxml_core::{
    render_ops, ArenaInstance, Budget, CancelToken, CoreError, Label, Mutation, ObjectId, OnePass,
    ProbInstance,
};
use pxml_interval::Interval;

use crate::cache::{InvalidationCounts, MarginalCache};
use crate::dag::{exists_query_dag_governed, point_query_dag_governed, DagOutcome};
use crate::error::{QueryError, Result};
use crate::metrics::MetricsRegistry;
use crate::preflight;
use crate::stats::{EngineStats, StatsSnapshot};
use crate::trace::{QueryKind, QueryTrace, TraceMode, TraceOutcome, TraceRing, TraceTally};

/// One query in a batch.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Query {
    /// `P(o ∈ p)` — [`crate::point_query`] (Definition 6.1).
    Point {
        /// The path expression.
        path: PathExpr,
        /// The queried object.
        object: ObjectId,
    },
    /// `P(∃o: o ∈ p)` — [`crate::exists_query`].
    Exists {
        /// The path expression.
        path: PathExpr,
    },
    /// `P(r.o₁.….oᵢ)` — [`crate::chain_probability`].
    Chain {
        /// The object chain, starting at the root.
        objects: Vec<ObjectId>,
    },
}

impl Query {
    /// Convenience constructor for a point query.
    pub fn point(path: PathExpr, object: ObjectId) -> Self {
        Query::Point { path, object }
    }

    /// Convenience constructor for an exists query.
    pub fn exists(path: PathExpr) -> Self {
        Query::Exists { path }
    }

    /// Convenience constructor for a chain query.
    pub fn chain(objects: impl Into<Vec<ObjectId>>) -> Self {
        Query::Chain { objects: objects.into() }
    }
}

/// What a governed run does when a query exhausts its [`Budget`];
/// under `Interval` the answer is an [`Answer::Interval`].
pub use pxml_core::DegradePolicy;

/// Per-query resource limits for [`QueryEngine::run_governed`] and
/// [`QueryEngine::run_batch_governed`]. Every field is optional;
/// `BudgetSpec::default()` is fully unlimited with `Error` degradation.
///
/// In a batch, each query gets its **own** [`Budget`] built from this
/// spec (so step exhaustion is a deterministic property of the query,
/// independent of worker count); the cancellation token, when present,
/// is shared across the batch so one `cancel()` stops everything.
#[derive(Clone, Debug, Default)]
pub struct BudgetSpec {
    /// Ceiling on work steps (survival evaluations, link marginals,
    /// chain extensions, inclusion–exclusion terms).
    pub max_steps: Option<u64>,
    /// Wall-clock deadline, measured from each query's start.
    pub timeout: Option<Duration>,
    /// Cooperative cancellation token, polled at the same checkpoints
    /// as the deadline.
    pub cancel: Option<CancelToken>,
    /// Exhaustion behaviour.
    pub degrade: DegradePolicy,
}

impl BudgetSpec {
    /// A fresh [`Budget`] configured per this spec.
    pub fn budget(&self) -> Budget {
        let mut b = Budget::unlimited();
        if let Some(s) = self.max_steps {
            b = b.with_max_steps(s);
        }
        if let Some(t) = self.timeout {
            b = b.with_timeout(t);
        }
        if let Some(c) = &self.cancel {
            b = b.with_cancel_token(c.clone());
        }
        b
    }
}

/// A governed query answer: the exact probability when the budget
/// sufficed, or a guaranteed bracket of it when the run degraded.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Answer {
    /// The exact probability — identical to what the ungoverned path
    /// would return.
    Exact(f64),
    /// A bracket `[lo, hi]` guaranteed to contain the exact probability;
    /// produced only under [`DegradePolicy::Interval`] after exhaustion.
    Interval(Interval),
}

impl Answer {
    /// Lower bound (the value itself when exact).
    pub fn lo(&self) -> f64 {
        match self {
            Answer::Exact(v) => *v,
            Answer::Interval(i) => i.lo,
        }
    }

    /// Upper bound (the value itself when exact).
    pub fn hi(&self) -> f64 {
        match self {
            Answer::Exact(v) => *v,
            Answer::Interval(i) => i.hi,
        }
    }

    /// True when this is a degraded interval answer.
    pub fn is_degraded(&self) -> bool {
        matches!(self, Answer::Interval(_))
    }

    /// True when `p` lies inside the answer (exact match or bracket
    /// containment, with the interval type's tolerance).
    pub fn contains(&self, p: f64) -> bool {
        match self {
            Answer::Exact(v) => (v - p).abs() <= 1e-12,
            Answer::Interval(i) => i.contains(p),
        }
    }
}

/// What one [`QueryEngine::apply_mutation`] call did.
#[derive(Clone, Debug)]
pub struct MutationOutcome {
    /// The core-layer effect: dirty/removed/inserted objects.
    pub effect: pxml_core::MutationEffect,
    /// Size of the affected set `D ∪ ancestors(D)`.
    pub affected: usize,
    /// Per-table eviction counts of the dirty-set invalidation (see
    /// [`MarginalCache::invalidate_dirty`]); all zero for a provable
    /// no-op.
    pub invalidated: InvalidationCounts,
    /// Wall time of apply + propagation + eviction, in nanoseconds.
    pub nanos: u64,
}

/// A mutation's dirty set as the cache invalidation takes it, and the
/// size of its ancestor closure.
struct DirtyClosure {
    /// `D`, the directly changed objects, as raw ids.
    direct: HashSet<u32>,
    /// `|D ∪ ancestors(D)|`.
    affected: usize,
}

/// Batch query engine over one probabilistic instance.
#[derive(Debug)]
pub struct QueryEngine {
    pi: ProbInstance,
    /// Flat lowering of `pi` (arena + CSR + OPF slabs). The point/exists
    /// sweep, the chain kernel and the pre-flight run over this. An
    /// entry-level mutation patches the dirty objects' OPF slots in
    /// place; a structural one re-lowers it wholesale.
    arena: ArenaInstance,
    cache: MarginalCache,
    stats: EngineStats,
    threads: usize,
    /// Encoded [`TraceMode`]; one relaxed load gates the whole
    /// observability layer, so `Off` stays off the hot path.
    trace_mode: AtomicU8,
    traces: TraceRing,
    trace_seq: AtomicU64,
    /// Opt-in static pre-flight stage; one relaxed load gates it, so
    /// the default-off hot path is unchanged.
    preflight: AtomicBool,
}

const TRACE_OFF: u8 = 0;
const TRACE_TIMING: u8 = 1;
const TRACE_FULL: u8 = 2;

fn encode_mode(mode: TraceMode) -> u8 {
    match mode {
        TraceMode::Off => TRACE_OFF,
        TraceMode::Timing => TRACE_TIMING,
        TraceMode::Full => TRACE_FULL,
    }
}

impl QueryEngine {
    /// An engine with as many workers as the machine has cores.
    pub fn new(pi: ProbInstance) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::with_threads(pi, threads)
    }

    /// An engine with exactly `threads` workers (clamped to ≥ 1).
    /// `threads == 1` evaluates batches inline with no thread spawns.
    pub fn with_threads(pi: ProbInstance, threads: usize) -> Self {
        let arena = ArenaInstance::lower_unchecked(&pi);
        QueryEngine {
            pi,
            arena,
            cache: MarginalCache::new(),
            stats: EngineStats::new(),
            threads: threads.max(1),
            trace_mode: AtomicU8::new(TRACE_OFF),
            traces: TraceRing::default(),
            trace_seq: AtomicU64::new(0),
            preflight: AtomicBool::new(false),
        }
    }

    /// The flat lowering queries run over (and the pre-flight analyses).
    /// Writes keep it current: entry-level ones patch it in place,
    /// structural ones re-lower it.
    pub fn arena(&self) -> &ArenaInstance {
        &self.arena
    }

    /// Switches the static pre-flight stage on or off (off by
    /// default). When on, every query is normalised and checked
    /// against the arena before evaluation ([`preflight::analyze`]):
    /// provably-zero
    /// queries short-circuit to exact `0.0`, canonicalised plans share
    /// result-cache keys, and governed queries whose exact predicted
    /// step count exceeds the budget are rejected without spending it.
    pub fn set_preflight(&self, on: bool) {
        self.preflight.store(on, Ordering::Relaxed);
    }

    /// Whether the pre-flight stage is enabled.
    pub fn preflight_enabled(&self) -> bool {
        self.preflight.load(Ordering::Relaxed)
    }

    /// The instance being queried.
    pub fn instance(&self) -> &ProbInstance {
        &self.pi
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Reconfigures the worker count (clamped to ≥ 1). The cache is kept.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// A point-in-time copy of the counters (cache evictions included).
    pub fn stats(&self) -> StatsSnapshot {
        let mut s = self.stats.snapshot();
        s.cache_evictions = self.cache.evictions();
        s.cache_admission_rejections = self.cache.admission_rejections();
        s
    }

    /// Zeroes the counters (the cache is kept).
    pub fn reset_stats(&self) {
        self.stats.reset();
        self.cache.reset_evictions();
    }

    /// Drops every memoised value. Counters are kept.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Entry counts of the two cache tables `(results, links)`.
    pub fn cache_len(&self) -> (usize, usize) {
        self.cache.len()
    }

    /// Caps the shared cache's accounted footprint at `bytes`
    /// (0 = unlimited). Crossing the ceiling evicts whole tables
    /// epoch-style; see [`MarginalCache`].
    pub fn set_max_cache_bytes(&self, bytes: u64) {
        self.cache.set_max_bytes(bytes);
    }

    /// The cache's approximate accounted footprint in bytes.
    pub fn cache_bytes(&self) -> u64 {
        self.cache.approx_bytes()
    }

    /// Consumes the engine, returning the instance.
    pub fn into_instance(self) -> ProbInstance {
        self.pi
    }

    /// Shared-cache handle for the audit hook (`crate::audit`).
    pub(crate) fn cache(&self) -> &MarginalCache {
        &self.cache
    }

    /// Applies one mutation to the owned instance and evicts the cache
    /// entries its dirty set can affect (see
    /// [`MarginalCache::invalidate_dirty`]). Atomic: on `Err`
    /// the instance, the arena and the cache are all unchanged. The
    /// pre-flight reads the arena, so it needs nothing rebuilt.
    pub fn apply_mutation(&mut self, m: &Mutation) -> Result<MutationOutcome> {
        self.apply_mutation_governed(m, &Budget::unlimited())
    }

    /// [`QueryEngine::apply_mutation`] under a resource budget: the
    /// §6.1 recomputation is bounded by the core layer's own checks, and
    /// the dirty-set ancestor propagation charges one step per object
    /// visited, so a runaway blast radius surfaces as a typed
    /// [`pxml_core::Exhausted`] error *before* any eviction happens
    /// (the mutation itself is already applied and stays applied; the
    /// cache falls back to a full flush, which is always sound).
    pub fn apply_mutation_governed(
        &mut self,
        m: &Mutation,
        budget: &Budget,
    ) -> Result<MutationOutcome> {
        let started = Instant::now();
        let effect = self.pi.apply(m).map_err(QueryError::from)?;
        if effect.dirty.is_empty() && !effect.structural {
            // A provable no-op changed nothing, so the arena and the
            // cache both stay valid.
            return Ok(self.finish_mutation(m, effect, 0, InvalidationCounts::default(), started));
        }
        // Entry-level ops keep the weak skeleton, hence both CSRs: patch
        // the dirty OPF slots in place. Structural ops re-lower
        // wholesale; rows are object ids, so the cache's keys stay valid.
        if effect.structural {
            self.arena = ArenaInstance::lower_unchecked(&self.pi);
        } else {
            self.arena.patch_opfs(&self.pi, &effect.dirty);
        }
        let d = match self.propagate_dirty(&effect.dirty, budget) {
            Ok(d) => d,
            Err(e) => {
                // Budget died mid-propagation: the instance already
                // mutated, so flush wholesale to stay sound.
                self.cache.clear();
                let nanos = started.elapsed().as_nanos() as u64;
                self.stats.count_mutation(0, nanos);
                return Err(e);
            }
        };
        // An entry-level write keeps the skeleton, so on a forest point
        // and exists results are tested against the dirty objects'
        // subtree numbers and root label paths. Any other write evicts
        // them all.
        let scope =
            if effect.structural { None } else { self.arena.dirty_scope(&effect.dirty) };
        let invalidated = self.cache.invalidate_dirty(&d.direct, scope.as_ref());
        Ok(self.finish_mutation(m, effect, d.affected, invalidated, started))
    }

    /// Counts (and, under full tracing, records) an applied mutation.
    fn finish_mutation(
        &self,
        m: &Mutation,
        effect: pxml_core::MutationEffect,
        affected: usize,
        invalidated: InvalidationCounts,
        started: Instant,
    ) -> MutationOutcome {
        let nanos = started.elapsed().as_nanos() as u64;
        self.stats.count_mutation(invalidated.total(), nanos);
        if self.trace_mode.load(Ordering::Relaxed) == TRACE_FULL {
            self.push_mutation_trace(m, nanos);
        }
        MutationOutcome { effect, affected, invalidated, nanos }
    }

    /// Propagates the direct dirty set `D` up the weak-edge ancestor DAG
    /// over the arena's reverse CSR, so the walk costs
    /// O(|D ∪ ancestors(D)|), not O(instance). One budget step per
    /// object visited (each member of `D`, then each newly reached
    /// ancestor) bounds the walk on adversarial instances.
    fn propagate_dirty(&self, dirty: &[ObjectId], budget: &Budget) -> Result<DirtyClosure> {
        let direct: HashSet<u32> = dirty.iter().map(|o| o.raw()).collect();
        let mut queue: Vec<u32> = direct.iter().copied().collect();
        let mut affected = direct.clone();
        while let Some(x) = queue.pop() {
            budget.charge(1).map_err(pxml_core::CoreError::from)?;
            // A removed object has no parents: its row is empty, or past
            // the end when it had the largest id.
            if (x as usize) < self.arena.len() {
                for &p in self.arena.parents_of(x) {
                    if affected.insert(p) {
                        queue.push(p);
                    }
                }
            }
        }
        Ok(DirtyClosure { affected: affected.len(), direct })
    }

    /// Materialises one trace record for an applied mutation.
    fn push_mutation_trace(&self, m: &Mutation, nanos: u64) {
        let seq = self.trace_seq.fetch_add(1, Ordering::Relaxed);
        let query = render_ops(&self.pi, std::slice::from_ref(m)).trim_end().to_string();
        self.traces.push(QueryTrace {
            seq,
            query,
            kind: QueryKind::Mutation,
            outcome: TraceOutcome::Exact,
            lo: 0.0,
            hi: 0.0,
            error: None,
            total_nanos: nanos,
            locate_nanos: 0,
            marginal_nanos: 0,
            normalise_nanos: 0,
            result_hit: false,
            link_hits: 0,
            link_misses: 0,
            opf_entries: 0,
            budget_steps: 0,
            budget_polls: 0,
        });
    }

    /// The current trace mode.
    pub fn trace_mode(&self) -> TraceMode {
        match self.trace_mode.load(Ordering::Relaxed) {
            TRACE_TIMING => TraceMode::Timing,
            TRACE_FULL => TraceMode::Full,
            _ => TraceMode::Off,
        }
    }

    /// Switches per-query observability on or off. `Off` (the default)
    /// keeps the hot path free of clock reads and allocation; `Timing`
    /// populates the latency / budget-spend histograms; `Full` also
    /// records one [`QueryTrace`] per query into the engine's ring
    /// buffer (see [`QueryEngine::take_traces`]).
    pub fn set_trace_mode(&self, mode: TraceMode) {
        self.trace_mode.store(encode_mode(mode), Ordering::Relaxed);
    }

    /// Resizes the trace ring buffer (clamped to ≥ 1; default 4096).
    pub fn set_trace_capacity(&self, capacity: usize) {
        self.traces.set_capacity(capacity);
    }

    /// Drains and returns the buffered trace records, oldest first.
    pub fn take_traces(&self) -> Vec<QueryTrace> {
        self.traces.take()
    }

    /// Trace records evicted because the ring buffer was full.
    pub fn traces_dropped(&self) -> u64 {
        self.traces.dropped()
    }

    /// Exports everything the engine measures into `reg` as Prometheus
    /// metric families: the [`StatsSnapshot`] counters, cache table
    /// sizes/footprint/evictions, budget spend, and the per-query
    /// latency + budget-spend histograms (populated when tracing is on).
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        let s = self.stats();
        reg.counter("pxml_queries_total", "Queries answered (including cache hits).", s.queries_run);
        reg.counter("pxml_batches_total", "Query batches completed.", s.batches_run);
        reg.counter_vec(
            "pxml_cache_hits_total",
            "Memo hits by cache table.",
            &[
                ("table=\"result\"", s.result_hits),
                ("table=\"eps\"", s.eps_hits),
                ("table=\"link\"", s.link_hits),
            ],
        );
        reg.counter_vec(
            "pxml_cache_misses_total",
            "Memo misses by cache table.",
            &[
                ("table=\"result\"", s.result_misses),
                ("table=\"eps\"", s.eps_misses),
                ("table=\"link\"", s.link_misses),
            ],
        );
        reg.counter(
            "pxml_cache_evictions_total",
            "Whole-table cache evictions under the byte ceiling.",
            s.cache_evictions,
        );
        reg.counter(
            "pxml_cache_admission_rejected_total",
            "Cache inserts refused because no eviction could make room.",
            s.cache_admission_rejections,
        );
        let (results, links) = self.cache_len();
        // The `eps` series stays (at zero) so the exposition keeps its
        // shape now that no ε memo exists.
        reg.gauge_vec(
            "pxml_cache_entries",
            "Entries per cache table.",
            &[
                ("table=\"result\"", results as f64),
                ("table=\"eps\"", 0.0),
                ("table=\"link\"", links as f64),
            ],
        );
        reg.gauge(
            "pxml_cache_bytes",
            "Approximate accounted cache footprint in bytes.",
            self.cache_bytes() as f64,
        );
        reg.counter(
            "pxml_opf_entries_visited_total",
            "OPF entries visited: the paper's |P| work measure (Figure 7).",
            s.opf_entries_visited,
        );
        reg.counter(
            "pxml_queries_degraded_total",
            "Governed queries degraded to interval answers.",
            s.queries_degraded,
        );
        reg.counter(
            "pxml_queries_exhausted_total",
            "Governed queries that returned the typed Exhausted error.",
            s.queries_exhausted,
        );
        reg.counter(
            "pxml_budget_steps_spent_total",
            "Work steps charged against query budgets.",
            s.budget_steps_spent,
        );
        reg.counter(
            "pxml_budget_polls_total",
            "Budget deadline/cancellation polls (checkpoint events).",
            s.budget_polls,
        );
        reg.counter(
            "pxml_preflight_zeros_total",
            "Queries short-circuited to exact 0.0 by the static pre-flight.",
            s.preflight_zeros,
        );
        reg.counter(
            "pxml_preflight_rewrites_total",
            "Queries canonicalised by the pre-flight plan normaliser.",
            s.preflight_rewrites,
        );
        reg.counter(
            "pxml_preflight_rejections_total",
            "Governed queries rejected by pre-flight admission control.",
            s.preflight_rejections,
        );
        reg.counter_f64(
            "pxml_locate_seconds_total",
            "Wall time locating path layers (forward pass).",
            s.locate_nanos as f64 * 1e-9,
        );
        reg.counter_f64(
            "pxml_marginal_seconds_total",
            "Wall time in epsilon / chain marginalisation.",
            s.marginal_nanos as f64 * 1e-9,
        );
        reg.counter_f64(
            "pxml_batch_seconds_total",
            "Batch wall time, accumulated across batches.",
            s.batch_nanos as f64 * 1e-9,
        );
        reg.histogram(
            "pxml_query_duration_seconds",
            "Per-query wall time (recorded when tracing is enabled).",
            &s.query_nanos_hist,
            1e-9,
        );
        reg.histogram(
            "pxml_query_budget_steps",
            "Per-query budget spend in steps (governed queries, tracing enabled).",
            &s.budget_steps_hist,
            1.0,
        );
        reg.counter(
            "pxml_mutations_total",
            "Instance mutations applied through the engine.",
            s.mutations_applied,
        );
        reg.counter(
            "pxml_invalidations_total",
            "Cache entries evicted by dirty-set invalidation.",
            s.cache_invalidations,
        );
        reg.counter_f64(
            "pxml_mutation_nanos_total",
            "Wall time applying mutations, in nanoseconds.",
            s.mutation_nanos as f64,
        );
        reg.counter(
            "pxml_traces_dropped_total",
            "Trace records evicted from the ring buffer.",
            self.traces_dropped(),
        );
        reg.gauge(
            "pxml_trace_mode",
            "Current trace mode (0 = off, 1 = timing, 2 = full).",
            f64::from(self.trace_mode.load(Ordering::Relaxed)),
        );
    }

    /// Answers one query through the shared cache.
    pub fn run(&self, q: &Query) -> Result<f64> {
        // An unlimited budget never degrades: the answer is exact.
        self.run_one(q, None).map(|a| a.lo())
    }

    /// Answers a batch; `results[i]` corresponds to `queries[i]`. With
    /// more than one configured worker the batch fans out over scoped
    /// threads sharing the cache; the result order is positional either
    /// way, and the values are identical for any worker count.
    pub fn run_batch(&self, queries: &[Query]) -> Vec<Result<f64>> {
        self.fan_out(queries, |q| self.run(q))
    }

    /// Answers one query under a resource budget built from `spec`.
    ///
    /// Differences from [`QueryEngine::run`]:
    ///
    /// * Evaluation is charged against a fresh per-query [`Budget`];
    ///   exhaustion yields the typed error or — under
    ///   [`DegradePolicy::Interval`] — a bracketing [`Answer::Interval`].
    /// * Non-tree point/exists queries fall back to the governed DAG
    ///   inclusion–exclusion engine instead of erring `NotTreeShaped`.
    /// * The steps a query spends (and hence `Exhausted::spent`) are a
    ///   deterministic function of the instance, the query and the
    ///   budget: the ε sweep keeps no memo, and a chain-link memo hit
    ///   pays its step like a miss, so neither worker count nor shared
    ///   cache state moves them. Only exact whole-query results that the
    ///   ungoverned path would also produce are written back to the
    ///   shared cache; degraded and DAG-fallback answers are never
    ///   cached.
    pub fn run_governed(&self, q: &Query, spec: &BudgetSpec) -> Result<Answer> {
        self.run_one(q, Some(spec))
    }

    /// Governed batch: `results[i]` answers `queries[i]`. Fan-out
    /// mirrors [`QueryEngine::run_batch`]; every query gets its own
    /// budget from `spec` (see [`BudgetSpec`]).
    pub fn run_batch_governed(&self, queries: &[Query], spec: &BudgetSpec) -> Vec<Result<Answer>> {
        self.fan_out(queries, |q| self.run_governed(q, spec))
    }

    /// Runs `run` over every query, inline on one worker or over scoped
    /// threads pulling indices from an atomic counter; results land in
    /// per-index slots, so the output order is the input order.
    fn fan_out<T: Send>(&self, queries: &[Query], run: impl Fn(&Query) -> T + Sync) -> Vec<T> {
        let start = Instant::now();
        let out = if self.threads == 1 || queries.len() <= 1 {
            queries.iter().map(&run).collect()
        } else {
            let slots: Vec<Mutex<Option<T>>> = queries.iter().map(|_| Mutex::new(None)).collect();
            let next = AtomicUsize::new(0);
            let workers = self.threads.min(queries.len());
            crossbeam::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|_| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= queries.len() {
                            break;
                        }
                        *slots[i].lock() = Some(run(&queries[i]));
                    });
                }
            })
            .expect("batch worker panicked");
            slots
                .into_iter()
                .map(|m| m.into_inner().expect("every index was claimed"))
                .collect()
        };
        self.stats.add_batch(start.elapsed());
        out
    }

    /// The run pipeline behind every entry point; `spec` is `None` for
    /// an ungoverned run. The stages record into one stack ledger, which
    /// is folded into the counters once; with tracing off (the default)
    /// the trace stage costs one relaxed load and a branch.
    fn run_one(&self, q: &Query, spec: Option<&BudgetSpec>) -> Result<Answer> {
        self.stats.count_query();
        let mode = self.trace_mode.load(Ordering::Relaxed);
        let mut t = TraceTally { timed: mode != TRACE_OFF, ..TraceTally::default() };
        let started = t.timed.then(Instant::now);
        let r = self.run_stages(q, spec, &mut t);
        self.stats.fold(&t);
        if let Some(started) = started {
            self.trace(q, &r, &t, started, mode == TRACE_FULL);
        }
        r
    }

    /// The trace stage after [`QueryEngine::run_stages`]: histogram
    /// observations, plus one trace record when `record` is set. Out of
    /// line so the traced machinery never bloats the untraced path.
    #[cold]
    #[inline(never)]
    fn trace(&self, q: &Query, r: &Result<Answer>, t: &TraceTally, started: Instant, record: bool) {
        let total = started.elapsed().as_nanos() as u64;
        self.stats.observe_query_nanos(total);
        if let Some((steps, _)) = t.budget {
            self.stats.observe_budget_steps(steps);
        }
        if record {
            let (outcome, lo, hi, error) = match r {
                _ if t.preflight_zero => (TraceOutcome::PreflightZero, 0.0, 0.0, None),
                Ok(Answer::Exact(v)) => (TraceOutcome::Exact, *v, *v, None),
                Ok(Answer::Interval(i)) => (TraceOutcome::Degraded, i.lo, i.hi, None),
                Err(e) if e.exhaustion().is_some() => {
                    (TraceOutcome::Exhausted, 0.0, 0.0, Some(e.to_string()))
                }
                Err(e) => (TraceOutcome::Error, 0.0, 0.0, Some(e.to_string())),
            };
            self.push_trace(q, t, total, outcome, lo, hi, error);
        }
    }

    /// Result probe → optional pre-flight (provable zero; canonical
    /// rewrite and a second probe; admission control) → budgeted
    /// evaluation → writeback, each stage recording into `t`. The result
    /// cache is probed before any analysis, so warm serving pays nothing
    /// for pre-flight and a memoised exact answer always wins over
    /// admission control; a proved zero is written back like any exact
    /// result, so each zero is proved once, not per encounter. A query
    /// the probes do not answer is a result miss.
    fn run_stages(
        &self,
        q: &Query,
        spec: Option<&BudgetSpec>,
        t: &mut TraceTally,
    ) -> Result<Answer> {
        if let Some(r) = self.probe(q, spec.is_some(), t) {
            return r;
        }
        let mut admission = None;
        let mut canonical = None;
        if self.preflight.load(Ordering::Relaxed) {
            let report = preflight::analyze(&self.arena, q);
            if report.is_provably_zero() {
                self.cache.put_result(q.clone(), Ok(0.0));
                t.preflight_zero = true;
                return Ok(Answer::Exact(0.0));
            }
            admission = spec.and_then(|s| report.predicted_exhaustion(s));
            if let Some(nq) = report.normalised {
                t.preflight_rewrite = true;
                // The canonical key may be warm even though the
                // original's probe above missed.
                if let Some(r) = self.probe(&nq, spec.is_some(), t) {
                    return r;
                }
                canonical = Some(nq);
            }
        }
        let q = canonical.as_ref().unwrap_or(q);
        if let Some(ex) = admission {
            t.preflight_rejection = true;
            t.exhausted = true;
            return Err(QueryError::Core(CoreError::Exhausted(ex)));
        }
        let budget = spec.map_or_else(Budget::unlimited, BudgetSpec::budget);
        let degrade = spec.map_or(DegradePolicy::Error, |s| s.degrade);
        let r = self.evaluate(q, &budget, degrade, t);
        self.settle(q, r, spec, &budget, t)
    }

    /// A memoised answer for `q`, counted as a result hit. Governed
    /// runs take only exact values from the cache, never a memoised
    /// ungoverned error (a `NotTreeShaped` there has a DAG answer).
    fn probe(&self, q: &Query, governed: bool, t: &mut TraceTally) -> Option<Result<Answer>> {
        let r = match self.cache.get_result(q)? {
            Ok(v) => Ok(Answer::Exact(v)),
            Err(e) if !governed => Err(e),
            Err(_) => return None,
        };
        t.result_hit = true;
        Some(r)
    }

    /// Where ungoverned and governed runs part ways after evaluation.
    /// Ungoverned: a non-tree query errs `NotTreeShaped`, and every
    /// outcome, errors included, is memoised. Governed: a non-tree
    /// point/exists query falls back to the DAG engine; only exact,
    /// non-DAG answers are memoised (the ungoverned path errs where the
    /// DAG engine answers, and caching `Ok` would break the
    /// engine/sequential exact-equality contract); degradations,
    /// exhaustions and budget spend are recorded.
    fn settle(
        &self,
        q: &Query,
        r: Result<Answer>,
        spec: Option<&BudgetSpec>,
        budget: &Budget,
        t: &mut TraceTally,
    ) -> Result<Answer> {
        let Some(spec) = spec else {
            // Normalise span: result-memo writeback.
            let n0 = t.timed.then(Instant::now);
            self.cache.put_result(q.clone(), r.clone().map(|a| a.lo()));
            if let Some(n0) = n0 {
                t.normalise_nanos = nanos_since(n0);
            }
            return r;
        };
        let (r, cacheable) = match r {
            Err(QueryError::NotTreeShaped(_)) => {
                (self.dag_fallback(q, budget, spec.degrade, t), false)
            }
            r => (r, true),
        };
        let n0 = t.timed.then(Instant::now);
        match &r {
            Ok(Answer::Exact(v)) if cacheable => self.cache.put_result(q.clone(), Ok(*v)),
            Ok(Answer::Interval(_)) => t.degraded = true,
            Err(e) if e.exhaustion().is_some() => t.exhausted = true,
            _ => {}
        }
        t.budget = Some((budget.steps_spent(), budget.polls_performed()));
        if let Some(n0) = n0 {
            t.normalise_nanos = nanos_since(n0);
        }
        r
    }

    /// The governed answer to a non-tree point/exists query: the DAG
    /// inclusion–exclusion engine, on the same budget, through the
    /// degrade policy.
    fn dag_fallback(
        &self,
        q: &Query,
        budget: &Budget,
        degrade: DegradePolicy,
        t: &mut TraceTally,
    ) -> Result<Answer> {
        let start = Instant::now();
        let r = match q {
            Query::Point { path, object } => point_query_dag_governed(&self.pi, path, *object, budget),
            Query::Exists { path } => exists_query_dag_governed(&self.pi, path, budget),
            Query::Chain { .. } => unreachable!("chain probabilities are exact on any DAG"),
        };
        t.marginal_nanos += nanos_since(start);
        match r {
            Ok(DagOutcome::Exact(v)) => Ok(Answer::Exact(v)),
            Ok(DagOutcome::Bracket { lo, hi, exhausted }) => match degrade {
                DegradePolicy::Interval => Ok(bounds_answer(lo, hi)),
                DegradePolicy::Error => Err(QueryError::Core(CoreError::Exhausted(exhausted))),
            },
            // Exhaustion while still enumerating chains: nothing is
            // known yet, the trivial bracket is the only safe answer.
            Err(e) if degrade == DegradePolicy::Interval && e.exhaustion().is_some() => {
                Ok(Answer::Interval(Interval { lo: 0.0, hi: 1.0 }))
            }
            Err(e) => Err(e),
        }
    }

    /// Materialises one trace record from a finished query.
    #[allow(clippy::too_many_arguments)]
    fn push_trace(
        &self,
        q: &Query,
        tally: &TraceTally,
        total_nanos: u64,
        outcome: TraceOutcome,
        lo: f64,
        hi: f64,
        error: Option<String>,
    ) {
        let seq = self.trace_seq.fetch_add(1, Ordering::Relaxed);
        let kind = match q {
            Query::Point { .. } => QueryKind::Point,
            Query::Exists { .. } => QueryKind::Exists,
            Query::Chain { .. } => QueryKind::Chain,
        };
        self.traces.push(QueryTrace {
            seq,
            query: self.render_query(q),
            kind,
            outcome,
            lo,
            hi,
            error,
            total_nanos,
            locate_nanos: tally.locate_nanos,
            marginal_nanos: tally.marginal_nanos,
            normalise_nanos: tally.normalise_nanos,
            result_hit: tally.result_hit,
            link_hits: tally.link_hits,
            link_misses: tally.link_misses,
            opf_entries: tally.opf_entries,
            budget_steps: tally.budget.map_or(0, |b| b.0),
            budget_polls: tally.budget.map_or(0, |b| b.1),
        });
    }

    /// Renders `q` in the CLI batch-file surface syntax, falling back to
    /// debug ids for names missing from the catalog (never panics).
    fn render_query(&self, q: &Query) -> String {
        let cat = self.pi.catalog();
        let path_str = |p: &PathExpr| {
            let mut s = String::new();
            let _ = write!(s, "{}", DisplayObject(cat, p.root));
            for l in &p.labels {
                s.push('.');
                match cat.labels().try_resolve(*l) {
                    Some(name) => s.push_str(name),
                    None => {
                        let _ = write!(s, "{l:?}");
                    }
                }
            }
            s
        };
        match q {
            Query::Point { path, object } => {
                format!("POINT {} IN {}", DisplayObject(cat, *object), path_str(path))
            }
            Query::Exists { path } => format!("EXISTS {}", path_str(path)),
            Query::Chain { objects } => {
                let mut s = String::from("CHAIN ");
                for (i, o) in objects.iter().enumerate() {
                    if i > 0 {
                        s.push('.');
                    }
                    let _ = write!(s, "{}", DisplayObject(cat, *o));
                }
                s
            }
        }
    }

    /// Budgeted evaluation of one query over the arena: the flat §6.1
    /// sweep for point/exists queries, the link walk for chains. Under
    /// an unlimited budget a point or exists query on a forest first
    /// tries the one-pass evaluation ([`ArenaInstance::point_pass`],
    /// [`ArenaInstance::exists_pass`]), which touches no cache table.
    /// Where that proves nothing, and for governed runs, the region
    /// route runs: a point query's region is what the same ancestor walk
    /// collects ([`ArenaInstance::point_region`], timed as locating),
    /// empty when the walk does not reach the path root. Where the walk
    /// proves nothing (a non-forest arena, a target without a weak node),
    /// and for exists queries, the region is filtered from the path's
    /// located layers ([`ArenaInstance::locate`], timed as locating; like
    /// `layers_weak`, a path not anchored at the instance root locates
    /// nothing).
    fn evaluate(
        &self,
        q: &Query,
        budget: &Budget,
        degrade: DegradePolicy,
        t: &mut TraceTally,
    ) -> Result<Answer> {
        match q {
            Query::Point { path, object } => {
                let x = object.raw();
                if budget.is_unlimited() {
                    let pass = || self.arena.point_pass(path.root.raw(), &path.labels, x);
                    if let Some(r) = self.one_pass(pass, budget, degrade, t) {
                        return r;
                    }
                }
                let start = Instant::now();
                if let Some(kept) = self.arena.point_region(path.root.raw(), &path.labels, x) {
                    t.locate_nanos += nanos_since(start);
                    return self.sweep(&path.labels, || Ok(kept), budget, degrade, t);
                }
                let layers = self.arena.locate(path.root, &path.labels);
                t.locate_nanos += nanos_since(start);
                // Mirrors `point_query`: absent from the located layer ⇒ 0.
                match layers.last() {
                    Some(located) if located.binary_search(&x).is_ok() => {
                        let kept = || self.arena.kept_flat(&path.labels, &layers, &[x]);
                        self.sweep(&path.labels, kept, budget, degrade, t)
                    }
                    _ => Ok(Answer::Exact(0.0)),
                }
            }
            Query::Exists { path } => {
                if budget.is_unlimited() {
                    let pass = || self.arena.exists_pass(path.root.raw(), &path.labels);
                    if let Some(r) = self.one_pass(pass, budget, degrade, t) {
                        return r;
                    }
                }
                let start = Instant::now();
                let layers = self.arena.locate(path.root, &path.labels);
                t.locate_nanos += nanos_since(start);
                // Mirrors `exists_query`: nothing located ⇒ 0.
                match layers.last() {
                    Some(located) if !located.is_empty() => {
                        let kept = || self.arena.kept_flat(&path.labels, &layers, located);
                        self.sweep(&path.labels, kept, budget, degrade, t)
                    }
                    _ => Ok(Answer::Exact(0.0)),
                }
            }
            Query::Chain { objects } => {
                let start = Instant::now();
                let r = self.eval_chain(objects, budget, degrade, t);
                t.marginal_nanos += nanos_since(start);
                r
            }
        }
    }

    /// A one-pass forest evaluation under an unlimited budget, timed
    /// and counted as the sweep it replaces: the pass's steps are
    /// charged in one call, as `eps_flat`'s unlimited path charges them,
    /// and a [`OnePass::Zero`] charges nothing. `None` when the pass
    /// proves nothing and the region route must run.
    fn one_pass(
        &self,
        pass: impl FnOnce() -> OnePass,
        budget: &Budget,
        degrade: DegradePolicy,
        t: &mut TraceTally,
    ) -> Option<Result<Answer>> {
        let start = Instant::now();
        let (eps, entries) = match pass() {
            OnePass::Region => return None,
            OnePass::Zero => (0.0, 0),
            OnePass::Eps { eps, steps, opf_entries } => {
                if let Err(ex) = budget.charge(steps) {
                    return Some(Err(QueryError::Core(CoreError::Exhausted(ex))));
                }
                (eps, opf_entries)
            }
        };
        t.marginal_nanos += nanos_since(start);
        t.opf_entries += entries;
        Some(Ok(answer(eps, eps, degrade)))
    }

    /// The point/exists evaluation: the kept region (`kept`), then the
    /// budgeted bottom-up ε sweep over it (`eps_flat`), which also
    /// counts the OPF entries it visits.
    fn sweep(
        &self,
        labels: &[Label],
        kept: impl FnOnce() -> pxml_core::Result<Vec<Vec<u32>>>,
        budget: &Budget,
        degrade: DegradePolicy,
        t: &mut TraceTally,
    ) -> Result<Answer> {
        let start = Instant::now();
        let swept = kept().and_then(|kept| self.arena.eps_flat(labels, &kept, budget, degrade));
        t.marginal_nanos += nanos_since(start);
        t.opf_entries += swept.as_ref().map_or(0, |b| b.opf_entries);
        swept.map(|b| answer(b.lo, b.hi, degrade)).map_err(flat_error)
    }

    /// `chain_probability` over the arena with the per-link marginal
    /// memoised. One budget step is charged at the top of each link,
    /// before any lookup, so a memo hit pays its step too and the spend
    /// does not depend on cache state. On exhaustion after `j` links the
    /// bracket is `[0, Π_{i≤j} mᵢ]`: appending links only multiplies by
    /// marginals `≤ 1`. The memo is only written after a successful OPF
    /// lookup, so the error behaviour (node → position → OPF, in that
    /// order) is the sequential function's.
    fn eval_chain(
        &self,
        chain: &[ObjectId],
        budget: &Budget,
        degrade: DegradePolicy,
        t: &mut TraceTally,
    ) -> Result<Answer> {
        let Some((&first, rest)) = chain.split_first() else {
            return Err(QueryError::EmptyChain);
        };
        if first != self.pi.root() {
            return Err(QueryError::ChainMustStartAtRoot);
        }
        let mut p = 1.0;
        let mut parent = first;
        for &child in rest {
            if let Err(ex) = budget.charge(1) {
                return match degrade {
                    DegradePolicy::Error => Err(QueryError::Core(CoreError::Exhausted(ex))),
                    DegradePolicy::Interval => Ok(bounds_answer(0.0, p)),
                };
            }
            // The link memo is keyed by the parent's row, its raw id.
            let pidx = parent.raw();
            let pos = match self.arena.child_position(pidx, child.raw()) {
                Some(pos) => pos,
                None if self.arena.is_member(pidx) => {
                    return Err(QueryError::NotAChild { parent, child })
                }
                None => return Err(QueryError::UnknownObject(parent)),
            };
            let m = match self.cache.get_link(pidx, pos) {
                Some(m) => {
                    t.link_hits += 1;
                    m
                }
                None => {
                    t.link_misses += 1;
                    if !self.arena.has_opf(pidx) {
                        return Err(QueryError::UnknownObject(parent));
                    }
                    t.opf_entries += self.arena.stored_len(pidx);
                    let m = self
                        .arena
                        .marginal_present(pidx, pos)
                        .ok_or(QueryError::UnknownObject(parent))?;
                    self.cache.put_link(pidx, pos, m);
                    m
                }
            };
            p *= m;
            if p == 0.0 {
                return Ok(Answer::Exact(0.0));
            }
            parent = child;
        }
        Ok(answer(p, p, degrade))
    }
}

/// Nanoseconds since `start`, as the ledger records time.
fn nanos_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// A flat-kernel error as the variant the sequential path raises, so
/// the rendered message is identical.
fn flat_error(e: CoreError) -> QueryError {
    match e {
        CoreError::NotTreeShaped(o) => QueryError::NotTreeShaped(o),
        CoreError::UnknownObject(o) => QueryError::UnknownObject(o),
        e => QueryError::Core(e),
    }
}

/// The answer for evaluated bounds: under [`DegradePolicy::Error`] no
/// charge was refused, so `lo == hi` is the exact value as computed;
/// under [`DegradePolicy::Interval`] the bounds go through
/// [`bounds_answer`].
fn answer(lo: f64, hi: f64, degrade: DegradePolicy) -> Answer {
    match degrade {
        DegradePolicy::Error => Answer::Exact(lo),
        DegradePolicy::Interval => bounds_answer(lo, hi),
    }
}

/// Collapses a bracket to [`Answer::Exact`] when it is degenerate;
/// bounds are clamped into `[0, 1]` and ordered defensively.
fn bounds_answer(lo: f64, hi: f64) -> Answer {
    let lo = lo.clamp(0.0, 1.0);
    let hi = hi.clamp(0.0, 1.0).max(lo);
    if lo == hi {
        Answer::Exact(lo)
    } else {
        Answer::Interval(Interval { lo, hi })
    }
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::{chain_probability, exists_query, point_query};
    use pxml_core::fixtures::{chain as chain_fixture, fig2_instance};

    fn parse(pi: &ProbInstance, text: &str) -> PathExpr {
        PathExpr::parse(pi.catalog(), text).unwrap()
    }

    #[test]
    fn engine_matches_sequential_functions_exactly() {
        let pi = fig2_instance();
        let t2 = pi.oid("T2").unwrap();
        let a1 = pi.oid("A1").unwrap();
        let b1 = pi.oid("B1").unwrap();
        let i1 = pi.oid("I1").unwrap();
        let title = parse(&pi, "R.book.title");
        let author = parse(&pi, "R.book.author");
        let queries = vec![
            Query::point(title.clone(), t2),
            Query::exists(title.clone()),
            Query::point(author.clone(), a1), // NotTreeShaped on Figure 2
            Query::chain([pi.root(), b1, a1, i1]),
            Query::point(title.clone(), t2), // duplicate → result-cache hit
        ];
        let engine = QueryEngine::with_threads(pi, 1);
        let got = engine.run_batch(&queries);
        let pi = engine.instance();
        assert_eq!(got[0], point_query(pi, &title, t2));
        assert_eq!(got[1], exists_query(pi, &title));
        assert_eq!(got[2], point_query(pi, &author, a1));
        assert!(got[2].is_err());
        assert_eq!(got[3], chain_probability(pi, &[pi.root(), b1, a1, i1]));
        assert_eq!(got[4], got[0]);
        let snap = engine.stats();
        assert_eq!(snap.queries_run, 5);
        assert_eq!(snap.result_hits, 1);
        assert_eq!(snap.result_misses, 4);
    }

    /// On a forest, ungoverned point and exists queries evaluate in one
    /// pass over the arena: each leaves its result entry and nothing
    /// else in the cache.
    #[test]
    fn forest_queries_evaluate_in_one_pass() {
        let pi = chain_fixture(3, 0.5);
        let o3 = pi.oid("o3").unwrap();
        let p = parse(&pi, "r.next.next.next");
        let engine = QueryEngine::with_threads(pi, 1);
        let a = engine.run(&Query::point(p.clone(), o3)).unwrap();
        // Same path again as a *different* Query value: exists — the
        // whole-query memo misses, and nothing is located either.
        let b = engine.run(&Query::exists(p.clone())).unwrap();
        assert_eq!(a, b, "on a chain the sole target is the located set");
        let snap = engine.stats();
        assert_eq!(engine.cache_len(), (2, 0), "results, links");
        assert_eq!((snap.eps_hits, snap.eps_misses), (0, 0), "no ε memo");
        assert_eq!(snap.opf_entries_visited, 12, "three two-entry OPFs per query");
    }

    #[test]
    fn chain_links_are_memoised() {
        let pi = chain_fixture(3, 0.5);
        let o1 = pi.oid("o1").unwrap();
        let o2 = pi.oid("o2").unwrap();
        let o3 = pi.oid("o3").unwrap();
        let r = pi.root();
        let engine = QueryEngine::with_threads(pi, 1);
        let full = engine.run(&Query::chain([r, o1, o2, o3])).unwrap();
        let prefix = engine.run(&Query::chain([r, o1, o2])).unwrap();
        assert!((full - 0.125).abs() < 1e-12);
        assert!((prefix - 0.25).abs() < 1e-12);
        let snap = engine.stats();
        assert_eq!(snap.link_misses, 3, "three distinct links");
        assert_eq!(snap.link_hits, 2, "prefix chain reuses both links");
    }

    #[test]
    fn multi_threaded_batch_preserves_order_and_values() {
        let pi = chain_fixture(4, 0.7);
        let p = parse(&pi, "r.next.next");
        let o2 = pi.oid("o2").unwrap();
        let mut queries = Vec::new();
        for _ in 0..40 {
            queries.push(Query::exists(p.clone()));
            queries.push(Query::point(p.clone(), o2));
        }
        let seq = QueryEngine::with_threads(chain_fixture(4, 0.7), 1);
        let par = QueryEngine::with_threads(pi, 4);
        assert_eq!(seq.run_batch(&queries), par.run_batch(&queries));
    }

    #[test]
    fn governed_unlimited_matches_ungoverned_exactly() {
        let pi = fig2_instance();
        let t2 = pi.oid("T2").unwrap();
        let b1 = pi.oid("B1").unwrap();
        let a1 = pi.oid("A1").unwrap();
        let i1 = pi.oid("I1").unwrap();
        let title = parse(&pi, "R.book.title");
        let queries = vec![
            Query::point(title.clone(), t2),
            Query::exists(title.clone()),
            Query::chain([pi.root(), b1, a1, i1]),
        ];
        let engine = QueryEngine::with_threads(pi, 1);
        let spec = BudgetSpec::default();
        for q in &queries {
            let governed = engine.run_governed(q, &spec).unwrap();
            let plain = engine.run(q).unwrap();
            assert_eq!(governed, Answer::Exact(plain));
            assert!(!governed.is_degraded());
        }
        assert_eq!(engine.stats().queries_degraded, 0);
        assert_eq!(engine.stats().queries_exhausted, 0);
    }

    #[test]
    fn governed_non_tree_point_falls_back_to_dag() {
        // Ungoverned `run` errs NotTreeShaped on Figure 2's author path;
        // the governed run answers exactly via inclusion–exclusion.
        let pi = fig2_instance();
        let a1 = pi.oid("A1").unwrap();
        let author = parse(&pi, "R.book.author");
        let q = Query::point(author.clone(), a1);
        let engine = QueryEngine::with_threads(pi, 1);
        assert!(engine.run(&q).is_err());
        let got = engine.run_governed(&q, &BudgetSpec::default()).unwrap();
        let oracle = crate::dag::point_query_dag(engine.instance(), &author, a1).unwrap();
        assert_eq!(got, Answer::Exact(oracle));
        // The DAG answer must NOT have been written to the result cache:
        // a later ungoverned run still errs.
        assert!(engine.run(&q).is_err());
    }

    /// The counters are a property of the queries, not of the trace
    /// mode: every run records into one ledger whatever the mode. A
    /// traced run probes the result cache before the analysis, as an
    /// untraced one does, so a repeated provable zero is a result hit
    /// rather than a second proof; governed runs degrade, exhaust and
    /// spend alike; and Figure 2's point and exists queries, which take
    /// the region route (the arena is not a forest), count alike.
    #[test]
    fn preflight_counters_do_not_depend_on_the_trace_mode() {
        // Everything but the timings and the trace-only histograms.
        let counted = |engine: &QueryEngine| StatsSnapshot {
            locate_nanos: 0,
            marginal_nanos: 0,
            batch_nanos: 0,
            mutation_nanos: 0,
            query_nanos_hist: Default::default(),
            budget_steps_hist: Default::default(),
            ..engine.stats()
        };
        let tight = |degrade| BudgetSpec { max_steps: Some(1), degrade, ..BudgetSpec::default() };
        let counters = |mode: TraceMode| {
            let pi = chain_fixture(3, 0.5);
            let (o1, o2, o3) = (pi.oid("o1").unwrap(), pi.oid("o2").unwrap(), pi.oid("o3").unwrap());
            let deep = Query::point(parse(&pi, "r.next.next.next"), o3); // rewritten to EXISTS
            let batch = vec![
                Query::point(parse(&pi, "r.next"), o2), // provably zero
                deep.clone(),
                Query::chain([pi.root(), o1]),
            ];
            let engine = QueryEngine::with_threads(pi, 1);
            engine.set_preflight(true);
            engine.set_trace_mode(mode);
            engine.run_batch(&batch);
            engine.run_batch(&batch);
            // A fresh key: admission control rejects it under Error, the
            // sweep degrades it under Interval.
            engine.clear_cache();
            engine.run_governed(&deep, &tight(DegradePolicy::Error)).unwrap_err();
            let degraded = engine.run_governed(&deep, &tight(DegradePolicy::Interval)).unwrap();
            assert!(degraded.is_degraded());

            let pi = fig2_instance();
            let t2 = pi.oid("T2").unwrap();
            let a1 = pi.oid("A1").unwrap();
            let title = parse(&pi, "R.book.title");
            let exists = Query::exists(title.clone());
            let author = Query::point(parse(&pi, "R.book.author"), a1); // DAG fallback
            let fig2 = QueryEngine::with_threads(pi, 1);
            fig2.set_trace_mode(mode);
            fig2.run_batch(&[Query::point(title, t2), exists.clone()]);
            fig2.clear_cache();
            for q in [&exists, &author] {
                for degrade in [DegradePolicy::Error, DegradePolicy::Interval] {
                    let _ = fig2.run_governed(q, &tight(degrade));
                }
            }
            fig2.run_governed(&author, &BudgetSpec::default()).unwrap();
            (counted(&engine), counted(&fig2))
        };
        let (chain, fig2) = counters(TraceMode::Off);
        assert_eq!(
            (chain.preflight_zeros, chain.preflight_rewrites, chain.preflight_rejections),
            (1, 4, 1),
            "each zero is proved once; the original key of a rewrite is never cached"
        );
        assert_eq!((chain.result_hits, chain.result_misses), (3, 5));
        assert_eq!((chain.queries_degraded, chain.queries_exhausted), (1, 1));
        assert!(fig2.queries_degraded > 0 && fig2.queries_exhausted > 0, "{fig2:?}");
        assert!(fig2.budget_steps_spent > 0 && fig2.opf_entries_visited > 0, "{fig2:?}");
        for mode in [TraceMode::Timing, TraceMode::Full] {
            assert_eq!(counters(mode), (chain, fig2), "{mode:?}");
        }
    }

    #[test]
    fn exhausted_error_policy_returns_typed_error() {
        let pi = chain_fixture(6, 0.5);
        let o6 = pi.oid("o6").unwrap();
        let p = parse(&pi, "r.next.next.next.next.next.next");
        let q = Query::point(p, o6);
        let engine = QueryEngine::with_threads(pi, 1);
        let spec = BudgetSpec { max_steps: Some(1), ..BudgetSpec::default() };
        let err = engine.run_governed(&q, &spec).unwrap_err();
        let ex = err.exhaustion().expect("budget of 1 must exhaust");
        assert_eq!(ex.resource, pxml_core::Resource::Steps);
        assert_eq!(engine.stats().queries_exhausted, 1);
        // Exhausted results are never cached: a later unlimited governed
        // run answers exactly.
        let exact = engine.run_governed(&q, &BudgetSpec::default()).unwrap();
        assert_eq!(exact, Answer::Exact(0.5f64.powi(6)));
    }

    #[test]
    fn exhausted_interval_policy_brackets_the_exact_answer() {
        let pi = chain_fixture(6, 0.5);
        let o6 = pi.oid("o6").unwrap();
        let p = parse(&pi, "r.next.next.next.next.next.next");
        let exact = 0.5f64.powi(6);
        for steps in 1..12 {
            let engine = QueryEngine::with_threads(chain_fixture(6, 0.5), 1);
            let spec = BudgetSpec {
                max_steps: Some(steps),
                degrade: DegradePolicy::Interval,
                ..BudgetSpec::default()
            };
            let ans = engine.run_governed(&Query::point(p.clone(), o6), &spec).unwrap();
            assert!(
                ans.contains(exact),
                "budget {steps}: {ans:?} must bracket {exact}"
            );
            if ans.is_degraded() {
                assert_eq!(engine.stats().queries_degraded, 1);
            } else {
                assert_eq!(ans, Answer::Exact(exact));
            }
        }
    }

    #[test]
    fn governed_chain_degrades_to_prefix_bound() {
        let pi = chain_fixture(4, 0.5);
        let o = |n: &str| pi.oid(n).unwrap();
        let objects = vec![pi.root(), o("o1"), o("o2"), o("o3"), o("o4")];
        let exact = 0.5f64.powi(4);
        let engine = QueryEngine::with_threads(pi, 1);
        let spec = BudgetSpec {
            max_steps: Some(2),
            degrade: DegradePolicy::Interval,
            ..BudgetSpec::default()
        };
        let ans = engine.run_governed(&Query::chain(objects), &spec).unwrap();
        assert!(ans.is_degraded());
        assert!(ans.contains(exact));
        assert!(ans.hi() <= 0.25 + 1e-12, "prefix product after 2 links");
    }

    #[test]
    fn shared_cancel_token_stops_a_batch() {
        let pi = chain_fixture(3, 0.5);
        let o3 = pi.oid("o3").unwrap();
        let p = parse(&pi, "r.next.next.next");
        let engine = QueryEngine::with_threads(pi, 1);
        let token = pxml_core::CancelToken::new();
        token.cancel();
        let spec = BudgetSpec {
            cancel: Some(token),
            ..BudgetSpec::default()
        };
        let out = engine.run_batch_governed(&[Query::point(p, o3)], &spec);
        let err = out[0].as_ref().unwrap_err();
        let ex = err.exhaustion().expect("cancelled run must exhaust");
        assert_eq!(ex.resource, pxml_core::Resource::Cancelled);
    }

    #[test]
    fn exhausted_spent_is_deterministic_across_thread_counts() {
        let p_text = "r.next.next.next.next.next.next.next";
        let mk = || chain_fixture(7, 0.5);
        let spent_with = |threads: usize| {
            let pi = mk();
            let o7 = pi.oid("o7").unwrap();
            let p = parse(&pi, p_text);
            let engine = QueryEngine::with_threads(pi, threads);
            let spec = BudgetSpec { max_steps: Some(3), ..BudgetSpec::default() };
            let queries: Vec<Query> = (0..8).map(|_| Query::point(p.clone(), o7)).collect();
            engine
                .run_batch_governed(&queries, &spec)
                .into_iter()
                .map(|r| r.unwrap_err().exhaustion().unwrap().spent)
                .collect::<Vec<u64>>()
        };
        assert_eq!(spent_with(1), spent_with(4));
    }

    #[test]
    fn cache_byte_ceiling_is_respected_and_evictions_are_counted() {
        let pi = chain_fixture(8, 0.5);
        let engine = QueryEngine::with_threads(pi, 1);
        let cap = 600u64;
        engine.set_max_cache_bytes(cap);
        let pi = engine.instance().clone();
        // Distinct chain queries of growing length fill the result and
        // link tables past the tiny ceiling.
        let names = ["o1", "o2", "o3", "o4", "o5", "o6", "o7", "o8"];
        let mut chain = vec![pi.root()];
        for n in names {
            chain.push(pi.oid(n).unwrap());
            engine.run(&Query::chain(chain.clone())).unwrap();
        }
        assert!(
            engine.cache_bytes() <= cap,
            "accounted bytes {} exceed ceiling {cap}",
            engine.cache_bytes()
        );
        assert!(engine.stats().cache_evictions > 0);
        // Values survive eviction churn unchanged.
        let full = engine.run(&Query::chain(chain)).unwrap();
        assert!((full - 0.5f64.powi(8)).abs() < 1e-12);
    }

    /// Point, exists and chain queries over Figure 2.
    fn fig2_queries(pi: &ProbInstance) -> Vec<Query> {
        let title = parse(pi, "R.book.title");
        let (b1, t1, t2) = (pi.oid("B1").unwrap(), pi.oid("T1").unwrap(), pi.oid("T2").unwrap());
        vec![
            Query::exists(title.clone()),
            Query::point(title.clone(), t1),
            Query::point(title, t2),
            Query::chain([pi.root(), b1, t1]),
        ]
    }

    /// The engine's answers to `queries` equal a fresh engine's, `to_bits`.
    fn assert_fresh_answers(engine: &QueryEngine, queries: &[Query]) {
        let fresh = QueryEngine::with_threads(engine.instance().clone(), 1);
        let bits = |r: Vec<Result<f64>>| {
            r.into_iter().map(|v| v.map(f64::to_bits).map_err(|e| e.to_string())).collect::<Vec<_>>()
        };
        assert_eq!(bits(engine.run_batch(queries)), bits(fresh.run_batch(queries)));
    }

    #[test]
    fn repeated_identical_setedge_does_no_work() {
        let pi = fig2_instance();
        let m = Mutation::SetEdgeProb { parent: pi.root(), child: pi.oid("B1").unwrap(), prob: 0.25 };
        let queries = fig2_queries(&pi);
        let mut engine = QueryEngine::with_threads(pi, 1);
        assert!(!engine.apply_mutation(&m).unwrap().effect.dirty.is_empty());
        engine.run_batch(&queries);
        let (cache, slabs) = (engine.cache_len(), engine.arena.slab_lens());
        assert_ne!(cache, (0, 0));
        let again = engine.apply_mutation(&m).unwrap();
        assert!(again.effect.dirty.is_empty());
        assert_eq!((again.affected, again.invalidated.total()), (0, 0));
        assert_eq!(engine.cache_len(), cache);
        assert_eq!(engine.arena.slab_lens(), slabs);
    }

    #[test]
    fn chains_through_ids_past_the_arena_fail_typed_in_both_walks() {
        let pi = fig2_instance();
        let (r, b1) = (pi.root(), pi.oid("B1").unwrap());
        let engine = QueryEngine::with_threads(pi, 1);
        let len = engine.arena().len() as u32;
        for far in [len, len + 7] {
            let far = ObjectId::from_raw(far);
            for (chain, parent) in [(vec![r, far], r), (vec![r, b1, far], b1)] {
                let q = Query::chain(chain);
                let report = preflight::analyze(engine.arena(), &q);
                assert_eq!(report.verdict, preflight::Verdict::WillError, "{q:?}");
                match engine.run(&q) {
                    Err(QueryError::NotAChild { parent: p, child }) => {
                        assert_eq!((p, child), (parent, far));
                    }
                    other => panic!("{q:?}: {other:?}"),
                }
            }
            // An id past the arena as a parent: the walk never reaches
            // it on a valid instance, so it errs as the chain's start.
            let q = Query::chain(vec![far, r]);
            let report = preflight::analyze(engine.arena(), &q);
            assert_eq!(report.verdict, preflight::Verdict::WillError);
            assert!(matches!(engine.run(&q), Err(QueryError::ChainMustStartAtRoot)));
        }
    }

    #[test]
    fn chains_through_a_dangling_child_name_the_unknown_parent() {
        use pxml_core::{Catalog, ChildUniverse, IdMap, IndependentOpf, Opf, WeakInstance, WeakNode};
        // `ghost` is in the root's universe but has no weak node.
        let mut cat = Catalog::new();
        let (r, ghost, c) = (cat.object("r"), cat.object("ghost"), cat.object("c"));
        let x = cat.label("x");
        let mut universe = ChildUniverse::default();
        universe.push(ghost, x);
        universe.push(c, x);
        let mut nodes = IdMap::new();
        nodes.insert(r, WeakNode::from_parts(universe, Vec::new(), None));
        nodes.insert(c, WeakNode::default());
        let mut opfs = IdMap::new();
        opfs.insert(r, Opf::Independent(IndependentOpf::new(vec![0.5, 0.5])));
        let w = WeakInstance::from_parts_unchecked(std::sync::Arc::new(cat), r, nodes);
        let engine =
            QueryEngine::with_threads(ProbInstance::from_parts_unchecked(w, opfs, IdMap::new()), 1);
        let len = engine.arena().len() as u32;
        for next in [c, ObjectId::from_raw(len), ObjectId::from_raw(len + 7)] {
            let q = Query::chain(vec![r, ghost, next]);
            let report = preflight::analyze(engine.arena(), &q);
            assert_eq!(report.verdict, preflight::Verdict::WillError, "{q:?}");
            assert_eq!(report.diagnostics[0].message, format!("unknown object {ghost:?}"));
            assert!(matches!(engine.run(&q), Err(QueryError::UnknownObject(o)) if o == ghost));
        }
        let q = Query::chain(vec![r, c, ghost]);
        let report = preflight::analyze(engine.arena(), &q);
        assert_eq!(report.verdict, preflight::Verdict::WillError);
        assert!(matches!(engine.run(&q), Err(QueryError::NotAChild { parent, child })
            if (parent, child) == (c, ghost)));
    }

    #[test]
    fn entry_level_mutation_patches_the_arena_in_place() {
        let pi = fig2_instance();
        let m = Mutation::SetEdgeProb { parent: pi.root(), child: pi.oid("B1").unwrap(), prob: 0.25 };
        let queries = fig2_queries(&pi);
        let mut engine = QueryEngine::with_threads(pi, 1);
        engine.run_batch(&queries);
        let (len, slabs) = (engine.arena.len(), engine.arena.slab_lens());
        let out = engine.apply_mutation(&m).unwrap();
        assert!(!out.effect.structural);
        assert!(out.affected >= 1);
        // Neither re-lowered nor re-appended: same rows, same slabs.
        assert_eq!(engine.arena.len(), len);
        assert_eq!(engine.arena.slab_lens(), slabs);
        assert_eq!(engine.arena.garbage(), 0);
        assert_fresh_answers(&engine, &queries);
    }

    /// A structural op in a disjoint subtree keeps the chain
    /// `R → B1 → T1`'s result and link memos warm: rows are object ids,
    /// so their keys stay valid. It has no [`pxml_core::DirtyScope`], so
    /// the title path's point result is evicted.
    #[test]
    fn structural_op_keeps_disjoint_entries_warm() {
        let pi = fig2_instance();
        let (a3, institution) = (pi.oid("A3").unwrap(), pi.lid("institution").unwrap());
        let title = parse(&pi, "R.book.title");
        let (b1, t1, t2) = (pi.oid("B1").unwrap(), pi.oid("T1").unwrap(), pi.oid("T2").unwrap());
        let warm = Query::point(title.clone(), t2);
        let chain = [pi.root(), b1, t1];
        let mut engine = QueryEngine::with_threads(pi, 1);
        engine.run(&warm).unwrap();
        engine.run(&Query::chain(chain)).unwrap();
        // card(A3, institution) = [1,1] is saturated, so the new child
        // gets 0; A3 is on no title path and not on the chain.
        let m =
            Mutation::InsertObject { name: "I9".into(), parent: a3, label: institution, prob: 0.0 };
        let out = engine.apply_mutation(&m).unwrap();
        assert_eq!(out.invalidated.results, 1, "the point result goes, the chain's stays");
        assert_eq!(out.invalidated.links, 0, "no link memo's parent is dirty");
        let before = engine.stats();
        let again = engine.run(&warm).unwrap();
        let other = engine.run(&Query::point(title.clone(), t1)).unwrap();
        assert!(engine.run(&Query::chain(chain)).is_ok());
        let after = engine.stats();
        assert_eq!(after.result_hits - before.result_hits, 1, "the chain result still hits");
        // Re-run the chain below the result memo: both links hit.
        let chain = Query::chain(chain);
        let mut t = TraceTally::default();
        let linked = engine.evaluate(&chain, &Budget::unlimited(), DegradePolicy::Error, &mut t);
        assert_eq!((t.link_hits, t.link_misses), (2, 0), "both link memos survived");
        let fresh = QueryEngine::with_threads(engine.instance().clone(), 1);
        assert_eq!(again.to_bits(), fresh.run(&warm).unwrap().to_bits());
        assert_eq!(other.to_bits(), fresh.run(&Query::point(title, t1)).unwrap().to_bits());
        assert_eq!(linked.unwrap().lo().to_bits(), fresh.run(&chain).unwrap().to_bits());
        assert!(engine.audit_cache().is_empty(), "{:?}", engine.audit_cache());
    }

    /// An entry-level write on a forest tests each point result against
    /// its target's path ancestors: a write below a short path's targets
    /// keeps their results warm, and only the results whose target sits
    /// under the written parent are evicted.
    #[test]
    fn point_results_survive_writes_off_their_ancestors() {
        use pxml_algebra::locate::locate_weak;
        use pxml_gen::{generate, Labeling, WorkloadConfig};
        let g = generate(&WorkloadConfig::paper(3, 2, Labeling::SameLabel, 5));
        let pi = g.instance;
        let label = |d: usize| g.depth_labels[d][0];
        let short = PathExpr::new(pi.root(), [label(0)]);
        let full = PathExpr::new(pi.root(), [label(0), label(1), label(2)]);
        let points = |p: &PathExpr| -> Vec<Query> {
            locate_weak(&pi, p).into_iter().map(|o| Query::point(p.clone(), o)).collect()
        };
        let (short_q, full_q) = (points(&short), points(&full));
        assert!(!short_q.is_empty() && !full_q.is_empty());
        // A depth-2 object: below every target of the short path.
        let first_child =
            |o: ObjectId| pi.weak().node(o).unwrap().universe().iter().next().unwrap().1;
        let parent = first_child(first_child(pi.root()));
        let child = first_child(parent);
        let m = Mutation::SetEdgeProb { parent, child, prob: 0.25 };
        let mut engine = QueryEngine::with_threads(pi.clone(), 1);
        engine.run_batch(&short_q);
        engine.run_batch(&full_q);
        let out = engine.apply_mutation(&m).unwrap();
        assert!(!out.effect.structural);
        assert!(engine.audit_cache().is_empty(), "{:?}", engine.audit_cache());
        let before = engine.stats();
        assert_fresh_answers(&engine, &short_q);
        let after = engine.stats();
        let n = short_q.len() as u64;
        assert_eq!(after.result_hits - before.result_hits, n, "short-path results stay warm");
        // The written parent's child is located by the full path: its
        // result was evicted and recomputes to the fresh answer.
        let under = Query::point(full.clone(), child);
        assert!(full_q.contains(&under));
        let before = engine.stats();
        assert_fresh_answers(&engine, std::slice::from_ref(&under));
        assert_eq!(
            engine.stats().result_hits,
            before.result_hits,
            "the child's result was evicted"
        );
        assert_fresh_answers(&engine, &full_q);
    }

    /// The exists sibling of the test above: an entry-level write keeps
    /// the cached exists results of every path that does not locate the
    /// written object above its targets, and evicts those of the paths
    /// that do. A path whose targets include the written object reads
    /// none of its OPF, so its result stays warm too.
    #[test]
    fn exists_results_survive_writes_off_their_path() {
        use pxml_gen::{generate, Labeling, WorkloadConfig};
        let g = generate(&WorkloadConfig::paper(3, 2, Labeling::SameLabel, 5));
        let pi = g.instance;
        let label = |d: usize| g.depth_labels[d][0];
        let paths: Vec<PathExpr> =
            (0..=3).map(|n| PathExpr::new(pi.root(), (0..n).map(label))).collect();
        let queries: Vec<Query> = paths.iter().cloned().map(Query::exists).collect();
        // A depth-2 object: a target of the two-label path, and above
        // the three-label path's targets.
        let first_child =
            |o: ObjectId| pi.weak().node(o).unwrap().universe().iter().next().unwrap().1;
        let parent = first_child(first_child(pi.root()));
        let child = first_child(parent);
        let m = Mutation::SetEdgeProb { parent, child, prob: 0.25 };
        let mut engine = QueryEngine::with_threads(pi, 1);
        engine.run_batch(&queries);
        let out = engine.apply_mutation(&m).unwrap();
        assert!(!out.effect.structural);
        assert_eq!(out.invalidated.results, 1, "the path locating the parent above its targets");
        assert!(engine.audit_cache().is_empty(), "{:?}", engine.audit_cache());
        let before = engine.stats();
        assert_fresh_answers(&engine, &queries[..3]);
        let after = engine.stats();
        assert_eq!(after.result_hits - before.result_hits, 3, "R.l0.l1 and shorter stay warm");
        assert_eq!(after.result_misses, before.result_misses);
        assert_fresh_answers(&engine, &queries);
    }

    /// A SETVAL dirties only its leaf, which is no proper ancestor of a
    /// point target and is located by no proper prefix of an exists
    /// path. So a POINT on the leaf and an EXISTS over the leaf's full
    /// path stay warm: neither answer reads the leaf's VPF.
    #[test]
    fn setval_keeps_point_and_exists_results_over_its_leaf_warm() {
        use pxml_algebra::locate::locate_weak;
        use pxml_gen::{generate, Labeling, WorkloadConfig};
        let paper = WorkloadConfig::paper(3, 2, Labeling::SameLabel, 5);
        let g = generate(&WorkloadConfig { leaf_domain: 3, ..paper });
        let pi = g.instance;
        let full = PathExpr::new(pi.root(), (0..3).map(|d| g.depth_labels[d][0]));
        let (leaf, value) = locate_weak(&pi, &full)
            .into_iter()
            .find_map(|o| {
                let vpf = pi.vpf(o)?;
                let value = vpf.iter().find(|&(_, p)| p < 0.999)?.0.clone();
                Some((o, value))
            })
            .expect("a located leaf with a re-weightable VPF entry");
        let queries = [Query::point(full.clone(), leaf), Query::exists(full)];
        let mut engine = QueryEngine::with_threads(pi, 1);
        assert!(engine.run_batch(&queries).iter().all(|r| matches!(r, Ok(p) if *p > 0.0)));
        let m = Mutation::SetValueProb { object: leaf, value, prob: 0.25 };
        let out = engine.apply_mutation(&m).unwrap();
        assert!(!out.effect.structural);
        assert_eq!(out.effect.dirty, [leaf]);
        assert_eq!(out.invalidated.total(), 0);
        let before = engine.stats();
        assert_fresh_answers(&engine, &queries);
        let after = engine.stats();
        assert_eq!(after.result_hits - before.result_hits, 2, "both results stay warm");
        assert_eq!(after.result_misses, before.result_misses);
        assert!(engine.audit_cache().is_empty(), "{:?}", engine.audit_cache());
    }

    /// Builds `R` with the given `(parent, label, children)` rows, an
    /// OPF per parent that keeps all or none of its children with equal
    /// odds, and typed leaves for every childless object.
    fn all_or_none_instance(rows: &[(&str, &str, &[&str])]) -> ProbInstance {
        use pxml_core::{LeafType, Value};
        let mut b = ProbInstance::builder();
        b.define_type(LeafType::new("vt", [Value::Int(1)]));
        let r = b.object("R");
        let mut parents: Vec<&str> = Vec::new();
        let mut children: Vec<Vec<&str>> = Vec::new();
        for &(parent, label, kids) in rows {
            b.lch(parent, label, kids);
            match parents.iter().position(|p| *p == parent) {
                Some(i) => children[i].extend_from_slice(kids),
                None => {
                    parents.push(parent);
                    children.push(kids.to_vec());
                }
            }
        }
        for (p, kids) in parents.iter().zip(&children) {
            b.opf_table(p, &[(kids, 0.5), (&[], 0.5)]);
        }
        for kids in &children {
            for k in kids.iter().filter(|k| !parents.contains(k)) {
                b.leaf(k, "vt", None);
                b.vpf(k, &[(Value::Int(1), 1.0)]);
            }
        }
        b.build(r).expect("test instance is valid")
    }

    /// Where the flat sweep meets a violation in a different order than
    /// the sequential recursion, it still names the object the
    /// recursion names.
    #[test]
    fn flat_errors_name_the_objects_the_recursion_names() {
        let same_error = |pi: &ProbInstance, path: &str| {
            let p = parse(pi, path);
            let want = exists_query(pi, &p).unwrap_err();
            let engine = QueryEngine::with_threads(pi.clone(), 1);
            assert_eq!(engine.run(&Query::exists(p)).unwrap_err(), want, "{path}");
            want
        };
        // X and Y each have two kept parents. Ids ascend A, B, D, E, so
        // the legacy check meets D's claim on X before E's claim on Y.
        // The q-edges are off the path.
        let pi = all_or_none_instance(&[
            ("R", "p", &["A", "B", "D", "E"]),
            ("A", "c", &["X"]),
            ("B", "c", &["Y"]),
            ("D", "c", &["X"]),
            ("E", "c", &["Y"]),
            ("E", "q", &["D"]),
            ("D", "q", &["B"]),
            ("B", "q", &["A"]),
        ]);
        let x = pi.oid("X").unwrap();
        assert_eq!(same_error(&pi, "R.p.c"), QueryError::NotTreeShaped(x));
        // B and C are kept at depths 1 and 2: the bottom-up sweep finds
        // a repeated role at depth 1, the legacy check names the first
        // repeat in depth-then-id order, B.
        let pi = all_or_none_instance(&[
            ("R", "p", &["A", "B", "C"]),
            ("A", "p", &["B", "C"]),
            ("B", "p", &["Z1"]),
            ("C", "p", &["Z2"]),
            ("C", "q", &["B"]),
        ]);
        let b = pi.oid("B").unwrap();
        assert_eq!(same_error(&pi, "R.p.p"), QueryError::NotTreeShaped(b));
        // Missing OPFs at depth 1 (M0) and depth 2 (K1): the recursion
        // checks M0 before descending, a bottom-up sweep meets K1 first.
        let pi = all_or_none_instance(&[
            ("R", "p", &["M0", "M1"]),
            ("M0", "c", &["K0"]),
            ("M1", "c", &["K1"]),
            ("K0", "d", &["L0"]),
            ("K1", "d", &["L1"]),
        ]);
        let (m0, k1) = (pi.oid("M0").unwrap(), pi.oid("K1").unwrap());
        let (weak, mut opf, vpf) = pi.into_parts();
        opf.remove(m0);
        opf.remove(k1);
        let pi = ProbInstance::from_parts_unchecked(weak, opf, vpf);
        assert_eq!(same_error(&pi, "R.p.c.d"), QueryError::UnknownObject(m0));
    }

    #[test]
    fn structural_mutation_relowers_and_answers_identically() {
        let pi = fig2_instance();
        let (b1, author) = (pi.oid("B1").unwrap(), pi.lid("author").unwrap());
        let queries = fig2_queries(&pi);
        let mut engine = QueryEngine::with_threads(pi, 1);
        engine.run_batch(&queries);
        let len = engine.arena.len();
        // card(B1, author) = [1,2] is saturated, so the new child gets 0.
        let m = Mutation::InsertObject { name: "A9".into(), parent: b1, label: author, prob: 0.0 };
        assert!(engine.apply_mutation(&m).unwrap().effect.structural);
        assert_eq!(engine.arena.len(), len + 1, "the new object is lowered");
        assert_fresh_answers(&engine, &queries);
    }

    #[test]
    fn clear_cache_and_reset_stats() {
        let pi = chain_fixture(2, 0.5);
        let p = parse(&pi, "r.next");
        let mut engine = QueryEngine::new(pi);
        assert!(engine.threads() >= 1);
        engine.set_threads(2);
        assert_eq!(engine.threads(), 2);
        engine.run(&Query::exists(p)).unwrap();
        assert_ne!(engine.cache_len(), (0, 0));
        engine.clear_cache();
        assert_eq!(engine.cache_len(), (0, 0));
        engine.reset_stats();
        assert_eq!(engine.stats().queries_run, 0);
        let pi = engine.into_instance();
        assert_eq!(pi.object_count(), 3);
    }
}

