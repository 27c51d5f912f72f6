//! Engine instrumentation: lock-free counters, log-scaled histograms,
//! and per-phase wall time.
//!
//! [`EngineStats`] is a bag of [`AtomicU64`]s updated by worker threads.
//! A query's run writes it twice: `EngineStats::count_query` when it
//! starts, and one fold of the query's ledger (`TraceTally`) when it
//! ends; mutations and batches count themselves.
//! Most counters use relaxed ordering (they are diagnostics, not
//! synchronisation), but the counters that participate in snapshot
//! invariants follow a small protocol so that **every** snapshot — even
//! one racing live workers — satisfies:
//!
//! * `result_hits + result_misses <= queries_run`
//! * `queries_degraded + queries_exhausted <= queries_run`
//! * `queries_degraded <= result_misses` (a degraded answer is always a
//!   counted miss first)
//!
//! Writers bump `queries_run` *before* the dependent counters (the fold
//! publishes the result counter before degraded/exhausted) and publish
//! the dependent counter with `Release`; [`EngineStats::snapshot`] reads
//! the dependent counters *first* with `Acquire` and `queries_run`
//! *last*. Reading a `Release` increment therefore guarantees the
//! matching `queries_run` increment is visible, so concurrent snapshots
//! can only see `queries_run` equal or ahead — never behind. The
//! concurrent-snapshot hammer test in `tests/batch_engine.rs` locks
//! this in.
//!
//! [`EngineStats::snapshot`] captures a plain-data [`StatsSnapshot`]
//! for reporting; its `Display` prints the compact one-block summary
//! the CLI's `batch --stats` emits. Derived ratios are all zero-guarded:
//! a snapshot taken before any query reports `0.0` (printed as `-`),
//! never `NaN`.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::trace::TraceTally;

/// Number of log-scaled buckets in a [`LogHistogram`].
pub const HIST_BUCKETS: usize = 16;

/// Bucket growth factor: bucket `i` covers `[4^i, 4^(i+1))` (bucket 0
/// also absorbs zero). Sixteen factor-4 buckets span `1..4^16 ≈ 4.3e9`,
/// i.e. nanosecond latencies from 1 ns to ~4.3 s and budget spends from
/// 1 step to ~4.3 G steps, before the overflow bucket.
pub const HIST_FACTOR: u64 = 4;

/// A fixed-size log-scaled histogram of `u64` observations, updated
/// with relaxed atomics (no locks, no allocation after construction).
///
/// Bucket index for a value `v > 0` is `floor(log4 v)`, clamped to the
/// last bucket; `v == 0` lands in bucket 0. Used for per-query latency
/// (nanoseconds) and per-query budget spend (steps).
#[derive(Debug, Default)]
pub struct LogHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// Index of the bucket covering `v`: `floor(log4 v)` clamped to the
/// histogram width (0 for `v == 0`).
pub fn log4_bucket(v: u64) -> usize {
    if v == 0 {
        return 0;
    }
    (((63 - v.leading_zeros()) / 2) as usize).min(HIST_BUCKETS - 1)
}

impl LogHistogram {
    /// A fresh all-zero histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.buckets[log4_bucket(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every bucket and the count/sum.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// Plain-data copy of a [`LogHistogram`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket observation counts; bucket `i` covers `[4^i, 4^(i+1))`.
    pub buckets: [u64; HIST_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistSnapshot {
    /// Upper bound (inclusive, Prometheus `le` style) of bucket `i`:
    /// `4^(i+1) - 1`.
    pub fn bucket_upper_bound(i: usize) -> u64 {
        HIST_FACTOR.saturating_pow(i as u32 + 1).saturating_sub(1)
    }

    /// Mean observed value; `0.0` when nothing was observed.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Live counters owned by a [`crate::engine::QueryEngine`].
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Queries answered (including cache hits). Bumped *first*, before
    /// any dependent counter (see the module-level ordering protocol).
    pub queries_run: AtomicU64,
    /// Whole-query memo hits (published with `Release`).
    pub result_hits: AtomicU64,
    /// Whole-query memo misses — queries actually evaluated (published
    /// with `Release`).
    pub result_misses: AtomicU64,
    /// Chain-link marginal memo hits.
    pub link_hits: AtomicU64,
    /// Chain-link marginal memo misses.
    pub link_misses: AtomicU64,
    /// OPF entries visited by survival/marginal evaluations — the `|℘|`
    /// work measure of the paper's Figure 7 cost model.
    pub opf_entries_visited: AtomicU64,
    /// Governed queries that exhausted their budget and degraded to an
    /// interval answer (`DegradePolicy::Interval`); published with
    /// `Release`.
    pub queries_degraded: AtomicU64,
    /// Governed queries that exhausted their budget and returned the
    /// typed `Exhausted` error (`DegradePolicy::Error`); published with
    /// `Release`.
    pub queries_exhausted: AtomicU64,
    /// Budget work steps spent by governed queries (hit-path queries
    /// never open a budget, so this is pure evaluation work).
    pub budget_steps_spent: AtomicU64,
    /// Budget deadline/cancellation polls performed by governed queries.
    pub budget_polls: AtomicU64,
    /// Queries short-circuited to exact `0.0` by the static pre-flight
    /// (`ProvablyZero` verdicts) without touching the evaluator.
    pub preflight_zeros: AtomicU64,
    /// Queries rewritten to a canonical equivalent plan by the
    /// pre-flight normaliser before cache lookup.
    pub preflight_rewrites: AtomicU64,
    /// Governed queries rejected by pre-flight admission control (the
    /// predicted exact step count exceeded the budget).
    pub preflight_rejections: AtomicU64,
    /// Nanoseconds spent locating path layers (forward pass).
    pub locate_nanos: AtomicU64,
    /// Nanoseconds spent in ε / chain marginalisation.
    pub marginal_nanos: AtomicU64,
    /// Nanoseconds of batch wall time, **accumulated** across every
    /// `run_batch` / `run_batch_governed` call (a session running
    /// several batches reports their total, not the last batch's).
    pub batch_nanos: AtomicU64,
    /// Number of `run_batch` / `run_batch_governed` calls completed.
    pub batches_run: AtomicU64,
    /// Mutations applied through `QueryEngine::apply_mutation`.
    pub mutations_applied: AtomicU64,
    /// Cache entries evicted by dirty-set invalidation (both tables,
    /// results and links; whole-table byte-ceiling evictions are counted
    /// separately).
    pub cache_invalidations: AtomicU64,
    /// Nanoseconds spent applying mutations (§6.1 recomputation plus
    /// dirty-set propagation and eviction).
    pub mutation_nanos: AtomicU64,
    /// Per-query wall-time histogram (nanoseconds), populated only when
    /// the engine's trace mode enables per-query timing.
    pub query_nanos_hist: LogHistogram,
    /// Per-query budget-spend histogram (steps), populated for governed
    /// queries when per-query timing is enabled.
    pub budget_steps_hist: LogHistogram,
}

macro_rules! bump {
    ($field:expr) => {
        $field.fetch_add(1, Ordering::Relaxed)
    };
}

impl EngineStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn count_query(&self) {
        bump!(self.queries_run);
    }
    /// Folds one query's ledger into the counters, after
    /// [`EngineStats::count_query`] counted the query. The result,
    /// degraded and exhausted counters are published with `Release`
    /// (see the module-level protocol); zero fields cost no atomic, so
    /// a result hit adds one atomic to the `queries_run` bump.
    pub(crate) fn fold(&self, t: &TraceTally) {
        let add = |f: &AtomicU64, v: u64| {
            if v != 0 {
                f.fetch_add(v, Ordering::Relaxed);
            }
        };
        // Release: pairs with the Acquire loads in `snapshot`, so the
        // query's `queries_run` bump is visible wherever these are. The
        // miss is published before a degradation, so a snapshot never
        // sees more degraded queries than misses.
        let result = if t.result_hit { &self.result_hits } else { &self.result_misses };
        result.fetch_add(1, Ordering::Release);
        if t.degraded {
            self.queries_degraded.fetch_add(1, Ordering::Release);
        }
        if t.exhausted {
            self.queries_exhausted.fetch_add(1, Ordering::Release);
        }
        add(&self.link_hits, t.link_hits);
        add(&self.link_misses, t.link_misses);
        add(&self.opf_entries_visited, t.opf_entries);
        add(&self.preflight_zeros, u64::from(t.preflight_zero));
        add(&self.preflight_rewrites, u64::from(t.preflight_rewrite));
        add(&self.preflight_rejections, u64::from(t.preflight_rejection));
        add(&self.locate_nanos, t.locate_nanos);
        add(&self.marginal_nanos, t.marginal_nanos);
        if let Some((steps, polls)) = t.budget {
            add(&self.budget_steps_spent, steps);
            add(&self.budget_polls, polls);
        }
    }
    pub(crate) fn add_batch(&self, d: Duration) {
        self.batch_nanos.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        bump!(self.batches_run);
    }
    pub(crate) fn count_mutation(&self, invalidated: u64, nanos: u64) {
        bump!(self.mutations_applied);
        self.cache_invalidations.fetch_add(invalidated, Ordering::Relaxed);
        self.mutation_nanos.fetch_add(nanos, Ordering::Relaxed);
    }
    pub(crate) fn observe_query_nanos(&self, nanos: u64) {
        self.query_nanos_hist.observe(nanos);
    }
    pub(crate) fn observe_budget_steps(&self, steps: u64) {
        self.budget_steps_hist.observe(steps);
    }

    /// Resets every counter and histogram to zero.
    pub fn reset(&self) {
        for f in [
            &self.queries_run,
            &self.result_hits,
            &self.result_misses,
            &self.link_hits,
            &self.link_misses,
            &self.opf_entries_visited,
            &self.queries_degraded,
            &self.queries_exhausted,
            &self.budget_steps_spent,
            &self.budget_polls,
            &self.preflight_zeros,
            &self.preflight_rewrites,
            &self.preflight_rejections,
            &self.locate_nanos,
            &self.marginal_nanos,
            &self.batch_nanos,
            &self.batches_run,
            &self.mutations_applied,
            &self.cache_invalidations,
            &self.mutation_nanos,
        ] {
            f.store(0, Ordering::Relaxed);
        }
        self.query_nanos_hist.reset();
        self.budget_steps_hist.reset();
    }

    /// A point-in-time copy of the counters.
    ///
    /// Loads follow the module-level protocol: dependent counters first
    /// (`Acquire`), `queries_run` last — so the snapshot invariants hold
    /// even while workers are mid-flight.
    pub fn snapshot(&self) -> StatsSnapshot {
        let g = |f: &AtomicU64| f.load(Ordering::Relaxed);
        // Degraded/exhausted before result counters (degraded implies an
        // earlier counted miss), result counters before queries_run.
        let queries_degraded = self.queries_degraded.load(Ordering::Acquire);
        let queries_exhausted = self.queries_exhausted.load(Ordering::Acquire);
        let result_hits = self.result_hits.load(Ordering::Acquire);
        let result_misses = self.result_misses.load(Ordering::Acquire);
        let queries_run = g(&self.queries_run);
        StatsSnapshot {
            queries_run,
            result_hits,
            result_misses,
            eps_hits: 0,
            eps_misses: 0,
            link_hits: g(&self.link_hits),
            link_misses: g(&self.link_misses),
            opf_entries_visited: g(&self.opf_entries_visited),
            queries_degraded,
            queries_exhausted,
            budget_steps_spent: g(&self.budget_steps_spent),
            budget_polls: g(&self.budget_polls),
            preflight_zeros: g(&self.preflight_zeros),
            preflight_rewrites: g(&self.preflight_rewrites),
            preflight_rejections: g(&self.preflight_rejections),
            cache_evictions: 0,
            cache_admission_rejections: 0,
            locate_nanos: g(&self.locate_nanos),
            marginal_nanos: g(&self.marginal_nanos),
            batch_nanos: g(&self.batch_nanos),
            batches_run: g(&self.batches_run),
            mutations_applied: g(&self.mutations_applied),
            cache_invalidations: g(&self.cache_invalidations),
            mutation_nanos: g(&self.mutation_nanos),
            query_nanos_hist: self.query_nanos_hist.snapshot(),
            budget_steps_hist: self.budget_steps_hist.snapshot(),
        }
    }
}

/// Plain-data copy of [`EngineStats`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Queries answered (including cache hits).
    pub queries_run: u64,
    /// Whole-query memo hits.
    pub result_hits: u64,
    /// Whole-query memo misses.
    pub result_misses: u64,
    /// ε-marginal memo hits: always 0, as no shared ε memo exists; kept
    /// so the STATS line and the `table="eps"` metric families keep
    /// their shape.
    pub eps_hits: u64,
    /// ε-marginal memo misses: always 0 (see `eps_hits`).
    pub eps_misses: u64,
    /// Chain-link memo hits.
    pub link_hits: u64,
    /// Chain-link memo misses.
    pub link_misses: u64,
    /// OPF entries visited.
    pub opf_entries_visited: u64,
    /// Governed queries degraded to interval answers.
    pub queries_degraded: u64,
    /// Governed queries that returned `Exhausted` errors.
    pub queries_exhausted: u64,
    /// Budget work steps spent by governed queries.
    pub budget_steps_spent: u64,
    /// Budget deadline/cancellation polls performed.
    pub budget_polls: u64,
    /// Queries short-circuited to exact `0.0` by the pre-flight.
    pub preflight_zeros: u64,
    /// Queries canonicalised by the pre-flight normaliser.
    pub preflight_rewrites: u64,
    /// Governed queries rejected by pre-flight admission control.
    pub preflight_rejections: u64,
    /// Whole-table cache evictions under the byte ceiling (merged in
    /// from the cache by `QueryEngine::stats`).
    pub cache_evictions: u64,
    /// Cache inserts refused because no eviction could make room
    /// (merged in from the cache by `QueryEngine::stats`).
    pub cache_admission_rejections: u64,
    /// Time locating path layers.
    pub locate_nanos: u64,
    /// Time in marginalisation.
    pub marginal_nanos: u64,
    /// Batch wall time, accumulated across batches.
    pub batch_nanos: u64,
    /// Batches completed.
    pub batches_run: u64,
    /// Mutations applied.
    pub mutations_applied: u64,
    /// Cache entries evicted by dirty-set invalidation.
    pub cache_invalidations: u64,
    /// Wall time spent applying mutations.
    pub mutation_nanos: u64,
    /// Per-query latency histogram (nanoseconds; empty unless tracing
    /// was enabled).
    pub query_nanos_hist: HistSnapshot,
    /// Per-query budget-spend histogram (steps; empty unless tracing
    /// was enabled).
    pub budget_steps_hist: HistSnapshot,
}

impl StatsSnapshot {
    /// Total cache hits across the two tables, results and links
    /// (`eps_hits` is always 0).
    pub fn total_hits(&self) -> u64 {
        self.result_hits + self.eps_hits + self.link_hits
    }

    /// Total cache misses across the two tables, results and links
    /// (`eps_misses` is always 0).
    pub fn total_misses(&self) -> u64 {
        self.result_misses + self.eps_misses + self.link_misses
    }

    /// Hit fraction in `[0, 1]`; `0.0` when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.total_hits() + self.total_misses();
        if total == 0 {
            0.0
        } else {
            self.total_hits() as f64 / total as f64
        }
    }

    /// Average batch wall time per query in milliseconds; `0.0` when no
    /// query ran.
    pub fn ms_per_query(&self) -> f64 {
        if self.queries_run == 0 {
            0.0
        } else {
            ms(self.batch_nanos) / self.queries_run as f64
        }
    }

    /// Fraction of queries degraded to interval answers; `0.0` when no
    /// query ran (never `NaN`, even for an all-degraded batch snapshot
    /// taken mid-flight).
    pub fn degraded_fraction(&self) -> f64 {
        if self.queries_run == 0 {
            0.0
        } else {
            self.queries_degraded as f64 / self.queries_run as f64
        }
    }

    /// Average OPF entries visited per query — the per-query `|℘|` cost
    /// of Figure 7; `0.0` when no query ran.
    pub fn opf_entries_per_query(&self) -> f64 {
        if self.queries_run == 0 {
            0.0
        } else {
            self.opf_entries_visited as f64 / self.queries_run as f64
        }
    }

    /// Average budget steps per governed-and-resolved query; `0.0` when
    /// nothing spent a budget.
    pub fn budget_steps_per_poll(&self) -> f64 {
        if self.budget_polls == 0 {
            0.0
        } else {
            self.budget_steps_spent as f64 / self.budget_polls as f64
        }
    }
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// Formats `value` as a percentage, or `-` when the underlying ratio
/// had an empty denominator (`had_data == false`).
struct RatioCell {
    value: f64,
    had_data: bool,
}

impl fmt::Display for RatioCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.had_data {
            write!(f, "{:.1}%", self.value * 100.0)
        } else {
            write!(f, "-")
        }
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "queries run        {}  (batches {})",
            self.queries_run, self.batches_run
        )?;
        // No located-layers memo exists; `layers 0/0` is printed as is
        // because the end-to-end benchmark's STATS parser reads the token.
        writeln!(
            f,
            "cache hits/misses  result {}/{}  layers 0/0  eps {}/{}  link {}/{}",
            self.result_hits,
            self.result_misses,
            self.eps_hits,
            self.eps_misses,
            self.link_hits,
            self.link_misses,
        )?;
        writeln!(
            f,
            "overall hit rate   {}",
            RatioCell {
                value: self.hit_rate(),
                had_data: self.total_hits() + self.total_misses() > 0,
            }
        )?;
        writeln!(f, "OPF entries seen   {}", self.opf_entries_visited)?;
        if self.queries_run == 0 {
            writeln!(f, "per query          -")?;
        } else {
            writeln!(
                f,
                "per query          {:.4} ms, {:.1} OPF entries",
                self.ms_per_query(),
                self.opf_entries_per_query(),
            )?;
        }
        writeln!(
            f,
            "governance         degraded {}  exhausted {}  cache evictions {}  admissions refused {}  ({} of queries degraded)",
            self.queries_degraded,
            self.queries_exhausted,
            self.cache_evictions,
            self.cache_admission_rejections,
            RatioCell {
                value: self.degraded_fraction(),
                had_data: self.queries_run > 0,
            },
        )?;
        writeln!(
            f,
            "budget             steps {}  polls {}",
            self.budget_steps_spent, self.budget_polls,
        )?;
        writeln!(
            f,
            "preflight          zeros {}  rewrites {}  rejections {}",
            self.preflight_zeros, self.preflight_rewrites, self.preflight_rejections,
        )?;
        writeln!(
            f,
            "mutations          applied {}  invalidations {}  wall {:.3} ms",
            self.mutations_applied,
            self.cache_invalidations,
            ms(self.mutation_nanos),
        )?;
        write!(
            f,
            "wall time          locate {:.3} ms, marginal {:.3} ms, batch {:.3} ms",
            ms(self.locate_nanos),
            ms(self.marginal_nanos),
            ms(self.batch_nanos),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counts_and_resets() {
        let s = EngineStats::new();
        s.count_query();
        s.fold(&TraceTally {
            result_hit: true,
            link_hits: 1,
            opf_entries: 7,
            budget: Some((40, 2)),
            ..TraceTally::default()
        });
        s.fold(&TraceTally::default());
        s.observe_query_nanos(100);
        let snap = s.snapshot();
        assert_eq!(snap.queries_run, 1);
        assert_eq!(snap.result_hits, 1);
        assert_eq!(snap.result_misses, 1);
        assert_eq!(snap.link_hits, 1);
        assert_eq!(snap.opf_entries_visited, 7);
        assert_eq!(snap.budget_steps_spent, 40);
        assert_eq!(snap.budget_polls, 2);
        assert_eq!(snap.query_nanos_hist.count, 1);
        assert_eq!(snap.total_hits(), 2);
        assert_eq!(snap.total_misses(), 1);
        assert!((snap.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
        assert_eq!(StatsSnapshot::default().hit_rate(), 0.0);
    }

    #[test]
    fn batch_wall_time_accumulates_across_batches() {
        let s = EngineStats::new();
        s.add_batch(Duration::from_nanos(1_000));
        let after_one = s.snapshot();
        assert_eq!(after_one.batches_run, 1);
        assert_eq!(after_one.batch_nanos, 1_000);
        s.add_batch(Duration::from_nanos(500));
        let after_two = s.snapshot();
        assert_eq!(after_two.batches_run, 2);
        assert_eq!(after_two.batch_nanos, 1_500);
        assert!(after_two.batch_nanos > after_one.batch_nanos);
    }

    #[test]
    fn derived_metrics_are_zero_not_nan_on_empty_snapshot() {
        let empty = StatsSnapshot::default();
        for v in [
            empty.hit_rate(),
            empty.ms_per_query(),
            empty.degraded_fraction(),
            empty.opf_entries_per_query(),
            empty.budget_steps_per_poll(),
            empty.query_nanos_hist.mean(),
        ] {
            assert_eq!(v, 0.0);
            assert!(!v.is_nan());
        }
    }

    #[test]
    fn derived_metrics_on_all_degraded_batch_are_finite() {
        // An all-degraded batch: every query missed and degraded.
        let s = EngineStats::new();
        for _ in 0..3 {
            s.count_query();
            s.fold(&TraceTally { degraded: true, ..TraceTally::default() });
        }
        let snap = s.snapshot();
        assert_eq!(snap.degraded_fraction(), 1.0);
        assert_eq!(snap.ms_per_query(), 0.0); // no batch timing recorded
        assert!(snap.hit_rate() == 0.0 && !snap.hit_rate().is_nan());
    }

    #[test]
    fn display_prints_dash_for_empty_ratios() {
        let txt = StatsSnapshot::default().to_string();
        assert!(txt.contains("overall hit rate   -"), "{txt}");
        assert!(txt.contains("per query          -"), "{txt}");
        assert!(txt.contains("(- of queries degraded)"), "{txt}");
        assert!(!txt.contains("NaN"), "{txt}");
    }

    #[test]
    fn display_mentions_every_section() {
        let s = EngineStats::new();
        s.count_query();
        let txt = s.snapshot().to_string();
        assert!(txt.contains("queries run"));
        assert!(txt.contains("cache hits/misses"));
        assert!(txt.contains("OPF entries seen"));
        assert!(txt.contains("governance"));
        assert!(txt.contains("budget"));
        assert!(txt.contains("preflight"));
        assert!(txt.contains("wall time"));
    }

    #[test]
    fn log4_bucket_boundaries() {
        assert_eq!(log4_bucket(0), 0);
        assert_eq!(log4_bucket(1), 0);
        assert_eq!(log4_bucket(3), 0);
        assert_eq!(log4_bucket(4), 1);
        assert_eq!(log4_bucket(15), 1);
        assert_eq!(log4_bucket(16), 2);
        assert_eq!(log4_bucket(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(HistSnapshot::bucket_upper_bound(0), 3);
        assert_eq!(HistSnapshot::bucket_upper_bound(1), 15);
    }

    #[test]
    fn histogram_counts_and_sums() {
        let h = LogHistogram::new();
        for v in [0, 1, 4, 5, 1_000_000] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1_000_010);
        assert_eq!(snap.buckets[0], 2); // 0 and 1
        assert_eq!(snap.buckets[1], 2); // 4 and 5
        assert_eq!(snap.buckets[log4_bucket(1_000_000)], 1);
        assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
        h.reset();
        assert_eq!(h.snapshot(), HistSnapshot::default());
    }

    /// Four writer threads hammer the counters in the exact order the
    /// engine uses (query first, then the ledger's fold) while the main thread
    /// snapshots in a tight loop: **every** racing snapshot satisfies
    /// the ordering-protocol invariants, and the final at-rest snapshot
    /// balances exactly.
    #[test]
    fn concurrent_snapshots_never_violate_invariants() {
        const PER_THREAD: u64 = 50_000;
        let s = EngineStats::new();
        std::thread::scope(|scope| {
            for worker in 0..4u64 {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        s.count_query();
                        let t = TraceTally::default();
                        s.fold(&match (worker + i) % 4 {
                            0 => TraceTally { result_hit: true, ..t },
                            1 => t,
                            2 => TraceTally { degraded: true, ..t },
                            _ => TraceTally { exhausted: true, ..t },
                        });
                    }
                });
            }
            for _ in 0..200_000 {
                let snap = s.snapshot();
                assert!(
                    snap.result_hits + snap.result_misses <= snap.queries_run,
                    "result counters overtook queries_run: {snap:?}"
                );
                assert!(
                    snap.queries_degraded + snap.queries_exhausted <= snap.queries_run,
                    "governance counters overtook queries_run: {snap:?}"
                );
                assert!(
                    snap.queries_degraded <= snap.result_misses,
                    "degraded overtook misses: {snap:?}"
                );
            }
        });
        let at_rest = s.snapshot();
        assert_eq!(at_rest.queries_run, 4 * PER_THREAD);
        assert_eq!(at_rest.result_hits + at_rest.result_misses, at_rest.queries_run);
        assert_eq!(at_rest.queries_degraded, PER_THREAD);
        assert_eq!(at_rest.queries_exhausted, PER_THREAD);
    }
}
