//! Resource governance for query evaluation and model expansion.
//!
//! PXML evaluation hides exponential cliffs — `PC(o)` expansion
//! (Definition 3.6), `Domain(W)` enumeration (Definition 4.1) and DAG
//! marginalisation by inclusion–exclusion can all blow up on dense
//! instances, and the complexity results for probabilistic XML say this
//! is inherent. A [`Budget`] makes the work bound *explicit*: it carries
//! a work-step counter, a byte-accounting ceiling, an optional wall-clock
//! deadline and a cooperative cancellation token, and every expansion
//! loop in the workspace charges it before doing more work.
//!
//! Exhaustion is never a panic and never silent: [`Budget::charge`]
//! returns a typed [`Exhausted`] record naming the resource that ran
//! out, how much was spent and what the limit was. Callers either
//! propagate it ([`CoreError::Exhausted`](crate::CoreError::Exhausted))
//! or degrade to an interval answer (see `pxml-query`'s
//! `DegradePolicy`).
//!
//! ## Determinism
//!
//! Step accounting is deterministic for a fixed query and instance: the
//! counter is private to the budget, work is charged in evaluation
//! order, and nothing about thread scheduling changes *what* is charged.
//! Wall-clock and cancellation exhaustion are inherently racy; only
//! [`Resource::Steps`] and [`Resource::Bytes`] expose reproducible
//! `spent` values.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The resource dimension that ran out.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The work-step counter crossed its limit.
    Steps,
    /// A byte-accounted allocation ceiling was crossed.
    Bytes,
    /// The wall-clock deadline passed (`spent`/`limit` in milliseconds).
    WallClock,
    /// The cooperative cancellation token was set.
    Cancelled,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::Steps => write!(f, "steps"),
            Resource::Bytes => write!(f, "bytes"),
            Resource::WallClock => write!(f, "wall-clock"),
            Resource::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Typed exhaustion record: which resource ran out, how much was spent
/// when it did, and the configured limit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exhausted {
    /// The resource dimension that ran out.
    pub resource: Resource,
    /// Amount spent at the moment of exhaustion (steps, bytes or ms).
    pub spent: u64,
    /// The configured limit for that resource (0 for cancellation).
    pub limit: u64,
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.resource {
            Resource::Cancelled => write!(f, "evaluation cancelled after {} steps", self.spent),
            Resource::WallClock => write!(
                f,
                "wall-clock deadline exceeded ({} ms spent, limit {} ms)",
                self.spent, self.limit
            ),
            r => write!(f, "{} budget exhausted ({} spent, limit {})", r, self.spent, self.limit),
        }
    }
}

impl std::error::Error for Exhausted {}

/// What a governed evaluation does when its [`Budget`] runs out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DegradePolicy {
    /// Surface the typed [`Exhausted`] error (via
    /// [`CoreError::Exhausted`](crate::CoreError::Exhausted)). The
    /// default.
    #[default]
    Error,
    /// Degrade to a guaranteed-bracketing interval `[lo, hi]` built from
    /// the partially-marginalised state.
    Interval,
}

/// A cloneable cooperative cancellation token. Cloning shares the flag,
/// so one token can cancel every query of a batch.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; all budgets holding this token observe it
    /// at their next charge.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A per-query (or per-batch) resource budget.
///
/// Construction is builder-style from [`Budget::unlimited`]; every limit
/// left unset stays infinite, so an unlimited budget costs one relaxed
/// atomic add per charge and nothing else.
#[derive(Debug)]
pub struct Budget {
    steps: AtomicU64,
    max_steps: u64,
    bytes: AtomicU64,
    max_bytes: u64,
    started: Instant,
    deadline: Option<Instant>,
    timeout_ms: u64,
    cancel: Option<CancelToken>,
    polls: AtomicU64,
}

impl Default for Budget {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl Budget {
    /// A budget with every limit infinite: charges always succeed.
    pub fn unlimited() -> Self {
        Budget {
            steps: AtomicU64::new(0),
            max_steps: u64::MAX,
            bytes: AtomicU64::new(0),
            max_bytes: u64::MAX,
            started: Instant::now(),
            deadline: None,
            timeout_ms: 0,
            cancel: None,
            polls: AtomicU64::new(0),
        }
    }

    /// Caps the work-step counter at `max_steps`.
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Caps byte-accounted allocations at `max_bytes`.
    pub fn with_max_bytes(mut self, max_bytes: u64) -> Self {
        self.max_bytes = max_bytes;
        self
    }

    /// Sets a wall-clock deadline `timeout` from now.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.started = Instant::now();
        self.deadline = Some(self.started + timeout);
        self.timeout_ms = timeout.as_millis().min(u64::MAX as u128) as u64;
        self
    }

    /// Attaches a shared cancellation token.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Whether every limit is infinite and no token is attached.
    pub fn is_unlimited(&self) -> bool {
        self.max_steps == u64::MAX
            && self.max_bytes == u64::MAX
            && self.deadline.is_none()
            && self.cancel.is_none()
    }

    /// Work steps charged so far.
    pub fn steps_spent(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Bytes charged so far.
    pub fn bytes_spent(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Deadline/cancellation polls performed so far (checkpoint events:
    /// one per [`Budget::checkpoint`] call plus one per 64-step charge
    /// stride). Exposed so observability layers can report how often a
    /// governed evaluation actually looked at the clock.
    pub fn polls_performed(&self) -> u64 {
        self.polls.load(Ordering::Relaxed)
    }

    /// Charges `n` work steps. Deadline and cancellation are polled when
    /// the counter crosses a 64-step stride (and always on the first
    /// charge) so hot loops pay one relaxed atomic add in the common
    /// case.
    #[inline]
    pub fn charge(&self, n: u64) -> Result<(), Exhausted> {
        let before = self.steps.fetch_add(n, Ordering::Relaxed);
        let after = before.saturating_add(n);
        if after > self.max_steps {
            return Err(Exhausted {
                resource: Resource::Steps,
                spent: after,
                limit: self.max_steps,
            });
        }
        if before == 0 || (before >> 6) != (after >> 6) {
            self.poll(after)?;
        }
        Ok(())
    }

    /// Forces a deadline/cancellation poll regardless of stride — used
    /// before starting a coarse unit of work (a whole query, a whole
    /// operator application).
    pub fn checkpoint(&self) -> Result<(), Exhausted> {
        self.poll(self.steps_spent())
    }

    fn poll(&self, spent_steps: u64) -> Result<(), Exhausted> {
        self.polls.fetch_add(1, Ordering::Relaxed);
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(Exhausted {
                    resource: Resource::Cancelled,
                    spent: spent_steps,
                    limit: 0,
                });
            }
        }
        if let Some(deadline) = self.deadline {
            let now = Instant::now();
            if now > deadline {
                let spent_ms =
                    now.duration_since(self.started).as_millis().min(u64::MAX as u128) as u64;
                return Err(Exhausted {
                    resource: Resource::WallClock,
                    spent: spent_ms,
                    limit: self.timeout_ms,
                });
            }
        }
        Ok(())
    }

    /// Charges `n` bytes against the allocation ceiling. Unlike steps,
    /// bytes can be released again with [`Budget::release_bytes`].
    pub fn charge_bytes(&self, n: u64) -> Result<(), Exhausted> {
        let before = self.bytes.fetch_add(n, Ordering::Relaxed);
        let after = before.saturating_add(n);
        if after > self.max_bytes {
            return Err(Exhausted {
                resource: Resource::Bytes,
                spent: after,
                limit: self.max_bytes,
            });
        }
        Ok(())
    }

    /// Returns previously charged bytes to the ceiling (e.g. when a
    /// cache entry is evicted).
    pub fn release_bytes(&self, n: u64) {
        let mut cur = self.bytes.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self.bytes.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    #[cfg(test)]
    fn poll_now(&self) -> Result<(), Exhausted> {
        self.poll(self.steps_spent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            b.charge(7).unwrap();
        }
        b.charge_bytes(1 << 40).unwrap();
        assert!(b.is_unlimited());
        assert_eq!(b.steps_spent(), 70_000);
    }

    #[test]
    fn step_limit_exhausts_with_exact_accounting() {
        let b = Budget::unlimited().with_max_steps(10);
        for _ in 0..10 {
            b.charge(1).unwrap();
        }
        let e = b.charge(1).unwrap_err();
        assert_eq!(e.resource, Resource::Steps);
        assert_eq!(e.spent, 11);
        assert_eq!(e.limit, 10);
    }

    #[test]
    fn budget_of_one_exhausts_on_second_step() {
        let b = Budget::unlimited().with_max_steps(1);
        b.charge(1).unwrap();
        assert!(b.charge(1).is_err());
    }

    #[test]
    fn byte_ceiling_charges_and_releases() {
        let b = Budget::unlimited().with_max_bytes(100);
        b.charge_bytes(60).unwrap();
        assert!(b.charge_bytes(60).is_err());
        b.release_bytes(200); // saturates at zero
        b.charge_bytes(100).unwrap();
    }

    #[test]
    fn expired_deadline_reports_wall_clock() {
        let b = Budget::unlimited().with_timeout(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        let e = b.poll_now().unwrap_err();
        assert_eq!(e.resource, Resource::WallClock);
        assert!(e.spent >= 1);
    }

    #[test]
    fn polls_are_counted_at_checkpoints_and_strides() {
        let b = Budget::unlimited();
        assert_eq!(b.polls_performed(), 0);
        b.checkpoint().unwrap();
        assert_eq!(b.polls_performed(), 1);
        b.charge(1).unwrap(); // first charge always polls
        assert_eq!(b.polls_performed(), 2);
        b.charge(1).unwrap(); // within the first 64-step stride: no poll
        assert_eq!(b.polls_performed(), 2);
        b.charge(64).unwrap(); // crosses a stride boundary
        assert_eq!(b.polls_performed(), 3);
    }

    #[test]
    fn cancel_token_is_shared() {
        let token = CancelToken::new();
        let b = Budget::unlimited().with_cancel_token(token.clone());
        b.charge(1).unwrap();
        token.cancel();
        let e = b.checkpoint().unwrap_err();
        assert_eq!(e.resource, Resource::Cancelled);
    }

    #[test]
    fn exhausted_messages_name_the_resource() {
        let e = Exhausted { resource: Resource::Steps, spent: 5, limit: 4 };
        assert!(e.to_string().contains("steps"));
        let e = Exhausted { resource: Resource::WallClock, spent: 12, limit: 10 };
        assert!(e.to_string().contains("ms"));
    }
}
