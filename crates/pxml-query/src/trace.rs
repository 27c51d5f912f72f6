//! Per-query tracing: spans, provenance, and a bounded ring buffer.
//!
//! A [`QueryTrace`] is the engine's answer to "why did this query cost
//! what it cost": per-phase wall time (locate → ε/chain marginalise →
//! normalise, mirroring the §6 evaluation pipeline), cache hit/miss
//! provenance for every memo layer, the `|℘|` OPF-entry work measure of
//! the paper's Figure 7 cost model, and — for governed runs — the
//! budget spend and degradation status.
//!
//! Tracing is **off by default** and allocation-shy by design: with
//! [`TraceMode::Off`] the engine's hot path pays one relaxed atomic
//! load and an early branch, nothing else (no clock reads, no
//! allocation — proven <1 % on the warm-batch ablation, see
//! EXPERIMENTS.md). [`TraceMode::Timing`] adds per-query latency /
//! budget-spend histogram observations; [`TraceMode::Full`]
//! additionally materialises one [`QueryTrace`] record per query into a
//! bounded [`TraceRing`].
//!
//! Records serialise to JSON lines via [`QueryTrace::to_json`] and
//! parse back with [`QueryTrace::from_json`] (the workspace's `serde`
//! is an offline no-op shim, so the codec is hand-rolled and
//! round-trip-tested here).

use std::collections::VecDeque;
use std::fmt;

use parking_lot::Mutex;

/// How much per-query observability the engine collects.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceMode {
    /// No per-query capture at all (the default). The shared
    /// [`crate::EngineStats`] counters stay live — they are free-running
    /// aggregates, not traces.
    #[default]
    Off,
    /// Per-query latency and budget-spend histogram observations, no
    /// record materialisation. What `pxml batch --metrics` uses.
    Timing,
    /// Timing plus one [`QueryTrace`] record per query, pushed into the
    /// engine's [`TraceRing`].
    Full,
}

/// The query shape a trace record describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// `P(o ∈ p)` — Definition 6.1.
    Point,
    /// `P(∃o: o ∈ p)`.
    Exists,
    /// `P(r.o₁.….oᵢ)`.
    Chain,
    /// An instance mutation applied through the engine (the trace's
    /// timing fields carry apply + invalidation wall time).
    Mutation,
}

impl QueryKind {
    /// Stable lowercase name used in the JSON encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryKind::Point => "point",
            QueryKind::Exists => "exists",
            QueryKind::Chain => "chain",
            QueryKind::Mutation => "mutation",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "point" => Some(QueryKind::Point),
            "exists" => Some(QueryKind::Exists),
            "chain" => Some(QueryKind::Chain),
            "mutation" => Some(QueryKind::Mutation),
            _ => None,
        }
    }
}

/// How the traced query ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Exact probability (ungoverned answers, and governed answers whose
    /// budget sufficed).
    Exact,
    /// Budget exhausted under `DegradePolicy::Interval`: the answer is a
    /// guaranteed bracket `[lo, hi]`.
    Degraded,
    /// Budget exhausted under `DegradePolicy::Error`: the typed
    /// `Exhausted` error was returned.
    Exhausted,
    /// Any other query error (structural, not-tree-shaped, …).
    Error,
    /// The static pre-flight proved the answer is exactly `0.0` and the
    /// evaluator was never entered.
    PreflightZero,
}

impl TraceOutcome {
    /// Stable lowercase name used in the JSON encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceOutcome::Exact => "exact",
            TraceOutcome::Degraded => "degraded",
            TraceOutcome::Exhausted => "exhausted",
            TraceOutcome::Error => "error",
            TraceOutcome::PreflightZero => "preflight-zero",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "exact" => Some(TraceOutcome::Exact),
            "degraded" => Some(TraceOutcome::Degraded),
            "exhausted" => Some(TraceOutcome::Exhausted),
            "error" => Some(TraceOutcome::Error),
            "preflight-zero" => Some(TraceOutcome::PreflightZero),
            _ => None,
        }
    }
}

/// Per-query scratch counters, threaded by reference through one
/// evaluation. Plain (non-atomic) because a query is evaluated by
/// exactly one worker; the engine folds the tally into a [`QueryTrace`]
/// afterwards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct TraceTally {
    pub result_hit: bool,
    /// The pre-flight proved the answer zero; nothing was evaluated.
    pub preflight_zero: bool,
    pub layers_hits: u64,
    pub layers_misses: u64,
    pub link_hits: u64,
    pub link_misses: u64,
    pub opf_entries: u64,
    pub locate_nanos: u64,
    pub marginal_nanos: u64,
    pub normalise_nanos: u64,
    pub budget_steps: u64,
    pub budget_polls: u64,
}

/// One query's trace record: what ran, how long each §6 phase took,
/// which memo layers answered, and what the budget cost.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryTrace {
    /// Engine-wide monotonically increasing record number.
    pub seq: u64,
    /// Human-readable query rendering (QL surface syntax).
    pub query: String,
    /// The query shape.
    pub kind: QueryKind,
    /// How the query ended.
    pub outcome: TraceOutcome,
    /// Answer lower bound (equal to `hi` for exact answers; 0 on error).
    pub lo: f64,
    /// Answer upper bound (equal to `lo` for exact answers; 0 on error).
    pub hi: f64,
    /// The error message, for `Exhausted` / `Error` outcomes.
    pub error: Option<String>,
    /// Whole-query wall time in nanoseconds.
    pub total_nanos: u64,
    /// Time locating path layers (the forward pass).
    pub locate_nanos: u64,
    /// Time in ε / chain marginalisation.
    pub marginal_nanos: u64,
    /// Time assembling/normalising and memoising the answer.
    pub normalise_nanos: u64,
    /// Whether the whole-query result memo answered.
    pub result_hit: bool,
    /// Locate-layer memo hits attributed to this query.
    pub layers_hits: u64,
    /// Locate-layer memo misses (forward traversals run).
    pub layers_misses: u64,
    /// Chain-link marginal memo hits.
    pub link_hits: u64,
    /// Chain-link marginal memo misses.
    pub link_misses: u64,
    /// OPF entries visited — the `|℘|` work measure of Figure 7.
    pub opf_entries: u64,
    /// Budget work steps spent (0 for ungoverned queries).
    pub budget_steps: u64,
    /// Budget deadline/cancellation polls performed (0 for ungoverned).
    pub budget_polls: u64,
}

impl QueryTrace {
    /// Serialises the record as one JSON object (no trailing newline),
    /// suitable for JSONL streaming. Numbers use Rust's shortest
    /// round-trip float formatting, so [`QueryTrace::from_json`] parses
    /// back the identical record.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push('{');
        push_field(&mut s, "seq", &self.seq.to_string());
        s.push(',');
        push_str_field(&mut s, "query", &self.query);
        s.push(',');
        push_str_field(&mut s, "kind", self.kind.as_str());
        s.push(',');
        push_str_field(&mut s, "outcome", self.outcome.as_str());
        s.push(',');
        push_field(&mut s, "lo", &format!("{:?}", self.lo));
        s.push(',');
        push_field(&mut s, "hi", &format!("{:?}", self.hi));
        if let Some(e) = &self.error {
            s.push(',');
            push_str_field(&mut s, "error", e);
        }
        for (k, v) in [
            ("total_nanos", self.total_nanos),
            ("locate_nanos", self.locate_nanos),
            ("marginal_nanos", self.marginal_nanos),
            ("normalise_nanos", self.normalise_nanos),
            ("layers_hits", self.layers_hits),
            ("layers_misses", self.layers_misses),
            ("link_hits", self.link_hits),
            ("link_misses", self.link_misses),
            ("opf_entries", self.opf_entries),
            ("budget_steps", self.budget_steps),
            ("budget_polls", self.budget_polls),
        ] {
            s.push(',');
            push_field(&mut s, k, &v.to_string());
        }
        s.push(',');
        push_field(&mut s, "result_hit", if self.result_hit { "true" } else { "false" });
        s.push('}');
        s
    }

    /// Parses a record previously produced by [`QueryTrace::to_json`].
    /// Unknown keys are ignored (forward compatibility); missing
    /// required keys are an error.
    pub fn from_json(line: &str) -> Result<Self, TraceParseError> {
        let fields = parse_flat_object(line)?;
        let get = |k: &str| {
            fields
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v)
                .ok_or_else(|| TraceParseError(format!("missing key {k:?}")))
        };
        let num = |k: &str| -> Result<u64, TraceParseError> {
            match get(k)? {
                JsonValue::Number(n) => Ok(*n as u64),
                v => Err(TraceParseError(format!("{k}: expected number, got {v:?}"))),
            }
        };
        let float = |k: &str| -> Result<f64, TraceParseError> {
            match get(k)? {
                JsonValue::Number(n) => Ok(*n),
                v => Err(TraceParseError(format!("{k}: expected number, got {v:?}"))),
            }
        };
        let text = |k: &str| -> Result<String, TraceParseError> {
            match get(k)? {
                JsonValue::String(s) => Ok(s.clone()),
                v => Err(TraceParseError(format!("{k}: expected string, got {v:?}"))),
            }
        };
        let kind_name = text("kind")?;
        let kind = QueryKind::parse(&kind_name)
            .ok_or_else(|| TraceParseError(format!("unknown kind {kind_name:?}")))?;
        let outcome_name = text("outcome")?;
        let outcome = TraceOutcome::parse(&outcome_name)
            .ok_or_else(|| TraceParseError(format!("unknown outcome {outcome_name:?}")))?;
        let error = match fields.iter().find(|(k, _)| k == "error") {
            Some((_, JsonValue::String(s))) => Some(s.clone()),
            Some((_, v)) => {
                return Err(TraceParseError(format!("error: expected string, got {v:?}")))
            }
            None => None,
        };
        let result_hit = match get("result_hit")? {
            JsonValue::Bool(b) => *b,
            v => return Err(TraceParseError(format!("result_hit: expected bool, got {v:?}"))),
        };
        Ok(QueryTrace {
            seq: num("seq")?,
            query: text("query")?,
            kind,
            outcome,
            lo: float("lo")?,
            hi: float("hi")?,
            error,
            total_nanos: num("total_nanos")?,
            locate_nanos: num("locate_nanos")?,
            marginal_nanos: num("marginal_nanos")?,
            normalise_nanos: num("normalise_nanos")?,
            result_hit,
            layers_hits: num("layers_hits")?,
            layers_misses: num("layers_misses")?,
            link_hits: num("link_hits")?,
            link_misses: num("link_misses")?,
            opf_entries: num("opf_entries")?,
            budget_steps: num("budget_steps")?,
            budget_polls: num("budget_polls")?,
        })
    }
}

/// A malformed trace line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceParseError(String);

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace parse error: {}", self.0)
    }
}

impl std::error::Error for TraceParseError {}

fn push_field(s: &mut String, key: &str, raw: &str) {
    s.push('"');
    s.push_str(key);
    s.push_str("\":");
    s.push_str(raw);
}

fn push_str_field(s: &mut String, key: &str, value: &str) {
    s.push('"');
    s.push_str(key);
    s.push_str("\":\"");
    for c in value.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                s.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

/// Values the flat-object parser understands.
#[derive(Clone, Debug, PartialEq)]
enum JsonValue {
    String(String),
    Number(f64),
    Bool(bool),
}

/// Parses a single-level JSON object (`{"k": v, ...}` with string,
/// number and boolean values) — exactly the shape `to_json` emits.
fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonValue)>, TraceParseError> {
    let mut p = Parser { bytes: line.as_bytes(), at: 0 };
    p.skip_ws();
    p.expect(b'{')?;
    let mut fields = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.expect(b'}')?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(TraceParseError("trailing bytes after object".into()));
        }
        return Ok(fields);
    }
    loop {
        p.skip_ws();
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        let value = p.value()?;
        fields.push((key, value));
        p.skip_ws();
        match p.next() {
            Some(b',') => continue,
            Some(b'}') => break,
            other => return Err(TraceParseError(format!("expected ',' or '}}', got {other:?}"))),
        }
    }
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(TraceParseError("trailing bytes after object".into()));
    }
    Ok(fields)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.at += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), TraceParseError> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(TraceParseError(format!(
                "expected {:?}, got {other:?}",
                want as char
            ))),
        }
    }

    fn string(&mut self) -> Result<String, TraceParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err(TraceParseError("unterminated string".into())),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .next()
                                .and_then(|b| (b as char).to_digit(16))
                                .ok_or_else(|| TraceParseError("bad \\u escape".into()))?;
                            code = code * 16 + d;
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| TraceParseError("bad \\u code point".into()))?,
                        );
                    }
                    other => {
                        return Err(TraceParseError(format!("bad escape {other:?}")));
                    }
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-decode the UTF-8 sequence starting at `b`.
                    let start = self.at - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| TraceParseError("truncated UTF-8".into()))?;
                    let s = std::str::from_utf8(chunk)
                        .map_err(|_| TraceParseError("invalid UTF-8".into()))?;
                    out.push_str(s);
                    self.at = end;
                }
            }
        }
    }

    fn value(&mut self) -> Result<JsonValue, TraceParseError> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true").map(|_| JsonValue::Bool(true)),
            Some(b'f') => self.literal("false").map(|_| JsonValue::Bool(false)),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.at;
                while matches!(
                    self.peek(),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at])
                    .map_err(|_| TraceParseError("invalid number bytes".into()))?;
                text.parse::<f64>()
                    .map(JsonValue::Number)
                    .map_err(|_| TraceParseError(format!("bad number {text:?}")))
            }
            other => Err(TraceParseError(format!("unexpected value start {other:?}"))),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), TraceParseError> {
        for want in word.bytes() {
            self.expect(want)?;
        }
        Ok(())
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Bounded FIFO of the most recent [`QueryTrace`] records. Pushing past
/// capacity drops the **oldest** record and counts it, so a long-running
/// engine keeps the freshest window without unbounded memory.
#[derive(Debug)]
pub struct TraceRing {
    inner: Mutex<RingInner>,
}

#[derive(Debug)]
struct RingInner {
    buf: VecDeque<QueryTrace>,
    capacity: usize,
    dropped: u64,
}

/// Default ring capacity when tracing is enabled without an explicit
/// capacity.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

impl Default for TraceRing {
    fn default() -> Self {
        TraceRing::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceRing {
    /// A ring holding at most `capacity` records (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            inner: Mutex::new(RingInner {
                buf: VecDeque::new(),
                capacity: capacity.max(1),
                dropped: 0,
            }),
        }
    }

    /// Appends a record, evicting (and counting) the oldest when full.
    pub fn push(&self, t: QueryTrace) {
        let mut g = self.inner.lock();
        if g.buf.len() >= g.capacity {
            g.buf.pop_front();
            g.dropped += 1;
        }
        g.buf.push_back(t);
    }

    /// Removes and returns every buffered record, oldest first.
    pub fn take(&self) -> Vec<QueryTrace> {
        self.inner.lock().buf.drain(..).collect()
    }

    /// Reconfigures the capacity (clamped to ≥ 1), evicting oldest
    /// records if the buffer currently exceeds it.
    pub fn set_capacity(&self, capacity: usize) {
        let mut g = self.inner.lock();
        g.capacity = capacity.max(1);
        while g.buf.len() > g.capacity {
            g.buf.pop_front();
            g.dropped += 1;
        }
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Buffered record count.
    pub fn len(&self) -> usize {
        self.inner.lock().buf.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seq: u64) -> QueryTrace {
        QueryTrace {
            seq,
            query: "POINT T2 IN R.book.title".into(),
            kind: QueryKind::Point,
            outcome: TraceOutcome::Exact,
            lo: 0.8,
            hi: 0.8,
            error: None,
            total_nanos: 1234,
            locate_nanos: 100,
            marginal_nanos: 900,
            normalise_nanos: 34,
            result_hit: false,
            layers_hits: 1,
            layers_misses: 0,
            link_hits: 0,
            link_misses: 0,
            opf_entries: 12,
            budget_steps: 0,
            budget_polls: 0,
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let t = sample(7);
        let line = t.to_json();
        assert_eq!(QueryTrace::from_json(&line).unwrap(), t);
    }

    #[test]
    fn json_round_trips_error_and_escapes() {
        let mut t = sample(0);
        t.outcome = TraceOutcome::Exhausted;
        t.error = Some("steps budget exhausted (5 spent, limit 4)\n\"quoted\"\\x".into());
        t.query = "CHAIN r.\"weird name\".ø".into();
        t.lo = 0.0;
        t.hi = 1.0;
        let line = t.to_json();
        assert_eq!(QueryTrace::from_json(&line).unwrap(), t);
    }

    #[test]
    fn json_round_trips_awkward_floats() {
        for v in [0.0, 1.0, 0.125, 1e-30, 0.1 + 0.2, f64::MIN_POSITIVE] {
            let mut t = sample(1);
            t.lo = v;
            t.hi = v;
            let back = QueryTrace::from_json(&t.to_json()).unwrap();
            assert_eq!(back.lo.to_bits(), v.to_bits(), "value {v:?}");
        }
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "{\"seq\":}",
            "not json at all",
            "{\"seq\":1} trailing",
            "{\"seq\":1,\"query\":\"unterminated}",
        ] {
            assert!(QueryTrace::from_json(bad).is_err(), "{bad:?}");
        }
        // Well-formed JSON but missing required keys.
        assert!(QueryTrace::from_json("{\"seq\":1}").is_err());
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let ring = TraceRing::new(2);
        for i in 0..5 {
            ring.push(sample(i));
        }
        assert_eq!(ring.dropped(), 3);
        let kept = ring.take();
        assert_eq!(kept.iter().map(|t| t.seq).collect::<Vec<_>>(), vec![3, 4]);
        assert!(ring.is_empty());
    }

    #[test]
    fn ring_capacity_shrink_evicts_oldest() {
        let ring = TraceRing::new(8);
        for i in 0..4 {
            ring.push(sample(i));
        }
        ring.set_capacity(2);
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.take().first().map(|t| t.seq), Some(2));
    }
}
