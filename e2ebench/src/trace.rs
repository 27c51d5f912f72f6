//! The traced run's in-process half: matching the daemon's
//! `--trace-json` records to the client samples, and replaying the same
//! requests through the public calls `dispatch` makes, with a span
//! around each call.
//!
//! Spans live in memory and are written as JSONL once the run is over.
//! Two spans are measured on a shadow copy after the request, because
//! the engine makes those calls internally: `core.mutate` times
//! `ProbInstance::apply` and `core.arena` times
//! `ArenaInstance::lower_unchecked`. Both are children of the
//! `query.mutation` span of the same op, so its self time is what the
//! engine spends beyond applying and re-lowering (cache invalidation and
//! dirty-set propagation).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use pxml_cli::protocol::{encode_response, parse_request, Request, Status};
use pxml_cli::translate_query;
use pxml_core::{ArenaInstance, Budget, ProbInstance};
use pxml_query::QueryEngine;
use pxml_storage::Wal;

use crate::drive::Pass;
use crate::report::json_str;
use crate::workload::{Workload, INSTANCE};

/// One timed interval. `parent` is 0 for a request's root span.
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub req: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub const REQUEST: &str = "request";
pub const PARSE: &str = "cli.protocol.parse_request";
pub const ENCODE: &str = "cli.protocol.encode_response";
pub const TRANSLATE: &str = "ql.translate_query";
pub const RUN: &str = "query.engine.run";
pub const WAL_APPEND: &str = "storage.wal.append";
pub const MUTATION: &str = "query.mutation.apply_mutation_governed";
pub const CORE_APPLY: &str = "core.mutate.apply";
pub const LOWER: &str = "core.arena.lower_unchecked";

/// Per replayed request: what the engine's counters say it did.
#[derive(Clone, Copy, Default)]
pub struct ReqInfo {
    pub mutate: bool,
    /// Query answered from the whole-result cache.
    pub hit: bool,
    pub opf_entries: u64,
    pub dirty: usize,
    pub affected: usize,
    pub invalidated: u64,
}

/// The in-process pipeline with its spans.
pub struct Replayer {
    pub engine: QueryEngine,
    shadow: ProbInstance,
    pub wal: Wal,
    epoch: Instant,
    pub spans: Vec<Span>,
    pub reqs: Vec<ReqInfo>,
    /// Bytes of op text handed to `Wal::append`.
    pub op_text_bytes: u64,
}

impl Replayer {
    pub fn new(pi: ProbInstance, crc: u32, max_cache_bytes: Option<u64>, wal_dir: &Path) -> Result<Self, String> {
        let shadow = pi.clone();
        let engine = QueryEngine::new(pi);
        if let Some(n) = max_cache_bytes {
            engine.set_max_cache_bytes(n);
        }
        let _ = std::fs::remove_dir_all(wal_dir);
        let (wal, _, _) = Wal::attach(wal_dir, INSTANCE, crc, pxml_storage::FsyncPolicy::Always)
            .map_err(|e| format!("replay wal: {e}"))?;
        Ok(Replayer {
            engine,
            shadow,
            wal,
            epoch: Instant::now(),
            spans: Vec::new(),
            reqs: Vec::new(),
            op_text_bytes: 0,
        })
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn close(&mut self, id: u32, parent: u32, name: &'static str, start_ns: u64) {
        let end_ns = self.now();
        let req = self.reqs.len() as u32;
        self.spans.push(Span { id, parent, req, name, start_ns, end_ns });
    }

    /// Times `f` as a span named `name` under `parent`.
    fn span<T>(&mut self, name: &'static str, parent: u32, id: u32, f: impl FnOnce(&mut Self) -> T) -> T {
        let start = self.now();
        let out = f(self);
        self.close(id, parent, name, start);
        out
    }

    /// Replays one request as `dispatch` serves it; returns the reply.
    pub fn replay(&mut self, req: &Request, ids: &mut u32) -> Result<(Status, String), String> {
        let payload = req.render();
        let before = self.engine.stats();
        let mut info = ReqInfo::default();
        let root = fresh(ids);
        let start = self.now();
        let parsed = self.span(PARSE, root, fresh(ids), |_| parse_request(&payload))?;
        let (status, body, applied) = match parsed {
            Request::Query { query, .. } => {
                let q = self.span(TRANSLATE, root, fresh(ids), |r| translate_query(r.engine.instance(), &query))?;
                let p = self.span(RUN, root, fresh(ids), |r| r.engine.run(&q)).map_err(|e| e.to_string())?;
                (Status::Ok, format!("{p:.6}"), Vec::new())
            }
            Request::Mutate { ops, .. } => {
                info.mutate = true;
                let parsed = pxml_core::parse_ops(self.engine.instance(), &ops).map_err(|e| e.to_string())?;
                let budget = Budget::unlimited();
                let mut applied = Vec::with_capacity(parsed.len());
                for op in &parsed {
                    let text = pxml_core::render_ops(self.engine.instance(), std::slice::from_ref(op));
                    self.op_text_bytes += text.len() as u64;
                    self.span(WAL_APPEND, root, fresh(ids), |r| r.wal.append(&text)).map_err(|e| e.to_string())?;
                    let id = fresh(ids);
                    let outcome = self
                        .span(MUTATION, root, id, |r| r.engine.apply_mutation_governed(op, &budget))
                        .map_err(|e| e.to_string())?;
                    info.dirty += outcome.effect.dirty.len();
                    info.affected += outcome.affected;
                    info.invalidated += outcome.invalidated.total();
                    applied.push((op.clone(), id));
                }
                let body = format!(
                    "applied {} ops ({} dirty objects, {} cache entries evicted)",
                    parsed.len(),
                    info.dirty,
                    info.invalidated
                );
                (Status::Ok, body, applied)
            }
            other => return Err(format!("unexpected request in a stream: {other:?}")),
        };
        let encoded = self.span(ENCODE, root, fresh(ids), |_| encode_response(status, &body));
        std::hint::black_box(&encoded);
        self.close(root, 0, REQUEST, start);
        let after = self.engine.stats();
        info.hit = after.result_hits > before.result_hits;
        info.opf_entries = after.opf_entries_visited - before.opf_entries_visited;
        // The shadow copy repeats each op's apply and re-lowering alone.
        for (op, parent) in applied {
            self.span(CORE_APPLY, parent, fresh(ids), |r| r.shadow.apply(&op)).map_err(|e| e.to_string())?;
            let arena = self.span(LOWER, parent, fresh(ids), |r| ArenaInstance::lower_unchecked(&r.shadow));
            std::hint::black_box(arena);
        }
        self.reqs.push(info);
        Ok((status, body))
    }

    /// The instance as the replay engine now holds it.
    pub fn snapshot(&self) -> ProbInstance {
        self.shadow.clone()
    }

    /// Writes every span as one JSON line.
    pub fn write_spans(&self, path: &Path) -> Result<(), String> {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut w = std::io::BufWriter::new(file);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.req,
                json_str(s.name),
                s.start_ns,
                s.end_ns
            )
            .map_err(|e| e.to_string())?;
        }
        w.flush().map_err(|e| e.to_string())
    }
}

fn fresh(ids: &mut u32) -> u32 {
    *ids += 1;
    *ids
}

/// Self time per span: its duration minus its children's.
pub fn self_nanos(spans: &[Span]) -> Vec<u64> {
    let base = spans.iter().map(|s| s.id).min().unwrap_or(0);
    let max = spans.iter().map(|s| s.id).max().unwrap_or(0);
    let mut children = vec![0u64; (max - base + 1) as usize];
    for s in spans {
        if s.parent >= base && s.parent != 0 {
            children[(s.parent - base) as usize] += s.nanos();
        }
    }
    spans.iter().map(|s| s.nanos().saturating_sub(children[(s.id - base) as usize])).collect()
}

/// One `--trace-json` record of a QUERY or MUTATE.
struct TraceLine<'a> {
    verb: &'a str,
    micros: f64,
    detail: &'a str,
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[at..];
    if let Some(s) = rest.strip_prefix('"') {
        let end = s.find('"')?;
        Some(&s[..end])
    } else {
        let end = rest.find([',', '}'])?;
        Some(&rest[..end])
    }
}

fn expected(req: &Request) -> (&'static str, String) {
    match req {
        Request::Query { query, .. } => ("QUERY", format!("{INSTANCE}: {query}")),
        Request::Mutate { ops, .. } => (
            "MUTATE",
            format!("{INSTANCE}: {} op line(s)", ops.lines().filter(|l| !l.trim().is_empty()).count()),
        ),
        _ => ("", String::new()),
    }
}

/// One timed request as the daemon saw it.
pub struct Matched {
    pub client: usize,
    pub idx: usize,
    pub server_us: f64,
}

/// Aligns the daemon's trace records with the clients' samples. Each
/// client's requests appear in the trace in its send order, so the
/// records are an interleaving of the clients' sequences; a record
/// that fits both clients' next request goes to the one whose reply
/// arrived first. `skip` leading QUERY/MUTATE records (the warm-up) are
/// dropped. Returns the requests in the order the daemon finished them.
pub fn match_trace(trace: &str, pass: &Pass, wl: &Workload, skip: usize) -> Result<Vec<Matched>, String> {
    let lines: Vec<TraceLine> = trace
        .lines()
        .filter_map(|l| {
            Some(TraceLine {
                verb: field(l, "verb")?,
                micros: field(l, "micros")?.parse().ok()?,
                detail: field(l, "detail")?,
            })
        })
        .filter(|t| t.verb == "QUERY" || t.verb == "MUTATE")
        .skip(skip)
        .collect();
    let mut next = vec![0usize; pass.samples.len()];
    let mut out = Vec::with_capacity(lines.len());
    for (n, t) in lines.iter().enumerate() {
        let mut pick: Option<usize> = None;
        for (c, samples) in pass.samples.iter().enumerate() {
            let Some(s) = samples.get(next[c]) else { continue };
            let (verb, detail) = expected(&wl.pool[s.entry as usize]);
            if verb == t.verb && detail == t.detail {
                let earlier = pick.is_none_or(|p| s.end_ns < pass.samples[p][next[p]].end_ns);
                if earlier {
                    pick = Some(c);
                }
            }
        }
        let c = pick.ok_or(format!("trace record {n} ({} {}) matches no client's next request", t.verb, t.detail))?;
        out.push(Matched { client: c, idx: next[c], server_us: t.micros });
        next[c] += 1;
    }
    for (c, samples) in pass.samples.iter().enumerate() {
        if next[c] != samples.len() {
            return Err(format!("client {c}: {} of {} requests found in the trace", next[c], samples.len()));
        }
    }
    Ok(out)
}
