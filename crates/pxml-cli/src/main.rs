//! `pxml` — the command-line shell.
//!
//! ```text
//! pxml <instance.pxml|instance.pxmlb> <query> [options]
//! pxml <instance> --stdin                    # one query per input line
//! pxml batch <instance> [queries.txt] [--threads N] [--stats] [--preflight]
//!           [--metrics FILE] [--trace-json FILE] [governance]
//! pxml check <instance> [--metrics FILE] [governance]  # deep coherence lint
//! pxml analyze <instance> [queries.txt] [governance]   # static pre-flight
//!
//! options:
//!   --engine auto|tree|naive    engine selection (default auto)
//!   --out <file>                write an instance result to <file>
//!                               (.pxml text or .pxmlb binary by extension)
//!
//! governance (resource limits; see the README's "Resource governance"):
//!   --timeout DUR               wall-clock deadline per query (500ms, 2s, 1m)
//!   --max-steps N               work-step ceiling per query
//!   --max-cache-bytes N         byte ceiling for the shared result cache
//!   --degrade error|interval    on exhaustion: typed error (default) or a
//!                               guaranteed-bracketing [lo, hi] answer
//! ```
//!
//! Exit codes: `0` success (degraded interval answers included), `1`
//! operational error (I/O, parse, lint errors), `2` usage error, `3` at
//! least one budget exhausted under `--degrade error`.
//!
//! Examples:
//! ```text
//! pxml fig2.pxml "POINT T2 IN R.book.title"
//! pxml fig2.pxml "SELECT R.book = B1" --out conditioned.pxml
//! pxml fig2.pxmlb "WORLDS TOP 5"
//! pxml batch fig2.pxmlb queries.txt --threads 4 --stats
//! ```
//!
//! `batch` answers one `POINT` / `EXISTS` / `CHAIN` query per input line
//! (file, or stdin when no file is given) through
//! `pxml_query::QueryEngine` — a shared marginalisation cache and
//! optional multi-threaded fan-out — printing one result per line in
//! input order. `--stats` reports the engine's cache/timing counters on
//! stderr afterwards. `--metrics FILE` writes a Prometheus text
//! exposition dump of everything the engine measures; `--trace-json
//! FILE` enables full per-query tracing and streams one JSON trace
//! record per query (phase nanos, cache provenance, budget spend) as
//! JSON lines.
//!
//! `check` loads an instance *without* model validation and runs the
//! deep coherence linter over it, printing one finding per line. Exit
//! status is 0 when no error-severity findings exist, 1 otherwise — so
//! it slots into shell pipelines and CI.
//!
//! `analyze` statically analyses a query workload against the
//! lowered instance without executing anything: per-line
//! `AQ0xx` diagnostics (unsatisfiable paths, out-of-domain literals,
//! dead branches, unknown names), work-step and memoisation bounds, and
//! — with governance flags — pre-flight budget admission (exit 3 when a
//! query is provably doomed to exhaust its budget). `batch --preflight`
//! turns the same analysis on inside the engine, short-circuiting
//! provably-zero queries and normalising equivalent plans onto shared
//! cache keys.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use pxml_cli::serve::{self, Bind, ServeConfig, Server, Target};
use pxml_cli::{load, protocol, save, translate_query};
use pxml_core::ProbInstance;
use pxml_ql::{execute, parse, Engine, Output};

/// The documented exit-code taxonomy. `Run` covers I/O, parse and lint
/// failures; `Usage` covers malformed invocations; `Exhausted` means a
/// resource budget ran out with `--degrade error` in force (the caller
/// asked for hard failure instead of interval degradation).
enum CliError {
    /// Operational failure — exit 1.
    Run(String),
    /// Malformed invocation — exit 2.
    Usage(String),
    /// Budget exhausted under `--degrade error` — exit 3.
    Exhausted(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Run(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Usage(msg.into())
    }
}

fn usage_err(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Run(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("usage error: {msg}");
            ExitCode::from(2)
        }
        Err(CliError::Exhausted(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(3)
        }
    }
}

fn real_main() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return Ok(());
    }
    if args[0] == "batch" {
        return run_batch(&args[1..]);
    }
    if args[0] == "check" {
        return run_check(&args[1..]);
    }
    if args[0] == "analyze" {
        return run_analyze(&args[1..]);
    }
    if args[0] == "mutate" {
        return run_mutate(&args[1..]);
    }
    if args[0] == "serve" {
        return run_serve(&args[1..]);
    }
    if args[0] == "request" {
        return run_request(&args[1..]);
    }
    let mut instance_path: Option<PathBuf> = None;
    let mut query: Option<String> = None;
    let mut engine = Engine::Auto;
    let mut out: Option<PathBuf> = None;
    let mut use_stdin = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--engine" => {
                i += 1;
                engine = match args.get(i).map(String::as_str) {
                    Some("auto") => Engine::Auto,
                    Some("tree") => Engine::Tree,
                    Some("naive") => Engine::Naive,
                    other => return Err(usage_err(format!("unknown engine {other:?}"))),
                };
            }
            "--out" => {
                i += 1;
                out = Some(PathBuf::from(
                    args.get(i).ok_or("--out needs a file path")?,
                ));
            }
            "--stdin" => use_stdin = true,
            arg if instance_path.is_none() => instance_path = Some(PathBuf::from(arg)),
            arg if query.is_none() => query = Some(arg.to_string()),
            arg => return Err(usage_err(format!("unexpected argument {arg:?}"))),
        }
        i += 1;
    }
    let instance_path = instance_path.ok_or("missing instance file")?;
    let pi = load(&instance_path)?;

    if use_stdin {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let line = line.map_err(|e| e.to_string())?;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match run_one(&pi, line, engine, out.as_deref()) {
                Ok(()) => {}
                Err(msg) => eprintln!("error: {msg}"),
            }
        }
        return Ok(());
    }
    let query = query.ok_or("missing query (or pass --stdin)")?;
    run_one(&pi, &query, engine, out.as_deref())?;
    Ok(())
}

fn run_one(
    pi: &ProbInstance,
    query: &str,
    engine: Engine,
    out: Option<&Path>,
) -> Result<(), String> {
    let q = parse(query).map_err(|e| e.to_string())?;
    let output = execute(pi, &q, engine).map_err(|e| e.to_string())?;
    match (&output, out) {
        (Output::Instance(result), Some(path)) => {
            save(result, path)?;
            println!("wrote {} objects to {}", result.object_count(), path.display());
        }
        (Output::Selected { instance, selectivity }, Some(path)) => {
            save(instance, path)?;
            println!(
                "selectivity {selectivity:.6}; wrote {} objects to {}",
                instance.object_count(),
                path.display()
            );
        }
        _ => println!("{}", output.render()),
    }
    Ok(())
}

/// `pxml batch <instance> [queries.txt] [--threads N] [--stats]
/// [--timeout DUR] [--max-steps N] [--max-cache-bytes N] [--degrade P]`.
///
/// Queries come one per line (blank lines and `#` comments skipped) from
/// the file, or from stdin when no file is given. Only the probability
/// queries the batch engine supports are accepted: `POINT`, `EXISTS`,
/// `CHAIN`. Results print to stdout in input order — `{p:.6}` on
/// success, `[lo, hi]` for a budget-degraded interval answer under
/// `--degrade interval`, `error: …` for a per-query failure (which does
/// not abort the rest of the batch). With `--degrade error` (the
/// default when a budget flag is given) any exhausted query makes the
/// whole run exit 3 after all answers have printed, so one pathological
/// query degrades or fails *that query* without stalling the fleet.
fn run_batch(args: &[String]) -> Result<(), CliError> {
    let mut instance_path: Option<PathBuf> = None;
    let mut queries_path: Option<PathBuf> = None;
    let mut threads: Option<usize> = None;
    let mut show_stats = false;
    let mut metrics_path: Option<PathBuf> = None;
    let mut trace_json_path: Option<PathBuf> = None;
    let mut preflight = false;
    let mut gov = GovernanceArgs::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                i += 1;
                let n = args.get(i).ok_or("--threads needs a count")?;
                threads =
                    Some(n.parse().map_err(|_| usage_err(format!("bad thread count {n:?}")))?);
            }
            "--stats" => show_stats = true,
            "--preflight" => preflight = true,
            "--metrics" => {
                i += 1;
                metrics_path =
                    Some(PathBuf::from(args.get(i).ok_or("--metrics needs a file path")?));
            }
            "--trace-json" => {
                i += 1;
                trace_json_path =
                    Some(PathBuf::from(args.get(i).ok_or("--trace-json needs a file path")?));
            }
            "--timeout" => {
                i += 1;
                gov.timeout =
                    Some(parse_duration(args.get(i).ok_or("--timeout needs a duration")?)?);
            }
            "--max-steps" => {
                i += 1;
                gov.max_steps = Some(parse_count(args.get(i), "--max-steps")?);
            }
            "--max-cache-bytes" => {
                i += 1;
                gov.max_cache_bytes = Some(parse_count(args.get(i), "--max-cache-bytes")?);
            }
            "--degrade" => {
                i += 1;
                gov.degrade = Some(parse_degrade(args.get(i))?);
            }
            arg if instance_path.is_none() => instance_path = Some(PathBuf::from(arg)),
            arg if queries_path.is_none() => queries_path = Some(PathBuf::from(arg)),
            arg => return Err(usage_err(format!("unexpected argument {arg:?}"))),
        }
        i += 1;
    }
    let instance_path = instance_path.ok_or("missing instance file")?;
    let pi = load(&instance_path)?;

    let text = match &queries_path {
        Some(p) => std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display())),
        None => {
            let mut buf = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin().lock(), &mut buf)
                .map_err(|e| e.to_string())?;
            Ok(buf)
        }
    }?;
    let lines: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();

    // Translate each line; per-line failures keep their slot so output
    // order matches input order.
    let mut translated: Vec<Result<pxml_query::Query, String>> = Vec::with_capacity(lines.len());
    for line in &lines {
        translated.push(translate_query(&pi, line));
    }
    let batch: Vec<pxml_query::Query> =
        translated.iter().filter_map(|t| t.as_ref().ok()).cloned().collect();

    let engine = match threads {
        Some(n) => pxml_query::QueryEngine::with_threads(pi, n),
        None => pxml_query::QueryEngine::new(pi),
    };
    if let Some(bytes) = gov.max_cache_bytes {
        engine.set_max_cache_bytes(bytes);
    }
    if preflight {
        engine.set_preflight(true);
    }
    // Tracing level follows what was asked for: full records for
    // --trace-json, histogram timing for --metrics alone, off otherwise.
    if trace_json_path.is_some() {
        engine.set_trace_mode(pxml_query::TraceMode::Full);
        engine.set_trace_capacity(batch.len().max(1));
    } else if metrics_path.is_some() {
        engine.set_trace_mode(pxml_query::TraceMode::Timing);
    }

    // Governed and ungoverned runs print through one uniform Answer
    // stream; an ungoverned probability is just an exact answer.
    let answers: Vec<Result<pxml_query::Answer, pxml_query::QueryError>> = if gov.is_governed() {
        engine.run_batch_governed(&batch, &gov.spec())
    } else {
        engine
            .run_batch(&batch)
            .into_iter()
            .map(|r| r.map(pxml_query::Answer::Exact))
            .collect()
    };

    let mut exhausted = 0usize;
    let mut next_answer = answers.into_iter();
    for t in &translated {
        match t {
            Ok(_) => match next_answer.next() {
                Some(Ok(pxml_query::Answer::Exact(p))) => println!("{p:.6}"),
                Some(Ok(pxml_query::Answer::Interval(iv))) => {
                    println!("[{:.6}, {:.6}]", iv.lo, iv.hi)
                }
                Some(Err(e)) => {
                    if e.exhaustion().is_some() {
                        exhausted += 1;
                    }
                    println!("error: {e}")
                }
                None => {
                    return Err(CliError::Run(
                        "engine returned fewer answers than queries".into(),
                    ))
                }
            },
            Err(msg) => println!("error: {msg}"),
        }
    }
    if show_stats {
        eprintln!("{}", engine.stats());
    }
    if let Some(path) = &trace_json_path {
        let traces = engine.take_traces();
        let mut out = String::with_capacity(traces.len() * 256);
        for t in &traces {
            out.push_str(&t.to_json());
            out.push('\n');
        }
        write_file(path, &out)?;
    }
    if let Some(path) = &metrics_path {
        let mut reg = pxml_query::MetricsRegistry::new();
        engine.export_metrics(&mut reg);
        add_process_metrics(&mut reg);
        write_file(path, reg.render())?;
    }
    if exhausted > 0 {
        return Err(CliError::Exhausted(format!(
            "{exhausted} of {} queries exhausted their budget (rerun with --degrade interval for bracketing answers)",
            translated.len()
        )));
    }
    Ok(())
}

/// `pxml analyze <instance> [queries.txt] [governance]`.
///
/// Static analysis only — nothing is executed. Each input line (file, or
/// stdin when no file is given; blank lines and `#` comments skipped) is
/// parsed, name-resolved and checked against the instance, lowered once
/// to the arena the engine evaluates over, printing one line per
/// finding with its stable `AQ0xx` code.
/// For the probability queries (`POINT` / `EXISTS` / `CHAIN`) the
/// engine pre-flight also reports a work-step bound, a memoisation-byte
/// bound and a probability ceiling.
///
/// `pxml mutate <instance> <ops-file> [--out FILE] [--stats] [--audit]
/// [--metrics FILE]`.
///
/// Applies the ops file (one mutation per line, `#` comments) through a
/// [`pxml_query::QueryEngine`] with dirty-set cache invalidation.
/// `--audit` first warms the cache (see [`warm_for_audit`]), then
/// recomputes every retained entry after each op. The whole file
/// is **atomic at the file level**: the instance is written back (to
/// `--out`, or in place) only after every op applied cleanly, so a
/// failing op leaves the stored instance untouched.
///
/// Exit taxonomy: syntactically malformed ops (unknown keyword, bad
/// arity, unresolvable name — `CoreError::BadOps`) are usage errors
/// (exit 2); ops that parse but fail to apply (cardinality violation,
/// cycle, degenerate renormalisation) are operational errors (exit 1).
fn run_mutate(args: &[String]) -> Result<(), CliError> {
    let mut instance_path: Option<PathBuf> = None;
    let mut ops_path: Option<PathBuf> = None;
    let mut out_path: Option<PathBuf> = None;
    let mut metrics_path: Option<PathBuf> = None;
    let mut show_stats = false;
    let mut audit = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = Some(PathBuf::from(args.get(i).ok_or("--out needs a file path")?));
            }
            "--metrics" => {
                i += 1;
                metrics_path =
                    Some(PathBuf::from(args.get(i).ok_or("--metrics needs a file path")?));
            }
            "--stats" => show_stats = true,
            "--audit" => audit = true,
            arg if instance_path.is_none() => instance_path = Some(PathBuf::from(arg)),
            arg if ops_path.is_none() => ops_path = Some(PathBuf::from(arg)),
            arg => return Err(usage_err(format!("unexpected argument {arg:?}"))),
        }
        i += 1;
    }
    let instance_path = instance_path.ok_or("missing instance file")?;
    let ops_path = ops_path.ok_or("missing ops file")?;
    let pi = load(&instance_path)?;
    let text = std::fs::read_to_string(&ops_path)
        .map_err(|e| CliError::Run(format!("{}: {e}", ops_path.display())))?;
    let ops = pxml_core::parse_ops(&pi, &text).map_err(|e| usage_err(e.to_string()))?;

    let mut engine = pxml_query::QueryEngine::with_threads(pi, 1);
    if audit {
        warm_for_audit(&engine);
    }
    let mut dirty_total = 0usize;
    let mut invalidated_total = 0u64;
    for (idx, op) in ops.iter().enumerate() {
        let outcome = engine
            .apply_mutation(op)
            .map_err(|e| CliError::Run(format!("op {} failed: {e}", idx + 1)))?;
        dirty_total += outcome.effect.dirty.len();
        invalidated_total += outcome.invalidated.total();
        if audit {
            let findings = engine.audit_cache();
            if !findings.is_empty() {
                return Err(CliError::Run(format!(
                    "cache audit failed after op {}: {}",
                    idx + 1,
                    findings.join("; ")
                )));
            }
        }
    }
    if show_stats {
        eprintln!("{}", engine.stats());
    }
    if let Some(path) = &metrics_path {
        let mut reg = pxml_query::MetricsRegistry::new();
        engine.export_metrics(&mut reg);
        add_process_metrics(&mut reg);
        write_file(path, reg.render())?;
    }
    let pi = engine.into_instance();
    let target = out_path.as_deref().unwrap_or(&instance_path);
    save(&pi, target)?;
    println!(
        "applied {} ops ({dirty_total} dirty objects, {invalidated_total} cache entries evicted) -> {}",
        ops.len(),
        target.display()
    );
    Ok(())
}

/// Depth and count of the instance's label paths
/// ([`pxml_core::ArenaInstance::label_paths`]) that `mutate --audit`
/// answers before its first op.
const AUDIT_WARM_DEPTH: usize = 8;
const AUDIT_WARM_PATHS: usize = 256;

/// Fills the cache that `mutate --audit` checks: EXISTS, plus POINT at
/// the first located object, over each label path of the instance.
/// Without it the command never runs a query, so every audit
/// would check an empty cache and every op would evict nothing. A
/// query that fails here caches nothing and is skipped.
fn warm_for_audit(engine: &pxml_query::QueryEngine) {
    let pi = engine.instance();
    for labels in engine.arena().label_paths(AUDIT_WARM_DEPTH, AUDIT_WARM_PATHS) {
        let path = pxml_algebra::PathExpr::new(pi.root(), labels);
        if let Some(&o) = pxml_algebra::locate_weak(pi, &path).first() {
            let _ = engine.run(&pxml_query::Query::point(path.clone(), o));
        }
        let _ = engine.run(&pxml_query::Query::exists(path));
    }
}

/// With governance flags the predicted cost is held against the budget:
/// a query whose *exact* step count provably exceeds `--max-steps`
/// under `--degrade error` is reported as `AQ006 budget-rejected` and
/// the whole run exits 3, so a fleet operator learns about a doomed
/// batch before spending anything on it.
fn run_analyze(args: &[String]) -> Result<(), CliError> {
    let mut instance_path: Option<PathBuf> = None;
    let mut queries_path: Option<PathBuf> = None;
    let mut gov = GovernanceArgs::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--timeout" => {
                i += 1;
                gov.timeout =
                    Some(parse_duration(args.get(i).ok_or("--timeout needs a duration")?)?);
            }
            "--max-steps" => {
                i += 1;
                gov.max_steps = Some(parse_count(args.get(i), "--max-steps")?);
            }
            "--max-cache-bytes" => {
                i += 1;
                gov.max_cache_bytes = Some(parse_count(args.get(i), "--max-cache-bytes")?);
            }
            "--degrade" => {
                i += 1;
                gov.degrade = Some(parse_degrade(args.get(i))?);
            }
            arg if instance_path.is_none() => instance_path = Some(PathBuf::from(arg)),
            arg if queries_path.is_none() => queries_path = Some(PathBuf::from(arg)),
            arg => return Err(usage_err(format!("unexpected argument {arg:?}"))),
        }
        i += 1;
    }
    let instance_path = instance_path.ok_or("missing instance file")?;
    let pi = load(&instance_path)?;
    let text = match &queries_path {
        Some(p) => std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display())),
        None => {
            let mut buf = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin().lock(), &mut buf)
                .map_err(|e| e.to_string())?;
            Ok(buf)
        }
    }?;
    let lines: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();

    let arena = pxml_core::ArenaInstance::lower_unchecked(&pi);
    let spec = gov.spec();
    let mut clean = 0usize;
    let mut rejected = 0usize;
    for (n, line) in lines.iter().enumerate() {
        let a = pxml_ql::analyze_text(&pi, &arena, line);
        let mut flagged = false;
        for d in &a.diagnostics {
            println!("line {}: {d}", n + 1);
            flagged = true;
        }
        if let Some(r) = &a.report {
            if gov.is_governed() {
                if let Some(ex) = r.predicted_exhaustion(&spec) {
                    println!(
                        "line {}: AQ006 budget-rejected: predicted {} steps exceed the \
                         {}-step budget",
                        n + 1,
                        ex.spent,
                        ex.limit
                    );
                    rejected += 1;
                    flagged = true;
                }
            }
            if let Some(limit) = gov.max_cache_bytes {
                if r.cost.memo_bytes > limit {
                    println!(
                        "line {}: note: predicted memoisation {} B exceeds the {limit} B \
                         cache ceiling; expect evictions, not errors",
                        n + 1,
                        r.cost.memo_bytes
                    );
                }
            }
        }
        if !flagged {
            clean += 1;
            match &a.report {
                Some(r) => println!(
                    "line {}: clean (steps <= {}{}, memo <= {} B, p <= {:.6})",
                    n + 1,
                    r.cost.steps,
                    if r.cost.exact_steps { ", exact" } else { "" },
                    r.cost.memo_bytes,
                    r.upper_bound
                ),
                None => println!("line {}: clean", n + 1),
            }
        }
    }
    println!(
        "analyzed {} queries: {clean} clean, {} flagged, {rejected} budget-rejected",
        lines.len(),
        lines.len() - clean
    );
    if rejected > 0 {
        return Err(CliError::Exhausted(format!(
            "{rejected} of {} queries would exhaust their budget; nothing was executed",
            lines.len()
        )));
    }
    Ok(())
}

/// Governance flags shared by `batch` and `check`.
#[derive(Default)]
struct GovernanceArgs {
    timeout: Option<std::time::Duration>,
    max_steps: Option<u64>,
    max_cache_bytes: Option<u64>,
    degrade: Option<pxml_query::DegradePolicy>,
}

impl GovernanceArgs {
    /// True when any per-query budget is in force. `--max-cache-bytes`
    /// alone does not switch to the governed path — it caps the shared
    /// cache, which the ungoverned engine honours too.
    fn is_governed(&self) -> bool {
        self.timeout.is_some() || self.max_steps.is_some() || self.degrade.is_some()
    }

    fn spec(&self) -> pxml_query::BudgetSpec {
        pxml_query::BudgetSpec {
            max_steps: self.max_steps,
            timeout: self.timeout,
            cancel: None,
            degrade: self.degrade.unwrap_or_default(),
        }
    }

    /// The per-run budget for non-engine paths (`check`'s linter).
    fn budget(&self) -> pxml_query::Budget {
        let mut b = pxml_query::Budget::unlimited();
        if let Some(n) = self.max_steps {
            b = b.with_max_steps(n);
        }
        if let Some(t) = self.timeout {
            b = b.with_timeout(t);
        }
        b
    }
}

/// Parses `500ms` / `2s` / `1m` into a duration. A bare number is
/// rejected so nobody guesses the unit wrong silently.
fn parse_duration(s: &str) -> Result<std::time::Duration, CliError> {
    let (digits, unit_ms) = if let Some(d) = s.strip_suffix("ms") {
        (d, 1u64)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1000)
    } else if let Some(d) = s.strip_suffix('m') {
        (d, 60_000)
    } else {
        return Err(usage_err(format!("duration {s:?} needs a unit: ms, s or m")));
    };
    let n: u64 =
        digits.parse().map_err(|_| usage_err(format!("bad duration {s:?}")))?;
    n.checked_mul(unit_ms)
        .map(std::time::Duration::from_millis)
        .ok_or_else(|| usage_err(format!("duration {s:?} overflows")))
}

fn parse_count(arg: Option<&String>, flag: &str) -> Result<u64, CliError> {
    let n = arg.ok_or_else(|| usage_err(format!("{flag} needs a number")))?;
    n.parse().map_err(|_| usage_err(format!("bad {flag} value {n:?}")))
}

fn parse_degrade(arg: Option<&String>) -> Result<pxml_query::DegradePolicy, CliError> {
    match arg.map(String::as_str) {
        Some("error") => Ok(pxml_query::DegradePolicy::Error),
        Some("interval") => Ok(pxml_query::DegradePolicy::Interval),
        other => Err(usage_err(format!("--degrade wants error|interval, got {other:?}"))),
    }
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

/// Process-level metric families shared by `batch --metrics` and
/// `check --metrics`.
fn add_process_metrics(reg: &mut pxml_query::MetricsRegistry) {
    reg.counter(
        "pxml_storage_crc_verifications_total",
        "Binary-file CRC-32 footer verifications performed by this process.",
        pxml_storage::crc_verifications(),
    );
}

/// `pxml check <instance> [--metrics FILE] [--timeout DUR] [--max-steps N]
/// [--degrade P]`.
///
/// Loads the instance leniently — structural decoding only, skipping the
/// model validation that `load` performs; for `.pxmlb` files even a CRC
/// mismatch is tolerated and reported as an error-severity finding — and
/// runs the deep coherence linter from `pxml_core::lint`. Every finding
/// prints on its own line; a summary line follows. Error-severity
/// findings make the whole run fail so scripts can gate on the exit
/// status.
///
/// The governance flags bound the linter itself (a hostile `.pxmlb` can
/// carry enormous OPF tables): on exhaustion, `--degrade interval`
/// reports the findings gathered so far plus an `incomplete` warning and
/// keeps exit status 0 (absent real errors), while the default
/// `--degrade error` exits 3.
fn run_check(args: &[String]) -> Result<(), CliError> {
    let mut instance_path: Option<PathBuf> = None;
    let mut metrics_path: Option<PathBuf> = None;
    let mut gov = GovernanceArgs::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--metrics" => {
                i += 1;
                metrics_path =
                    Some(PathBuf::from(args.get(i).ok_or("--metrics needs a file path")?));
            }
            "--timeout" => {
                i += 1;
                gov.timeout =
                    Some(parse_duration(args.get(i).ok_or("--timeout needs a duration")?)?);
            }
            "--max-steps" => {
                i += 1;
                gov.max_steps = Some(parse_count(args.get(i), "--max-steps")?);
            }
            "--degrade" => {
                i += 1;
                gov.degrade = Some(parse_degrade(args.get(i))?);
            }
            arg if instance_path.is_none() => instance_path = Some(PathBuf::from(arg)),
            arg => return Err(usage_err(format!("unexpected argument {arg:?}"))),
        }
        i += 1;
    }
    let path = instance_path.ok_or("missing instance file")?;
    let (pi, corruption) = load_for_check(&path)?;

    let lint_started = std::time::Instant::now();
    let outcome = pxml_core::lint_governed(&pi, &gov.budget());
    let lint_elapsed = lint_started.elapsed();
    let mut errors = 0usize;
    if let Some(mm) = &corruption {
        println!(
            "error[corrupt-file]: checksum mismatch (footer {:#010x}, payload {:#010x}) — findings below describe the damaged bytes",
            mm.expected, mm.actual
        );
        errors += 1;
    }
    for f in &outcome.findings {
        println!("{}", f.render(pi.catalog()));
    }
    errors += outcome
        .findings
        .iter()
        .filter(|f| f.severity() == pxml_core::Severity::Error)
        .count();
    let warnings = outcome.findings.len() + usize::from(corruption.is_some()) - errors;

    // Written before exhaustion handling so the dump exists on every
    // exit path, including `--degrade error` → status 3.
    if let Some(mpath) = &metrics_path {
        let mut reg = pxml_query::MetricsRegistry::new();
        reg.counter_f64(
            "pxml_lint_duration_seconds",
            "Wall-clock time the deep coherence lint pass took.",
            lint_elapsed.as_secs_f64(),
        );
        reg.counter_vec(
            "pxml_lint_findings",
            "Lint findings by severity (including file corruption).",
            &[
                ("severity=\"error\"", errors as u64),
                ("severity=\"warning\"", warnings as u64),
            ],
        );
        reg.gauge(
            "pxml_lint_complete",
            "1 when the lint pass ran to completion, 0 when the budget exhausted first.",
            if outcome.exhausted.is_some() { 0.0 } else { 1.0 },
        );
        add_process_metrics(&mut reg);
        write_file(mpath, reg.render())?;
    }

    if let Some(ex) = outcome.exhausted {
        match gov.degrade.unwrap_or_default() {
            pxml_query::DegradePolicy::Interval => {
                println!("warning: lint incomplete — {ex}; findings above are a prefix");
            }
            pxml_query::DegradePolicy::Error => {
                return Err(CliError::Exhausted(format!(
                    "{}: lint stopped early: {ex} (rerun with --degrade interval for partial findings)",
                    path.display()
                )));
            }
        }
    }
    if errors == 0 {
        match warnings {
            0 => println!("{}: ok ({} objects)", path.display(), pi.object_count()),
            n => println!(
                "{}: ok with {n} warning(s) ({} objects)",
                path.display(),
                pi.object_count()
            ),
        }
        Ok(())
    } else {
        Err(CliError::Run(format!(
            "{}: {errors} error(s), {warnings} warning(s)",
            path.display()
        )))
    }
}

/// Lenient loader for `check`: structural decode only, so the linter can
/// report model-level violations that the strict loaders would reject.
/// Binary files additionally tolerate a CRC footer mismatch, which is
/// returned for `check` to report as a finding instead of refusing.
fn load_for_check(
    path: &Path,
) -> Result<(ProbInstance, Option<pxml_storage::ChecksumMismatch>), String> {
    let is_binary = path.extension().is_some_and(|e| e == "pxmlb");
    if is_binary {
        let lenient = pxml_storage::read_binary_file_lenient(path).map_err(|e| e.to_string())?;
        Ok((lenient.instance, lenient.checksum_mismatch))
    } else {
        let pi = pxml_storage::read_text_file_unchecked(path).map_err(|e| e.to_string())?;
        Ok((pi, None))
    }
}

/// `pxml serve <instance>... (--port N | --socket PATH) [--max-cache-bytes N]
/// [--preflight] [--timeout DUR] [--max-steps N] [--degrade P]
/// [--trace-json FILE]`.
///
/// Loads every instance into a registry (named by file stem) and
/// answers the length-prefixed wire protocol until SIGTERM/SIGINT or a
/// `SHUTDOWN` request, then drains in-flight requests and exits 0.
/// `GET /metrics` and `GET /healthz` over plain HTTP are answered on
/// the same listener. The governance flags set per-request *defaults*;
/// requests may override them with `k=v` options (see `pxml request`).
fn run_serve(args: &[String]) -> Result<(), CliError> {
    let mut instances: Vec<PathBuf> = Vec::new();
    let mut port: Option<u16> = None;
    let mut socket: Option<PathBuf> = None;
    let mut cfg_max_cache: Option<u64> = None;
    let mut preflight = false;
    let mut trace_json: Option<PathBuf> = None;
    let mut wal_dir: Option<PathBuf> = None;
    let mut fsync = pxml_storage::FsyncPolicy::Always;
    let mut max_conns: Option<usize> = None;
    let mut gov = GovernanceArgs::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--port" => {
                i += 1;
                let p = args.get(i).ok_or("--port needs a port number")?;
                port = Some(p.parse().map_err(|_| usage_err(format!("bad port {p:?}")))?);
            }
            "--socket" => {
                i += 1;
                socket = Some(PathBuf::from(args.get(i).ok_or("--socket needs a path")?));
            }
            "--max-cache-bytes" => {
                i += 1;
                cfg_max_cache = Some(parse_count(args.get(i), "--max-cache-bytes")?);
            }
            "--wal" => {
                i += 1;
                wal_dir = Some(PathBuf::from(args.get(i).ok_or("--wal needs a directory")?));
            }
            "--fsync" => {
                i += 1;
                let p = args.get(i).ok_or("--fsync needs always|batch:N|os")?;
                fsync = pxml_storage::FsyncPolicy::parse(p).map_err(usage_err)?;
            }
            "--max-conns" => {
                i += 1;
                let n = parse_count(args.get(i), "--max-conns")?;
                if n == 0 {
                    return Err(usage_err("--max-conns 0 would shed every connection"));
                }
                max_conns = Some(n as usize);
            }
            "--preflight" => preflight = true,
            "--trace-json" => {
                i += 1;
                trace_json =
                    Some(PathBuf::from(args.get(i).ok_or("--trace-json needs a file path")?));
            }
            "--timeout" => {
                i += 1;
                gov.timeout =
                    Some(parse_duration(args.get(i).ok_or("--timeout needs a duration")?)?);
            }
            "--max-steps" => {
                i += 1;
                gov.max_steps = Some(parse_count(args.get(i), "--max-steps")?);
            }
            "--degrade" => {
                i += 1;
                gov.degrade = Some(parse_degrade(args.get(i))?);
            }
            arg if arg.starts_with("--") => {
                return Err(usage_err(format!("unexpected argument {arg:?}")))
            }
            arg => instances.push(PathBuf::from(arg)),
        }
        i += 1;
    }
    if instances.is_empty() {
        return Err(usage_err("serve needs at least one instance file"));
    }
    let bind = match (port, socket) {
        (Some(p), None) => Bind::Tcp(p),
        (None, Some(s)) => Bind::Unix(s),
        (None, None) => return Err(usage_err("serve needs --port N or --socket PATH")),
        (Some(_), Some(_)) => {
            return Err(usage_err("--port and --socket are mutually exclusive"))
        }
    };
    let cfg = ServeConfig {
        instances,
        bind,
        max_cache_bytes: cfg_max_cache,
        max_steps: gov.max_steps,
        timeout: gov.timeout,
        degrade: gov.degrade,
        preflight,
        trace_json,
        wal_dir,
        fsync,
        max_conns,
        frame_deadline: std::time::Duration::from_secs(10),
        debug_panic_query: None,
    };

    serve::install_term_handler();
    let handle = Server::start(cfg).map_err(CliError::Run)?;
    match handle.port() {
        Some(p) => eprintln!("pxml serve: listening on 127.0.0.1:{p}"),
        None => eprintln!("pxml serve: listening"),
    }
    while !serve::term_requested() && !handle.is_shutting_down() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    eprintln!("pxml serve: draining {} active connection(s)", handle.active_connections());
    handle.shutdown_and_join().map_err(CliError::Run)?;
    eprintln!("pxml serve: drained, exiting");
    Ok(())
}

/// `pxml request (--socket PATH | --port N [--host H]) <verb> [args]`.
///
/// The daemon-side status digit becomes this process's exit code, so
/// the wire taxonomy and the CLI exit taxonomy are literally the same:
///
/// ```text
/// pxml request --socket S ping
/// pxml request --socket S query fig2 "POINT T2 IN R.book.title" \
///              [--max-steps N] [--timeout DUR] [--degrade error|interval]
/// pxml request --socket S mutate fig2 --ops ops.txt   # or ops on stdin
/// pxml request --socket S stats fig2
/// pxml request --socket S reload fig2
/// pxml request --socket S metrics
/// pxml request --socket S shutdown
/// ```
fn run_request(args: &[String]) -> Result<(), CliError> {
    let mut host = "127.0.0.1".to_string();
    let mut port: Option<u16> = None;
    let mut socket: Option<PathBuf> = None;
    let mut ops_path: Option<PathBuf> = None;
    let mut retry = true;
    let mut options = protocol::RequestOptions::default();
    let mut positional: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--no-retry" => retry = false,
            "--host" => {
                i += 1;
                host = args.get(i).ok_or("--host needs a host")?.clone();
            }
            "--port" => {
                i += 1;
                let p = args.get(i).ok_or("--port needs a port number")?;
                port = Some(p.parse().map_err(|_| usage_err(format!("bad port {p:?}")))?);
            }
            "--socket" => {
                i += 1;
                socket = Some(PathBuf::from(args.get(i).ok_or("--socket needs a path")?));
            }
            "--ops" => {
                i += 1;
                ops_path = Some(PathBuf::from(args.get(i).ok_or("--ops needs a file path")?));
            }
            "--max-steps" => {
                i += 1;
                options.max_steps = Some(parse_count(args.get(i), "--max-steps")?);
            }
            "--timeout" => {
                i += 1;
                let d = parse_duration(args.get(i).ok_or("--timeout needs a duration")?)?;
                options.timeout_ms = Some(d.as_millis() as u64);
            }
            "--degrade" => {
                i += 1;
                options.degrade = Some(parse_degrade(args.get(i))?);
            }
            arg if arg.starts_with("--") => {
                return Err(usage_err(format!("unexpected argument {arg:?}")))
            }
            arg => positional.push(arg.to_string()),
        }
        i += 1;
    }
    let target = match (port, socket) {
        (Some(p), None) => Target::Tcp(format!("{host}:{p}")),
        (None, Some(s)) => Target::Unix(s),
        _ => return Err(usage_err("request needs exactly one of --port N or --socket PATH")),
    };
    let mut positional = positional.into_iter();
    let verb = positional.next().ok_or("request needs a verb")?.to_uppercase();
    let mut instance_arg =
        |verb: &str| positional.next().ok_or_else(|| usage_err(format!("{verb} needs an instance name")));
    let req = match verb.as_str() {
        "QUERY" => {
            let instance = instance_arg("query")?;
            let query = positional.next().ok_or("query needs a QL line")?;
            protocol::Request::Query { instance, options, query }
        }
        "MUTATE" => {
            let instance = instance_arg("mutate")?;
            let ops = match &ops_path {
                Some(p) => std::fs::read_to_string(p)
                    .map_err(|e| CliError::Run(format!("{}: {e}", p.display())))?,
                None => {
                    let mut buf = String::new();
                    std::io::Read::read_to_string(&mut std::io::stdin().lock(), &mut buf)
                        .map_err(|e| e.to_string())?;
                    buf
                }
            };
            protocol::Request::Mutate { instance, options, ops }
        }
        "STATS" => protocol::Request::Stats { instance: instance_arg("stats")? },
        "RELOAD" => protocol::Request::Reload { instance: instance_arg("reload")? },
        "CHECKPOINT" => {
            protocol::Request::Checkpoint { instance: instance_arg("checkpoint")? }
        }
        "METRICS" => protocol::Request::Metrics,
        "PING" => protocol::Request::Ping,
        "SHUTDOWN" => protocol::Request::Shutdown,
        other => return Err(usage_err(format!("unknown request verb {other:?}"))),
    };
    if let Some(extra) = positional.next() {
        return Err(usage_err(format!("unexpected argument {extra:?}")));
    }
    let send = if retry { serve::send_request_retry } else { serve::send_request };
    let (status, body) = send(&target, &req).map_err(CliError::Run)?;
    match status {
        protocol::Status::Ok => {
            println!("{body}");
            Ok(())
        }
        protocol::Status::RunError => Err(CliError::Run(body)),
        protocol::Status::BadRequest => Err(CliError::Usage(body)),
        protocol::Status::BudgetRejected => Err(CliError::Exhausted(body)),
    }
}

fn print_usage() {
    println!(
        "pxml — query probabilistic semistructured instances

usage:
  pxml <instance.pxml|instance.pxmlb> <query> [--engine auto|tree|naive] [--out FILE]
  pxml <instance> --stdin
  pxml batch <instance> [queries.txt] [--threads N] [--stats] [--preflight]
            [--metrics FILE] [--trace-json FILE] [governance]
  pxml check <instance> [--metrics FILE] [governance]
  pxml analyze <instance> [queries.txt] [governance]
  pxml mutate <instance> <ops.txt> [--out FILE] [--stats] [--audit]
            [--metrics FILE]
  pxml serve <instance>... (--port N | --socket PATH) [--max-cache-bytes N]
            [--wal DIR] [--fsync always|batch:N|os] [--max-conns N]
            [--preflight] [--trace-json FILE] [governance]
  pxml request (--socket PATH | --port N [--host H]) [--no-retry] <verb> [args]
            verbs: query <inst> <QL>, mutate <inst> [--ops FILE],
            stats <inst>, reload <inst>, checkpoint <inst>,
            metrics, ping, shutdown

serve (the query daemon; see the README's \"Serving\"):
  instances register under their file stem; requests speak the
  length-prefixed protocol (pxml request is the client) and carry the
  exit taxonomy below as wire status codes; GET /metrics and /healthz
  answer over plain HTTP on the same listener; governance flags set
  per-request defaults which requests may override; SIGTERM drains
  in-flight requests and exits 0

durability (see the README's \"Durability\"):
  --wal DIR                 journal every MUTATE to an append-only
                            CRC-framed log before applying it; on boot
                            the journal replays on top of the snapshot,
                            so acknowledged writes survive kill -9
  --fsync always|batch:N|os when appends reach stable storage (always =
                            no acknowledged write lost; batch:N = at
                            most N-1 lost; os = kernel flush window)
  --max-conns N             shed connections beyond N with an immediate
                            \"overloaded, retry\" frame (wire status 3)
  checkpoint <inst>         atomic snapshot to the instance file + WAL
                            segment rotation (request verb)
  --no-retry                request: disable the default 3-attempt
                            jittered backoff on connect refusal

static analysis:
  analyze                   report per-query AQ0xx diagnostics, step and
                            memo bounds, probability ceilings; with
                            governance flags, exit 3 if any query would
                            provably exhaust its budget (nothing runs)
  --preflight               batch only: analyse each query first —
                            answer provably-zero queries without
                            evaluation and canonicalise equivalent plans
                            onto shared cache keys

observability:
  --metrics FILE            write a Prometheus text exposition dump of
                            everything the engine (or linter) measured
  --trace-json FILE         batch only: full per-query tracing; one JSON
                            trace record per query, as JSON lines

governance (resource limits):
  --timeout DUR             wall-clock deadline per query (e.g. 500ms, 2s, 1m)
  --max-steps N             work-step ceiling per query
  --max-cache-bytes N       byte ceiling for the shared result cache (batch)
  --degrade error|interval  on exhaustion: typed error (exit 3, default)
                            or a guaranteed-bracketing [lo, hi] answer

exit codes:
  0 success (including degraded interval answers)
  1 operational error (i/o, parse, lint errors)
  2 usage error
  3 a budget was exhausted under --degrade error

mutation ops (one per line; names resolve against the instance catalog):
  INSERT <new> UNDER <parent> LABEL <label> PROB <p>
  DELETE <object>
  LINK <parent> <label> <child> PROB <p>
  UNLINK <parent> <child>
  SETEDGE <parent> <child> PROB <p>
  SETVAL <leaf> STR|INT|FLOAT|BOOL <value> PROB <p>
  (--audit warms the cache with EXISTS/POINT over the instance's label
   paths, then recomputes every retained cache entry after each op; the
   instance file is rewritten only after every op applied cleanly)

queries:
  PROJECT [ANCESTOR|SINGLE|DESCENDANT] <path>
  SELECT <path> = <object>
  SELECT VALUE <path> [@ <object>] = <literal>
  POINT <object> IN <path>
  EXISTS <path>
  CHAIN <o1>.<o2>.…
  PROB <object>
  WORLDS [TOP n]
  RENDER"
    );
}
