//! End-to-end benchmark of the `pxml serve` daemon.
//!
//! ```text
//! pxml-e2ebench --workload NAME --seed N --seconds S --trace 0|1
//!               --pxml PATH --work DIR [--revision TEXT]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off: a
//! closed-loop timed pass over the socket, then, on mixed_rw_1e4, a
//! write probe, a `kill -9` and reboots over a fixed journal. `--trace 1` runs an
//! untraced and a `--trace-json` pass of the same streams (half the
//! time each), replays the traced requests in-process with spans, and
//! prints the per-layer metrics. The last stdout line is the result
//! object. See README.md for the workloads and what each metric should
//! move.

mod daemon;
mod drive;
mod pin;
mod report;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pxml_cli::protocol::{Request, Status};
use pxml_query::QueryEngine;

use daemon::{Counters, Daemon};
use drive::Pass;
use report::{mean, median, percentile, ratio, Report};
use trace::Replayer;
use workload::{Mix, Spec, Workload, CLIENTS, INSTANCE};

/// Requests per client in each pass of the traced run, which keeps the
/// span file and the in-process replay bounded on fast workloads.
const TRACE_CAP: usize = 25_000;
/// Seconds of load before the timed pass: on a shared host the first
/// seconds under load run slower than the rest.
const RAMP: f64 = 3.0;
/// Latency percentiles and throughput are computed per window of this
/// length, and the figure is their median over the run (see
/// `windowed`), so a stall of the shared host moves some windows, not
/// the figure.
const WINDOW: Duration = Duration::from_secs(1);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pxml: PathBuf,
    work: PathBuf,
    revision: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or(format!("missing {flag}"))
    };
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds wants a value in (0, 60]".into());
    }
    Ok(Args {
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
        },
        pxml: PathBuf::from(get("--pxml")?),
        work: PathBuf::from(get("--work")?),
        revision: get("--revision").unwrap_or_else(|_| "unknown".into()),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    // On an error every daemon has been reaped by `Daemon`'s drop by the
    // time `run` returns; a run that hangs is killed with its daemons by
    // run.py's timeout.
    if let Err(e) = run(&args) {
        eprintln!("e2ebench: {e}");
        std::process::exit(1);
    }
}

/// Files of one workload's run, all under the work directory.
struct Paths {
    instance: PathBuf,
    wal: PathBuf,
    replay_wal: PathBuf,
    trace: PathBuf,
    spans: PathBuf,
}

fn daemon_config(args: &Args, spec: &Spec, p: &Paths) -> daemon::Config {
    let dir = args.work.join(spec.name);
    daemon::Config {
        binary: args.pxml.clone(),
        instance: p.instance.clone(),
        socket: dir.join("d.sock"),
        wal_dir: p.wal.clone(),
        max_cache_bytes: spec.max_cache_bytes,
        fsync: spec.fsync,
        trace_json: None,
        log: dir.join("daemon.log"),
    }
}

/// Seconds of one set-up: generate (instance, streams, `.pxmlb`), boot
/// (spawn until `PING` answers), warm-up.
#[derive(Clone, Copy)]
struct SetupTimes {
    generate: f64,
    boot: f64,
    warmup: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.generate + self.boot + self.warmup
    }
}

fn setup(spec: &Spec, seed: u64, p: &Paths, cfg: &daemon::Config) -> Result<(Workload, Daemon, SetupTimes), String> {
    let _ = std::fs::remove_dir_all(&p.wal);
    let _ = std::fs::remove_file(&p.instance);
    let t = Instant::now();
    let wl = workload::build(spec, workload::instance(spec), seed);
    pxml_storage::write_binary_file(&wl.g.instance, &p.instance).map_err(|e| e.to_string())?;
    let generate = t.elapsed().as_secs_f64();
    let (daemon, boot) = Daemon::boot(cfg)?;
    let t = Instant::now();
    drive::warm(&daemon.target, &wl)?;
    let warmup = t.elapsed().as_secs_f64();
    Ok((wl, daemon, SetupTimes { generate, boot: boot.as_secs_f64(), warmup }))
}

fn run(args: &Args) -> Result<(), String> {
    let spec = workload::spec(&args.workload).ok_or(format!(
        "unknown workload {:?} (have {})",
        args.workload,
        workload::SPECS.map(|s| s.name).join(", ")
    ))?;
    let dir = args.work.join(spec.name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let p = Paths {
        instance: dir.join(format!("{INSTANCE}.pxmlb")),
        wal: dir.join("wal"),
        replay_wal: dir.join("replay_wal"),
        trace: dir.join("trace.jsonl"),
        spans: dir.join("spans.jsonl"),
    };
    let cfg = daemon_config(args, spec, &p);

    let mut times = Vec::with_capacity(spec.setups);
    let mut live: Option<(Workload, Daemon)> = None;
    for _ in 0..spec.setups {
        if let Some((_, d)) = live.take() {
            d.shutdown()?;
        }
        let (wl, d, t) = setup(spec, args.seed, &p, &cfg)?;
        times.push(t);
        live = Some((wl, d));
    }
    let (wl, daemon) = live.ok_or("no set-up ran")?;
    let read_only = !matches!(spec.mix, Mix::Mixed { .. });

    let mut header = vec![
        ("workload", report::json_str(spec.name)),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("revision", report::json_str(&args.revision)),
        ("nproc", std::thread::available_parallelism().map_or(1, |n| n.get()).to_string()),
        ("objects", wl.g.instance.object_count().to_string()),
        ("depth", spec.depth.to_string()),
        ("branching", spec.branching.to_string()),
        ("labeling", report::json_str(spec.labeling.short())),
        ("cache_ceiling_bytes", spec.max_cache_bytes.map_or("null".into(), |b| b.to_string())),
        ("fsync", report::json_str(spec.fsync)),
        ("clients", CLIENTS.to_string()),
        ("loop", report::json_str("closed")),
        ("run_seconds", args.seconds.to_string()),
        ("pool", wl.pool.len().to_string()),
        ("warmup_requests", wl.warmup.len().to_string()),
        ("write_probe_ops", wl.probe_writes.len().to_string()),
        ("journal_ops", (wl.probe_writes.len() - wl.journal_from).to_string()),
        ("reboots", spec.reboots.to_string()),
        ("setups", spec.setups.to_string()),
        ("pass_cpus", format!("{:?}", pin::pass_cpus(CLIENTS))),
    ];
    let (report, correct, attempted, failed) = if args.trace {
        per_layer(args, spec, &p, &cfg, wl, daemon, &times, read_only, &mut header)?
    } else {
        end_to_end(spec, &p, &cfg, wl, daemon, &times, args.seconds, read_only, &mut header)?
    };
    let header: Vec<String> = header.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!("{{\"header\": {{{}}}}}", header.join(", "));
    print!("{}", report.table());
    println!("{}", report.result_line(correct, attempted, failed)?);
    Ok(())
}

/// Answers to the fixed probe queries, in order.
fn probe_answers(d: &Daemon, wl: &Workload) -> Result<Vec<String>, String> {
    let mut client = d.client()?;
    wl.probe_reads
        .iter()
        .map(|&i| match client.roundtrip(&wl.pool[i as usize])? {
            (Status::Ok, body) => Ok(body),
            (s, body) => Err(format!("probe query answered {s:?}: {body}")),
        })
        .collect()
}

/// The engine's answer rendered as the daemon renders it.
fn local_answer(engine: &QueryEngine, req: &Request) -> Result<String, String> {
    let line = workload::query_line(req).ok_or("not a query")?;
    let q = pxml_cli::translate_query(engine.instance(), line)?;
    Ok(format!("{:.6}", engine.run(&q).map_err(|e| e.to_string())?))
}

/// Compares every answer of a read-only pass with an in-process engine
/// over the same file. Returns the mismatches and the engine's cache
/// footprint after answering them all (the pass's working set).
fn check_answers(wl: &Workload, instance: &Path, pass: &Pass) -> Result<(u64, u64), String> {
    let engine = QueryEngine::with_threads(pxml_cli::load(instance)?, CLIENTS);
    let mut keys: Vec<u32> = pass.answers.keys().copied().collect();
    keys.sort_unstable();
    let queries = keys
        .iter()
        .map(|&k| {
            let line = workload::query_line(&wl.pool[k as usize]).ok_or("not a query")?;
            pxml_cli::translate_query(engine.instance(), line)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut wrong = 0;
    for (k, r) in keys.iter().zip(engine.run_batch(&queries)) {
        let expected = format!("{:.6}", r.map_err(|e| e.to_string())?);
        let got = &pass.answers[k];
        if *got != expected {
            if wrong == 0 {
                eprintln!("e2ebench: wire answer {got} != local {expected} for {}", wl.pool[*k as usize].render());
            }
            wrong += 1;
        }
    }
    Ok((wrong, engine.cache_bytes()))
}

/// The write probe, `kill -9`, and reboots over the resulting journal.
struct Recovery {
    reboot_s: Vec<f64>,
    attempted: u64,
    failed: u64,
}

fn recovery(spec: &Spec, wl: &Workload, pass_daemon: Daemon, cfg: &daemon::Config) -> Result<Recovery, String> {
    // A fresh daemon over the original snapshot and an empty journal:
    // the probe writes the same ops on the same base however many
    // writes the timed pass completed.
    pass_daemon.shutdown()?;
    std::fs::remove_dir_all(&cfg.wal_dir).map_err(|e| format!("{}: {e}", cfg.wal_dir.display()))?;
    let (daemon, _) = Daemon::boot(cfg)?;
    let mut failed = 0u64;
    let mut client = daemon.client()?;
    for (i, req) in wl.probe_writes.iter().enumerate() {
        if i == wl.journal_from {
            daemon.ok(&Request::Checkpoint { instance: INSTANCE.into() })?;
        }
        let (status, body) = client.roundtrip(req)?;
        if status != Status::Ok || !drive::is_applied(&body) {
            failed += 1;
        }
    }
    drop(client);
    let live = probe_answers(&daemon, wl)?;
    daemon.kill9();
    let mut reboot_s = Vec::with_capacity(spec.reboots);
    for k in 0..spec.reboots {
        let (d, t) = Daemon::boot(cfg)?;
        reboot_s.push(t.as_secs_f64());
        let again = probe_answers(&d, wl)?;
        failed += live.iter().zip(&again).filter(|(a, b)| a != b).count() as u64;
        if k + 1 < spec.reboots {
            d.kill9();
        } else {
            d.shutdown()?;
        }
    }
    // Oracle: the snapshot plus the recovered journal, replayed in order.
    let mut engine = QueryEngine::new(pxml_cli::load(&cfg.instance)?);
    let seg = pxml_storage::recover_segment(&cfg.wal_dir.join(format!("{INSTANCE}.wal")))
        .map_err(|e| e.to_string())?;
    let journal = wl.probe_writes.len() - wl.journal_from;
    if seg.records.len() != journal {
        eprintln!("e2ebench: journal holds {} records, expected {journal}", seg.records.len());
        failed += 1;
    }
    for record in &seg.records {
        for op in pxml_core::parse_ops(engine.instance(), record).map_err(|e| e.to_string())? {
            engine.apply_mutation(&op).map_err(|e| e.to_string())?;
        }
    }
    for (&i, want) in wl.probe_reads.iter().zip(&live) {
        if local_answer(&engine, &wl.pool[i as usize])? != *want {
            failed += 1;
        }
    }
    if failed > 0 {
        eprintln!("e2ebench: {failed} recovery check(s) failed");
    }
    let attempted = (wl.probe_writes.len() + 1 + wl.probe_reads.len() * (1 + spec.reboots)) as u64;
    Ok(Recovery { reboot_s, attempted, failed })
}

#[allow(clippy::too_many_arguments)]
fn end_to_end(
    spec: &Spec,
    p: &Paths,
    cfg: &daemon::Config,
    wl: Workload,
    daemon: Daemon,
    times: &[SetupTimes],
    seconds: f64,
    read_only: bool,
    header: &mut Vec<(&'static str, String)>,
) -> Result<(Report, bool, u64, u64), String> {
    let before = daemon.scrape()?;
    let pass = drive::pass(&daemon, &wl, RAMP, seconds, usize::MAX, read_only)?;
    let delta = daemon.scrape()?.since(&before);
    let rss = daemon.peak_rss_mb()?;
    let (wrong, working_set) = if read_only { check_answers(&wl, &p.instance, &pass)? } else { (0, 0) };
    if read_only {
        header.push(("working_set_bytes", working_set.to_string()));
    }
    // Only mixed_rw_1e4 writes while timed, so only it measures the
    // MUTATE round trip and recovery over the journal of its writes.
    let rec = if read_only {
        daemon.shutdown()?;
        None
    } else {
        Some(recovery(spec, &wl, daemon, cfg)?)
    };

    let pool = &wl.pool;
    let is_write = |s: &drive::Sample| workload::is_mutate(&pool[s.entry as usize]);
    let queries = pass.windows(WINDOW, |s| !is_write(s));
    let writes = pass.windows(WINDOW, is_write);
    let all = pass.windows(WINDOW, |_| true);
    let count = |w: &[Vec<f64>]| w.iter().map(Vec::len).sum::<usize>();
    let attempted = pass.completed() as u64 + rec.as_ref().map_or(0, |r| r.attempted);
    let failed = pass.failed + wrong + rec.as_ref().map_or(0, |r| r.failed);

    let mut r = Report::default();
    let setup_total: Vec<f64> = times.iter().map(SetupTimes::total).collect();
    r.add("setup_s", median(&setup_total), "s", times.len());
    r.add("query_p50_us", windowed(&queries, |v| percentile(v, 0.50)), "us", count(&queries));
    r.add("query_p98_us", windowed(&queries, |v| percentile(v, 0.98)), "us", count(&queries));
    let rate = windowed(&all, |v| v.len() as f64 / WINDOW.as_secs_f64());
    r.add("throughput_rps", rate, "1/s", pass.timed().count());
    r.add("peak_rss_mb", rss, "MiB", 1);
    header.push(("windows", all.len().to_string()));
    // Printed but not in BENCHMARK.json: their run-to-run spread on a
    // shared host is wider than any bound the benchmark may set, they
    // are measured on one workload only (see README.md), or, for
    // failed_frac, they are 0 on a correct build.
    let mut extra = Report::default();
    extra.add("query_p99_us", windowed(&queries, |v| percentile(v, 0.99)), "us", count(&queries));
    if let Some(rec) = &rec {
        let reboots: Vec<String> = rec.reboot_s.iter().map(|t| format!("{t:.4}")).collect();
        header.push(("reboot_s", format!("[{}]", reboots.join(", "))));
        extra.add("recover_s", mean(&rec.reboot_s), "s", rec.reboot_s.len());
        let at = |q: f64| windowed(&writes, |v| percentile(v, q));
        extra.add("mutate_p50_us", at(0.50), "us", count(&writes));
        extra.add("mutate_p99_us", at(0.99), "us", count(&writes));
    }
    extra.add("failed_frac", failed as f64 / attempted as f64, "ratio", attempted as usize);
    cache_metrics(&mut extra, &delta);
    extra.add("cache.invalidations", delta.invalidations as f64, "count", delta.mutations as usize);
    extra.add("wal.appends", delta.wal_appends as f64, "count", 1);
    extra.add("wal.fsyncs", delta.wal_fsyncs as f64, "count", 1);
    extra.add("wal.fsync_us_mean", ratio(delta.wal_fsync_nanos as f64 / 1e3, delta.wal_fsyncs as f64), "us", delta.wal_fsyncs as usize);
    print!("{}", extra.table());
    Ok((r, failed == 0, attempted, failed))
}

/// `stat` per window that holds samples, then the median of those
/// values over the run, so a stretch of seconds in which the host's
/// neighbours slowed the run moves some windows, not the figure.
fn windowed(windows: &[Vec<f64>], stat: impl Fn(&[f64]) -> f64) -> f64 {
    let per: Vec<f64> = windows.iter().filter(|w| !w.is_empty()).map(|w| stat(w)).collect();
    median(&per)
}

/// Cache ratios from the daemon's counters over the timed pass, each
/// with its base.
fn cache_metrics(r: &mut Report, d: &Counters) {
    for (name, (h, m)) in [("result", d.result), ("eps", d.eps), ("layers", d.layers), ("link", d.link)] {
        let base = h + m;
        r.add(&format!("cache.{name}_hit_ratio"), ratio(h as f64, base as f64).max(0.0), "ratio", base as usize);
        r.add(&format!("cache.{name}_lookups"), base as f64, "count", 1);
    }
    r.add("cache.bytes", d.cache_bytes as f64, "bytes", 1);
    r.add("cache.evictions", d.evictions as f64, "count", 1);
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    args: &Args,
    spec: &Spec,
    p: &Paths,
    cfg: &daemon::Config,
    wl: Workload,
    daemon: Daemon,
    times: &[SetupTimes],
    read_only: bool,
    header: &mut Vec<(&'static str, String)>,
) -> Result<(Report, bool, u64, u64), String> {
    let half = args.seconds / 2.0;
    // Both passes run on a daemon booted over the original snapshot and
    // warmed the same way, so they differ only in --trace-json.
    daemon.shutdown()?;
    let fresh = |c: &daemon::Config| -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&p.wal);
        let (d, _) = Daemon::boot(c)?;
        drive::warm(&d.target, &wl)?;
        Ok(d)
    };
    // Untraced pass: the counter scrape and the baseline p50.
    let plain_daemon = fresh(cfg)?;
    let before = plain_daemon.scrape()?;
    let plain = drive::pass(&plain_daemon, &wl, 0.0, half, TRACE_CAP, read_only)?;
    let delta = plain_daemon.scrape()?.since(&before);
    plain_daemon.shutdown()?;
    let (mut wrong, _) = if read_only { check_answers(&wl, &p.instance, &plain)? } else { (0, 0) };

    // Traced pass: the same streams with --trace-json.
    let _ = std::fs::remove_file(&p.trace);
    let tcfg = daemon::Config { trace_json: Some(p.trace.clone()), ..cfg.clone() };
    let traced_daemon = fresh(&tcfg)?;
    let traced = drive::pass(&traced_daemon, &wl, 0.0, half, TRACE_CAP, read_only)?;
    traced_daemon.shutdown()?;
    let text = std::fs::read_to_string(&p.trace).map_err(|e| format!("{}: {e}", p.trace.display()))?;
    let matched = trace::match_trace(&text, &traced, &wl, wl.warmup.len())?;

    // In-process replay of the warm-up and then the traced requests in
    // the order the daemon finished them.
    let (pi, crc) = pxml_cli::load_with_crc(&p.instance)?;
    let mut rp = Replayer::new(pi, crc, spec.max_cache_bytes, &p.replay_wal)?;
    let mut ids = 0u32;
    for &i in &wl.warmup {
        rp.replay(&wl.pool[i as usize], &mut ids)?;
    }
    let warm_reqs = rp.reqs.len();
    for m in &matched {
        let s = traced.samples[m.client][m.idx];
        let (_, body) = rp.replay(&wl.pool[s.entry as usize], &mut ids)?;
        if read_only && traced.answers.get(&s.entry).is_some_and(|a| *a != body) {
            wrong += 1;
        }
    }
    let stream_end = rp.reqs.len();

    // Write probe, then recovery of its journalled tail into a fresh
    // engine built from the state before that tail.
    let (head, tail) = wl.probe_writes.split_at(wl.journal_from);
    for req in head {
        rp.replay(req, &mut ids)?;
    }
    let base = rp.snapshot();
    rp.wal.rotate(crc).map_err(|e| e.to_string())?;
    for req in tail {
        rp.replay(req, &mut ids)?;
    }
    let live: Vec<String> =
        wl.probe_reads.iter().map(|&i| local_answer(&rp.engine, &wl.pool[i as usize])).collect::<Result<_, _>>()?;
    let t = Instant::now();
    let seg = pxml_storage::recover_segment(rp.wal.path()).map_err(|e| e.to_string())?;
    let parse_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut recovered = QueryEngine::new(base);
    let t = Instant::now();
    let mut replayed = 0usize;
    for record in &seg.records {
        for op in pxml_core::parse_ops(recovered.instance(), record).map_err(|e| e.to_string())? {
            recovered.apply_mutation(&op).map_err(|e| e.to_string())?;
            replayed += 1;
        }
    }
    let replay_s = t.elapsed().as_secs_f64();
    for (&i, want) in wl.probe_reads.iter().zip(&live) {
        if local_answer(&recovered, &wl.pool[i as usize])? != *want {
            wrong += 1;
        }
    }
    let decode_ms: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            pxml_cli::load_with_crc(&p.instance).map(|_| t.elapsed().as_secs_f64() * 1e3)
        })
        .collect::<Result<_, _>>()?;
    rp.write_spans(&p.spans)?;
    header.push(("spans_file", report::json_str(&p.spans.display().to_string())));
    header.push(("replayed_requests", (stream_end - warm_reqs).to_string()));

    let mut r = Report::default();
    let spans = &rp.spans;
    let self_ns = trace::self_nanos(spans);
    let stream = |req: u32| (warm_reqs..stream_end).contains(&(req as usize));
    let collect = |name: &str, keep: &dyn Fn(u32) -> bool, scale: f64, own: bool| -> Vec<f64> {
        spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.name == name && keep(s.req))
            .map(|(s, &own_ns)| if own { own_ns } else { s.nanos() } as f64 / scale)
            .collect()
    };
    let any = |_: u32| true;
    let miss = |req: u32| {
        let info = &rp.reqs[req as usize];
        !info.mutate && !info.hit
    };

    let parse = collect(trace::PARSE, &stream, 1.0, false);
    r.add("protocol.parse_request_ns_p50", median(&parse), "ns", parse.len());
    let encode = collect(trace::ENCODE, &stream, 1.0, false);
    r.add("protocol.encode_response_ns_p50", median(&encode), "ns", encode.len());
    let translate = collect(trace::TRANSLATE, &stream, 1e3, false);
    r.add("ql.translate_us_p50", median(&translate), "us", translate.len());

    // Daemon-side timing of the traced pass.
    let server: Vec<f64> = matched.iter().map(|m| m.server_us).collect();
    r.add("serve.server_us_p50", median(&server), "us", server.len());
    r.add("serve.server_us_p99", percentile(&server, 0.99), "us", server.len());
    let transport: Vec<f64> =
        matched.iter().map(|m| traced.samples[m.client][m.idx].micros() - m.server_us).collect();
    r.add("serve.transport_us_p50", median(&transport), "us", transport.len());
    let pipeline = collect(trace::REQUEST, &stream, 1e3, false);
    let wait: Vec<f64> = matched.iter().zip(&pipeline).map(|(m, pipe)| m.server_us - pipe).collect();
    r.add("serve.wait_us_p99", percentile(&wait, 0.99), "us", wait.len());

    let run_us = collect(trace::RUN, &stream, 1e3, false);
    r.add("engine.run_us_p50", median(&run_us), "us", run_us.len());
    r.add("engine.run_us_p99", percentile(&run_us, 0.99), "us", run_us.len());
    // Misses include the warm-up's: after warm-up hot_reads has none.
    let miss_us = collect(trace::RUN, &miss, 1e3, false);
    r.add("engine.miss_us_p50", median(&miss_us), "us", miss_us.len());
    let misses: Vec<f64> =
        rp.reqs.iter().filter(|i| !i.mutate && !i.hit).map(|i| i.opf_entries as f64).collect();
    r.add("engine.opf_entries_per_miss", mean(&misses), "count", misses.len());

    cache_metrics(&mut r, &delta);
    let writes: Vec<&trace::ReqInfo> = rp.reqs.iter().filter(|i| i.mutate).collect();
    let per_write = |f: &dyn Fn(&trace::ReqInfo) -> f64| writes.iter().map(|i| f(i)).sum::<f64>() / writes.len() as f64;
    r.add("cache.invalidated_per_mutation", per_write(&|i| i.invalidated as f64), "count", writes.len());

    let core_apply = collect(trace::CORE_APPLY, &any, 1e3, false);
    r.add("mutate.apply_us_p50", median(&core_apply), "us", core_apply.len());
    r.add("mutate.dirty_per_op", per_write(&|i| i.dirty as f64), "count", writes.len());
    let lower = collect(trace::LOWER, &any, 1e6, false);
    r.add("arena.lower_ms_p50", median(&lower), "ms", lower.len());
    let mutation = collect(trace::MUTATION, &any, 1e3, false);
    r.add("mutation.apply_us_p50", median(&mutation), "us", mutation.len());
    r.add("mutation.apply_us_p99", percentile(&mutation, 0.99), "us", mutation.len());
    let mutation_self = collect(trace::MUTATION, &any, 1e3, true);
    r.add("mutation.self_us_p50", median(&mutation_self), "us", mutation_self.len());
    r.add("mutation.affected_per_op", per_write(&|i| i.affected as f64), "count", writes.len());

    let append = collect(trace::WAL_APPEND, &any, 1e3, false);
    r.add("wal.append_us_p50", median(&append), "us", append.len());
    // fsync cost from the daemon's pxml_wal_* counters when the timed
    // pass wrote, else from the replay's own journal.
    let local = rp.wal.counters();
    let load = std::sync::atomic::Ordering::Relaxed;
    let (appends, fsyncs, fsync_ns) = if delta.wal_appends > 0 {
        (delta.wal_appends, delta.wal_fsyncs, delta.wal_fsync_nanos)
    } else {
        (local.appends.load(load), local.fsyncs.load(load), local.fsync_nanos.load(load))
    };
    r.add("wal.fsync_us_mean", ratio(fsync_ns as f64 / 1e3, fsyncs as f64), "us", fsyncs as usize);
    r.add("wal.fsyncs_per_op", ratio(fsyncs as f64, appends as f64), "ratio", appends as usize);
    r.add(
        "wal.bytes_per_op_byte",
        ratio(local.appended_bytes.load(load) as f64, rp.op_text_bytes as f64),
        "ratio",
        local.appends.load(load) as usize,
    );

    r.add("load.decode_ms", median(&decode_ms), "ms", decode_ms.len());
    r.add("recovery.segment_parse_ms", parse_ms, "ms", seg.records.len());
    r.add("recovery.replay_ops_per_s", replayed as f64 / replay_s, "1/s", replayed);

    let pick = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    r.add("setup.generate_s", pick(|t| t.generate), "s", times.len());
    r.add("setup.boot_s", pick(|t| t.boot), "s", times.len());
    r.add("setup.warmup_s", pick(|t| t.warmup), "s", times.len());

    let queries = |pass: &Pass| -> Vec<f64> {
        pass.all().filter(|s| !workload::is_mutate(&wl.pool[s.entry as usize])).map(|s| s.micros()).collect()
    };
    let (plain_p50, traced_p50) = (median(&queries(&plain)), median(&queries(&traced)));
    r.add("trace.overhead_frac", (traced_p50 - plain_p50) / plain_p50, "ratio", queries(&traced).len());

    // The workload's premise, as this run sees it.
    let hit = ratio(delta.result.0 as f64, (delta.result.0 + delta.result.1) as f64);
    let (holds, premise) = match spec.mix {
        Mix::Zipf { .. } => (hit >= 0.95, format!("cache.result_hit_ratio {hit:.3} >= 0.95")),
        Mix::Uniform { .. } => (hit <= 0.10, format!("cache.result_hit_ratio {hit:.3} <= 0.10")),
        Mix::Mixed { .. } => {
            // Lowering against the MUTATE request it sits in, both timed
            // in the same uncontended replay. The client-observed p50 adds
            // transport and the other client's load, which the replay's
            // lowering does not carry, so that share is only printed.
            let write_reqs = collect(trace::REQUEST, &|req: u32| rp.reqs[req as usize].mutate, 1e6, false);
            let share = median(&lower) / median(&write_reqs);
            let writes: Vec<f64> =
                plain.all().filter(|s| workload::is_mutate(&wl.pool[s.entry as usize])).map(|s| s.micros()).collect();
            let client_share = median(&lower) * 1e3 / median(&writes);
            (
                share > 0.5,
                format!(
                    "arena.lower_ms_p50 is {:.0}% of the replayed MUTATE request p50 ({:.0}% of the untraced client-observed MUTATE p50)",
                    share * 100.0,
                    client_share * 100.0
                ),
            )
        }
    };
    println!("# premise {}: {premise}", if holds { "holds" } else { "NOT MET" });
    if !holds {
        eprintln!("e2ebench: the workload's premise does not hold: {premise}");
    }

    let attempted = (plain.completed() + traced.completed() + wl.probe_writes.len() + wl.probe_reads.len()) as u64;
    let failed = plain.failed + traced.failed + wrong;
    if failed > 0 {
        eprintln!("e2ebench: {failed} request(s) failed or answered wrongly");
    }
    Ok((r, failed == 0 && holds, attempted, failed))
}
