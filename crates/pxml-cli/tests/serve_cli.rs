//! End-to-end tests for the `pxml serve` daemon, driven in-process:
//! [`Server::start`] on an ephemeral localhost port, the [`Client`]
//! helpers on the other end, and a local [`QueryEngine`] as the answer
//! oracle. Covers the status taxonomy, governance overrides, mutation +
//! hot reload, the HTTP sniff, malformed frames, and graceful drain.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;

use pxml_cli::protocol::{self, Request, RequestOptions, Status};
use pxml_cli::serve::{Client, Server, ServeConfig, ServerHandle, Target};
use pxml_cli::{load, save, translate_query};
use pxml_core::fixtures::fig2_instance;
use pxml_gen::{generate, serve_workload, Labeling, ServeRequest, WorkloadConfig};
use pxml_query::QueryEngine;

fn temp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pxml-serve-cli").join(test);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Writes the fig2 fixture and one generated instance under `test`'s
/// scratch dir and boots an ungoverned daemon over both.
fn start_two(test: &str) -> (ServerHandle, Target, PathBuf) {
    let dir = temp_dir(test);
    let fig2 = dir.join("fig2.pxmlb");
    save(&fig2_instance(), &fig2).expect("save fig2");
    let gen_path = dir.join("gen.pxmlb");
    let g = generate(&WorkloadConfig::paper(4, 2, Labeling::SameLabel, 11));
    save(&g.instance, &gen_path).expect("save generated instance");
    let handle = Server::start(ServeConfig::ephemeral(vec![fig2, gen_path.clone()]))
        .expect("server starts");
    let port = handle.port().expect("tcp bind reports a port");
    (handle, Target::Tcp(format!("127.0.0.1:{port}")), gen_path)
}

fn query(instance: &str, ql: &str) -> Request {
    Request::Query {
        instance: instance.into(),
        options: RequestOptions::default(),
        query: ql.into(),
    }
}

#[test]
fn answers_match_the_local_engine() {
    let (handle, target, gen_path) = start_two("answers");
    let mut client = Client::connect(&target).expect("connect");

    assert_eq!(client.roundtrip(&Request::Ping).unwrap(), (Status::Ok, "pong".into()));

    // Every generated query must come back checksum-equal to a local
    // ungoverned engine over the same instance file.
    let pi = load(&gen_path).expect("reload generated instance");
    let engine = QueryEngine::new(pi);
    let g = generate(&WorkloadConfig::paper(4, 2, Labeling::SameLabel, 11));
    let mut compared = 0;
    for req in serve_workload(&g, 60, 0, 23) {
        let ServeRequest::Query(line) = req else { continue };
        let q = translate_query(engine.instance(), &line).expect("workload query resolves");
        let expected = format!("{:.6}", engine.run(&q).expect("local run"));
        let (status, body) = client.roundtrip(&query("gen", &line)).expect("roundtrip");
        assert_eq!((status, body), (Status::Ok, expected.clone()), "query {line:?}");
        compared += 1;
    }
    assert!(compared >= 30, "only {compared} queries compared");

    // The second registry entry answers on the same connection.
    let (status, body) = client.roundtrip(&query("fig2", "EXISTS R.book")).unwrap();
    assert_eq!(status, Status::Ok);
    assert!(body.parse::<f64>().is_ok(), "{body:?}");
    handle.shutdown_and_join().expect("drain");
}

#[test]
fn bad_requests_map_to_status_two() {
    let (handle, target, _) = start_two("bad_requests");
    let mut client = Client::connect(&target).expect("connect");

    let (status, body) = client.roundtrip(&query("nope", "EXISTS R.book")).unwrap();
    assert_eq!(status, Status::BadRequest);
    assert!(body.contains("unknown instance") && body.contains("fig2"), "{body:?}");

    let (status, body) = client.roundtrip(&query("fig2", "EXISTS R.frobnicate")).unwrap();
    assert_eq!(status, Status::BadRequest);
    assert!(body.contains("unknown name"), "{body:?}");

    let (status, _) = client.roundtrip(&query("fig2", "WAT")).unwrap();
    assert_eq!(status, Status::BadRequest);

    // Non-UTF-8 payload: answered bad-request, connection stays usable.
    let Target::Tcp(addr) = &target else { unreachable!() };
    let mut raw = TcpStream::connect(addr.as_str()).unwrap();
    protocol::write_frame(&mut raw, &[0xff, 0xfe, 0x00, 0x41]).unwrap();
    let payload = protocol::read_frame(&mut raw).unwrap().expect("a response");
    let (status, body) = protocol::parse_response(&payload).unwrap();
    assert_eq!(status, Status::BadRequest);
    assert!(body.contains("UTF-8"), "{body:?}");
    protocol::write_frame(&mut raw, b"PING").unwrap();
    let payload = protocol::read_frame(&mut raw).unwrap().expect("still serving");
    assert_eq!(protocol::parse_response(&payload).unwrap(), (Status::Ok, "pong".into()));

    // A hostile length prefix: bad-request response, then the daemon
    // closes (the stream position is unrecoverable) — and keeps serving
    // fresh connections.
    let mut hostile = TcpStream::connect(addr.as_str()).unwrap();
    hostile.write_all(&u32::MAX.to_be_bytes()).unwrap();
    hostile.flush().unwrap();
    let payload = protocol::read_frame(&mut hostile).unwrap().expect("a response");
    let (status, body) = protocol::parse_response(&payload).unwrap();
    assert_eq!(status, Status::BadRequest);
    assert!(body.contains("ceiling"), "{body:?}");
    let mut end = Vec::new();
    hostile.read_to_end(&mut end).unwrap();
    assert!(end.is_empty(), "connection must close after a hostile prefix");
    assert_eq!(client.roundtrip(&Request::Ping).unwrap().0, Status::Ok);
    handle.shutdown_and_join().expect("drain");
}

#[test]
fn budget_rejection_and_interval_degrade() {
    let (handle, target, _) = start_two("governance");
    let mut client = Client::connect(&target).expect("connect");
    // An accepted-by-construction query (it locates something, so the
    // engine must actually marginalise — a dead path would answer 0
    // before spending a single work step).
    let g = generate(&WorkloadConfig::paper(4, 2, Labeling::SameLabel, 11));
    let ql = serve_workload(&g, 30, 0, 23)
        .into_iter()
        .find_map(|r| match r {
            ServeRequest::Query(q) if q.starts_with("EXISTS ") => Some(q),
            _ => None,
        })
        .expect("the workload yields an EXISTS query");
    let starved = |degrade| Request::Query {
        instance: "gen".into(),
        options: RequestOptions {
            max_steps: Some(1),
            timeout_ms: None,
            degrade: Some(degrade),
        },
        query: ql.clone(),
    };

    let (status, body) =
        client.roundtrip(&starved(pxml_query::DegradePolicy::Error)).unwrap();
    assert_eq!(status, Status::BudgetRejected, "{body:?}");

    let (status, body) =
        client.roundtrip(&starved(pxml_query::DegradePolicy::Interval)).unwrap();
    assert_eq!(status, Status::Ok, "{body:?}");
    assert!(body.starts_with('[') && body.ends_with(']'), "interval answer, got {body:?}");

    // An ample per-request budget on the same query is exact again.
    let (status, body) = client
        .roundtrip(&Request::Query {
            instance: "gen".into(),
            options: RequestOptions {
                max_steps: Some(1_000_000),
                timeout_ms: Some(10_000),
                degrade: Some(pxml_query::DegradePolicy::Error),
            },
            query: ql.clone(),
        })
        .unwrap();
    assert_eq!(status, Status::Ok);
    assert!(body.parse::<f64>().is_ok(), "{body:?}");
    handle.shutdown_and_join().expect("drain");
}

#[test]
fn mutate_is_visible_until_reload_reverts_it() {
    let (handle, target, _) = start_two("mutate_reload");
    let mut client = Client::connect(&target).expect("connect");
    let probe = query("fig2", "POINT T2 IN R.book.title");

    let (status, baseline) = client.roundtrip(&probe).unwrap();
    assert_eq!(status, Status::Ok);

    let (status, body) = client
        .roundtrip(&Request::Mutate {
            instance: "fig2".into(),
            options: RequestOptions::default(),
            ops: "SETEDGE R B1 PROB 0.25".into(),
        })
        .unwrap();
    assert_eq!(status, Status::Ok, "{body:?}");
    assert!(body.starts_with("applied 1 ops"), "{body:?}");

    let (status, mutated) = client.roundtrip(&probe).unwrap();
    assert_eq!(status, Status::Ok);
    assert_ne!(mutated, baseline, "the write must change the answer");

    // Mutations live in registry memory; RELOAD reverts to disk.
    let (status, body) = client
        .roundtrip(&Request::Reload { instance: "fig2".into() })
        .unwrap();
    assert_eq!(status, Status::Ok);
    assert!(body.contains("reloaded fig2"), "{body:?}");
    let (status, reverted) = client.roundtrip(&probe).unwrap();
    assert_eq!(status, Status::Ok);
    assert_eq!(reverted, baseline);

    let (status, stats) =
        client.roundtrip(&Request::Stats { instance: "fig2".into() }).unwrap();
    assert_eq!(status, Status::Ok);
    assert!(stats.contains("queries"), "{stats:?}");
    handle.shutdown_and_join().expect("drain");
}

/// The STATS reply keeps the shape the end-to-end benchmark parses: a
/// `H/M` token after each of `result`, `layers`, `eps` and `link`, and
/// counts after `applied` and `invalidations`. `eps` reads `0/0` on the
/// ungoverned path, which keeps no ε memo.
#[test]
fn stats_reply_keeps_the_tokens_the_benchmark_parses() {
    let (handle, target, _) = start_two("stats_tokens");
    let mut client = Client::connect(&target).expect("connect");
    for _ in 0..2 {
        let (status, _) = client.roundtrip(&query("fig2", "POINT T2 IN R.book.title")).unwrap();
        assert_eq!(status, Status::Ok);
    }
    let (status, stats) = client.roundtrip(&Request::Stats { instance: "fig2".into() }).unwrap();
    assert_eq!(status, Status::Ok);
    let words: Vec<&str> = stats.split_whitespace().collect();
    let after = |key: &str| {
        let i = words.iter().position(|w| *w == key).unwrap_or_else(|| panic!("no {key}: {stats}"));
        words.get(i + 1).copied().unwrap_or_else(|| panic!("nothing after {key}: {stats}"))
    };
    let table = |key: &str| {
        let (h, m) = after(key).split_once('/').unwrap_or_else(|| panic!("{key} not H/M: {stats}"));
        (h.parse::<u64>().expect("hits"), m.parse::<u64>().expect("misses"))
    };
    assert_eq!(table("result"), (1, 1), "{stats}");
    assert_eq!(table("layers"), (0, 1), "{stats}");
    assert_eq!(table("eps"), (0, 0), "{stats}");
    assert_eq!(table("link"), (0, 0), "{stats}");
    assert_eq!(after("applied").parse::<u64>().ok(), Some(0), "{stats}");
    assert_eq!(after("invalidations").parse::<u64>().ok(), Some(0), "{stats}");
    handle.shutdown_and_join().expect("drain");
}

#[test]
fn metrics_over_wire_and_http() {
    let (handle, target, _) = start_two("metrics");
    let mut client = Client::connect(&target).expect("connect");
    client.roundtrip(&Request::Ping).unwrap();
    client.roundtrip(&query("fig2", "EXISTS R.book")).unwrap();

    let (status, body) = client.roundtrip(&Request::Metrics).unwrap();
    assert_eq!(status, Status::Ok);
    for family in [
        "pxml_serve_requests_total",
        "pxml_serve_connections_total",
        "pxml_serve_active_connections",
        "pxml_serve_instance_queries_total",
        "pxml_serve_instance_cache_admission_rejected_total",
    ] {
        assert!(body.contains(family), "missing {family} in:\n{body}");
    }
    assert!(
        body.contains("verb=\"PING\",status=\"0\"") && body.contains("instance=\"fig2\""),
        "{body}"
    );

    let Target::Tcp(addr) = &target else { unreachable!() };
    let http = |path: &str| {
        let mut s = TcpStream::connect(addr.as_str()).unwrap();
        s.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    };
    let scrape = http("/metrics");
    assert!(scrape.starts_with("HTTP/1.1 200 OK"), "{scrape}");
    assert!(scrape.contains("pxml_serve_http_requests_total"), "{scrape}");
    let health = http("/healthz");
    assert!(health.starts_with("HTTP/1.1 200 OK") && health.ends_with("ok\n"), "{health}");
    assert!(http("/nope").starts_with("HTTP/1.1 404"), "unknown paths are 404");
    handle.shutdown_and_join().expect("drain");
}

#[test]
fn shutdown_verb_drains_gracefully() {
    let (handle, target, _) = start_two("shutdown");
    let mut client = Client::connect(&target).expect("connect");
    assert_eq!(
        client.roundtrip(&Request::Shutdown).unwrap(),
        (Status::Ok, "draining".into())
    );
    assert!(handle.is_shutting_down());
    handle.shutdown_and_join().expect("in-flight work drains inside the deadline");
}

/// Boots a daemon over the fig2 fixture alone, with `tweak` applied to
/// the config first — the robustness tests each flip one knob.
fn start_fig2_with(
    test: &str,
    tweak: impl FnOnce(&mut ServeConfig),
) -> (ServerHandle, Target, PathBuf) {
    let dir = temp_dir(test);
    let fig2 = dir.join("fig2.pxmlb");
    save(&fig2_instance(), &fig2).expect("save fig2");
    let mut cfg = ServeConfig::ephemeral(vec![fig2.clone()]);
    tweak(&mut cfg);
    let handle = Server::start(cfg).expect("server starts");
    let port = handle.port().expect("tcp bind reports a port");
    (handle, Target::Tcp(format!("127.0.0.1:{port}")), fig2)
}

#[test]
fn panicking_request_is_isolated_and_counted() {
    let (handle, target, _) = start_fig2_with("panic_isolation", |cfg| {
        cfg.debug_panic_query = Some("PANIC NOW".into());
    });
    let mut client = Client::connect(&target).expect("connect");

    let (status, body) = client.roundtrip(&query("fig2", "PANIC NOW")).unwrap();
    assert_eq!(status, Status::RunError, "{body:?}");
    assert!(body.contains("panic"), "{body:?}");

    // The same connection and fresh connections both keep working: the
    // panic unwound past parking_lot guards without poisoning anything.
    assert_eq!(client.roundtrip(&Request::Ping).unwrap().0, Status::Ok);
    let mut fresh = Client::connect(&target).expect("fresh connect");
    let (status, body) = fresh.roundtrip(&query("fig2", "EXISTS R.book")).unwrap();
    assert_eq!(status, Status::Ok, "{body:?}");

    let (_, metrics) = fresh.roundtrip(&Request::Metrics).unwrap();
    assert!(metrics.contains("pxml_serve_panics_total 1"), "{metrics}");
    handle.shutdown_and_join().expect("drain");
}

#[test]
fn accept_cap_sheds_with_an_overloaded_frame() {
    let (handle, target, _) = start_fig2_with("max_conns_shed", |cfg| {
        cfg.max_conns = Some(1);
    });
    let mut first = Client::connect(&target).expect("connect");
    // A roundtrip guarantees the first connection is registered active
    // before the second one races the accept loop.
    assert_eq!(first.roundtrip(&Request::Ping).unwrap().0, Status::Ok);

    let Target::Tcp(addr) = &target else { unreachable!() };
    let mut second = TcpStream::connect(addr.as_str()).unwrap();
    let payload = protocol::read_frame(&mut second).unwrap().expect("shed frame");
    let (status, body) = protocol::parse_response(&payload).unwrap();
    assert_eq!(status, Status::BudgetRejected, "{body:?}");
    assert!(body.contains("overloaded"), "{body:?}");
    let mut end = Vec::new();
    second.read_to_end(&mut end).unwrap();
    assert!(end.is_empty(), "the shed connection closes after its frame");

    // The admitted client is unaffected and sees the shed counted.
    let (_, metrics) = first.roundtrip(&Request::Metrics).unwrap();
    assert!(metrics.contains("pxml_serve_shed_total 1"), "{metrics}");
    handle.shutdown_and_join().expect("drain");
}

#[test]
fn slow_loris_frames_are_dropped_at_the_deadline() {
    let (handle, target, _) = start_fig2_with("slow_loris", |cfg| {
        cfg.frame_deadline = std::time::Duration::from_millis(300);
    });
    let Target::Tcp(addr) = &target else { unreachable!() };
    let mut loris = TcpStream::connect(addr.as_str()).unwrap();
    // Half a length prefix, then silence: the deadline clock starts at
    // the first byte and the daemon hangs up when it expires.
    loris.write_all(&[0x00, 0x00]).unwrap();
    loris.flush().unwrap();
    let start = std::time::Instant::now();
    let mut end = Vec::new();
    loris.read_to_end(&mut end).unwrap();
    assert!(end.is_empty(), "no response is owed to a timed-out frame");
    assert!(
        start.elapsed() >= std::time::Duration::from_millis(250),
        "dropped only once the deadline passes, not immediately"
    );

    let mut client = Client::connect(&target).expect("connect");
    let (_, metrics) = client.roundtrip(&Request::Metrics).unwrap();
    assert!(metrics.contains("pxml_serve_timeouts_total 1"), "{metrics}");
    handle.shutdown_and_join().expect("drain");
}

#[test]
fn wal_metrics_families_and_checkpoint_rotation() {
    let dir = temp_dir("wal_metrics");
    // Fresh journal each run: a stale segment would replay old records.
    let wal_dir = dir.join("wal");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let fig2 = dir.join("fig2.pxmlb");
    save(&fig2_instance(), &fig2).expect("save fig2");
    let mut cfg = ServeConfig::ephemeral(vec![fig2]);
    cfg.wal_dir = Some(wal_dir);
    let handle = Server::start(cfg).expect("server starts");
    let port = handle.port().expect("tcp bind reports a port");
    let target = Target::Tcp(format!("127.0.0.1:{port}"));
    let mut client = Client::connect(&target).expect("connect");

    let (status, body) = client
        .roundtrip(&Request::Mutate {
            instance: "fig2".into(),
            options: RequestOptions::default(),
            ops: "SETEDGE R B1 PROB 0.25".into(),
        })
        .unwrap();
    assert_eq!(status, Status::Ok, "{body:?}");

    let (_, metrics) = client.roundtrip(&Request::Metrics).unwrap();
    for family in [
        "pxml_wal_appends_total",
        "pxml_wal_fsyncs_total",
        "pxml_wal_fsync_nanos_total",
        "pxml_wal_replayed_total",
        "pxml_wal_rotations_total",
    ] {
        assert!(metrics.contains(family), "missing {family} in:\n{metrics}");
    }
    assert!(metrics.contains("pxml_wal_appends_total{instance=\"fig2\"} 1"), "{metrics}");

    let (status, body) =
        client.roundtrip(&Request::Checkpoint { instance: "fig2".into() }).unwrap();
    assert_eq!(status, Status::Ok, "{body:?}");
    assert!(body.contains("checkpointed fig2"), "{body:?}");
    let (_, metrics) = client.roundtrip(&Request::Metrics).unwrap();
    assert!(metrics.contains("pxml_wal_rotations_total{instance=\"fig2\"} 1"), "{metrics}");
    handle.shutdown_and_join().expect("drain");
}

/// The RELOAD↔WAL rebind contract: a hot reload over a *changed*
/// snapshot must rebind the journal (fresh segment bound to the new
/// snapshot's CRC, acknowledged tail re-journalled). Without it the
/// segment keeps the old binding, every later MUTATE lands in a
/// stale-bound segment, and the next boot quarantines the whole journal
/// — acknowledged, fsynced writes silently lost.
#[test]
fn reload_rebinds_the_wal_so_reboot_keeps_acknowledged_writes() {
    let dir = temp_dir("reload_rebind");
    let wal_dir = dir.join("wal");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let fig2 = dir.join("fig2.pxmlb");
    save(&fig2_instance(), &fig2).expect("save fig2");
    let boot = |fig2: &PathBuf| -> (ServerHandle, Target) {
        let mut cfg = ServeConfig::ephemeral(vec![fig2.clone()]);
        cfg.wal_dir = Some(wal_dir.clone());
        let handle = Server::start(cfg).expect("server starts");
        let port = handle.port().expect("tcp bind reports a port");
        (handle, Target::Tcp(format!("127.0.0.1:{port}")))
    };
    let mutate = |ops: &str| Request::Mutate {
        instance: "fig2".into(),
        options: RequestOptions::default(),
        ops: ops.into(),
    };

    let (handle, target) = boot(&fig2);
    let mut client = Client::connect(&target).expect("connect");
    let (status, body) = client.roundtrip(&mutate("SETEDGE R B1 PROB 0.25")).unwrap();
    assert_eq!(status, Status::Ok, "{body:?}");

    // Replace the snapshot out of band — the main reason to RELOAD.
    let mut offline = QueryEngine::new(fig2_instance());
    let parsed = pxml_core::parse_ops(offline.instance(), "SETEDGE R B2 PROB 0.9")
        .expect("offline ops parse");
    for op in &parsed {
        offline.apply_mutation(op).expect("offline op applies");
    }
    save(offline.instance(), &fig2).expect("overwrite snapshot");

    let (status, body) =
        client.roundtrip(&Request::Reload { instance: "fig2".into() }).unwrap();
    assert_eq!(status, Status::Ok, "{body:?}");
    assert!(body.contains("replayed 1 journalled op"), "{body:?}");

    // A post-reload mutation journals into the rebound segment.
    let (status, body) = client.roundtrip(&mutate("SETEDGE R B1 PROB 0.125")).unwrap();
    assert_eq!(status, Status::Ok, "{body:?}");
    let probe = query("fig2", "POINT T2 IN R.book.title");
    let (status, live) = client.roundtrip(&probe).unwrap();
    assert_eq!(status, Status::Ok, "{live:?}");
    handle.shutdown_and_join().expect("drain");

    // Reboot over the same journal: nothing may be quarantined, both
    // acknowledged ops replay, and the recovered answer is bit-equal
    // to the pre-shutdown one.
    let (handle, target) = boot(&fig2);
    let orphans: Vec<String> = std::fs::read_dir(&wal_dir)
        .expect("wal dir listing")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains("orphaned"))
        .collect();
    assert!(orphans.is_empty(), "reboot quarantined the journal: {orphans:?}");
    let mut client = Client::connect(&target).expect("reconnect");
    let (_, metrics) = client.roundtrip(&Request::Metrics).unwrap();
    assert!(
        metrics.contains("pxml_wal_replayed_total{instance=\"fig2\"} 2"),
        "boot must replay both acknowledged ops:\n{metrics}"
    );
    let (status, recovered) = client.roundtrip(&probe).unwrap();
    assert_eq!(status, Status::Ok);
    assert_eq!(recovered, live, "recovered state diverged from the served state");
    handle.shutdown_and_join().expect("drain");
}

/// A panic inside a write verb may leave the engine half-mutated while
/// the op is already journalled; the daemon must not keep serving that
/// in-memory state. It rebuilds the slot from snapshot + journal, so
/// the live answers equal what the next boot would recover.
#[test]
fn panicking_mutate_rebuilds_the_slot_from_snapshot_and_journal() {
    let dir = temp_dir("panic_mutate");
    let wal_dir = dir.join("wal");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let fig2 = dir.join("fig2.pxmlb");
    save(&fig2_instance(), &fig2).expect("save fig2");
    let poison_ops = "SETEDGE R B1 PROB 0.5";
    let mut cfg = ServeConfig::ephemeral(vec![fig2]);
    cfg.wal_dir = Some(wal_dir);
    cfg.debug_panic_query = Some(poison_ops.into());
    let handle = Server::start(cfg).expect("server starts");
    let port = handle.port().expect("tcp bind reports a port");
    let target = Target::Tcp(format!("127.0.0.1:{port}"));

    let mut client = Client::connect(&target).expect("connect");
    let first_ops = "SETEDGE R B1 PROB 0.25";
    let (status, body) = client
        .roundtrip(&Request::Mutate {
            instance: "fig2".into(),
            options: RequestOptions::default(),
            ops: first_ops.into(),
        })
        .unwrap();
    assert_eq!(status, Status::Ok, "{body:?}");

    // The hook panics after the journal append, before the apply.
    let (status, body) = client
        .roundtrip(&Request::Mutate {
            instance: "fig2".into(),
            options: RequestOptions::default(),
            ops: poison_ops.into(),
        })
        .unwrap();
    assert_eq!(status, Status::RunError, "{body:?}");
    assert!(body.contains("panic"), "{body:?}");
    assert!(body.contains("rebuilt"), "{body:?}");

    // A fresh connection sees the daemon serving, with the slot state
    // equal to snapshot + full journal — including the journalled op
    // whose apply panicked (that is what a reboot would recover too).
    let mut fresh = Client::connect(&target).expect("fresh connect");
    let probe = query("fig2", "POINT T2 IN R.book.title");
    let (status, live) = fresh.roundtrip(&probe).unwrap();
    assert_eq!(status, Status::Ok, "{live:?}");
    let oracle = {
        let mut engine = QueryEngine::new(fig2_instance());
        for text in [first_ops, poison_ops] {
            let parsed =
                pxml_core::parse_ops(engine.instance(), text).expect("oracle ops parse");
            for op in &parsed {
                engine.apply_mutation(op).expect("oracle op applies");
            }
        }
        engine
    };
    let q = translate_query(oracle.instance(), "POINT T2 IN R.book.title").expect("probe");
    assert_eq!(live, format!("{:.6}", oracle.run(&q).expect("oracle run")));

    let (_, metrics) = fresh.roundtrip(&Request::Metrics).unwrap();
    assert!(metrics.contains("pxml_serve_panics_total 1"), "{metrics}");
    handle.shutdown_and_join().expect("drain");
}

#[test]
fn concurrent_mixed_clients_never_error() {
    let (handle, target, _) = start_two("concurrent");
    let g = generate(&WorkloadConfig::paper(4, 2, Labeling::SameLabel, 11));
    let workers: Vec<_> = (0..8u64)
        .map(|w| {
            let target = target.clone();
            let stream = serve_workload(&g, 25, 200, 1000 + w);
            std::thread::spawn(move || {
                let mut client = Client::connect(&target).expect("connect");
                for req in stream {
                    let wire = match req {
                        ServeRequest::Query(q) => query("gen", &q),
                        ServeRequest::Mutate(ops) => Request::Mutate {
                            instance: "gen".into(),
                            options: RequestOptions::default(),
                            ops,
                        },
                    };
                    let (status, body) = client.roundtrip(&wire).expect("roundtrip");
                    assert_eq!(status, Status::Ok, "{body:?}");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker panicked");
    }
    // The daemon notices each client's EOF within its read-timeout tick.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while handle.active_connections() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(handle.active_connections(), 0, "clients disconnected cleanly");
    handle.shutdown_and_join().expect("drain");
}

/// RELOAD runs its load, build and journal rebind under the slot's
/// `writer` lock alone, so readers keep answering from the old engine
/// until the swap. The instance (9 841 objects) is large enough that
/// the reload takes about 200 ms in a debug build; queries sent on a
/// second connection once the RELOAD frame is on the wire must all be
/// answered — correctly, and none after waiting out the reload —
/// before the RELOAD reply arrives.
#[test]
fn reload_does_not_stall_readers() {
    let dir = temp_dir("reload_readers");
    let path = dir.join("big.pxmlb");
    let g = generate(&WorkloadConfig::paper(8, 3, Labeling::SameLabel, 5));
    save(&g.instance, &path).expect("save generated instance");
    let handle = Server::start(ServeConfig::ephemeral(vec![path])).expect("server starts");
    let port = handle.port().expect("tcp bind reports a port");
    let target = Target::Tcp(format!("127.0.0.1:{port}"));

    // Probe queries with their oracle answers; one pass warms the
    // daemon's cache so each probe during the reload is a cheap hit.
    let oracle = QueryEngine::new(g.instance.clone());
    let probes: Vec<(Request, String)> = serve_workload(&g, 64, 0, 9)
        .into_iter()
        .filter_map(|r| match r {
            ServeRequest::Query(line) => Some(line),
            ServeRequest::Mutate(_) => None,
        })
        .take(8)
        .map(|line| {
            let q = translate_query(oracle.instance(), &line).expect("probe translates");
            let expected = format!("{:.6}", oracle.run(&q).expect("oracle run"));
            (query("big", &line), expected)
        })
        .collect();
    let mut reader = Client::connect(&target).expect("connect reader");
    for (req, expected) in &probes {
        assert_eq!(reader.roundtrip(req).unwrap(), (Status::Ok, expected.clone()));
    }

    // The RELOAD connection is proven live by a PING first, so its
    // frame is read the moment it lands.
    let (sent_tx, sent_rx) = std::sync::mpsc::channel();
    let reloader = std::thread::spawn(move || {
        let Target::Tcp(addr) = target else { unreachable!() };
        let mut conn = TcpStream::connect(addr.as_str()).expect("connect reloader");
        conn.set_nodelay(true).expect("nodelay");
        let mut roundtrip = |req: &Request, sent: Option<&std::sync::mpsc::Sender<()>>| {
            protocol::write_frame(&mut conn, req.render().as_bytes()).expect("send");
            if let Some(tx) = sent {
                tx.send(()).expect("signal reload sent");
            }
            let payload = protocol::read_frame(&mut conn).expect("read").expect("a reply");
            let reply = protocol::parse_response(&payload).expect("parse reply");
            (reply, std::time::Instant::now())
        };
        assert_eq!(roundtrip(&Request::Ping, None).0, (Status::Ok, "pong".into()));
        let started = std::time::Instant::now();
        let ((status, body), replied) =
            roundtrip(&Request::Reload { instance: "big".into() }, Some(&sent_tx));
        assert_eq!(status, Status::Ok, "{body:?}");
        (replied, replied - started)
    });

    sent_rx.recv().expect("reload frame sent");
    let mut answered = Vec::new();
    let mut slowest = std::time::Duration::ZERO;
    for _ in 0..5 {
        for (req, expected) in &probes {
            let sent = std::time::Instant::now();
            assert_eq!(reader.roundtrip(req).unwrap(), (Status::Ok, expected.clone()));
            let now = std::time::Instant::now();
            slowest = slowest.max(now - sent);
            answered.push(now);
        }
    }
    let (reload_replied, reload_took) = reloader.join().expect("reloader panicked");
    let late = answered.iter().filter(|t| **t > reload_replied).count();
    assert_eq!(late, 0, "{late} of {} queries outlived a {reload_took:?} reload", answered.len());
    assert!(
        slowest < reload_took / 2,
        "a query took {slowest:?}, waiting out the {reload_took:?} reload"
    );
    handle.shutdown_and_join().expect("drain");
}
