//! Chaos differential for WAL crash recovery: a daemon that loses its
//! process mid-mutation-stream must come back — journal torn at an
//! arbitrary record boundary — answering exactly like an uncrashed
//! oracle engine that applied the surviving acknowledged prefix.
//!
//! The crash is simulated rather than delivered as a signal (the ci.sh
//! smoke covers a literal `kill -9` against the real binary): the
//! stream-phase daemon is dropped, then the segment file is truncated
//! at a chosen record boundary with garbage or a half-written frame
//! appended, exactly the on-disk states a torn `write` leaves behind.

use std::path::{Path, PathBuf};

use pxml_cli::protocol::{Request, RequestOptions, Status};
use pxml_cli::serve::{Client, Server, ServeConfig, ServerHandle, Target};
use pxml_cli::{load, save, translate_query};
use pxml_gen::{
    generate, serve_workload, GeneratedInstance, Labeling, ServeRequest, WorkloadConfig,
};
use pxml_query::QueryEngine;
use pxml_storage::recover_segment;

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pxml-wal-recovery").join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Boots a WAL-backed daemon over `snapshot` (journal in `wal`).
fn boot(snapshot: &Path, wal: &Path) -> (ServerHandle, Target) {
    let mut cfg = ServeConfig::ephemeral(vec![snapshot.to_path_buf()]);
    cfg.wal_dir = Some(wal.to_path_buf());
    let handle = Server::start(cfg).expect("server starts");
    let port = handle.port().expect("tcp bind reports a port");
    (handle, Target::Tcp(format!("127.0.0.1:{port}")))
}

/// The uncrashed oracle: a fresh engine over `snapshot` that applies
/// the first `k` ops of the acknowledged stream, op by op, exactly as
/// the daemon journalled and applied them.
fn oracle_after(snapshot: &Path, acked: &[String], k: usize) -> QueryEngine {
    let mut engine = QueryEngine::new(load(snapshot).expect("load snapshot"));
    let mut applied = 0usize;
    'outer: for ops in acked {
        let parsed =
            pxml_core::parse_ops(engine.instance(), ops).expect("acked ops parse");
        for op in &parsed {
            if applied == k {
                break 'outer;
            }
            engine.apply_mutation(op).expect("acked op applies");
            applied += 1;
        }
    }
    assert_eq!(applied, k, "stream holds at least {k} ops");
    engine
}

#[test]
fn acknowledged_prefix_survives_simulated_crashes() {
    let dir = scratch("chaos");
    let snapshot = dir.join("gen.pxmlb");
    let g = generate(&WorkloadConfig::paper(4, 2, Labeling::SameLabel, 11));
    save(&g.instance, &snapshot).expect("save generated instance");
    let wal_dir = dir.join("wal");

    // Phase 1: stream 500 mutations at a WAL-backed daemon, recording
    // every acknowledged request body.
    let (handle, target) = boot(&snapshot, &wal_dir);
    let mut client = Client::connect(&target).expect("connect");
    let mut acked: Vec<String> = Vec::new();
    for req in serve_workload(&g, 500, 1000, 4242) {
        let ServeRequest::Mutate(ops) = req else { continue };
        let (status, body) = client
            .roundtrip(&Request::Mutate {
                instance: "gen".into(),
                options: RequestOptions::default(),
                ops: ops.clone(),
            })
            .expect("roundtrip");
        assert_eq!(status, Status::Ok, "{body:?}");
        acked.push(ops);
    }
    assert!(acked.len() >= 400, "only {} mutations streamed", acked.len());
    handle.shutdown_and_join().expect("drain");

    // The journal holds one record per acknowledged op; its offsets are
    // the record boundaries the crashes below tear at.
    let segment = wal_dir.join("gen.wal");
    let seg = recover_segment(&segment).expect("stream-phase segment recovers");
    assert!(!seg.torn, "a drained daemon leaves no torn tail");
    let total = seg.offsets.len();
    assert_eq!(total, seg.records.len(), "offsets and records agree");
    let acked_ops = {
        // Count every op in the acked stream by replaying it fully.
        let mut engine = QueryEngine::new(load(&snapshot).expect("load"));
        let mut n = 0usize;
        for ops in &acked {
            let parsed = pxml_core::parse_ops(engine.instance(), ops).expect("parse");
            for op in &parsed {
                engine.apply_mutation(op).expect("apply");
                n += 1;
            }
        }
        n
    };
    assert_eq!(total, acked_ops, "one journal record per acknowledged op");

    // Three crash points: an early boundary with a garbage tail, a late
    // boundary torn mid-record, and full survival with no tear at all.
    let cases: [(&str, usize, &[u8]); 3] = [
        ("garbage-tail", total / 3, b"\x17\x00\x00\x00torn-garbage"),
        ("mid-record", 2 * total / 3, b"partial"),
        ("full-survival", total, b""),
    ];
    for (tag, k, tail) in cases {
        let case_dir = dir.join(tag);
        let case_wal = case_dir.join("wal");
        std::fs::create_dir_all(&case_wal).expect("case dirs");
        let case_snapshot = case_dir.join("gen.pxmlb");
        std::fs::copy(&snapshot, &case_snapshot).expect("copy snapshot");
        let case_segment = case_wal.join("gen.wal");
        std::fs::copy(&segment, &case_segment).expect("copy segment");

        // Tear: keep the first k records, then the torn-write residue.
        let bytes = std::fs::read(&case_segment).expect("segment bytes");
        let cut = if k == 0 { 28 } else { seg.offsets[k - 1] as usize };
        let mut torn = bytes[..cut].to_vec();
        torn.extend_from_slice(tail);
        std::fs::write(&case_segment, &torn).expect("write torn segment");

        // Phase 2: reboot over the torn journal and differential-test
        // 200 queries slot for slot against the oracle.
        let (handle, target) = boot(&case_snapshot, &case_wal);
        let mut client = Client::connect(&target).expect("reconnect");
        let (_, metrics) = client.roundtrip(&Request::Metrics).expect("metrics");
        assert!(
            metrics.contains(&format!("pxml_wal_replayed_total{{instance=\"gen\"}} {k}")),
            "[{tag}] boot must replay exactly the surviving prefix:\n{metrics}"
        );

        let oracle = oracle_after(&case_snapshot, &acked, k);
        let mut compared = 0usize;
        for req in serve_workload(&g, 200, 0, 77) {
            let ServeRequest::Query(line) = req else { continue };
            let wire = Request::Query {
                instance: "gen".into(),
                options: RequestOptions::default(),
                query: line.clone(),
            };
            let (status, body) = client.roundtrip(&wire).expect("roundtrip");
            match translate_query(oracle.instance(), &line) {
                Ok(q) => {
                    let expected = format!("{:.6}", oracle.run(&q).expect("oracle run"));
                    assert_eq!(
                        (status, body),
                        (Status::Ok, expected),
                        "[{tag}] query {line:?} diverged from the oracle"
                    );
                    compared += 1;
                }
                // Mutations may have deleted a name the workload query
                // mentions; the daemon must refuse it identically.
                Err(_) => assert_eq!(status, Status::BadRequest, "[{tag}] {line:?}"),
            }
        }
        assert!(compared >= 100, "[{tag}] only {compared} queries compared");
        handle.shutdown_and_join().expect("drain");
    }
}

/// One racing round: a writer streams `ops` as MUTATEs, a second
/// client loops CHECKPOINT until the writer is halfway through (so the
/// round's last checkpoint is not followed by another that would
/// capture an op it dropped), and a third queries until the writer is
/// done. Returns the number of checkpoints taken.
fn race_checkpoints_against(target: &Target, g: &GeneratedInstance, ops: &[String]) -> usize {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let acked = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let checkpointer = s.spawn(|| {
            let mut client = Client::connect(target).expect("connect checkpointer");
            let mut n = 0usize;
            while acked.load(Ordering::SeqCst) < ops.len() / 2 {
                let (status, body) = client
                    .roundtrip(&Request::Checkpoint { instance: "gen".into() })
                    .expect("checkpoint roundtrip");
                assert_eq!(status, Status::Ok, "{body:?}");
                n += 1;
            }
            n
        });
        s.spawn(|| {
            let mut client = Client::connect(target).expect("connect reader");
            let lines: Vec<String> = serve_workload(g, 200, 0, 5)
                .into_iter()
                .filter_map(|r| match r {
                    ServeRequest::Query(line) => Some(line),
                    ServeRequest::Mutate(_) => None,
                })
                .collect();
            for line in lines.iter().cycle() {
                if acked.load(Ordering::SeqCst) == ops.len() {
                    break;
                }
                let wire = Request::Query {
                    instance: "gen".into(),
                    options: RequestOptions::default(),
                    query: line.clone(),
                };
                let (status, body) = client.roundtrip(&wire).expect("query roundtrip");
                // A mutation may delete a name the query mentions.
                assert!(matches!(status, Status::Ok | Status::BadRequest), "{line:?}: {body:?}");
            }
        });
        let mut client = Client::connect(target).expect("connect writer");
        for ops in ops {
            let (status, body) = client
                .roundtrip(&Request::Mutate {
                    instance: "gen".into(),
                    options: RequestOptions::default(),
                    ops: ops.clone(),
                })
                .expect("mutate roundtrip");
            assert_eq!(status, Status::Ok, "{body:?}");
            acked.fetch_add(1, Ordering::SeqCst);
        }
        checkpointer.join().expect("checkpointer panicked")
    })
}

/// CHECKPOINT saves the snapshot and rotates the journal while holding
/// the slot's `writer` lock. Without it, a MUTATE could journal its
/// record after the snapshot was captured and before the rotation; the
/// rotation would drop that acknowledged op. Each round races
/// checkpoints, queries and a mutation stream, then reboots from
/// snapshot + journal: the recovered instance must be byte-equal to an
/// oracle that applied every acknowledged op in order, and every probe
/// must answer like it.
#[test]
fn checkpoint_racing_mutate_loses_no_acknowledged_op() {
    let dir = scratch("checkpoint_race");
    let snapshot = dir.join("gen.pxmlb");
    let expected = dir.join("oracle.pxmlb");
    // 510 edges and 256 distinct SETEDGE ops: a later op rarely
    // overwrites the edge of an earlier one, so a lost op shows.
    let g = generate(&WorkloadConfig::paper(8, 2, Labeling::SameLabel, 11));
    save(&g.instance, &snapshot).expect("save generated instance");
    let mut oracle = QueryEngine::new(g.instance.clone());
    let stream: Vec<String> = serve_workload(&g, 256, 1000, 99)
        .into_iter()
        .filter_map(|r| match r {
            ServeRequest::Mutate(ops) => Some(ops),
            ServeRequest::Query(_) => None,
        })
        .collect();
    assert_eq!(stream.len(), 256, "an all-mutate stream");
    let wal_dir = dir.join("wal");

    let (mut handle, mut target) = boot(&snapshot, &wal_dir);
    for (round, ops) in stream.chunks(64).enumerate() {
        let checkpoints = race_checkpoints_against(&target, &g, ops);
        assert!(checkpoints >= 2, "[round {round}] only {checkpoints} checkpoint(s) raced");
        handle.shutdown_and_join().expect("drain");
        for text in ops {
            let parsed = pxml_core::parse_ops(oracle.instance(), text).expect("acked ops parse");
            for op in &parsed {
                oracle.apply_mutation(op).expect("acked op applies");
            }
        }

        // Reboot from the last checkpoint's snapshot plus its journal,
        // then checkpoint the recovered state to compare all of it.
        (handle, target) = boot(&snapshot, &wal_dir);
        let mut client = Client::connect(&target).expect("reconnect");
        let (status, body) = client
            .roundtrip(&Request::Checkpoint { instance: "gen".into() })
            .expect("checkpoint the recovered state");
        assert_eq!(status, Status::Ok, "{body:?}");
        save(oracle.instance(), &expected).expect("save oracle");
        assert!(
            std::fs::read(&snapshot).expect("recovered snapshot")
                == std::fs::read(&expected).expect("oracle snapshot"),
            "[round {round}] recovered state differs from the oracle: an acknowledged op was lost"
        );
    }

    let mut client = Client::connect(&target).expect("reconnect");
    let mut compared = 0usize;
    for req in serve_workload(&g, 300, 0, 123) {
        let ServeRequest::Query(line) = req else { continue };
        let wire = Request::Query {
            instance: "gen".into(),
            options: RequestOptions::default(),
            query: line.clone(),
        };
        let (status, body) = client.roundtrip(&wire).expect("probe roundtrip");
        match translate_query(oracle.instance(), &line) {
            Ok(q) => {
                let expected = format!("{:.6}", oracle.run(&q).expect("oracle run"));
                assert_eq!((status, body), (Status::Ok, expected), "probe {line:?} diverged");
                compared += 1;
            }
            Err(_) => assert_eq!(status, Status::BadRequest, "{line:?}"),
        }
    }
    assert!(compared >= 100, "only {compared} probes compared");
    handle.shutdown_and_join().expect("drain");
}
