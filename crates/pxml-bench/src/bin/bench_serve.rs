//! Concurrent load test for the `pxml serve` daemon, run fully
//! in-process, writing the numbers to `BENCH_serve.json`.
//!
//! Usage:
//! ```text
//! bench_serve [--out FILE] [--requests N] [--clients N] [--mutate-per-mille N]
//! ```
//!
//! Three phases against one daemon over a §7.1 instance (depth 5,
//! branching 2, same-label):
//!
//! 1. **Correctness** — `--requests` query-only requests split across
//!    `--clients` persistent connections; every wire answer must be
//!    byte-equal to an ungoverned local [`QueryEngine`] over the same
//!    instance file (checksum-equal by construction).
//! 2. **Mixed throughput** — each client drives its own deterministic
//!    [`serve_workload`] stream (`--mutate-per-mille`‰ writes routed
//!    through governed dirty-set invalidation); every response must be
//!    status ok. Headlines: requests/s, p50/p99 latency.
//! 3. **Admission hammer** — a direct [`MarginalCache`] loop hurling
//!    oversized entries at a warm ceiling-governed cache. Before the
//!    thrash fix every put evicted the shard; the headline
//!    `spurious_evictions` must be 0 (and every put a counted refusal).

use std::sync::Arc;
use std::time::Instant;

use pxml_cli::protocol::{Request, RequestOptions, Status};
use pxml_cli::serve::{Client, Server, ServeConfig, Target};
use pxml_cli::translate_query;
use pxml_gen::{generate, serve_workload, Labeling, ServeRequest, WorkloadConfig};
use pxml_query::{MarginalCache, QueryEngine};

fn percentile_us(nanos: &mut [u64], p: f64) -> f64 {
    if nanos.is_empty() {
        return 0.0;
    }
    nanos.sort_unstable();
    let idx = ((nanos.len() - 1) as f64 * p).round() as usize;
    nanos[idx] as f64 / 1e3
}

fn wire_query(line: &str) -> Request {
    Request::Query {
        instance: "serve_bench".into(),
        options: RequestOptions::default(),
        query: line.into(),
    }
}

/// Splits `stream` across `clients` threads, each on its own persistent
/// connection; returns `(line, body)` per request plus latencies.
fn drive(
    target: &Target,
    stream: Vec<ServeRequest>,
    clients: usize,
) -> (Vec<(String, String)>, Vec<u64>, usize) {
    let chunk = stream.len().div_ceil(clients);
    let chunks: Vec<Vec<ServeRequest>> =
        stream.chunks(chunk.max(1)).map(|c| c.to_vec()).collect();
    let workers: Vec<_> = chunks
        .into_iter()
        .map(|reqs| {
            let target = target.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&target).expect("connect");
                let mut answers = Vec::with_capacity(reqs.len());
                let mut latencies = Vec::with_capacity(reqs.len());
                let mut mutations = 0usize;
                for req in reqs {
                    let (line, wire) = match &req {
                        ServeRequest::Query(q) => (q.clone(), wire_query(q)),
                        ServeRequest::Mutate(ops) => {
                            mutations += 1;
                            (
                                ops.clone(),
                                Request::Mutate {
                                    instance: "serve_bench".into(),
                                    options: RequestOptions::default(),
                                    ops: ops.clone(),
                                },
                            )
                        }
                    };
                    let t = Instant::now();
                    let (status, body) = client.roundtrip(&wire).expect("roundtrip");
                    latencies.push(t.elapsed().as_nanos() as u64);
                    assert_eq!(status, Status::Ok, "{line:?} -> {body:?}");
                    if matches!(req, ServeRequest::Query(_)) {
                        answers.push((line, body));
                    }
                }
                (answers, latencies, mutations)
            })
        })
        .collect();
    let mut answers = Vec::new();
    let mut latencies = Vec::new();
    let mut mutations = 0;
    for w in workers {
        let (a, l, m) = w.join().expect("client thread panicked");
        answers.extend(a);
        latencies.extend(l);
        mutations += m;
    }
    (answers, latencies, mutations)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
    };
    let out = get("--out").unwrap_or_else(|| "BENCH_serve.json".into());
    let requests: usize = get("--requests").and_then(|v| v.parse().ok()).unwrap_or(2000);
    let clients: usize = get("--clients").and_then(|v| v.parse().ok()).unwrap_or(16);
    let mpm: u32 = get("--mutate-per-mille").and_then(|v| v.parse().ok()).unwrap_or(100);

    let g = generate(&WorkloadConfig::paper(5, 2, Labeling::SameLabel, 42));
    let dir = std::env::temp_dir().join("pxml-bench-serve");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("serve_bench.pxmlb");
    pxml_storage::write_binary_file(&g.instance, &path).expect("write instance");
    eprintln!(
        "bench_serve: {} objects, {requests} requests/phase, {clients} clients, {mpm}permille writes",
        g.instance.object_count()
    );

    let handle =
        Server::start(ServeConfig::ephemeral(vec![path.clone()])).expect("server starts");
    let port = handle.port().expect("ephemeral port");
    let target = Target::Tcp(format!("127.0.0.1:{port}"));

    // Phase 1: correctness — concurrent answers vs the local engine.
    let queries = serve_workload(&g, requests, 0, 7);
    let phase1_n = queries.len();
    let started = Instant::now();
    let (answers, mut lat1, _) = drive(&target, queries, clients);
    let phase1_ms = started.elapsed().as_secs_f64() * 1e3;
    let local = QueryEngine::new(g.instance.clone());
    let mut wire_checksum = 0.0;
    let mut local_checksum = 0.0;
    for (line, body) in &answers {
        let q = translate_query(local.instance(), line).expect("query resolves");
        let expected = format!("{:.6}", local.run(&q).expect("local run"));
        assert_eq!(body, &expected, "divergent answer for {line:?}");
        wire_checksum += body.parse::<f64>().expect("numeric answer");
        local_checksum += expected.parse::<f64>().expect("numeric answer");
    }
    assert!(
        (wire_checksum - local_checksum).abs() < 1e-9,
        "checksums diverge: wire {wire_checksum} vs local {local_checksum}"
    );
    eprintln!(
        "phase 1: {phase1_n} concurrent answers checksum-equal to the batch engine ({:.6})",
        wire_checksum
    );

    // Phase 2: mixed read/write throughput, one stream per client.
    let per_client = requests.div_ceil(clients);
    let streams: Vec<ServeRequest> = (0..clients as u64)
        .flat_map(|c| serve_workload(&g, per_client, mpm, 1000 + c))
        .collect();
    let phase2_n = streams.len();
    let started = Instant::now();
    let (_, mut lat2, mutations) = drive(&target, streams, clients);
    let phase2_ms = started.elapsed().as_secs_f64() * 1e3;
    let rps = phase2_n as f64 / (phase2_ms / 1e3);
    eprintln!(
        "phase 2: {phase2_n} mixed requests ({mutations} mutations) in {phase2_ms:.0} ms = {rps:.0} req/s"
    );
    handle.shutdown_and_join().expect("daemon drains");

    // Phase 3: the admission-thrash hammer on a bare cache.
    let cache = MarginalCache::new();
    cache.set_max_bytes(2048);
    for i in 0..8u32 {
        cache.put_link(i, 0, 0.5);
    }
    let warm_bytes = cache.approx_bytes();
    // One layer of 1000 arena indices.
    let oversized: Arc<Vec<Vec<u32>>> = Arc::new(vec![(0..1000).collect()]);
    let hammer_puts = 10_000u64;
    let started = Instant::now();
    for i in 0..hammer_puts {
        cache.put_layers(
            pxml_core::ObjectId::from_raw(i as u32),
            pxml_core::LabelPath::new(vec![pxml_core::Label::from_raw(0)]),
            Arc::clone(&oversized),
        );
    }
    let hammer_ms = started.elapsed().as_secs_f64() * 1e3;
    let spurious_evictions = cache.evictions();
    assert_eq!(spurious_evictions, 0, "oversized puts must never evict warm state");
    assert_eq!(cache.admission_rejections(), hammer_puts);
    assert_eq!(cache.approx_bytes(), warm_bytes, "warm footprint must be untouched");
    eprintln!(
        "phase 3: {hammer_puts} oversized puts in {hammer_ms:.1} ms, {spurious_evictions} spurious evictions"
    );

    let json = format!(
        "{{\n  \"workload\": {{\n    \"labeling\": \"sl\", \"depth\": 5, \"branching\": 2,\n    \"objects\": {}, \"clients\": {clients}, \"mutate_per_mille\": {mpm}\n  }},\n  \"correctness\": {{\n    \"requests\": {phase1_n},\n    \"verified_answers\": {},\n    \"checksum\": {wire_checksum:.9},\n    \"wall_ms\": {phase1_ms:.3},\n    \"p50_us\": {:.3},\n    \"p99_us\": {:.3}\n  }},\n  \"mixed\": {{\n    \"requests\": {phase2_n},\n    \"mutations\": {mutations},\n    \"wall_ms\": {phase2_ms:.3},\n    \"requests_per_s\": {rps:.1},\n    \"p50_us\": {:.3},\n    \"p99_us\": {:.3}\n  }},\n  \"admission_hammer\": {{\n    \"oversized_puts\": {hammer_puts},\n    \"spurious_evictions\": {spurious_evictions},\n    \"rejections\": {},\n    \"wall_ms\": {hammer_ms:.3}\n  }}\n}}\n",
        g.instance.object_count(),
        answers.len(),
        percentile_us(&mut lat1, 0.50),
        percentile_us(&mut lat1, 0.99),
        percentile_us(&mut lat2, 0.50),
        percentile_us(&mut lat2, 0.99),
        cache.admission_rejections(),
    );
    std::fs::write(&out, &json).expect("write BENCH_serve.json");
    println!("wrote {out}");
}
