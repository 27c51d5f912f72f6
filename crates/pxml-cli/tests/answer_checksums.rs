//! Pinned answer checksums at the 10⁴–10⁵ scale of the two benchmark
//! workloads, so a change to the evaluator that moves any answer by one
//! bit fails here instead of in a hand-run replay.
//!
//! Both replays run sequentially through `translate_query` +
//! `QueryEngine::run` and hash every answer with FNV-1a over its
//! little-endian `to_bits`:
//!
//! * `cold_reads_1e5` — every line of the workload's 8 192-query pool,
//!   in pool order, under the workload's 256 KiB cache ceiling;
//! * `mixed_rw_1e4` — the workload's warm-up at `--seed 1`: every
//!   distinct query once, then one cycle of each client stream, with
//!   its 811 writes applied through `QueryEngine::apply_mutation`;
//!   replayed again with the static pre-flight stage on, which must
//!   serve the same answers.
//!
//! The pools and streams mirror `e2ebench/src/workload.rs` (`sub_seed`,
//! `distinct_queries`, the `Mixed` pool, shuffle and warm-up order); if
//! that file changes how it draws requests, change this one with it.
//!
//! Building the 87k-object pool takes about 1.5 s in a release build and
//! far longer in a debug one, so the test is `#[ignore]`d; run it with
//! `cargo test --release --offline -p pxml-cli --test answer_checksums -- --ignored`.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use pxml_cli::translate_query;
use pxml_gen::{
    generate, serve_workload, GeneratedInstance, Labeling, ServeRequest, WorkloadConfig,
};
use pxml_query::{QueryEngine, StatsSnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `e2ebench/src/workload.rs`: a seed for one purpose, derived from a
/// run's seed.
fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `e2ebench/src/workload.rs`: exactly `n` distinct query lines, in
/// generation order.
fn distinct_queries(g: &GeneratedInstance, n: usize, seed: u64) -> Vec<String> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    for round in 0u64.. {
        let batch = serve_workload(g, n + n / 2, 0, sub_seed(seed, round));
        assert!(!batch.is_empty(), "the instance yields no accepted queries");
        for r in batch {
            if let ServeRequest::Query(line) = r {
                if out.len() < n && seen.insert(line.clone()) {
                    out.push(line);
                }
            }
        }
        if out.len() == n {
            break;
        }
    }
    out
}

/// `e2ebench/src/workload.rs`: Fisher–Yates shuffle.
fn shuffle(v: &mut [u32], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// FNV-1a over the little-endian bytes of each answer's `to_bits`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, answer: f64) {
        for b in answer.to_bits().to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Answers one query line and folds it into `sum`.
fn answer(engine: &QueryEngine, line: &str, sum: &mut Fnv) {
    let q = translate_query(engine.instance(), line).unwrap_or_else(|e| panic!("{line}: {e}"));
    sum.add(engine.run(&q).unwrap_or_else(|e| panic!("{line}: {e}")));
}

#[test]
#[ignore = "builds a 10^5-object pool; run in release with --ignored"]
fn cold_reads_1e5_pool_checksum_is_pinned() {
    // `cold_reads_1e5`: depth 8, branching 4, fully random labels,
    // instance seed 0x1e5, an 8 192-line pool, 256 KiB cache ceiling.
    let g = generate(&WorkloadConfig::paper(8, 4, Labeling::FullyRandom, 0x1e5));
    let pool = distinct_queries(&g, 8192, sub_seed(0x1e5, 1));
    let engine = QueryEngine::with_threads(g.instance, 1);
    engine.set_max_cache_bytes(256 * 1024);
    let mut sum = Fnv::new();
    for line in &pool {
        answer(&engine, line, &mut sum);
    }
    assert_eq!(format!("{:016x}", sum.0), "393eabcd5f684cb7");
    let s = engine.stats();
    assert_eq!((s.result_hits, s.opf_entries_visited), (0, 1_706_464), "(result_hits, opf_entries_visited)");
}

/// The total `apply_mutation` time of the warm-up replay before cached
/// point and exists results were tested by subtree numbers and path
/// prefixes (median of eight release runs on a shared 2-vCPU host,
/// which read 116–209 ms), printed beside each replay's own figure for
/// information only.
const PARENT_APPLY_MS: u32 = 162;

/// What one replay of the `mixed_rw_1e4` warm-up served.
struct Replay {
    /// FNV-1a over every answer's `to_bits`.
    sum: u64,
    /// Queries answered.
    answers: usize,
    /// MUTATE requests applied.
    writes: usize,
    /// Cache entries the writes evicted.
    evicted: u64,
    /// The engine's counters after the replay.
    stats: StatsSnapshot,
}

/// Replays the `mixed_rw_1e4` warm-up at `--seed 1` through one engine,
/// with the static pre-flight stage on or off.
fn replay_mixed_rw_1e4_warmup(preflight: bool) -> Replay {
    // `mixed_rw_1e4`: depth 8, branching 3, same-label, instance seed
    // 0x1e4, two clients with 4 096-request streams at 100‰ MUTATE; run
    // seed 1 picks the stream order.
    const INSTANCE_SEED: u64 = 0x1e4;
    const CLIENTS: u64 = 2;
    let seed = 1;
    let g = generate(&WorkloadConfig::paper(8, 3, Labeling::SameLabel, INSTANCE_SEED));
    let mut pool: Vec<ServeRequest> = Vec::new();
    let mut index: HashMap<String, u32> = HashMap::new();
    let mut streams: Vec<Vec<u32>> = Vec::new();
    for c in 0..CLIENTS {
        let reqs = serve_workload(&g, 4096, 100, sub_seed(INSTANCE_SEED, 100 + c));
        let mut ids: Vec<u32> = reqs
            .into_iter()
            .map(|r| {
                *index.entry(format!("{r:?}")).or_insert_with(|| {
                    pool.push(r);
                    pool.len() as u32 - 1
                })
            })
            .collect();
        shuffle(&mut ids, &mut StdRng::seed_from_u64(sub_seed(seed, 100 + c)));
        streams.push(ids);
    }
    let is_query = |i: &u32| matches!(pool[*i as usize], ServeRequest::Query(_));
    let mut warmup: Vec<u32> = (0..pool.len() as u32).filter(is_query).collect();
    warmup.extend(streams.concat());

    let mut engine = QueryEngine::with_threads(g.instance, 1);
    engine.set_preflight(preflight);
    let started = Instant::now();
    let (mut sum, mut answers, mut writes, mut evicted) = (Fnv::new(), 0, 0, 0);
    for &i in &warmup {
        match &pool[i as usize] {
            ServeRequest::Query(line) => {
                answer(&engine, line, &mut sum);
                answers += 1;
            }
            ServeRequest::Mutate(ops) => {
                let ops =
                    pxml_core::parse_ops(engine.instance(), ops).expect("generated ops parse");
                for op in ops {
                    let out = engine.apply_mutation(&op).expect("generated ops apply");
                    evicted += out.invalidated.total();
                }
                writes += 1;
            }
        }
    }
    let stats = engine.stats();
    eprintln!(
        "warm-up replay (preflight {preflight}): {:?}, of which apply_mutation {:.1} ms \
         (the parent commit's median: {PARENT_APPLY_MS} ms on a 2-vCPU host)",
        started.elapsed(),
        stats.mutation_nanos as f64 / 1e6
    );
    Replay { sum: sum.0, answers, writes, evicted, stats }
}

#[test]
#[ignore = "builds a 10^4-object workload; run in release with --ignored"]
fn mixed_rw_1e4_warmup_checksum_is_pinned() {
    let r = replay_mixed_rw_1e4_warmup(false);
    assert_eq!((r.answers, r.writes), (10_544, 811));
    assert_eq!(format!("{:016x}", r.sum), "92d55c79f8e3cc40");
    assert_eq!(r.evicted, 3_252, "cache entries evicted by the writes");
    assert_eq!(r.stats.result_hits, 5_306);
    assert_eq!(r.stats.opf_entries_visited, 746_008);
}

#[test]
#[ignore = "builds a 10^4-object workload; run in release with --ignored"]
fn mixed_rw_1e4_warmup_is_unchanged_by_preflight() {
    // The pre-flight short-circuits provable zeros and rewrites
    // singleton POINTs to EXISTS; neither may move an answer.
    let r = replay_mixed_rw_1e4_warmup(true);
    assert_eq!((r.answers, r.writes), (10_544, 811));
    assert_eq!(format!("{:016x}", r.sum), "92d55c79f8e3cc40");
    assert_eq!(
        (r.stats.preflight_zeros, r.stats.preflight_rewrites, r.stats.result_hits),
        (0, 0, 5_306),
        "(preflight_zeros, preflight_rewrites, result_hits)"
    );
    assert_eq!(r.evicted, 3_252, "cache entries evicted by the writes");
}
