//! Workload definitions and request-stream generation.
//!
//! Instances and streams come from `pxml-gen`'s public generators
//! ([`generate`], [`serve_workload`], [`random_mutations`]). The instance
//! of each workload is fixed (its own constant seed), and so are the
//! requests it draws from, so runs under different `--seed`s serve the
//! same data and differ only in the order (and, under Zipf, the
//! popularity) of each client's requests. Every stream is a list of indices into
//! one request pool, cycled when a client reaches its end, so the traced
//! run can replay exactly the requests a timed pass sent.

use std::collections::{HashMap, HashSet};

use pxml_cli::protocol::{Request, RequestOptions};
use pxml_gen::{
    generate, random_mutations, serve_workload, GeneratedInstance, Labeling, ServeRequest,
    WorkloadConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Registry name of the served instance (the `.pxmlb` file stem).
pub const INSTANCE: &str = "bench";

/// Client connections held by the load generator.
pub const CLIENTS: usize = 2;

/// Requests per client stream before it wraps around.
const STREAM_LEN: usize = 1 << 15;

/// Queries in the fixed probe set compared across a `kill -9`.
const PROBE_READS: usize = 32;

/// How requests are drawn.
pub enum Mix {
    /// Queries only, Zipf-skewed over a pool that fits the cache; the
    /// whole pool is the warm-up.
    Zipf { pool: usize, exponent: f64 },
    /// Queries only, uniform over a pool far larger than the cache;
    /// `warmup` uniform draws are the warm-up.
    Uniform { pool: usize, warmup: usize },
    /// Per client, a `serve_workload` stream of `stream` requests with
    /// `per_mille`‰ MUTATE, cycled; the warm-up sends every distinct
    /// query and then each stream once.
    Mixed { per_mille: u32, stream: usize },
}

/// One benchmark workload.
pub struct Spec {
    pub name: &'static str,
    pub depth: usize,
    pub branching: usize,
    pub labeling: Labeling,
    /// Seed of the instance generator (constant per workload).
    pub instance_seed: u64,
    pub mix: Mix,
    /// `--max-cache-bytes` for the daemon (`None`: no ceiling).
    pub max_cache_bytes: Option<u64>,
    /// MUTATE ops in the fixed write probe: the journal that recovery
    /// replays, and the writes of the traced run's in-process replay.
    pub write_probe: usize,
    /// The last `journal` ops of the probe are written after a
    /// `CHECKPOINT`: the journal the recovery measurement replays.
    pub journal: usize,
    /// Reboots over that journal; `recover_s` is their mean.
    pub reboots: usize,
    /// Complete set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// `--fsync` policy of the daemon.
    pub fsync: &'static str,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "hot_reads_1e3",
        depth: 9,
        branching: 2,
        labeling: Labeling::SameLabel,
        instance_seed: 0x1e3,
        mix: Mix::Zipf { pool: 512, exponent: 1.1 },
        max_cache_bytes: None,
        write_probe: 1024,
        journal: 256,
        reboots: 9,
        setups: 15,
        fsync: "os",
    },
    Spec {
        name: "cold_reads_1e5",
        depth: 8,
        branching: 4,
        labeling: Labeling::FullyRandom,
        instance_seed: 0x1e5,
        mix: Mix::Uniform { pool: 8192, warmup: 256 },
        max_cache_bytes: Some(256 * 1024),
        write_probe: 96,
        journal: 16,
        reboots: 5,
        setups: 3,
        fsync: "os",
    },
    Spec {
        name: "mixed_rw_1e4",
        depth: 8,
        branching: 3,
        labeling: Labeling::SameLabel,
        instance_seed: 0x1e4,
        mix: Mix::Mixed { per_mille: 100, stream: 4096 },
        max_cache_bytes: None,
        write_probe: 64,
        journal: 64,
        reboots: 9,
        setups: 3,
        fsync: "always",
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Everything a run sends, derived from the workload and `--seed`.
pub struct Workload {
    pub g: GeneratedInstance,
    pub pool: Vec<Request>,
    /// Per client: indices into `pool`, cycled.
    pub streams: Vec<Vec<u32>>,
    /// Indices into `pool` sent on one connection before timing.
    pub warmup: Vec<u32>,
    /// Query indices into `pool` answered before and after a `kill -9`.
    pub probe_reads: Vec<u32>,
    /// The fixed MUTATE requests of the write probe.
    pub probe_writes: Vec<Request>,
    /// Index into `probe_writes` where the journalled ops start.
    pub journal_from: usize,
}

/// A seed for one purpose, derived from the run's `--seed`.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn query(line: &str) -> Request {
    Request::Query { instance: INSTANCE.into(), options: RequestOptions::default(), query: line.into() }
}

pub fn mutate(ops: &str) -> Request {
    Request::Mutate { instance: INSTANCE.into(), options: RequestOptions::default(), ops: ops.into() }
}

fn request(r: ServeRequest) -> Request {
    match r {
        ServeRequest::Query(line) => query(&line),
        ServeRequest::Mutate(ops) => mutate(&ops),
    }
}

pub fn is_mutate(req: &Request) -> bool {
    matches!(req, Request::Mutate { .. })
}

/// Exactly `n` distinct query lines, in generation order.
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

/// Cumulative Zipf weights over ranks `0..n`.
fn zipf_cdf(n: usize, exponent: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (0..n)
        .map(|r| {
            acc += 1.0 / ((r + 1) as f64).powf(exponent);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// Fisher–Yates shuffle.
fn shuffle(v: &mut [u32], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

pub fn instance(spec: &Spec) -> GeneratedInstance {
    generate(&WorkloadConfig::paper(spec.depth, spec.branching, spec.labeling, spec.instance_seed))
}

/// Builds the pool, streams, warm-up and probes of one run.
pub fn build(spec: &Spec, g: GeneratedInstance, seed: u64) -> Workload {
    let mut pool: Vec<Request> = Vec::new();
    let mut streams: Vec<Vec<u32>> = Vec::with_capacity(CLIENTS);
    let mut warmup: Vec<u32>;
    match spec.mix {
        Mix::Zipf { pool: n, .. } | Mix::Uniform { pool: n, .. } => {
            // The pool is a fixture of the workload; `--seed` picks the
            // order (and, under Zipf, which lines are popular).
            pool.extend(distinct_queries(&g, n, sub_seed(spec.instance_seed, 1)).iter().map(|l| query(l)));
            let cdf = match spec.mix {
                Mix::Zipf { exponent, .. } => Some(zipf_cdf(n, exponent)),
                _ => None,
            };
            let mut ranks: Vec<u32> = (0..n as u32).collect();
            shuffle(&mut ranks, &mut StdRng::seed_from_u64(sub_seed(seed, 1)));
            for c in 0..CLIENTS {
                let mut rng = StdRng::seed_from_u64(sub_seed(seed, 100 + c as u64));
                let draw = |rng: &mut StdRng| match &cdf {
                    Some(cdf) => {
                        let u: f64 = rng.gen();
                        ranks[cdf.partition_point(|&c| c < u).min(n - 1)]
                    }
                    None => rng.gen_range(0..n) as u32,
                };
                streams.push((0..STREAM_LEN).map(|_| draw(&mut rng)).collect());
            }
            warmup = match spec.mix {
                Mix::Uniform { warmup: w, .. } => {
                    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 2));
                    (0..w).map(|_| rng.gen_range(0..n) as u32).collect()
                }
                _ => (0..n as u32).collect(),
            };
        }
        Mix::Mixed { per_mille, stream } => {
            // Each client's requests are a fixture of the workload, like
            // the read pools; `--seed` shuffles their order. Streams drawn
            // from the seed differed in how many writes they held and
            // which, and that moved throughput by a fifth between seeds.
            // One entry per distinct request; streams index into it.
            let mut index: HashMap<String, u32> = HashMap::new();
            for c in 0..CLIENTS {
                let reqs = serve_workload(&g, stream, per_mille, sub_seed(spec.instance_seed, 100 + c as u64));
                let mut ids: Vec<u32> = reqs
                    .into_iter()
                    .map(|r| {
                        let key = format!("{r:?}");
                        *index.entry(key).or_insert_with(|| {
                            pool.push(request(r));
                            pool.len() as u32 - 1
                        })
                    })
                    .collect();
                shuffle(&mut ids, &mut StdRng::seed_from_u64(sub_seed(seed, 100 + c as u64)));
                streams.push(ids);
            }
            // Every distinct query once, then one cycle of each stream,
            // so the timed pass starts in the steady state its cycled
            // streams keep: a read misses only when a write invalidated
            // it since it was last answered.
            warmup = (0..pool.len() as u32).filter(|&i| !is_mutate(&pool[i as usize])).collect();
            warmup.extend(streams.concat());
        }
    }
    let probe_reads: Vec<u32> = (0..pool.len() as u32)
        .filter(|&i| !is_mutate(&pool[i as usize]))
        .take(PROBE_READS)
        .collect();
    // The write probe is a fixture of the workload, like its instance:
    // every seed writes the same ops on the same base.
    let probe_writes = random_mutations(&g.instance, spec.write_probe, sub_seed(spec.instance_seed, 3))
        .iter()
        .map(|op| {
            let text = pxml_core::render_ops(&g.instance, std::slice::from_ref(op));
            mutate(text.trim_end())
        })
        .collect();
    let journal_from = spec.write_probe - spec.journal;
    Workload { g, pool, streams, warmup, probe_reads, probe_writes, journal_from }
}

/// The QL line of a query request.
pub fn query_line(req: &Request) -> Option<&str> {
    match req {
        Request::Query { query, .. } => Some(query),
        _ => None,
    }
}
