//! Ablation: answering a 1000-query point/exists batch over one §7.1
//! grid instance through
//!
//! * a plain sequential loop over `point_query` / `exists_query`
//!   (recomputes locate + ε per query),
//! * the batch engine with a cold shared cache (cache built during the
//!   measured run — the honest end-to-end comparison),
//! * the batch engine with a warm cache (steady-state serving), and
//! * the cold engine with every available worker thread.
//!
//! §7.1 workloads draw query labels from a 2-letter per-depth alphabet,
//! so a 1000-query batch holds few distinct queries and many shared
//! paths — what the whole-query memo exploits.
//!
//! `cargo bench -p pxml-bench --bench ablate_batch_engine`

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use pxml_algebra::locate_weak;
use pxml_gen::{generate, query_batch, Labeling, WorkloadConfig};
use pxml_query::{exists_query, point_query, Query, QueryEngine};

fn ablate(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_engine_1000q");
    group.sample_size(10);

    for labeling in [Labeling::SameLabel, Labeling::FullyRandom] {
        let g = generate(&WorkloadConfig::paper(5, 4, labeling, 42));
        let pi = &g.instance;
        let paths = query_batch(&g, 1000, 7);
        assert_eq!(paths.len(), 1000, "all queries accepted");
        // Alternate point (on the first located object) and exists
        // queries over the accepted paths.
        let queries: Vec<Query> = paths
            .iter()
            .enumerate()
            .map(|(i, p)| {
                if i % 2 == 0 {
                    Query::point(p.clone(), locate_weak(pi, p)[0])
                } else {
                    Query::exists(p.clone())
                }
            })
            .collect();
        let tag = labeling.short();

        group.bench_function(BenchmarkId::new("sequential", tag), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for q in &queries {
                    acc += match q {
                        Query::Point { path, object } => point_query(pi, path, *object).unwrap(),
                        Query::Exists { path } => exists_query(pi, path).unwrap(),
                        Query::Chain { .. } => unreachable!("no chains in this workload"),
                    };
                }
                acc
            });
        });

        let engine = QueryEngine::with_threads(pi.clone(), 1);
        group.bench_function(BenchmarkId::new("engine_cold", tag), |b| {
            b.iter(|| {
                engine.clear_cache();
                black_box(engine.run_batch(&queries))
            });
        });

        engine.run_batch(&queries); // prime
        group.bench_function(BenchmarkId::new("engine_warm", tag), |b| {
            b.iter(|| black_box(engine.run_batch(&queries)));
        });

        // Observability overhead against the warm baseline above:
        // `engine_warm` runs with tracing off (the default — one relaxed
        // atomic load per query), the rows below pay for histogram
        // observations (`Timing`) and full trace-record materialisation
        // (`Full`). The <1% disabled-overhead claim in EXPERIMENTS.md is
        // engine_warm (trace plumbing compiled in) vs the seed's
        // engine_warm (no trace code at all); timing/full quantify the
        // cost of switching observability on.
        engine.set_trace_mode(pxml_query::TraceMode::Timing);
        group.bench_function(BenchmarkId::new("engine_warm_timing", tag), |b| {
            b.iter(|| black_box(engine.run_batch(&queries)));
        });
        engine.set_trace_mode(pxml_query::TraceMode::Full);
        engine.set_trace_capacity(queries.len());
        group.bench_function(BenchmarkId::new("engine_warm_full_trace", tag), |b| {
            b.iter(|| {
                let out = black_box(engine.run_batch(&queries));
                engine.take_traces(); // drain, as a scraping consumer would
                out
            });
        });
        engine.set_trace_mode(pxml_query::TraceMode::Off);

        // Resource-governance overhead: the same batch through the
        // governed path with a generous never-hit budget. Warm measures
        // the budget plumbing on the cache-hit fast path (the PR 1
        // regression guard); cold additionally shows the flat sweep's
        // pre-order grant pass (a limited budget charges each kept node
        // in the recursion's order) against the ungoverned sweep.
        let spec = pxml_query::BudgetSpec {
            max_steps: Some(u64::MAX),
            timeout: Some(std::time::Duration::from_secs(3600)),
            ..pxml_query::BudgetSpec::default()
        };
        engine.run_batch_governed(&queries, &spec); // prime
        group.bench_function(BenchmarkId::new("engine_warm_governed", tag), |b| {
            b.iter(|| black_box(engine.run_batch_governed(&queries, &spec)));
        });
        group.bench_function(BenchmarkId::new("engine_cold_governed", tag), |b| {
            b.iter(|| {
                engine.clear_cache();
                black_box(engine.run_batch_governed(&queries, &spec))
            });
        });

        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let parallel = QueryEngine::with_threads(pi.clone(), threads);
        group.bench_function(
            BenchmarkId::new(format!("engine_cold_{threads}t"), tag),
            |b| {
                b.iter(|| {
                    parallel.clear_cache();
                    black_box(parallel.run_batch(&queries))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, ablate);
criterion_main!(benches);
