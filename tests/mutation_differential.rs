//! Differential test for incremental mutation: random mutation
//! sequences interleaved with point/exists/chain queries, where every
//! answer from the long-lived (dirty-set invalidated) engines must
//! equal fresh-instance recomputation slot-for-slot.
//!
//! The contract, per mutation step:
//!
//! 1. **Apply parity** — the mutation succeeds or fails identically on
//!    the bare instance and on both engines, and failures leave every
//!    copy untouched (checked transitively: the next step's answers
//!    still agree).
//! 2. **Answer parity** — the full query workload (current-shape
//!    queries plus *stale* queries built against the initial shape, so
//!    deleted objects and dead paths stay exercised) answers
//!    identically on the warm 1-thread engine, the warm 4-thread
//!    engine, and a cold single-threaded engine over a fresh clone —
//!    ungoverned and governed alike, errors included, compared `==`.
//! 3. **Cache coherence** — `audit_cache` (recompute every retained
//!    entry from scratch) reports zero findings right after the
//!    invalidation and again after the workload re-warms the cache.

mod common;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pxml::algebra::{locate_weak, PathExpr};
use pxml::core::{Budget, Label, Mutation, ObjectId, ProbInstance};
use pxml::gen::random_mutations;
use pxml::query::engine::BudgetSpec;
use pxml::{BatchQuery, QueryEngine};

use common::{random_dag, random_tree};

/// First-potential-child walk from the root (same construction as
/// `batch_engine.rs`): label sequence plus the object chain under it.
fn first_child_walk(pi: &ProbInstance) -> (Vec<Label>, Vec<ObjectId>) {
    let mut labels = Vec::new();
    let mut chain = vec![pi.root()];
    let mut cur = pi.root();
    while let Some(node) = pi.weak().node(cur) {
        let Some((_, child, l)) = node.universe().iter().next() else { break };
        labels.push(l);
        chain.push(child);
        cur = child;
        if labels.len() > 4 {
            break;
        }
    }
    (labels, chain)
}

/// Point + exists queries for every prefix of the first-child walk and
/// every single catalog label, chain queries along the walk.
fn build_queries(pi: &ProbInstance) -> Vec<BatchQuery> {
    let (walk_labels, chain) = first_child_walk(pi);
    let mut paths: Vec<PathExpr> = (1..=walk_labels.len())
        .map(|len| PathExpr::new(pi.root(), walk_labels[..len].iter().copied()))
        .collect();
    for l in all_labels(pi) {
        paths.push(PathExpr::new(pi.root(), [l]));
    }
    let mut queries = Vec::new();
    for p in &paths {
        queries.push(BatchQuery::exists(p.clone()));
        for o in locate_weak(pi, p) {
            queries.push(BatchQuery::point(p.clone(), o));
        }
    }
    for len in 1..chain.len() {
        queries.push(BatchQuery::chain(chain[..=len].to_vec()));
    }
    queries
}

fn sorted_objects(pi: &ProbInstance) -> Vec<ObjectId> {
    let mut v: Vec<ObjectId> = pi.weak().objects().collect();
    v.sort_unstable();
    v
}

fn all_labels(pi: &ProbInstance) -> Vec<Label> {
    let mut v: Vec<Label> = sorted_objects(pi)
        .into_iter()
        .filter_map(|o| pi.weak().node(o))
        .flat_map(|n| n.universe().iter().map(|(_, _, l)| l))
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// A random structural mutation *attempt* against the current shape.
/// Attempts are allowed to fail (cycle, saturated cardinality, forced
/// child, root deletion): the differential contract is that they fail
/// identically everywhere and change nothing.
fn random_structural(
    pi: &ProbInstance,
    rng: &mut StdRng,
    fresh: &mut u32,
    dag_ops: bool,
) -> Option<Mutation> {
    let objects = sorted_objects(pi);
    let labels = all_labels(pi);
    let edges: Vec<(ObjectId, ObjectId)> = objects
        .iter()
        .filter_map(|&o| pi.weak().node(o).map(|n| (o, n)))
        .flat_map(|(o, n)| n.universe().iter().map(move |(_, c, _)| (o, c)))
        .collect();
    match rng.gen_range(0..4u32) {
        0 if !labels.is_empty() => {
            *fresh += 1;
            Some(Mutation::InsertObject {
                name: format!("mut{fresh}"),
                parent: objects[rng.gen_range(0..objects.len())],
                label: labels[rng.gen_range(0..labels.len())],
                prob: rng.gen_range(0.05..0.95),
            })
        }
        1 => {
            let non_root: Vec<ObjectId> =
                objects.iter().copied().filter(|&o| o != pi.root()).collect();
            if non_root.is_empty() {
                return None;
            }
            Some(Mutation::DeleteObject { object: non_root[rng.gen_range(0..non_root.len())] })
        }
        2 if dag_ops && !labels.is_empty() => Some(Mutation::AddEdge {
            parent: objects[rng.gen_range(0..objects.len())],
            label: labels[rng.gen_range(0..labels.len())],
            child: objects[rng.gen_range(0..objects.len())],
            prob: rng.gen_range(0.05..0.95),
        }),
        _ => {
            if edges.is_empty() {
                return None;
            }
            let (parent, child) = edges[rng.gen_range(0..edges.len())];
            Some(Mutation::RemoveEdge { parent, child })
        }
    }
}

const STEPS: usize = 8;

/// Slot-for-slot comparison of governed batches: identical outcome
/// shape (exact vs interval vs error, errors compared by message),
/// values within 1e-12.
fn assert_governed_close(
    got: &[Result<pxml::query::Answer, pxml::query::QueryError>],
    want: &[Result<pxml::query::Answer, pxml::query::QueryError>],
    step: usize,
) {
    assert_eq!(got.len(), want.len(), "step {step}: governed batch length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        match (g, w) {
            (Ok(a), Ok(b)) => {
                assert!(
                    (a.lo() - b.lo()).abs() < 1e-12 && (a.hi() - b.hi()).abs() < 1e-12,
                    "step {step} slot {i}: governed {a:?} vs fresh {b:?}"
                );
            }
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "step {step} slot {i}");
            }
            _ => panic!("step {step} slot {i}: governed {g:?} vs fresh {w:?}"),
        }
    }
}

/// The shared driver: one mirror instance, a warm 1-thread engine and a
/// warm 4-thread engine receive the same mutation sequence; after every
/// step the full workload is answered by all three plus a cold oracle
/// and compared slot-for-slot. With `points_only` the workload keeps
/// only its point queries.
fn drive(pi: ProbInstance, seed: u64, structural_every: usize, dag_ops: bool, points_only: bool) {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
    let mut mirror = pi.clone();
    let mut eng1 = QueryEngine::with_threads(pi.clone(), 1);
    let mut eng4 = QueryEngine::with_threads(pi, 4);
    let mut fresh_names = 0u32;
    let workload = |pi: &ProbInstance| {
        let mut queries = build_queries(pi);
        queries.retain(|q| !points_only || matches!(q, BatchQuery::Point { .. }));
        queries
    };
    let stale = workload(&mirror); // initial-shape queries, kept all run

    // Warm both caches before the first mutation so invalidation has
    // something to get wrong.
    eng1.run_batch(&stale);
    eng4.run_batch(&stale);

    for step in 0..STEPS {
        let op = if structural_every != 0 && step % structural_every == 0 {
            random_structural(&mirror, &mut rng, &mut fresh_names, dag_ops)
        } else {
            random_mutations(&mirror, 1, rng.gen()).pop()
        };
        let Some(op) = op else { continue };

        let rm = mirror.apply(&op);
        let r1 = eng1.apply_mutation(&op);
        let r4 = eng4.apply_mutation(&op);
        assert_eq!(rm.is_ok(), r1.is_ok(), "step {step}: {op:?}: mirror {rm:?} vs engine {r1:?}");
        assert_eq!(r1.is_ok(), r4.is_ok(), "step {step}: {op:?}: thread count changed outcome");
        if let (Err(e1), Err(e4)) = (&r1, &r4) {
            assert_eq!(e1.to_string(), e4.to_string(), "step {step}: {op:?}");
        }
        mirror.validate().unwrap_or_else(|e| panic!("step {step}: {op:?} broke validity: {e}"));

        // Satellite: every *retained* cache entry must equal its
        // from-scratch value immediately after the invalidation...
        let findings = eng1.audit_cache();
        assert!(findings.is_empty(), "step {step}: {op:?}: stale entries survived: {findings:?}");
        let findings = eng4.audit_cache();
        assert!(findings.is_empty(), "step {step}: {op:?} (4 threads): {findings:?}");

        // Current-shape workload + the stale initial-shape workload.
        let mut queries = workload(&mirror);
        queries.extend(stale.iter().cloned());

        let oracle = QueryEngine::with_threads(mirror.clone(), 1);
        let expected = oracle.run_batch(&queries);
        assert_eq!(eng1.run_batch(&queries), expected, "step {step}: {op:?} (1 thread)");
        assert_eq!(eng4.run_batch(&queries), expected, "step {step}: {op:?} (4 threads)");

        // Governed path (unlimited budget): same outcome shape per
        // slot, values within 1e-12. (Not bit-exact on purpose: which
        // eps entries are memo hits depends on cache history, and a hit
        // versus a fused recompute can re-associate the combining
        // arithmetic by an ulp — each retained entry is still bit-exact,
        // as the audit above proves.)
        let spec = BudgetSpec::default();
        let governed = oracle.run_batch_governed(&queries, &spec);
        assert_governed_close(&eng1.run_batch_governed(&queries, &spec), &governed, step);
        assert_governed_close(&eng4.run_batch_governed(&queries, &spec), &governed, step);

        // ...and again once the workload has re-warmed the cache.
        let findings = eng1.audit_cache();
        assert!(findings.is_empty(), "step {step}: warm-cache audit: {findings:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Trees: entry-level ops with a structural op every third step.
    #[test]
    fn incremental_equals_fresh_on_trees(seed in 0u64..2000) {
        drive(random_tree(seed), seed, 3, false, false);
    }

    /// DAGs: shared children, chain queries that stay exact, point and
    /// exists queries that may answer `Err(NotTreeShaped)` — which must
    /// also match slot-for-slot. Structural ops include `AddEdge`
    /// attempts that may create diamonds or be rejected as cycles.
    #[test]
    fn incremental_equals_fresh_on_dags(seed in 0u64..2000) {
        drive(random_dag(seed), seed, 2, true, false);
    }

    /// POINT-only stream on trees: no exists query leaves a layers
    /// witness, so after an entry-level write each retained point
    /// result is vouched for only by its target's path ancestors, and
    /// the audit after every op checks that verdict.
    #[test]
    fn incremental_equals_fresh_point_only(seed in 0u64..2000) {
        drive(random_tree(seed), seed, 3, false, true);
    }

    /// Entry-only steady state: every step is a generated `SETEDGE` /
    /// `SETVAL`, the workload the bench measures.
    #[test]
    fn incremental_equals_fresh_entry_only(seed in 0u64..2000) {
        drive(random_tree(seed), seed, 0, false, false);
    }
}

/// A budget-starved mutation still leaves the engine sound: dirty-set
/// propagation exhausts, the engine falls back to a full cache flush,
/// reports the exhaustion — and the mutation itself stays applied, so
/// subsequent answers must equal fresh recomputation.
#[test]
fn budget_starved_propagation_falls_back_to_flush() {
    let cfg = pxml::gen::WorkloadConfig::paper(3, 2, pxml::gen::Labeling::FullyRandom, 17);
    let pi = pxml::gen::generate(&cfg).instance;
    let mut mirror = pi.clone();
    let mut engine = QueryEngine::with_threads(pi, 2);
    let queries = build_queries(&mirror);
    engine.run_batch(&queries); // warm the cache

    let op = random_mutations(&mirror, 1, 5).pop().expect("mutable target");
    mirror.apply(&op).expect("generated op applies");
    let starved = Budget::unlimited().with_max_steps(0);
    let err = engine.apply_mutation_governed(&op, &starved);
    assert!(err.is_err(), "zero-step budget must exhaust during propagation");

    let oracle = QueryEngine::with_threads(mirror.clone(), 1);
    assert_eq!(engine.run_batch(&queries), oracle.run_batch(&queries));
    assert!(engine.audit_cache().is_empty());

    // The same mutation under an unlimited budget reports a no-op
    // relative to the already-mutated state or applies cleanly — either
    // way answers keep matching a fresh engine.
    let _ = engine.apply_mutation(&op);
    let _ = mirror.apply(&op);
    let oracle = QueryEngine::with_threads(mirror.clone(), 1);
    assert_eq!(engine.run_batch(&queries), oracle.run_batch(&queries));
}

/// Dirty-set invalidation and a reference engine that drops its whole
/// cache after every write (flush-on-write) agree answer-for-answer
/// across a mixed mutation sequence.
#[test]
fn dirty_set_answers_equal_a_flushed_cache() {
    let mut dirty = QueryEngine::with_threads(random_tree(23), 1);
    let mut flush = QueryEngine::with_threads(random_tree(23), 1);

    let mut rng = StdRng::seed_from_u64(99);
    let mut fresh = 0u32;
    for step in 0..12 {
        let op = if step % 3 == 0 {
            random_structural(dirty.instance(), &mut rng, &mut fresh, false)
        } else {
            random_mutations(dirty.instance(), 1, rng.gen()).pop()
        };
        let Some(op) = op else { continue };
        let r1 = dirty.apply_mutation(&op);
        let r2 = flush.apply_mutation(&op);
        flush.clear_cache();
        assert_eq!(r1.is_ok(), r2.is_ok(), "step {step}: {op:?}");
        let queries = build_queries(dirty.instance());
        assert_eq!(dirty.run_batch(&queries), flush.run_batch(&queries), "step {step}");
        assert!(dirty.audit_cache().is_empty(), "step {step}");
    }
}
