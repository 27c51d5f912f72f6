//! Property tests for resource-governed execution (budgets, degradation).
//!
//! Two contracts from the governance design are checked over random
//! DAG-shaped instances:
//!
//! 1. **Bracketing**: under `DegradePolicy::Interval`, *any* step budget
//!    — including a single step — yields either the exact answer or an
//!    interval that brackets the exact answer of an unbounded run. The
//!    degraded path may be imprecise, never wrong.
//! 2. **Determinism**: `Exhausted.spent` (and every answer) is a pure
//!    function of the query and the instance, independent of how many
//!    worker threads the batch fans out over — budgets are per-query and
//!    governed evaluation charges the same steps whatever the shared
//!    cache holds, so thread scheduling cannot leak into accounting.
//!
//! A third test pins every governed outcome over a fixed grid of
//! instances, budgets and policies to one hash.

use proptest::prelude::*;

use pxml::algebra::{layers_weak, PathExpr};
use pxml::core::CoreError;
use pxml::gen::{random_dag, random_dag_with, DagConfig};
use pxml::query::{
    exists_query_dag, Answer, BudgetSpec, DegradePolicy, Query, QueryEngine, QueryError,
};

/// Exists queries over every 1- and 2-label path on the generator's two
/// labels — cheap to enumerate and guaranteed to exercise both the tree
/// ε path and the DAG inclusion–exclusion fallback.
fn exists_queries(pi: &pxml::core::ProbInstance) -> Vec<Query> {
    let mut queries = Vec::new();
    let labels: Vec<_> =
        ["x", "y"].iter().filter_map(|l| pi.catalog().find_label(l)).collect();
    for &a in &labels {
        queries.push(Query::Exists { path: PathExpr::new(pi.root(), vec![a]) });
        for &b in &labels {
            queries.push(Query::Exists { path: PathExpr::new(pi.root(), vec![a, b]) });
        }
    }
    queries
}

/// The unbounded exact answer: the engine where the kept region is a
/// tree, the exact DAG inclusion–exclusion otherwise.
fn exact_answer(engine: &QueryEngine, pi: &pxml::core::ProbInstance, q: &Query) -> Option<f64> {
    match engine.run(q) {
        Ok(p) => Some(p),
        Err(QueryError::NotTreeShaped(_)) => match q {
            Query::Exists { path } => exists_query_dag(pi, path).ok(),
            _ => None,
        },
        Err(_) => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Contract 1: every budget yields the exact answer or a bracket.
    #[test]
    fn any_budget_is_exact_or_bracketing(seed in 0u64..500, budget in 1u64..200) {
        let pi = random_dag(seed);
        let engine = QueryEngine::new(pi.clone());
        for q in exists_queries(&pi) {
            let Some(exact) = exact_answer(&engine, &pi, &q) else { continue };
            let spec = BudgetSpec {
                max_steps: Some(budget),
                degrade: DegradePolicy::Interval,
                ..BudgetSpec::default()
            };
            // Fresh engine per governed run: no cache help from the
            // unbounded oracle run above.
            let governed = QueryEngine::new(pi.clone());
            let answer = governed.run_governed(&q, &spec).unwrap_or_else(|e| {
                panic!("interval policy must not fail on budget {budget}: {e}")
            });
            match answer {
                Answer::Exact(p) => prop_assert!(
                    (p - exact).abs() < 1e-9,
                    "budget {budget}: exact-path answer {p} != oracle {exact}"
                ),
                Answer::Interval(iv) => prop_assert!(
                    iv.lo <= exact + 1e-9 && exact <= iv.hi + 1e-9,
                    "budget {budget}: [{}, {}] does not bracket {exact}", iv.lo, iv.hi
                ),
            }
        }
    }

    /// Contract 1 under `DegradePolicy::Error`: the run either matches
    /// the oracle exactly or fails with a typed step exhaustion — no
    /// third outcome, and never a wrong number.
    #[test]
    fn error_policy_is_exact_or_typed_exhaustion(seed in 0u64..500, budget in 1u64..60) {
        let pi = random_dag(seed);
        let engine = QueryEngine::new(pi.clone());
        for q in exists_queries(&pi) {
            let Some(exact) = exact_answer(&engine, &pi, &q) else { continue };
            let spec = BudgetSpec { max_steps: Some(budget), ..BudgetSpec::default() };
            let governed = QueryEngine::new(pi.clone());
            match governed.run_governed(&q, &spec) {
                Ok(Answer::Exact(p)) => prop_assert!((p - exact).abs() < 1e-9),
                Ok(Answer::Interval(_)) => prop_assert!(false, "error policy returned interval"),
                Err(QueryError::Core(CoreError::Exhausted(ex))) => {
                    prop_assert!(ex.spent >= ex.limit.min(budget));
                }
                Err(e) => prop_assert!(false, "unexpected error {e}"),
            }
        }
    }

    /// Contract 2: answers and `Exhausted.spent` match slot-for-slot
    /// between a single-threaded and a four-threaded batch run.
    #[test]
    fn exhaustion_accounting_is_thread_count_independent(
        seed in 0u64..300,
        budget in 1u64..40,
    ) {
        let pi = random_dag(seed);
        let queries = exists_queries(&pi);
        // Duplicate the batch so threads race on identical work.
        let batch: Vec<Query> =
            queries.iter().chain(queries.iter()).chain(queries.iter()).cloned().collect();
        let spec = BudgetSpec { max_steps: Some(budget), ..BudgetSpec::default() };

        let run = |threads: usize| {
            let engine = QueryEngine::with_threads(pi.clone(), threads);
            engine.run_batch_governed(&batch, &spec)
        };
        let single = run(1);
        let multi = run(4);
        prop_assert_eq!(single.len(), multi.len());
        for (slot, (a, b)) in single.iter().zip(multi.iter()).enumerate() {
            match (a, b) {
                (Ok(x), Ok(y)) => prop_assert_eq!(x, y, "slot {} answers differ", slot),
                (
                    Err(QueryError::Core(CoreError::Exhausted(x))),
                    Err(QueryError::Core(CoreError::Exhausted(y))),
                ) => {
                    prop_assert_eq!(x.resource, y.resource, "slot {}", slot);
                    prop_assert_eq!(x.spent, y.spent, "slot {} spent differs", slot);
                    prop_assert_eq!(x.limit, y.limit, "slot {}", slot);
                }
                (a, b) => prop_assert!(
                    false,
                    "slot {slot}: outcomes diverge across thread counts: {a:?} vs {b:?}"
                ),
            }
        }
    }
}

/// FNV-1a, 64-bit: a hash whose output is fixed by its definition, so
/// a pinned constant stays meaningful across toolchains.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Point, exists and chain queries over one generated instance: exists
/// on every root-anchored path of 0 to `max_len` labels, a point query
/// for every object each path locates (and for the root, which only
/// the empty path does), every root-anchored chain of up to three links, and the
/// one-link chain to every object (most are not children, so it errs).
fn pinned_queries(pi: &pxml::core::ProbInstance, max_len: usize) -> Vec<Query> {
    let labels: Vec<_> =
        ["x", "y"].iter().filter_map(|l| pi.catalog().find_label(l)).collect();
    let mut paths: Vec<Vec<_>> = vec![Vec::new()];
    let mut queries = Vec::new();
    for len in 0..=max_len {
        if len > 0 {
            paths = paths
                .iter()
                .flat_map(|p| labels.iter().map(move |&l| [p.as_slice(), &[l]].concat()))
                .collect();
        }
        for p in &paths {
            let path = PathExpr::new(pi.root(), p.clone());
            let located = layers_weak(pi.weak(), &path).pop().unwrap_or_default();
            queries.push(Query::point(path.clone(), pi.root()));
            queries.extend(located.into_iter().map(|o| Query::point(path.clone(), o)));
            queries.push(Query::exists(path));
        }
    }
    let mut chains = vec![vec![pi.root()]];
    let mut frontier = chains.clone();
    for _ in 0..3 {
        let mut next = Vec::new();
        for chain in &frontier {
            let last = *chain.last().expect("chains are non-empty");
            if let Some(node) = pi.weak().node(last) {
                for (_, c, _) in node.universe().iter() {
                    next.push([chain.as_slice(), &[c]].concat());
                }
            }
        }
        chains.extend(next.iter().cloned());
        frontier = next;
    }
    chains.extend(pi.objects().map(|o| vec![pi.root(), o]));
    queries.extend(chains.into_iter().map(Query::chain));
    queries
}

/// Every governed outcome over the generator's instances (seeds 0..64,
/// plus seeds 0..16 at a larger size with three-label paths, so kept
/// regions are deep enough for exhaustion to land mid-sweep), step
/// budgets 1..200 and both degrade policies, hashed bit for bit: an
/// answer as the `to_bits` of its bounds, an exhaustion as `(resource,
/// spent, limit)`, any other error as its message. Each run starts from
/// an empty cache, so the outcome is a function of the query, the
/// instance and the budget alone. The constant pins the evaluator's
/// charge order, bracket arithmetic and error precedence; deadlines are
/// left out because they depend on timing.
#[test]
fn governed_outcomes_are_pinned_bit_for_bit() {
    let larger = DagConfig { min_objects: 12, max_objects: 24, ..DagConfig::default() };
    let instances = (0u64..64)
        .map(|seed| (random_dag(seed), 2))
        .chain((0u64..16).map(|seed| (random_dag_with(seed, &larger), 3)));
    let mut h = Fnv::new();
    for (pi, max_len) in instances {
        let queries = pinned_queries(&pi, max_len);
        let engine = QueryEngine::with_threads(pi, 1);
        for degrade in [DegradePolicy::Error, DegradePolicy::Interval] {
            for budget in 1u64..200 {
                let spec = BudgetSpec { max_steps: Some(budget), degrade, ..BudgetSpec::default() };
                for q in &queries {
                    engine.clear_cache();
                    match engine.run_governed(q, &spec) {
                        Ok(a) => {
                            h.u64(u64::from(a.is_degraded()));
                            h.u64(a.lo().to_bits());
                            h.u64(a.hi().to_bits());
                        }
                        Err(QueryError::Core(CoreError::Exhausted(ex))) => {
                            h.u64(2);
                            h.bytes(ex.resource.to_string().as_bytes());
                            h.u64(ex.spent);
                            h.u64(ex.limit);
                        }
                        Err(e) => {
                            h.u64(3);
                            h.bytes(e.to_string().as_bytes());
                        }
                    }
                }
            }
        }
    }
    // Taken when the engine's governed path still ran the sequential
    // ObjectId recursion with a per-query memo.
    assert_eq!(h.0, 8_781_390_023_580_254_822, "governed outcomes changed");
}
