//! Property tests for the static query-analysis pass (pre-flight).
//!
//! Soundness contracts checked over random DAG-shaped instances:
//!
//! 1. **Provable zeros are zeros**: a `ProvablyZero` verdict means the
//!    engine answers exactly `0.0` — not approximately, exactly — so the
//!    engine may short-circuit such queries without evaluation.
//! 2. **Predicted errors error**: a `WillError` verdict means the
//!    ungoverned engine returns an error for the query.
//! 3. **Cost bounds bound**: the predicted step count is an upper bound
//!    on the steps a governed run actually charges, and is *exact* when
//!    the report says so — the admission-control rejection (`AQ006`)
//!    never refuses a query that would in fact have fit its budget.
//! 4. **Pre-flight preserves answers**: an engine with pre-flight
//!    enabled (zero short-circuit + plan normalisation) answers every
//!    query identically to a plain engine, slot for slot.
//!
//! Contracts 1 and 3 also run over small §7.1 balanced trees, whose
//! kept regions are forests. `reports_are_pinned_bit_for_bit` pins every
//! report and normalised plan over a fixed instance set, so a change to
//! how the analyser computes them cannot move a verdict, a bound or a
//! message unnoticed.

use std::sync::Arc;

use proptest::prelude::*;

use pxml::algebra::PathExpr;
use pxml::core::{
    ArenaInstance, Catalog, ChildUniverse, IdMap, IndependentOpf, Label, Mutation, ObjectId, Opf,
    ProbInstance, WeakInstance, WeakNode,
};
use pxml::gen::{generate, random_dag, random_dag_with, DagConfig, Labeling, WorkloadConfig};
use pxml::query::preflight::{self, Verdict};
use pxml::query::{BudgetSpec, DegradePolicy, Query, QueryEngine};

/// The random DAG generator's two labels.
fn dag_labels(pi: &ProbInstance) -> Vec<Label> {
    ["x", "y"].iter().filter_map(|l| pi.catalog().find_label(l)).collect()
}

/// A generated DAG and its labels.
fn dag(pi: ProbInstance) -> (ProbInstance, Vec<Label>) {
    let labels = dag_labels(&pi);
    (pi, labels)
}

/// A small §7.1 balanced tree and every label its edges use.
fn tree(depth: usize, branching: usize, same_label: bool, seed: u64) -> (ProbInstance, Vec<Label>) {
    let labeling = if same_label { Labeling::SameLabel } else { Labeling::FullyRandom };
    let g = generate(&WorkloadConfig::paper(depth, branching, labeling, seed));
    let mut labels: Vec<Label> = g.depth_labels.concat();
    labels.sort_unstable();
    labels.dedup();
    (g.instance, labels)
}

/// A mixed probe workload: existence queries over every 1- and 2-label
/// path on `labels`, point queries on located objects
/// and on the (never-located) root, and short chains off the root —
/// covering every verdict the analyser can produce.
fn probe_queries(pi: &ProbInstance, labels: &[Label]) -> Vec<Query> {
    let root = pi.root();
    let mut paths = Vec::new();
    for &a in labels {
        paths.push(PathExpr::new(root, vec![a]));
        for &b in labels {
            paths.push(PathExpr::new(root, vec![a, b]));
        }
    }
    let mut queries = Vec::new();
    for p in &paths {
        queries.push(Query::Exists { path: p.clone() });
        // The root is never located by a positive-length path, so this
        // point query is provably zero on every instance.
        queries.push(Query::point(p.clone(), root));
        for &target in pxml::algebra::locate::locate_weak(pi, p).iter().take(2) {
            queries.push(Query::point(p.clone(), target));
        }
    }
    // Chains: one valid link per weak edge of the root, plus a
    // structurally-broken chain (root is not its own child).
    for &(_, child) in pi.weak().weak_edges(root).iter().take(3) {
        queries.push(Query::chain(vec![root, child]));
    }
    queries.push(Query::chain(vec![root, root]));
    queries
}

/// Contracts 1 and 2 over one instance's probe workload.
fn check_verdicts(pi: ProbInstance, labels: &[Label]) -> Result<(), TestCaseError> {
    let arena = ArenaInstance::lower_unchecked(&pi);
    let engine = QueryEngine::new(pi.clone());
    for q in probe_queries(&pi, labels) {
        let report = preflight::analyze(&arena, &q);
        match report.verdict {
            Verdict::ProvablyZero => {
                let p = engine.run(&q).unwrap_or_else(|e| {
                    panic!("ProvablyZero query must evaluate, got {e}: {q:?}")
                });
                prop_assert!(p == 0.0, "ProvablyZero but engine answered {p}: {q:?}");
            }
            Verdict::WillError => {
                prop_assert!(engine.run(&q).is_err(), "WillError but engine answered: {q:?}");
            }
            Verdict::Clean => {}
        }
        // The probability ceiling is a genuine upper bound.
        if let Ok(p) = engine.run(&q) {
            prop_assert!(
                p <= report.upper_bound + 1e-9,
                "answer {p} above the static ceiling {}: {q:?}",
                report.upper_bound
            );
        }
    }
    Ok(())
}

/// Contract 3 over one instance's probe workload.
fn check_step_bounds(pi: ProbInstance, labels: &[Label]) -> Result<(), TestCaseError> {
    let arena = ArenaInstance::lower_unchecked(&pi);
    let spec = BudgetSpec {
        max_steps: Some(u64::MAX / 2),
        degrade: DegradePolicy::Error,
        ..BudgetSpec::default()
    };
    for q in probe_queries(&pi, labels) {
        let report = preflight::analyze(&arena, &q);
        // Fresh engine per query: a shared cache would absorb work
        // and make the meter read low for the wrong reason.
        let engine = QueryEngine::new(pi.clone());
        let outcome = engine.run_governed(&q, &spec);
        let spent = engine.stats().budget_steps_spent;
        prop_assert!(
            spent <= report.cost.steps,
            "spent {spent} > predicted {}: {q:?}",
            report.cost.steps
        );
        if report.cost.exact_steps && outcome.is_ok() {
            prop_assert!(
                spent == report.cost.steps,
                "exact prediction {} != spent {spent}: {q:?}",
                report.cost.steps
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Contracts 1 and 2: verdicts are theorems about the engine.
    #[test]
    fn verdicts_are_sound(seed in 0u64..500) {
        let pi = random_dag(seed);
        let labels = dag_labels(&pi);
        check_verdicts(pi, &labels)?;
    }

    /// Contracts 1 and 2 over §7.1 trees.
    #[test]
    fn verdicts_are_sound_on_trees(
        depth in 1usize..=3,
        branching in 1usize..=3,
        labeling in 0u8..2,
        seed in 0u64..500,
    ) {
        let (pi, labels) = tree(depth, branching, labeling == 0, seed);
        check_verdicts(pi, &labels)?;
    }

    /// Contract 3: the cost pre-flight never under-predicts, and its
    /// exact predictions match the governed engine's meter to the step.
    #[test]
    fn step_bounds_bound_actual_spend(seed in 0u64..500) {
        let pi = random_dag(seed);
        let labels = dag_labels(&pi);
        check_step_bounds(pi, &labels)?;
    }

    /// Contract 3 over §7.1 trees.
    #[test]
    fn step_bounds_bound_actual_spend_on_trees(
        depth in 1usize..=3,
        branching in 1usize..=3,
        labeling in 0u8..2,
        seed in 0u64..500,
    ) {
        let (pi, labels) = tree(depth, branching, labeling == 0, seed);
        check_step_bounds(pi, &labels)?;
    }

    /// Contract 4: pre-flight (zero short-circuit + normalisation) is
    /// invisible in the answers, slot for slot.
    #[test]
    fn preflight_preserves_answers(seed in 0u64..500) {
        let pi = random_dag(seed);
        let queries = probe_queries(&pi, &dag_labels(&pi));
        let plain = QueryEngine::new(pi.clone());
        let checked = QueryEngine::new(pi.clone());
        checked.set_preflight(true);
        let a = plain.run_batch(&queries);
        let b = checked.run_batch(&queries);
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            match (x, y) {
                (Ok(p), Ok(r)) => prop_assert!(
                    p == r,
                    "slot {i}: plain {p} != preflighted {r}: {:?}",
                    queries[i]
                ),
                (Err(_), Err(_)) => {}
                (x, y) => prop_assert!(
                    false,
                    "slot {i}: outcome shape diverged: {x:?} vs {y:?} for {:?}",
                    queries[i]
                ),
            }
        }
        // Normalised plans answer identically to their originals.
        let arena = ArenaInstance::lower_unchecked(&pi);
        for q in &queries {
            if let Some(nq) = preflight::normalise(&arena, q) {
                let eng = QueryEngine::new(pi.clone());
                match (eng.run(q), eng.run(&nq)) {
                    (Ok(p), Ok(r)) => prop_assert!(
                        p == r,
                        "normalised plan diverged: {p} vs {r} for {q:?}"
                    ),
                    (Err(_), Err(_)) => {}
                    (x, y) => prop_assert!(
                        false,
                        "normalisation changed the outcome shape: {x:?} vs {y:?}"
                    ),
                }
            }
        }
    }
}

/// FNV-1a, as in `resource_budget::governed_outcomes_are_pinned_bit_for_bit`.
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
}

/// A hostile instance no validating loader accepts: the root `r` has a
/// dangling child `ghost` (in its universe, with no weak node) and a
/// leaf child `c`, under an independent OPF that never keeps `c`.
fn dangling() -> (ProbInstance, Vec<Label>) {
    let mut cat = Catalog::new();
    let (r, ghost, c) = (cat.object("r"), cat.object("ghost"), cat.object("c"));
    let x = cat.label("x");
    let mut universe = ChildUniverse::default();
    universe.push(ghost, x);
    universe.push(c, x);
    let mut nodes = IdMap::new();
    nodes.insert(r, WeakNode::from_parts(universe, Vec::new(), None));
    nodes.insert(c, WeakNode::default());
    let mut opfs = IdMap::new();
    opfs.insert(r, Opf::Independent(IndependentOpf::new(vec![0.5, 0.0])));
    let w = WeakInstance::from_parts_unchecked(Arc::new(cat), r, nodes);
    (ProbInstance::from_parts_unchecked(w, opfs, IdMap::new()), vec![x])
}

/// `probe_queries` plus the edge cases of the analyser's lookups: the
/// empty label path, a path rooted below the root, chains through an id
/// at and past the arena's `len()`, and chains through every object
/// below `len()` without a weak node (a dangling child, a deleted
/// object).
fn pinned_queries(pi: &ProbInstance, labels: &[Label]) -> Vec<Query> {
    let root = pi.root();
    let mut queries = probe_queries(pi, labels);
    let empty = PathExpr::new(root, Vec::new());
    queries.push(Query::exists(empty.clone()));
    queries.push(Query::point(empty, root));
    if let (Some(&(_, below)), Some(&l)) = (pi.weak().weak_edges(root).first(), labels.first()) {
        let path = PathExpr::new(below, vec![l]);
        queries.push(Query::exists(path.clone()));
        queries.push(Query::point(path, below));
    }
    let len = ArenaInstance::lower_unchecked(pi).len() as u32;
    let first = pi.weak().weak_edges(root).first().map_or(root, |&(_, c)| c);
    for far in [len, len + 7] {
        queries.push(Query::chain(vec![root, ObjectId::from_raw(far)]));
        queries.push(Query::chain(vec![root, first, ObjectId::from_raw(far)]));
    }
    for x in (0..len).map(ObjectId::from_raw).filter(|&x| pi.weak().node(x).is_none()) {
        queries.push(Query::chain(vec![root, x]));
        queries.push(Query::chain(vec![root, x, first]));
    }
    queries
}

/// Message prefixes of the analyser branches the pinned set must reach.
const CASES: [(&str, &str); 4] = [
    ("every root path", "blocked target"),
    ("link ", "zero link"),
    ("unknown object", "unknown object"),
    ("path root is not", "non-root path"),
];

/// Every pre-flight report and normalised plan over a fixed instance
/// set, hashed from their `Debug` renderings (verdict, cost, ceiling,
/// plan, each diagnostic's code and message) plus the ceiling's bits.
#[test]
fn reports_are_pinned_bit_for_bit() {
    let larger = DagConfig { min_objects: 12, max_objects: 24, ..DagConfig::default() };
    let mut instances: Vec<(ProbInstance, Vec<Label>)> = Vec::new();
    instances.extend((0u64..64).map(|seed| dag(random_dag(seed))));
    instances.extend((0u64..16).map(|seed| dag(random_dag_with(seed, &larger))));
    for (depth, branching) in [(1, 3), (2, 2), (3, 2), (2, 4)] {
        for same_label in [true, false] {
            for seed in 0..2 {
                instances.push(tree(depth, branching, same_label, seed));
            }
        }
    }
    // Zero-marginal edges, on a tree and on a DAG.
    for (mut pi, labels) in [tree(2, 2, true, 0), dag(random_dag(3))] {
        let root = pi.root();
        let child = pi.weak().weak_edges(root)[0].1;
        pi.apply(&Mutation::SetEdgeProb { parent: root, child, prob: 0.0 }).unwrap();
        instances.push((pi, labels));
    }
    let fig2 = pxml::core::fixtures::fig2_instance();
    let fig2_labels: Vec<Label> = ["book", "title", "author", "institution"]
        .iter()
        .map(|l| fig2.lid(l).unwrap())
        .collect();
    let mut deleted = fig2.clone();
    deleted.apply(&Mutation::DeleteObject { object: fig2.oid("I1").unwrap() }).unwrap();
    instances.push((fig2, fig2_labels.clone()));
    instances.push((deleted, fig2_labels));
    instances.push(dangling());

    let mut h = Fnv::new();
    let mut reports = 0usize;
    let mut seen = std::collections::BTreeMap::new();
    for (pi, labels) in &instances {
        let arena = ArenaInstance::lower_unchecked(pi);
        for q in pinned_queries(pi, labels) {
            let report = preflight::analyze(&arena, &q);
            h.bytes(format!("{report:?}").as_bytes());
            h.bytes(&report.upper_bound.to_bits().to_le_bytes());
            h.bytes(format!("{:?}", preflight::normalise(&arena, &q)).as_bytes());
            reports += 1;
            for d in &report.diagnostics {
                *seen.entry(d.code.code()).or_insert(0usize) += 1;
                for (prefix, kind) in CASES {
                    if d.message.starts_with(prefix) {
                        *seen.entry(kind).or_insert(0) += 1;
                    }
                }
            }
            if report.verdict == Verdict::Clean && report.diagnostics.is_empty() {
                *seen.entry("clean").or_insert(0usize) += 1;
            }
        }
    }
    // fig2's `R.book.author` is the set's shared-object (AQ008) case.
    let fig2 = &instances[instances.len() - 3].0;
    let author = PathExpr::parse(fig2.catalog(), "R.book.author").unwrap();
    let arena = ArenaInstance::lower_unchecked(fig2);
    let r = preflight::analyze(&arena, &Query::exists(author));
    assert!(r.diagnostics.iter().any(|d| d.code.code() == "AQ008"), "{r:?}");
    let codes = ["AQ001", "AQ004", "AQ007", "AQ008", "clean"];
    for kind in codes.into_iter().chain(CASES.map(|c| c.1)) {
        assert!(seen.contains_key(kind), "no pinned report reaches {kind}: {seen:?}");
    }
    assert_eq!(reports, 3_181, "pinned query count");
    // Taken when the analyser still read a separately built structural
    // summary of the instance.
    assert_eq!(h.0, 15_993_476_095_756_500_004, "pre-flight reports changed");
}
