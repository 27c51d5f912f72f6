//! The flat-memory equivalence gate: `ArenaInstance` and the
//! arena-routed engine must answer every Point/Exists/Chain query and
//! every mutation sequence **bit-identically** (`f64::to_bits`) to the
//! legacy map-of-maps path.
//!
//! Four contracts, property-tested over random trees and DAGs:
//!
//! 1. **Lowering round-trip** — `lower_unchecked` produces a layout
//!    that passes `debug_validate`, in which row `x` is object `x`: a
//!    member's CSR row is its universe and its slot holds its OPF, every
//!    other row is empty, and the root sits at its own id.
//! 2. **Flat pipeline ≡ sequential** — `point_flat`/`exists_flat` agree
//!    bit-for-bit with `point_query`/`exists_query` (errors pair with
//!    errors: both paths reject non-tree kept regions).
//! 3. **Engine ≡ sequential, 1 vs 4 threads bit-exact** — the
//!    arena-routed engine's batch answers equal the sequential answers
//!    `to_bits`-exactly, and a 4-thread run over a shared cache returns
//!    the bit-identical vector (the strengthened form of the old
//!    "slot-for-slot equal" determinism test).
//! 4. **Mutation sequences** — after every successful mutation the
//!    warm engines (1- and 4-thread) answer the workload bit-identically
//!    to a cold engine over a fresh clone.
//! 5. **Patched ≡ fresh lowering** — after every entry-level op
//!    (`SETEDGE`, `SETVAL`, and `ReplaceOpf`s that change an OPF's kind
//!    or table length), `patch_opfs` leaves the arena slot-for-slot
//!    equal to a fresh `lower_unchecked` of the same instance, with the
//!    same rows and CSRs, the same slab layout once compacted, and
//!    `to_bits`-equal flat answers.
//! 6. **Ancestor walk ≡ layers route** — on §7.1 trees after random
//!    mutation prefixes, and on a hostile instance with a dangling
//!    child, a point query's kept region from `point_region` (the
//!    target's path ancestors, collected from the one ancestor walk)
//!    gives the answer, error and budget spend
//!    of `layers_flat_from` → `kept_flat` → `eps_flat`, for located and
//!    unlocated targets, ids past the arena, non-root path starts and
//!    the empty path.
//! 7. **One pass ≡ region route** — on §7.1 forests with compact OPFs
//!    and random entry-level writes, and on hostile forests (dangling
//!    children, missing OPFs, non-finite mass), `point_pass` (the same
//!    walk, folding ε) and
//!    `exists_pass` give the region route's bits, steps, polls and OPF
//!    entries, fall back exactly where it errs (or the target has no
//!    weak node), and `point_flat`/`exists_flat` keep its errors; the
//!    subtree numbers agree with walking the weak parents.

mod common;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pxml::algebra::{locate_weak, PathExpr};
use pxml::core::{
    ArenaInstance, Budget, ChildSet, CoreError, DegradePolicy, EpsBounds, IndependentOpf, Label,
    LabelProductOpf, Mutation, ObjectId, OnePass, Opf, OpfView, ProbInstance,
};
use pxml::gen::random_mutations;
use pxml::query::{chain_probability, exists_query, point_query, QueryError};
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

/// All labels appearing in any universe, sorted and deduped.
fn all_labels(pi: &ProbInstance) -> Vec<Label> {
    let mut objects: Vec<ObjectId> = pi.weak().objects().collect();
    objects.sort_unstable();
    let mut v: Vec<Label> = objects
        .into_iter()
        .filter_map(|o| pi.weak().node(o))
        .flat_map(|n| n.universe().iter().map(|(_, _, l)| l))
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Path expressions exercising the instance: every prefix of the
/// first-child walk plus every single- and two-label combination.
fn build_paths(pi: &ProbInstance) -> Vec<PathExpr> {
    let (walk_labels, _) = first_child_walk(pi);
    let mut paths: Vec<PathExpr> = (1..=walk_labels.len())
        .map(|len| PathExpr::new(pi.root(), walk_labels[..len].iter().copied()))
        .collect();
    let labels = all_labels(pi);
    for &l1 in &labels {
        paths.push(PathExpr::new(pi.root(), [l1]));
        for &l2 in &labels {
            paths.push(PathExpr::new(pi.root(), [l1, l2]));
        }
    }
    paths
}

/// The mixed workload: exists + per-located point queries over
/// `build_paths`, chain queries along the walk, plus duplicates.
fn build_queries(pi: &ProbInstance) -> Vec<BatchQuery> {
    let (_, chain) = first_child_walk(pi);
    let mut queries = Vec::new();
    for p in build_paths(pi) {
        queries.push(BatchQuery::exists(p.clone()));
        for o in locate_weak(pi, &p) {
            queries.push(BatchQuery::point(p.clone(), o));
        }
    }
    for len in 1..chain.len() {
        queries.push(BatchQuery::chain(chain[..=len].to_vec()));
    }
    let half: Vec<BatchQuery> = queries[..queries.len() / 2].to_vec();
    queries.extend(half);
    queries
}

/// The sequential (legacy-path) answer the arena must reproduce.
fn sequential_answer(pi: &ProbInstance, q: &BatchQuery) -> Result<f64, QueryError> {
    match q {
        BatchQuery::Point { path, object } => point_query(pi, path, *object),
        BatchQuery::Exists { path } => exists_query(pi, path),
        BatchQuery::Chain { objects } => chain_probability(pi, objects),
    }
}

/// Bit-exact comparison of two answer vectors: `Ok` values must agree
/// `to_bits`-exactly, errors pair with errors (rendered-message equal).
fn assert_bit_identical(
    got: &[Result<f64, QueryError>],
    want: &[Result<f64, QueryError>],
    ctx: &str,
) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        match (g, w) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: slot {i}: {a} vs {b}")
            }
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "{ctx}: slot {i} errors differ")
            }
            _ => panic!("{ctx}: slot {i}: ok/err mismatch: {g:?} vs {w:?}"),
        }
    }
}

/// A `ReplaceOpf` reshaping `o`'s OPF without changing its
/// distribution's support beyond `PC(o)`: `how` 0 grows the table by a
/// zero-probability entry, 1 strips zero entries (or turns a compact
/// OPF into a table), 2 swaps in a point-mass independent OPF on the
/// likeliest child set, 3 wraps the table as a one-part label product
/// (a fallback slot).
fn reshape_op(pi: &ProbInstance, o: ObjectId, how: u32) -> Option<Mutation> {
    let node = pi.weak().node(o)?;
    let universe = node.universe();
    let mut t = pi.opf(o)?.to_table(universe);
    let opf = match how % 4 {
        0 => {
            if universe.len() > 12 || !universe.fits_mask() {
                return None;
            }
            let unused = (0u64..1 << universe.len())
                .map(ChildSet::Mask)
                .find(|s| t.iter().all(|(e, _)| e != s))?;
            t.set(unused, 0.0);
            Opf::Table(t)
        }
        1 => {
            t.retain_positive();
            Opf::Table(t)
        }
        2 => {
            let (set, _) = t.iter().max_by(|a, b| a.1.total_cmp(&b.1))?;
            let probs = (0..universe.len() as u32)
                .map(|p| if set.contains_pos(p) { 1.0 } else { 0.0 })
                .collect();
            Opf::Independent(IndependentOpf::new(probs))
        }
        _ => {
            let labels = universe.labels();
            if labels.len() != 1 {
                return None;
            }
            Opf::LabelProduct(LabelProductOpf::new(universe, [(labels[0], t)]))
        }
    };
    Some(Mutation::ReplaceOpf { object: o, opf })
}

/// Contract 5's comparison: `patched` equals a fresh lowering of `pi`.
fn assert_matches_fresh_lowering(pi: &ProbInstance, patched: &ArenaInstance, ctx: &str) {
    let fresh = ArenaInstance::lower_unchecked(pi);
    assert_eq!(patched.debug_validate(), Ok(()), "{ctx}");
    assert_eq!(patched.len(), fresh.len(), "{ctx}: rows");
    assert_eq!(patched.root_index(), fresh.root_index(), "{ctx}");
    let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for x in 0..fresh.len() as u32 {
        let (s, e) = fresh.child_range(x);
        assert_eq!(patched.child_range(x), (s, e), "{ctx}: CSR row {x}");
        for i in s..e {
            assert_eq!(patched.child(i), fresh.child(i), "{ctx}");
            assert_eq!(patched.child_label(i), fresh.child_label(i), "{ctx}");
            assert_eq!(patched.child_is_weak(i), fresh.child_is_weak(i), "{ctx}");
            let (a, b) = (patched.marginal_present(x, i - s), fresh.marginal_present(x, i - s));
            assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "{ctx}: marginal {x}/{}", i - s);
        }
        assert_eq!(patched.parents_of(x), fresh.parents_of(x), "{ctx}: parents of {x}");
        match (patched.opf_view(x), fresh.opf_view(x)) {
            (OpfView::Independent(p), OpfView::Independent(q)) => {
                assert_eq!(bits(p), bits(q), "{ctx}: slot {x}")
            }
            (OpfView::Table { masks: m, probs: p }, OpfView::Table { masks: n, probs: q }) => {
                assert_eq!(m, n, "{ctx}: slot {x}");
                assert_eq!(bits(p), bits(q), "{ctx}: slot {x}");
            }
            (v, w) => assert_eq!(v, w, "{ctx}: slot {x}"),
        }
    }
    if patched.garbage() == 0 {
        assert_eq!(patched.slab_lens(), fresh.slab_lens(), "{ctx}: compacted layout");
    }
    for p in build_paths(pi) {
        let (a, b) = (patched.exists_flat(&p.labels), fresh.exists_flat(&p.labels));
        assert_eq!(a.map(f64::to_bits).ok(), b.map(f64::to_bits).ok(), "{ctx}: exists {p:?}");
        for o in locate_weak(pi, &p) {
            let (a, b) = (patched.point_flat(&p.labels, o), fresh.point_flat(&p.labels, o));
            assert_eq!(a.map(f64::to_bits).ok(), b.map(f64::to_bits).ok(), "{ctx}: point {p:?}");
        }
    }
}

/// How often each `patch_opfs` path ran in one [`drive_patches`] run.
#[derive(Default)]
struct PatchPaths {
    in_place: usize,
    appended: usize,
    compacted: usize,
    fallback: usize,
}

/// Applies a random mix of generated entry-level ops and reshaping
/// `ReplaceOpf`s to `pi`, patching one arena along the way and checking
/// it against a fresh lowering after every op that applied.
fn drive_patches(mut pi: ProbInstance, seed: u64) -> PatchPaths {
    let mut paths = PatchPaths::default();
    let mut arena = ArenaInstance::lower_unchecked(&pi);
    let mut owners: Vec<ObjectId> = pi.weak().objects().filter(|&o| pi.opf(o).is_some()).collect();
    owners.sort_unstable();
    let generated = random_mutations(&pi, 16, seed ^ 0x5EED);
    let mut rng = StdRng::seed_from_u64(seed);
    for step in 0..24 {
        let op = if !generated.is_empty() && rng.gen_bool(0.5) {
            Some(generated[step % generated.len()].clone())
        } else if owners.is_empty() {
            None
        } else {
            let o = owners[rng.gen_range(0..owners.len())];
            reshape_op(&pi, o, rng.gen_range(0..4u32))
        };
        let Some(op) = op else { continue };
        let Ok(effect) = pi.apply(&op) else { continue };
        assert!(!effect.structural, "entry-level ops only");
        let (lens, garbage) = (arena.slab_lens(), arena.garbage());
        arena.patch_opfs(&pi, &effect.dirty);
        // Garbage only shrinks by compaction and only grows by appends.
        if arena.garbage() < garbage {
            paths.compacted += 1;
        } else if arena.garbage() > garbage {
            paths.appended += 1;
        } else if !effect.dirty.is_empty() && arena.slab_lens() == lens {
            paths.in_place += 1;
        }
        if (0..arena.len() as u32).any(|x| matches!(arena.opf_view(x), OpfView::Fallback(_))) {
            paths.fallback += 1;
        }
        assert_matches_fresh_lowering(&pi, &arena, &format!("seed {seed} step {step}: {op:?}"));
    }
    paths
}

/// The random ops of [`drive_patches`] reach every `patch_opfs` path:
/// in-place overwrite, append, compaction, and fallback slots.
#[test]
fn patch_ops_cover_every_slot_path() {
    let mut total = PatchPaths::default();
    for seed in 0..40 {
        for pi in [random_tree(seed), random_dag(seed)] {
            let p = drive_patches(pi, seed);
            total.in_place += p.in_place;
            total.appended += p.appended;
            total.compacted += p.compacted;
            total.fallback += p.fallback;
        }
    }
    assert!(total.in_place > 0, "no in-place patch");
    assert!(total.appended > 0, "no appended slot");
    assert!(total.compacted > 0, "no compaction");
    assert!(total.fallback > 0, "no fallback slot");
}

/// Rows are catalog ids: a decoded generated instance lowers to exactly
/// one row per catalog object, nothing beyond.
#[test]
fn decoded_instance_lowers_to_one_row_per_catalog_object() {
    use pxml::gen::{generate, Labeling, WorkloadConfig};
    use pxml::storage::{from_binary, to_binary};
    for labeling in [Labeling::SameLabel, Labeling::FullyRandom] {
        let g = generate(&WorkloadConfig::paper(4, 3, labeling, 7));
        let pi = from_binary(&to_binary(&g.instance).unwrap()).unwrap();
        let arena = ArenaInstance::lower(&pi).unwrap();
        assert_eq!(arena.len(), pi.weak().catalog().object_count(), "{labeling:?}");
        assert_eq!(arena.len(), pi.object_count(), "{labeling:?}");
    }
}

/// One point evaluation, comparable across routes: the bounds'
/// `to_bits` and OPF entries, or the error, plus the steps spent.
type PointOutcome = (Result<(u64, u64, u64), CoreError>, u64);

fn outcome(r: Result<EpsBounds, CoreError>, budget: &Budget) -> PointOutcome {
    (r.map(|b| (b.lo.to_bits(), b.hi.to_bits(), b.opf_entries)), budget.steps_spent())
}

const ZERO: EpsBounds = EpsBounds { lo: 0.0, hi: 0.0, opf_entries: 0 };

/// The layers route for `P(target ∈ start.labels)`: locate every
/// layer, keep the target's region, sweep.
fn point_by_layers(
    a: &ArenaInstance,
    start: u32,
    labels: &[Label],
    target: u32,
    budget: &Budget,
    degrade: DegradePolicy,
) -> Result<EpsBounds, CoreError> {
    let layers = a.layers_flat_from(start, labels);
    if layers[labels.len()].binary_search(&target).is_err() {
        return Ok(ZERO);
    }
    let kept = a.kept_flat(labels, &layers, &[target])?;
    a.eps_flat(labels, &kept, budget, degrade)
}

/// Checks the ancestor walk against the layers route for one target
/// under every budget, and checks which region the walk chose: on a
/// forest it falls back to the layers only for a target in range
/// without a weak node, a located target's region is `kept_flat`'s,
/// and an unlocated target's region is empty.
fn assert_walk_matches_layers(
    pi: &ProbInstance,
    a: &ArenaInstance,
    start: u32,
    labels: &[Label],
    target: u32,
) {
    let ctx = format!("start {start} labels {labels:?} target {target}");
    let region = a.point_region(start, labels, target);
    let in_range = (target as usize) < a.len();
    let member = pi.weak().node(ObjectId::from_raw(target)).is_some();
    assert_eq!(region.is_none(), in_range && !member, "{ctx}: {region:?}");
    let layers = a.layers_flat_from(start, labels);
    let located = layers[labels.len()].binary_search(&target).is_ok();
    match &region {
        Some(kept) if located => {
            assert_eq!(Ok(kept.clone()), a.kept_flat(labels, &layers, &[target]), "{ctx}");
        }
        Some(kept) => {
            let empty = kept.iter().all(Vec::is_empty);
            assert!(empty, "{ctx}: an unlocated target kept {kept:?}");
        }
        None => {}
    }
    let budgets = [None, Some(0), Some(1), Some(2), Some(3), Some(5), Some(8)];
    for max_steps in budgets {
        for degrade in [DegradePolicy::Error, DegradePolicy::Interval] {
            let budget = || {
                max_steps.map_or_else(Budget::unlimited, |k| Budget::unlimited().with_max_steps(k))
            };
            let (walk_budget, layers_budget) = (budget(), budget());
            let walked = match a.point_region(start, labels, target) {
                Some(kept) => a.eps_flat(labels, &kept, &walk_budget, degrade),
                None => point_by_layers(a, start, labels, target, &walk_budget, degrade),
            };
            let by_layers = point_by_layers(a, start, labels, target, &layers_budget, degrade);
            assert_eq!(
                outcome(walked, &walk_budget),
                outcome(by_layers, &layers_budget),
                "{ctx}: budget {max_steps:?} {degrade:?}"
            );
        }
    }
}

/// Random label paths over a §7.1 instance's per-depth alphabets, from
/// the root and from random objects, and every interesting target of
/// each: every located one, random unlocated members and ids at or
/// past the arena's end.
fn drive_point_walks(pi: &ProbInstance, depth_labels: &[Vec<Label>], rng: &mut StdRng) {
    let a = ArenaInstance::lower_unchecked(pi);
    let members: Vec<u32> = pi.weak().objects().map(|o| o.raw()).collect();
    for _ in 0..12 {
        let from_root = rng.gen_bool(0.6);
        let start =
            if from_root { a.root_index() } else { members[rng.gen_range(0..members.len())] };
        let len = rng.gen_range(0..=depth_labels.len() + 1);
        let labels: Vec<Label> = (0..len)
            .map(|d| {
                let alphabet = &depth_labels[d.min(depth_labels.len() - 1)];
                alphabet[rng.gen_range(0..alphabet.len())]
            })
            .collect();
        let mut targets = a.layers_flat_from(start, &labels).pop().unwrap_or_default();
        targets.extend((0..6).map(|_| members[rng.gen_range(0..members.len())]));
        targets.extend([a.len() as u32, a.len() as u32 + 7]);
        for t in targets {
            assert_walk_matches_layers(pi, &a, start, &labels, t);
        }
    }
}

/// Contract 6 on a hostile unchecked instance: a §7.1 tree without
/// the weak nodes of one depth-1 object and of one leaf, so the rows of
/// their parents name dangling children.
#[test]
fn point_walk_matches_layers_with_dangling_children() {
    use pxml::core::WeakInstance;
    use pxml::gen::{generate, Labeling, WorkloadConfig};
    use std::sync::Arc;
    let g = generate(&WorkloadConfig::paper(3, 2, Labeling::FullyRandom, 11));
    let (weak, opf, vpf) = g.instance.into_parts();
    let children: Vec<ObjectId> =
        weak.node(weak.root()).unwrap().universe().iter().map(|(_, c, _)| c).collect();
    let (kept_branch, cut_branch) = (children[0], children[1]);
    let leaf = weak
        .descendants(kept_branch)
        .into_iter()
        .find(|&o| weak.node(o).is_some_and(|n| n.is_childless()))
        .unwrap();
    let mut nodes = weak.nodes().clone();
    nodes.remove(cut_branch);
    nodes.remove(leaf);
    let weak = WeakInstance::from_parts_unchecked(Arc::clone(weak.catalog()), weak.root(), nodes);
    let pi = ProbInstance::from_parts_unchecked(weak, opf, vpf);
    let a = ArenaInstance::lower_unchecked(&pi);
    for x in [cut_branch, leaf] {
        assert_eq!(a.point_region(a.root_index(), &[], x.raw()), None, "{x:?} dangles");
    }
    let mut rng = StdRng::seed_from_u64(0xd4);
    for _ in 0..8 {
        drive_point_walks(&pi, &g.depth_labels, &mut rng);
    }
}
/// The region route for `P(target ∈ start.labels)`, as the engine runs
/// it under `budget`: the ancestor walk's kept region, or the located
/// layers of `locate` (nothing off the root) where the walk proves
/// nothing, then the sweep. `Ok(None)` is an exact 0 found before any
/// sweep.
fn point_by_region(
    a: &ArenaInstance,
    start: u32,
    labels: &[Label],
    target: u32,
    budget: &Budget,
) -> Result<Option<EpsBounds>, CoreError> {
    let kept = match a.point_region(start, labels, target) {
        Some(kept) => kept,
        None => {
            let layers = a.locate(ObjectId::from_raw(start), labels);
            if layers[labels.len()].binary_search(&target).is_err() {
                return Ok(None);
            }
            a.kept_flat(labels, &layers, &[target])?
        }
    };
    a.eps_flat(labels, &kept, budget, DegradePolicy::Error).map(Some)
}

/// The region route for `P(∃ o: o ∈ start.labels)`: located layers,
/// kept region, sweep.
fn exists_by_region(
    a: &ArenaInstance,
    start: u32,
    labels: &[Label],
    budget: &Budget,
) -> Result<Option<EpsBounds>, CoreError> {
    let layers = a.locate(ObjectId::from_raw(start), labels);
    let located = &layers[labels.len()];
    if located.is_empty() {
        return Ok(None);
    }
    let kept = a.kept_flat(labels, &layers, located)?;
    a.eps_flat(labels, &kept, budget, DegradePolicy::Error).map(Some)
}

/// One pass against its region route: a [`OnePass::Zero`] is an exact 0
/// that spends nothing; a [`OnePass::Eps`] has the route's bits, OPF
/// entries, and (charged in one call) steps and polls; and a
/// [`OnePass::Region`] on a forest stands for an error or, with
/// `region_ok`, a target the ancestor walk cannot place.
fn assert_pass_matches_region(
    pass: OnePass,
    region: &Result<Option<EpsBounds>, CoreError>,
    region_budget: &Budget,
    region_ok: bool,
    ctx: &str,
) {
    match (pass, region) {
        (OnePass::Zero, Ok(r)) => {
            assert!(r.is_none_or(|b| b.lo.to_bits() == 0f64.to_bits()), "{ctx}: {r:?}");
            assert_eq!(r.map_or(0, |b| b.opf_entries), 0, "{ctx}");
            assert_eq!(region_budget.steps_spent(), 0, "{ctx}: zero charges no step");
            assert_eq!(region_budget.polls_performed(), 0, "{ctx}: zero polls nothing");
        }
        (OnePass::Eps { eps, steps, opf_entries }, Ok(Some(b))) => {
            assert_eq!((eps.to_bits(), eps.to_bits()), (b.lo.to_bits(), b.hi.to_bits()), "{ctx}");
            assert_eq!(opf_entries, b.opf_entries, "{ctx}: OPF entries");
            let charged = Budget::unlimited();
            charged.charge(steps).unwrap();
            assert_eq!(charged.steps_spent(), region_budget.steps_spent(), "{ctx}: steps");
            assert_eq!(charged.polls_performed(), region_budget.polls_performed(), "{ctx}: polls");
        }
        (OnePass::Region, Err(_)) => {}
        (OnePass::Region, Ok(_)) if region_ok => {}
        (pass, region) => panic!("{ctx}: pass {pass:?} vs region route {region:?}"),
    }
}

/// Checks both passes against their region routes on random label
/// paths of `pi` (from the root and from random objects, the empty path
/// included), for every located target, random members and ids past the
/// arena, and `point_flat`/`exists_flat`'s answers and errors against
/// the route. Also checks the subtree numbers against the parent map.
/// Returns which outcomes it met: per pass (exists, then point) a zero,
/// an ε and a fallback.
fn drive_passes(pi: &ProbInstance, depth_labels: &[Vec<Label>], rng: &mut StdRng) -> [bool; 6] {
    let mut seen = [false; 6];
    let kind = |p: OnePass| match p {
        OnePass::Zero => 0,
        OnePass::Eps { .. } => 1,
        OnePass::Region => 2,
    };
    let a = ArenaInstance::lower_unchecked(pi);
    assert_subtree_numbers_follow_parents(pi, &a);
    let mut rows: Vec<u32> = pi.weak().objects().map(|o| o.raw()).collect();
    rows.sort_unstable();
    let root = a.root_index();
    for _ in 0..12 {
        let start = if rng.gen_bool(0.7) { root } else { rows[rng.gen_range(0..rows.len())] };
        let len = rng.gen_range(0..=depth_labels.len() + 1);
        let labels: Vec<Label> = (0..len)
            .map(|d| {
                let alphabet = &depth_labels[d.min(depth_labels.len() - 1)];
                alphabet[rng.gen_range(0..alphabet.len())]
            })
            .collect();
        let ctx = format!("start {start} labels {labels:?}");
        let budget = Budget::unlimited();
        let region = exists_by_region(&a, start, &labels, &budget);
        let pass = a.exists_pass(start, &labels);
        seen[kind(pass)] = true;
        assert_pass_matches_region(pass, &region, &budget, false, &ctx);
        if start == root {
            // Errors compare by message: a non-finite mass is NaN.
            let flat = a.exists_flat(&labels).map(f64::to_bits).map_err(|e| e.to_string());
            let want = region.as_ref().map(|r| r.map_or(0, |b| b.lo.to_bits()));
            assert_eq!(flat, want.map_err(|e| e.to_string()), "{ctx}");
        }
        let mut targets = a.layers_flat_from(root, &labels).pop().unwrap_or_default();
        targets.extend((0..6).map(|_| rng.gen_range(0..a.len() as u32)));
        targets.extend([a.len() as u32, a.len() as u32 + 7]);
        for t in targets {
            let ctx = format!("{ctx} target {t}");
            let budget = Budget::unlimited();
            let region = point_by_region(&a, start, &labels, t, &budget);
            let walkable = (t as usize) >= a.len() || a.is_member(t);
            let pass = a.point_pass(start, &labels, t);
            seen[3 + kind(pass)] = true;
            assert_pass_matches_region(pass, &region, &budget, !walkable, &ctx);
            if start == root {
                let flat = a.point_flat(&labels, ObjectId::from_raw(t)).map(f64::to_bits);
                let unlimited = Budget::unlimited();
                let by_layers =
                    point_by_layers(&a, root, &labels, t, &unlimited, DegradePolicy::Error);
                assert_eq!(
                    flat.map_err(|e| e.to_string()),
                    by_layers.map(|b| b.lo.to_bits()).map_err(|e| e.to_string()),
                    "{ctx}"
                );
            }
        }
    }
    seen
}

/// The weak parent of row `x` on a forest: its reverse-CSR row, or for
/// a dangling child (no reverse-CSR row) the row naming it.
fn forest_parent(a: &ArenaInstance, x: u32) -> Option<u32> {
    if a.is_member(x) {
        return a.parents_of(x).first().copied();
    }
    (0..a.len() as u32).find(|&p| {
        let (s, e) = a.child_range(p);
        (s..e).any(|i| a.child(i) == x && a.child_is_weak(i))
    })
}

/// On a forest, row `y` is in row `x`'s subtree by the numbers exactly
/// when walking weak parents up from `y` meets `x`, and a row is
/// numbered exactly when that walk reaches the root.
fn assert_subtree_numbers_follow_parents(pi: &ProbInstance, a: &ArenaInstance) {
    let up = |mut y: u32| {
        let mut chain = vec![y];
        while let Some(p) = forest_parent(a, y) {
            chain.push(p);
            y = p;
        }
        chain
    };
    let n = a.len() as u32;
    let chains: Vec<Vec<u32>> = (0..n).map(up).collect();
    for y in 0..n {
        let reached = chains[y as usize].last() == Some(&a.root_index());
        assert_eq!(a.subtree(y).is_some(), reached, "row {y} of {}", pi.object_count());
        let Some((enter, _)) = a.subtree(y) else { continue };
        for x in 0..n {
            let by_numbers = a.subtree(x).is_some_and(|(s, e)| s <= enter && enter < e);
            assert_eq!(by_numbers, chains[y as usize].contains(&x), "is {x} above {y}?");
        }
    }
}

/// A §7.1 forest for the pass contract: random depth, branching and
/// labeling; some OPFs made compact (independent or a label-product
/// fallback); then a prefix of random entry-level writes.
fn pass_forest(seed: u64, rng: &mut StdRng) -> (ProbInstance, Vec<Vec<Label>>) {
    use pxml::gen::{generate, Labeling, WorkloadConfig};
    let labeling = if rng.gen_bool(0.5) { Labeling::SameLabel } else { Labeling::FullyRandom };
    let (depth, branching) = (rng.gen_range(1..=4usize), rng.gen_range(1..=4usize));
    let g = generate(&WorkloadConfig::paper(depth, branching, labeling, seed));
    let mut pi = g.instance;
    let mut owners: Vec<ObjectId> = pi.weak().objects().filter(|&o| pi.opf(o).is_some()).collect();
    owners.sort_unstable();
    for &o in &owners {
        if rng.gen_bool(0.3) {
            if let Some(op) = reshape_op(&pi, o, rng.gen_range(2..4u32)) {
                pi.apply(&op).expect("reshaping keeps the distribution");
            }
        }
    }
    for op in random_mutations(&pi, rng.gen_range(0..6usize), rng.gen()) {
        pi.apply(&op).expect("generated ops apply");
    }
    (pi, g.depth_labels)
}

/// Hostile forests for the pass contract, from one generated tree: a
/// depth-1 object and a leaf lose their weak nodes (dangling children),
/// two inner objects lose their OPFs, and one gets non-finite mass.
#[test]
fn one_pass_matches_the_region_route_on_hostile_forests() {
    use pxml::core::WeakInstance;
    use pxml::gen::{generate, Labeling, WorkloadConfig};
    use std::sync::Arc;
    let mut rng = StdRng::seed_from_u64(0x0e9a55);
    let mut seen = [false; 6];
    for seed in 0..6 {
        let g = generate(&WorkloadConfig::paper(3, 3, Labeling::FullyRandom, seed));
        let (weak, mut opf, vpf) = g.instance.into_parts();
        let children: Vec<ObjectId> =
            weak.node(weak.root()).unwrap().universe().iter().map(|(_, c, _)| c).collect();
        let inner: Vec<ObjectId> = children
            .iter()
            .flat_map(|&c| weak.node(c).unwrap().universe().iter().map(|(_, g, _)| g))
            .filter(|&o| weak.node(o).is_some_and(|n| !n.is_childless()))
            .collect();
        let leaf = weak
            .descendants(children[0])
            .into_iter()
            .find(|&o| weak.node(o).is_some_and(|n| n.is_childless()))
            .unwrap();
        let mut nodes = weak.nodes().clone();
        nodes.remove(children[1]);
        nodes.remove(leaf);
        opf.remove(inner[0]);
        opf.remove(children[2]);
        let width = weak.node(inner[1]).unwrap().universe().len();
        opf.insert(inner[1], Opf::Independent(IndependentOpf::new(vec![f64::NAN; width])));
        let weak = WeakInstance::from_parts_unchecked(Arc::clone(weak.catalog()), weak.root(), nodes);
        let pi = ProbInstance::from_parts_unchecked(weak, opf, vpf);
        let a = ArenaInstance::lower_unchecked(&pi);
        for x in [children[1], leaf] {
            let n = pi.weak().node(x).is_none();
            assert!(n && a.point_pass(a.root_index(), &[], x.raw()) == OnePass::Region);
        }
        for _ in 0..4 {
            let met = drive_passes(&pi, &g.depth_labels, &mut rng);
            seen.iter_mut().zip(met).for_each(|(s, m)| *s |= m);
        }
    }
    assert_eq!(seen, [true; 6], "(exists, point) × (zero, ε, fallback) all met");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Contract 6: on §7.1 SL and FR trees of several depths and
    /// branchings, after a random prefix of entry-level mutations, the
    /// ancestor walk and the layers route agree on every point query.
    #[test]
    fn point_walk_matches_layers_on_generated_trees(seed in 0u64..3000) {
        use pxml::gen::{generate, Labeling, WorkloadConfig};
        let mut rng = StdRng::seed_from_u64(seed);
        let labeling = if rng.gen_bool(0.5) { Labeling::SameLabel } else { Labeling::FullyRandom };
        let (depth, branching) = (rng.gen_range(1..=4usize), rng.gen_range(1..=4usize));
        let g = generate(&WorkloadConfig::paper(depth, branching, labeling, seed));
        let mut pi = g.instance;
        for op in random_mutations(&pi, rng.gen_range(0..4usize), rng.gen()) {
            pi.apply(&op).expect("generated ops apply");
        }
        drive_point_walks(&pi, &g.depth_labels, &mut rng);
    }

    /// Contract 7: on random §7.1 forests with compact OPFs and random
    /// entry-level writes, the one-pass point and exists evaluations
    /// equal their region routes in bits, steps, polls and OPF entries,
    /// and fall back exactly where the route errs.
    #[test]
    fn one_pass_matches_the_region_route_on_generated_forests(seed in 0u64..3000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (pi, depth_labels) = pass_forest(seed, &mut rng);
        drive_passes(&pi, &depth_labels, &mut rng);
    }

    /// Contract 5: after every entry-level op the patched arena matches
    /// a fresh lowering of the same instance.
    #[test]
    fn patched_arena_matches_fresh_lowering(seed in 0u64..3000) {
        for pi in [random_tree(seed), random_dag(seed)] {
            drive_patches(pi, seed);
        }
    }

    /// Contract 1: lowering round-trips — layout invariants hold and
    /// row `x` describes object `x`.
    #[test]
    fn lowering_round_trips_and_validates(seed in 0u64..3000) {
        for pi in [random_tree(seed), random_dag(seed)] {
            let arena = ArenaInstance::lower_unchecked(&pi);
            prop_assert_eq!(arena.debug_validate(), Ok(()));
            prop_assert_eq!(arena.root_index(), pi.root().raw());
            prop_assert!(pi.weak().objects().all(|o| o.index() < arena.len()));
            for x in 0..arena.len() as u32 {
                let o = ObjectId::from_raw(x);
                let (s, e) = arena.child_range(x);
                let row: Vec<(u32, Label)> =
                    (s..e).map(|i| (arena.child(i), arena.child_label(i))).collect();
                let universe: Vec<(u32, Label)> = pi.weak().node(o).map_or_else(Vec::new, |n| {
                    n.universe().iter().map(|(_, c, l)| (c.raw(), l)).collect()
                });
                prop_assert_eq!(row, universe, "row {}", x);
                prop_assert_eq!(arena.has_opf(x), pi.opf(o).is_some(), "slot {}", x);
            }
        }
    }

    /// Contract 2: the flat §6.1 pipeline is bit-identical to the
    /// sequential recursion on every generated path, errors included.
    #[test]
    fn flat_pipeline_is_bit_identical_to_sequential(seed in 0u64..3000) {
        for pi in [random_tree(seed), random_dag(seed)] {
            let arena = ArenaInstance::lower_unchecked(&pi);
            for p in build_paths(&pi) {
                let flat = arena.exists_flat(&p.labels);
                let legacy = exists_query(&pi, &p);
                match (&flat, &legacy) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(
                        a.to_bits(), b.to_bits(), "exists {:?}: {} vs {}", p, a, b
                    ),
                    (Err(_), Err(_)) => {}
                    _ => prop_assert!(false, "exists {:?}: {:?} vs {:?}", p, flat, legacy),
                }
                for o in locate_weak(&pi, &p) {
                    let flat = arena.point_flat(&p.labels, o);
                    let legacy = point_query(&pi, &p, o);
                    match (&flat, &legacy) {
                        (Ok(a), Ok(b)) => prop_assert_eq!(
                            a.to_bits(), b.to_bits(), "point {:?} {:?}: {} vs {}", p, o, a, b
                        ),
                        (Err(_), Err(_)) => {}
                        _ => prop_assert!(
                            false, "point {:?} {:?}: {:?} vs {:?}", p, o, flat, legacy
                        ),
                    }
                }
            }
        }
    }

    /// Contract 3: the arena-routed engine equals the sequential path
    /// bit-exactly, and 1-thread vs 4-thread batches (cold and warm)
    /// return bit-identical vectors.
    #[test]
    fn engine_is_bit_exact_across_thread_counts(seed in 0u64..1500) {
        for pi in [random_tree(seed), random_dag(seed)] {
            let queries = build_queries(&pi);
            let expected: Vec<_> =
                queries.iter().map(|q| sequential_answer(&pi, q)).collect();
            let eng1 = QueryEngine::with_threads(pi.clone(), 1);
            let got1 = eng1.run_batch(&queries);
            assert_bit_identical(&got1, &expected, "1-thread vs sequential");
            let eng4 = QueryEngine::with_threads(pi, 4);
            let got4 = eng4.run_batch(&queries);
            assert_bit_identical(&got4, &got1, "4-thread cold vs 1-thread");
            let warm4 = eng4.run_batch(&queries);
            assert_bit_identical(&warm4, &got1, "4-thread warm vs 1-thread");
        }
    }

    /// Contract 4: across a random mutation sequence, the warm
    /// engines answer bit-identically to a cold engine over a fresh
    /// clone of the mirrored instance, at every step.
    #[test]
    fn mutation_sequences_stay_bit_identical(seed in 0u64..400) {
        let mut mirror = random_tree(seed);
        let mut eng1 = QueryEngine::with_threads(mirror.clone(), 1);
        let mut eng4 = QueryEngine::with_threads(mirror.clone(), 4);
        let ops = random_mutations(&mirror, 6, seed ^ 0xA5A5);
        for (step, op) in ops.iter().enumerate() {
            let applied = mirror.apply(op).is_ok();
            let r1 = eng1.apply_mutation(op);
            let r4 = eng4.apply_mutation(op);
            prop_assert_eq!(applied, r1.is_ok(), "step {}: 1-thread apply parity", step);
            prop_assert_eq!(applied, r4.is_ok(), "step {}: 4-thread apply parity", step);
            let queries = build_queries(&mirror);
            let oracle = QueryEngine::with_threads(mirror.clone(), 1);
            let expected = oracle.run_batch(&queries);
            assert_bit_identical(
                &eng1.run_batch(&queries), &expected, &format!("step {step}: warm 1-thread")
            );
            assert_bit_identical(
                &eng4.run_batch(&queries), &expected, &format!("step {step}: warm 4-thread")
            );
        }
    }
}
