//! Static query analysis: satisfiability verdicts, cost pre-flight and
//! plan normalisation over the instance's [`ArenaInstance`].
//!
//! Everything here runs **before** a query touches the evaluator, and
//! it reads the arena the evaluator reads: the same
//! [`ArenaInstance::locate`] layers, the same [`ArenaInstance::kept_flat`]
//! kept region and tree-shape verdict, the same OPF marginals, and the
//! same per-link chain lookup ([`ArenaInstance::child_position`]). So
//! each verdict is a *proof* about what the engine would do:
//!
//! * [`Verdict::ProvablyZero`] means every engine evaluation of the
//!   query that produces a probability produces **exactly** `0.0`
//!   (point targets outside the located set, empty located sets, chain
//!   links with zero marginals, targets blocked behind zero-ceiling
//!   edges in tree-shaped regions).
//! * [`Verdict::WillError`] means the engine deterministically fails
//!   before computing anything (empty chains, chains not anchored at
//!   the root, unknown objects, non-children).
//! * [`CostEstimate`] bounds the §6.1 expansion steps and the memo
//!   bytes the query can charge. For tree-shaped point/exists regions
//!   and chains the step count is **exact**: it is Σ|kept above the
//!   targets|, what `eps_flat` charges, and one step per chain link,
//!   which lets [`Report::predicted_exhaustion`] refuse a budget-doomed
//!   query without spending its budget.
//! * [`normalise`] canonicalises plans — a point query whose path
//!   locates exactly its target answers identically to the existential
//!   query on the same path, so both share one result-cache key.
//!
//! The analysis is total: on an unvalidated instance a missing OPF
//! gives an edge the conservative ceiling 1.0, and an id at or past the
//! arena's `len()` is an unknown object.
//!
//! Diagnostics carry stable `AQ0xx` codes (the query-side counterpart
//! of the instance linter's taxonomy) suitable for scripting.

use pxml_core::{ArenaInstance, CoreError, Exhausted, Label, ObjectId, Resource};

use crate::cache::{LAYERS_ENTRY_BYTES, LINK_ENTRY_BYTES, RESULT_ENTRY_BYTES};
use crate::dag::MAX_CHAINS;
use crate::engine::{BudgetSpec, DegradePolicy, Query};

/// Stable diagnostic codes emitted by the static analyzer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DiagCode {
    /// `AQ001` — the query provably answers exactly zero.
    ProvablyZero,
    /// `AQ002` — a literal value lies outside every located leaf's
    /// value domain (emitted by the QL-level analyzer).
    OutOfDomainValue,
    /// `AQ003` — a predicate branch can never be taken (emitted by the
    /// QL-level analyzer).
    DeadBranch,
    /// `AQ004` — the engine will deterministically return an error.
    WillError,
    /// `AQ005` — an object or label name does not resolve (emitted by
    /// the QL-level analyzer).
    UnknownName,
    /// `AQ006` — the exact predicted step count exceeds the budget;
    /// the query was (or would be) rejected before execution.
    BudgetRejected,
    /// `AQ007` — the plan is not canonical; an equivalent normalised
    /// plan shares cache keys with other queries.
    NonCanonicalPlan,
    /// `AQ008` — the kept region is not tree-shaped: ungoverned
    /// evaluation errors, governed evaluation falls back to the DAG
    /// inclusion–exclusion (step bounds become inexact).
    NonTreeRegion,
}

impl DiagCode {
    /// The stable `AQ0xx` code string.
    pub fn code(&self) -> &'static str {
        match self {
            DiagCode::ProvablyZero => "AQ001",
            DiagCode::OutOfDomainValue => "AQ002",
            DiagCode::DeadBranch => "AQ003",
            DiagCode::WillError => "AQ004",
            DiagCode::UnknownName => "AQ005",
            DiagCode::BudgetRejected => "AQ006",
            DiagCode::NonCanonicalPlan => "AQ007",
            DiagCode::NonTreeRegion => "AQ008",
        }
    }

    /// A stable kebab-case slug, matching the linter's style.
    pub fn slug(&self) -> &'static str {
        match self {
            DiagCode::ProvablyZero => "provably-zero",
            DiagCode::OutOfDomainValue => "out-of-domain-value",
            DiagCode::DeadBranch => "dead-branch",
            DiagCode::WillError => "will-error",
            DiagCode::UnknownName => "unknown-name",
            DiagCode::BudgetRejected => "budget-rejected",
            DiagCode::NonCanonicalPlan => "non-canonical-plan",
            DiagCode::NonTreeRegion => "non-tree-region",
        }
    }
}

impl std::fmt::Display for DiagCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.code(), self.slug())
    }
}

/// One analyzer finding: a stable code plus a human-readable message.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// The stable code.
    pub code: DiagCode,
    /// What was found, in engine vocabulary.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// The analyzer's overall judgement of a query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Nothing statically wrong; the query must be executed.
    Clean,
    /// Every probability-producing evaluation returns exactly `0.0`.
    ProvablyZero,
    /// The engine deterministically returns an error.
    WillError,
}

/// An upper bound on what one cold evaluation of the query can charge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostEstimate {
    /// Upper bound on budget steps (survival evaluations, link scans,
    /// chain extensions, inclusion–exclusion terms).
    pub steps: u64,
    /// Upper bound on bytes the query can add to the shared
    /// [`crate::MarginalCache`] (result + layers + link entries).
    pub memo_bytes: u64,
    /// True when `steps` is the *exact* governed charge count (tree
    /// point/exists regions and chains), enabling admission control.
    pub exact_steps: bool,
}

/// The full static-analysis result for one [`Query`].
#[derive(Clone, Debug)]
pub struct Report {
    /// The overall judgement.
    pub verdict: Verdict,
    /// The step / memo-byte pre-flight bound.
    pub cost: CostEstimate,
    /// An upper bound on the query's probability, from edge ceilings
    /// (`1.0` when nothing useful can be said).
    pub upper_bound: f64,
    /// The canonicalised plan, when normalisation applies.
    pub normalised: Option<Query>,
    /// All findings, in detection order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Whether the verdict is [`Verdict::ProvablyZero`].
    pub fn is_provably_zero(&self) -> bool {
        self.verdict == Verdict::ProvablyZero
    }

    /// Admission control: the [`Exhausted`] the engine is certain to
    /// hit under `spec`, predicted without spending anything. Only
    /// fires when the step count is exact, a step ceiling is set and
    /// the policy is [`DegradePolicy::Error`] — under
    /// [`DegradePolicy::Interval`] the engine's degraded answer is the
    /// requested behaviour and must not be pre-empted.
    pub fn predicted_exhaustion(&self, spec: &BudgetSpec) -> Option<Exhausted> {
        let limit = spec.max_steps?;
        if self.cost.exact_steps
            && spec.degrade == DegradePolicy::Error
            && self.verdict == Verdict::Clean
            && self.cost.steps > limit
        {
            Some(Exhausted { resource: Resource::Steps, spent: self.cost.steps, limit })
        } else {
            None
        }
    }
}

/// Canonicalises `q` when an algebraically equivalent plan with a
/// shared cache key exists: a point query whose path locates exactly
/// `{object}` is the existential query on the same path (identical
/// restricted final layer ⇒ identical kept region ⇒ identical answer
/// *and* identical failure mode). Returns `None` when `q` is already
/// canonical.
pub fn normalise(arena: &ArenaInstance, q: &Query) -> Option<Query> {
    match q {
        Query::Point { path, .. } => {
            canonical(q, &arena.locate(path.root, &path.labels)[path.labels.len()])
        }
        _ => None,
    }
}

/// [`normalise`] of `q` given its path's located set.
fn canonical(q: &Query, located: &[u32]) -> Option<Query> {
    match q {
        Query::Point { path, object } if located == [object.raw()] => {
            Some(Query::Exists { path: path.clone() })
        }
        _ => None,
    }
}

/// Statically analyzes one engine query against the arena. See the
/// module docs for the soundness contract of each verdict.
pub fn analyze(arena: &ArenaInstance, q: &Query) -> Report {
    match q {
        Query::Point { path, object } => {
            analyze_path(arena, path.root, &path.labels, Some(*object), q)
        }
        Query::Exists { path } => analyze_path(arena, path.root, &path.labels, None, q),
        Query::Chain { objects } => analyze_chain(arena, objects),
    }
}

/// Shared analysis for point (`target = Some`) and existential
/// (`target = None`) queries.
fn analyze_path(
    arena: &ArenaInstance,
    root: ObjectId,
    labels: &[Label],
    target: Option<ObjectId>,
    q: &Query,
) -> Report {
    let n = labels.len();
    let mut diagnostics = Vec::new();
    let layers = arena.locate(root, labels);
    let located = &layers[n];

    // Empty located sets and absent targets short-circuit in the
    // engine before any ε work — zero steps, exactly 0.0, both paths.
    let zero = |message: String, mut diagnostics: Vec<Diagnostic>| {
        diagnostics.push(Diagnostic { code: DiagCode::ProvablyZero, message });
        Report {
            verdict: Verdict::ProvablyZero,
            cost: CostEstimate { steps: 0, memo_bytes: base_bytes(q, &layers), exact_steps: true },
            upper_bound: 0.0,
            normalised: None,
            diagnostics,
        }
    };
    if located.is_empty() {
        let message = if root.raw() != arena.root_index() {
            "path root is not the instance root; the located set is empty".to_string()
        } else {
            format!("no object is reachable via the {n}-label path; the located set is empty")
        };
        return zero(message, diagnostics);
    }
    if let Some(x) = target {
        if located.binary_search(&x.raw()).is_err() {
            return zero(format!("target {x:?} is not located by the path"), diagnostics);
        }
    }

    let targets: Vec<u32> = match target {
        Some(x) => vec![x.raw()],
        None => located.clone(),
    };
    let normalised = canonical(q, located);
    if normalised.is_some() {
        diagnostics.push(Diagnostic {
            code: DiagCode::NonCanonicalPlan,
            message: "point query on a singleton located set; canonical form is EXISTS on the \
                      same path"
                .to_string(),
        });
    }

    let memo_bytes = base_bytes(q, &layers);
    match arena.kept_flat(labels, &layers, &targets) {
        Ok(kept) => {
            // Tree-shaped region: the governed evaluator charges one
            // step per kept node above the target depth, exactly. The
            // memo bytes count a layers entry even for a forest POINT,
            // which adds none, so they stay an upper bound.
            let steps: u64 = kept[..n].iter().map(|l| l.len() as u64).sum();
            let (alive, ceilings) = forward_pass(arena, labels, &kept);
            // Blocked targets: reachable in the weak graph but only
            // through an edge of marginal probability exactly zero.
            // The survival recursion then yields exactly 0.0.
            if !alive.contains(&true) {
                diagnostics.push(Diagnostic {
                    code: DiagCode::ProvablyZero,
                    message: "every root path to the target set crosses an edge of marginal \
                              probability zero"
                        .to_string(),
                });
                return Report {
                    verdict: Verdict::ProvablyZero,
                    cost: CostEstimate { steps, memo_bytes, exact_steps: true },
                    upper_bound: 0.0,
                    normalised,
                    diagnostics,
                };
            }
            // Summed in ascending id order; a point query's final layer
            // is its target alone.
            let upper_bound = ceilings.iter().sum::<f64>().clamp(0.0, 1.0);
            Report {
                verdict: Verdict::Clean,
                cost: CostEstimate { steps, memo_bytes, exact_steps: true },
                upper_bound,
                normalised,
                diagnostics,
            }
        }
        Err(e) => {
            let CoreError::NotTreeShaped(x) = e else {
                unreachable!("kept_flat reports only tree-shape violations, got {e}")
            };
            diagnostics.push(Diagnostic {
                code: DiagCode::NonTreeRegion,
                message: format!(
                    "kept region is not tree-shaped at {x:?}: ungoverned evaluation returns \
                     NotTreeShaped, governed evaluation falls back to DAG inclusion–exclusion"
                ),
            });
            let (steps, chains) = dag_step_bound(arena, &layers, labels, &targets);
            Report {
                verdict: Verdict::Clean,
                cost: CostEstimate { steps, memo_bytes, exact_steps: false },
                upper_bound: if chains == 0 { 0.0 } else { 1.0 },
                normalised,
                diagnostics,
            }
        }
    }
}

/// The probability ceiling of the edge at universe position `pos` of
/// `x`: its exact marginal `Σ_{c ∈ PC(x), pos ∈ c} ℘(c)`, or 1.0 when
/// `x` has no OPF. A non-finite or negative marginal, which only an
/// unvalidated instance can have, degrades to 1.0 as well.
fn ceiling(arena: &ArenaInstance, x: u32, pos: u32) -> f64 {
    match arena.marginal_present(x, pos) {
        Some(m) if m.is_finite() && m >= 0.0 => m.min(1.0),
        _ => 1.0,
    }
}

/// One root-down pass over a tree-shaped kept region, returning per
/// target (aligned with the final kept layer):
/// * whether a root path of positive-ceiling edges reaches it. Every
///   root path to a target lies inside the kept region, so this is the
///   possibility check over the whole weak graph;
/// * an upper bound on its presence probability, by union bounds:
///   `ub(root) = 1`, `ub(v) = min(1, Σ_{kept parents p} ub(p) · ceiling(p→v))`,
///   summed over parents ascending, then entries in universe order.
fn forward_pass(
    arena: &ArenaInstance,
    labels: &[Label],
    kept: &[Vec<u32>],
) -> (Vec<bool>, Vec<f64>) {
    let mut alive = vec![true; kept[0].len()];
    let mut ub = vec![1.0_f64; kept[0].len()];
    for (d, &label) in labels.iter().enumerate() {
        let below = &kept[d + 1];
        let mut next_alive = vec![false; below.len()];
        let mut next_ub = vec![0.0_f64; below.len()];
        for (k, &p) in kept[d].iter().enumerate() {
            let (s, e) = arena.child_range(p);
            for i in s..e {
                if !arena.child_is_weak(i) || arena.child_label(i) != label {
                    continue;
                }
                let Ok(j) = below.binary_search(&arena.child(i)) else { continue };
                let c = ceiling(arena, p, i - s);
                next_alive[j] |= alive[k] && c > 0.0;
                next_ub[j] = (next_ub[j] + ub[k] * c).min(1.0);
            }
        }
        alive = next_alive;
        ub = next_ub;
    }
    (alive, ub)
}

/// Upper bound on the DAG fallback's step charges: one per chain
/// extension (counted by a saturating path-multiplicity DP over the
/// weak layers, mirroring `matching_chains`) plus the `2^k − 1`
/// inclusion–exclusion terms when the `k` matching chains fit under
/// [`MAX_CHAINS`]. Returns `(steps, k)`.
fn dag_step_bound(
    arena: &ArenaInstance,
    layers: &[Vec<u32>],
    labels: &[Label],
    targets: &[u32],
) -> (u64, u64) {
    // Path counts aligned with each layer; layer 0 is the root.
    let mut counts: Vec<u64> = vec![1; layers[0].len()];
    let mut extensions: u64 = 0;
    for (d, &label) in labels.iter().enumerate() {
        let mut next = vec![0u64; layers[d + 1].len()];
        for (&parent, &c) in layers[d].iter().zip(&counts) {
            let (s, e) = arena.child_range(parent);
            for i in s..e {
                if arena.child_is_weak(i) && arena.child_label(i) == label {
                    extensions = extensions.saturating_add(c);
                    if let Ok(j) = layers[d + 1].binary_search(&arena.child(i)) {
                        next[j] = next[j].saturating_add(c);
                    }
                }
            }
        }
        counts = next;
    }
    let last = &layers[labels.len()];
    let k: u64 = targets
        .iter()
        .filter_map(|t| last.binary_search(t).ok())
        .map(|j| counts[j])
        .fold(0u64, u64::saturating_add);
    let masks = if k >= 1 && k <= MAX_CHAINS as u64 {
        (1u64 << k) - 1
    } else {
        0 // k > MAX_CHAINS errors before the inclusion–exclusion runs
    };
    (extensions.saturating_add(masks), k)
}

/// Static analysis of a chain query, mirroring the engine's per-link
/// scan order exactly: charge, child position (an unknown parent, then
/// a non-child, errs), OPF marginal, zero short-circuit.
fn analyze_chain(arena: &ArenaInstance, objects: &[ObjectId]) -> Report {
    let mut diagnostics = Vec::new();
    let will_error = |message: String, steps: u64, mut diagnostics: Vec<Diagnostic>| {
        diagnostics.push(Diagnostic { code: DiagCode::WillError, message });
        Report {
            verdict: Verdict::WillError,
            cost: CostEstimate { steps, memo_bytes: 0, exact_steps: true },
            upper_bound: 1.0,
            normalised: None,
            diagnostics,
        }
    };
    let Some((&first, rest)) = objects.split_first() else {
        return will_error("empty chain".to_string(), 0, diagnostics);
    };
    if first.raw() != arena.root_index() {
        return will_error(
            format!("chain starts at {first:?}, not the instance root"),
            0,
            diagnostics,
        );
    }
    let mut upper_bound = 1.0_f64;
    let mut parent = first;
    for (i, &child) in rest.iter().enumerate() {
        let scanned = (i + 1) as u64;
        let Some(pos) = arena.child_position(parent.raw(), child.raw()) else {
            let message = if arena.is_member(parent.raw()) {
                format!("{child:?} is not a potential child of {parent:?}")
            } else {
                format!("unknown object {parent:?}")
            };
            return will_error(message, scanned, diagnostics);
        };
        let ceiling = ceiling(arena, parent.raw(), pos);
        if ceiling == 0.0 {
            diagnostics.push(Diagnostic {
                code: DiagCode::ProvablyZero,
                message: format!(
                    "link {i} ({parent:?} → {child:?}) has marginal probability exactly zero"
                ),
            });
            return Report {
                verdict: Verdict::ProvablyZero,
                cost: CostEstimate {
                    steps: scanned,
                    memo_bytes: chain_bytes(objects, scanned),
                    exact_steps: true,
                },
                upper_bound: 0.0,
                normalised: None,
                diagnostics,
            };
        }
        upper_bound *= ceiling;
        parent = child;
    }
    let steps = rest.len() as u64;
    Report {
        verdict: Verdict::Clean,
        cost: CostEstimate {
            steps,
            memo_bytes: chain_bytes(objects, steps),
            exact_steps: true,
        },
        upper_bound: upper_bound.clamp(0.0, 1.0),
        normalised: None,
        diagnostics,
    }
}

/// Shared-cache bytes a path query can add: its result entry plus the
/// memoised layer vectors.
fn base_bytes(q: &Query, layers: &[Vec<u32>]) -> u64 {
    let result_extra = match q {
        Query::Point { path, .. } | Query::Exists { path } => path.labels.len() as u64 * 4,
        Query::Chain { objects } => objects.len() as u64 * 4,
    };
    let layers_extra: u64 = layers.iter().map(|l| 24 + l.len() as u64 * 4).sum();
    RESULT_ENTRY_BYTES + result_extra + LAYERS_ENTRY_BYTES + layers_extra
}

/// Shared-cache bytes a chain query can add: its result entry plus one
/// link entry per scanned link.
fn chain_bytes(objects: &[ObjectId], scanned: u64) -> u64 {
    RESULT_ENTRY_BYTES + objects.len() as u64 * 4 + scanned * LINK_ENTRY_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_algebra::PathExpr;
    use pxml_core::fixtures::fig2_instance;

    #[test]
    fn absent_target_is_provably_zero() {
        let pi = fig2_instance();
        let s = ArenaInstance::lower(&pi).unwrap();
        let path = PathExpr::parse(pi.catalog(), "R.book").unwrap();
        let t2 = pi.oid("T2").unwrap(); // a title, not a book
        let r = analyze(&s, &Query::point(path, t2));
        assert_eq!(r.verdict, Verdict::ProvablyZero);
        assert_eq!(r.upper_bound, 0.0);
        assert!(r.cost.exact_steps);
        assert_eq!(r.cost.steps, 0);
    }

    #[test]
    fn clean_point_has_positive_bound_and_exact_steps() {
        let pi = fig2_instance();
        let s = ArenaInstance::lower(&pi).unwrap();
        let path = PathExpr::parse(pi.catalog(), "R.book.title").unwrap();
        let t2 = pi.oid("T2").unwrap();
        let r = analyze(&s, &Query::point(path, t2));
        assert_eq!(r.verdict, Verdict::Clean);
        assert!(r.upper_bound > 0.0);
        assert!(r.cost.exact_steps);
        assert!(r.cost.steps > 0);
        assert!(r.cost.memo_bytes > 0);
    }

    #[test]
    fn empty_chain_will_error() {
        let pi = fig2_instance();
        let s = ArenaInstance::lower(&pi).unwrap();
        let r = analyze(&s, &Query::chain(vec![]));
        assert_eq!(r.verdict, Verdict::WillError);
        assert_eq!(r.diagnostics[0].code, DiagCode::WillError);
    }

    #[test]
    fn admission_fires_only_on_exact_overruns() {
        let pi = fig2_instance();
        let s = ArenaInstance::lower(&pi).unwrap();
        let path = PathExpr::parse(pi.catalog(), "R.book.title").unwrap();
        let r = analyze(&s, &Query::exists(path));
        let tight = BudgetSpec { max_steps: Some(0), ..BudgetSpec::default() };
        let predicted = r.predicted_exhaustion(&tight).expect("must reject");
        assert_eq!(predicted.limit, 0);
        assert!(predicted.spent >= 1);
        let roomy = BudgetSpec { max_steps: Some(1_000_000), ..BudgetSpec::default() };
        assert!(r.predicted_exhaustion(&roomy).is_none());
        let interval = BudgetSpec {
            max_steps: Some(0),
            degrade: DegradePolicy::Interval,
            ..BudgetSpec::default()
        };
        assert!(r.predicted_exhaustion(&interval).is_none());
    }

    #[test]
    fn singleton_point_normalises_to_exists() {
        let pi = fig2_instance();
        let s = ArenaInstance::lower(&pi).unwrap();
        let path = PathExpr::parse(pi.catalog(), "R.book").unwrap();
        let located = s.locate(path.root, &path.labels).pop().unwrap_or_default();
        let first = ObjectId::from_raw(located[0]);
        if located.len() == 1 {
            let q = Query::point(path.clone(), first);
            let n = normalise(&s, &q).expect("singleton rewrites");
            assert_eq!(n, Query::exists(path));
        } else {
            // Multi-object located sets must not rewrite.
            let q = Query::point(path, first);
            assert!(normalise(&s, &q).is_none());
        }
    }
}
