//! Probabilistic point queries (Definition 6.1) and the shared ε
//! computation of Section 6.2.
//!
//! `P(o ∈ p)` is computed by extracting `o` and its *path ancestors* (the
//! ancestors through which a path spelling `p` reaches `o`) and
//! propagating survival probabilities bottom-up:
//! `ε_x = Σ_c ℘(x)(c) · (1 − Π_{kept j ∈ c} (1 − ε_j))`, with `ε = 1` at
//! the targets. `ε_r` at the root is exactly the queried probability —
//! "the root of the result of the ancestor projection on a compatible
//! instance will have a child if and only if `o` in that compatible
//! instance satisfies the path expression".
//!
//! The `ObjectId` recursion here is the sequential reference
//! implementation. [`crate::QueryEngine`] answers the same queries, and
//! charges the same budget steps, through the flat sweep of
//! [`pxml_core::ArenaInstance::eps_flat`]; the equivalence suites
//! compare the two.

use std::collections::HashMap;

use pxml_algebra::locate::layers_weak;
use pxml_algebra::path::PathExpr;
use pxml_algebra::project_sd::kept_roles;
use pxml_core::{Budget, Label, ObjectId, ProbInstance};

use crate::error::{QueryError, Result};

/// `P(o ∈ p)`: the probability that object `o` satisfies path `p` in a
/// compatible instance (Definition 6.1). Returns 0 when `o` cannot
/// satisfy `p` in any world.
pub fn point_query(pi: &ProbInstance, p: &PathExpr, o: ObjectId) -> Result<f64> {
    point_query_budgeted(pi, p, o, &Budget::unlimited())
}

/// [`point_query`] under a resource [`Budget`]: one step is charged per
/// ε survival evaluation, and exhaustion surfaces as
/// [`pxml_core::CoreError::Exhausted`].
pub fn point_query_budgeted(
    pi: &ProbInstance,
    p: &PathExpr,
    o: ObjectId,
    budget: &Budget,
) -> Result<f64> {
    let layers = layers_weak(pi.weak(), p);
    let located = layers.last().cloned().unwrap_or_default();
    if located.binary_search(&o).is_err() {
        return Ok(0.0);
    }
    epsilon_root(pi, p, &layers, &[o], budget)
}

/// `P(∃ o: o ∈ p)`: the probability that *some* object satisfies `p`
/// (the extension discussed at the end of Section 6.2).
pub fn exists_query(pi: &ProbInstance, p: &PathExpr) -> Result<f64> {
    exists_query_budgeted(pi, p, &Budget::unlimited())
}

/// [`exists_query`] under a resource [`Budget`].
pub fn exists_query_budgeted(pi: &ProbInstance, p: &PathExpr, budget: &Budget) -> Result<f64> {
    let layers = layers_weak(pi.weak(), p);
    let located = layers.last().cloned().unwrap_or_default();
    if located.is_empty() {
        return Ok(0.0);
    }
    epsilon_root(pi, p, &layers, &located, budget)
}

/// Builds the kept region for `targets` and verifies it is tree-shaped
/// (each kept object has one kept role and one kept parent), the
/// standing assumption of Section 6.
fn kept_region(
    pi: &ProbInstance,
    p: &PathExpr,
    layers: &[Vec<ObjectId>],
    targets: &[ObjectId],
) -> Result<Vec<Vec<ObjectId>>> {
    let n = p.labels.len();
    // Restrict the final layer to the requested targets before the
    // backward kept-roles pass.
    let mut restricted = layers.to_vec();
    let mut final_layer: Vec<ObjectId> = targets.to_vec();
    final_layer.sort_unstable();
    final_layer.dedup();
    restricted[n] = final_layer;
    let kept = kept_roles(&restricted, &p.labels, |x, l| {
        pi.weak()
            .weak_edges(x)
            .into_iter()
            .filter(|&(el, _)| el == l)
            .map(|(_, c)| c)
            .collect()
    });

    // Tree-shape check: unique role and unique kept parent per object.
    let mut role_of: HashMap<ObjectId, usize> = HashMap::new();
    for (depth, objs) in kept.iter().enumerate() {
        for &x in objs {
            if role_of.insert(x, depth).is_some() {
                return Err(QueryError::NotTreeShaped(x));
            }
        }
    }
    for depth in 0..n {
        let mut parent_of: HashMap<ObjectId, ObjectId> = HashMap::new();
        for &x in &kept[depth] {
            let node = pi.weak().node(x).expect("kept object exists");
            for c in node.lch(p.labels[depth]) {
                if kept[depth + 1].binary_search(&c).is_ok() {
                    if let Some(prev) = parent_of.insert(c, x) {
                        if prev != x {
                            return Err(QueryError::NotTreeShaped(c));
                        }
                    }
                }
            }
        }
    }
    Ok(kept)
}

/// Top-down ε evaluation over a verified tree-shaped kept region:
/// `ε_x = ℘(x)-survival over kept children`, `ε = 1` at depth `n`.
fn eps_at(
    pi: &ProbInstance,
    labels: &[Label],
    kept: &[Vec<ObjectId>],
    x: ObjectId,
    depth: usize,
    budget: &Budget,
) -> Result<f64> {
    if depth == labels.len() {
        return Ok(1.0);
    }
    // One work step per survival evaluation, which keeps
    // `Exhausted.spent` a function of (instance, query) alone,
    // independent of wall clock or thread count.
    budget.charge(1).map_err(pxml_core::CoreError::from)?;
    let node = pi.weak().node(x).expect("kept object exists");
    let opf = pi.opf(x).ok_or(QueryError::UnknownObject(x))?;
    // Universe positions of x's kept children, in universe order — the
    // recursion order is deterministic, so ε values are bit-stable
    // across evaluations.
    let mut kept_children: Vec<(u32, f64)> = Vec::new();
    for (pos, c, l) in node.universe().iter() {
        if l == labels[depth] && kept[depth + 1].binary_search(&c).is_ok() {
            kept_children.push((pos, eps_at(pi, labels, kept, c, depth + 1, budget)?));
        }
    }
    // Compact OPFs are evaluated in closed form (§3.2), explicit
    // tables by iteration — see `Opf::survival_probability`.
    let v = opf.survival_probability(&kept_children);
    // An unchecked instance with NaN/∞ OPF mass would otherwise poison
    // every ancestor.
    if !v.is_finite() {
        return Err(QueryError::Core(pxml_core::CoreError::DegenerateMass { total: v }));
    }
    Ok(v)
}

/// The ε computation over the kept region determined by `targets`.
fn epsilon_root(
    pi: &ProbInstance,
    p: &PathExpr,
    layers: &[Vec<ObjectId>],
    targets: &[ObjectId],
    budget: &Budget,
) -> Result<f64> {
    let kept = kept_region(pi, p, layers, targets)?;
    if kept[0].binary_search(&pi.root()).is_err() {
        return Ok(0.0);
    }
    eps_at(pi, &p.labels, &kept, pi.root(), 0, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_algebra::naive::exists_global;
    use pxml_algebra::satisfies_sd;
    use pxml_core::enumerate_worlds;
    use pxml_core::fixtures::{chain, diamond, fig2_instance};

    #[test]
    fn point_query_on_chain_is_link_product() {
        let pi = chain(3, 0.5);
        let o3 = pi.oid("o3").unwrap();
        let p = PathExpr::parse(pi.catalog(), "r.next.next.next").unwrap();
        assert!((point_query(&pi, &p, o3).unwrap() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn point_query_motivating_situation_4() {
        // Section 2, situation 4: "the probability that a particular
        // author exists" — but routed through the paper's own Figure 2
        // instance it needs the naive engine (A1 is shared); on a tree
        // restriction the ε method applies. Here: probability that A3 is
        // an author of some book via R.book.author in a tree-shaped
        // sub-instance.
        let pi = chain(2, 0.7);
        let o2 = pi.oid("o2").unwrap();
        let p = PathExpr::parse(pi.catalog(), "r.next.next").unwrap();
        let eff = point_query(&pi, &p, o2).unwrap();
        let worlds = enumerate_worlds(&pi).unwrap();
        let direct = worlds.probability_that(|s| satisfies_sd(s, &p, o2));
        assert!((eff - direct).abs() < 1e-9);
    }

    #[test]
    fn point_query_of_unreachable_object_is_zero() {
        let pi = chain(2, 0.5);
        let o2 = pi.oid("o2").unwrap();
        let short = PathExpr::parse(pi.catalog(), "r.next").unwrap();
        assert_eq!(point_query(&pi, &short, o2).unwrap(), 0.0);
    }

    #[test]
    fn point_query_on_shared_object_rejects_non_tree() {
        let pi = fig2_instance();
        let a1 = pi.oid("A1").unwrap();
        let p = PathExpr::parse(pi.catalog(), "R.book.author").unwrap();
        assert!(matches!(
            point_query(&pi, &p, a1),
            Err(QueryError::NotTreeShaped(_))
        ));
    }

    #[test]
    fn point_query_on_exclusive_object_of_fig2() {
        // T2 is only reachable through B3 (single kept parent), so the
        // kept region for R.book.title restricted to T2 IS a tree even
        // though the full Figure 2 instance is not.
        let pi = fig2_instance();
        let t2 = pi.oid("T2").unwrap();
        let p = PathExpr::parse(pi.catalog(), "R.book.title").unwrap();
        let eff = point_query(&pi, &p, t2).unwrap();
        let worlds = enumerate_worlds(&pi).unwrap();
        let direct = worlds.probability_that(|s| satisfies_sd(s, &p, t2));
        assert!((eff - direct).abs() < 1e-9);
        // P(B3 chosen) · ℘(B3)({A3, T2}) = 0.8 · 1.0 = 0.8.
        assert!((eff - 0.8).abs() < 1e-9);
    }

    #[test]
    fn exists_query_matches_global_on_trees() {
        for (n, q) in [(2usize, 0.3f64), (3, 0.5), (4, 0.9)] {
            let pi = chain(n, q);
            let labels = vec![pi.lid("next").unwrap(); n];
            let p = PathExpr::new(pi.root(), labels);
            let eff = exists_query(&pi, &p).unwrap();
            let direct = exists_global(&pi, &p).unwrap();
            assert!((eff - direct).abs() < 1e-9, "n={n} q={q}: {eff} vs {direct}");
            assert!((eff - q.powi(n as i32)).abs() < 1e-9);
        }
    }

    #[test]
    fn exists_query_with_branching_tree() {
        // Root with two potential x-children, each independently present
        // with probability 0.5 (via an explicit 4-entry table):
        // P(∃ child) = 1 − 0.25.
        let mut b = pxml_core::ProbInstance::builder();
        let r = b.object("r");
        b.lch("r", "x", &["a", "c"]);
        b.opf_table(
            "r",
            &[(&[], 0.25), (&["a"], 0.25), (&["c"], 0.25), (&["a", "c"], 0.25)],
        );
        let pi = b.build(r).unwrap();
        let p = PathExpr::new(pi.root(), [pi.lid("x").unwrap()]);
        assert!((exists_query(&pi, &p).unwrap() - 0.75).abs() < 1e-12);
        let direct = exists_global(&pi, &p).unwrap();
        assert!((exists_query(&pi, &p).unwrap() - direct).abs() < 1e-9);
    }

    #[test]
    fn exists_query_of_impossible_path_is_zero() {
        let pi = chain(1, 0.5);
        let next = pi.lid("next").unwrap();
        let p = PathExpr::new(pi.root(), [next, next, next]);
        assert_eq!(exists_query(&pi, &p).unwrap(), 0.0);
    }

    #[test]
    fn diamond_exists_on_single_branch_is_tree_enough() {
        // Path r.left.down restricted to the left branch is a chain even
        // though the diamond as a whole is a DAG.
        let pi = diamond();
        let p = PathExpr::new(pi.root(), [pi.lid("left").unwrap(), pi.lid("down").unwrap()]);
        let eff = exists_query(&pi, &p).unwrap();
        assert!((eff - 0.5).abs() < 1e-9);
    }
}
