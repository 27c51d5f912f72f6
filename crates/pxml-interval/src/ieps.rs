//! Interval ε propagation: sound bounds on point and existential path
//! probabilities over interval instances.
//!
//! The §6.2 ε recursion is evaluated in interval arithmetic, bottom-up
//! over the tree-shaped kept region. Per OPF entry the survival factor
//! `1 − Π_{kept j ∈ c} (1 − ε_j)` becomes an interval; the expectation
//! `Σ_c ℘(c)·s_c` over entry-probability intervals constrained to the
//! simplex is bounded *exactly* by a greedy allocation
//! ([`bound_expectation`]). The per-entry relaxation (children's ε may
//! be chosen per entry) makes the final bounds **sound but possibly
//! loose**: every point instance inside the envelope is guaranteed to
//! fall inside the returned interval — the PIXML \[14\] reading.

use std::collections::HashMap;

use pxml_algebra::locate::layers_weak;
use pxml_algebra::path::PathExpr;
use pxml_algebra::project_sd::kept_roles;
use pxml_core::ObjectId;

use crate::iopf::IProbInstance;
use crate::iprob::{tighten, Interval};

/// Bounds `Σ_i p_i·v_i` over `p` in the probability simplex intersected
/// with the boxes — exact via greedy mass allocation on the tightened
/// family. Returns `None` when the family is incoherent.
pub fn bound_expectation(intervals: &[Interval], values: &[Interval]) -> Option<Interval> {
    assert_eq!(intervals.len(), values.len());
    let tight = tighten(intervals)?;
    let hi = extreme(&tight, values, true);
    let lo = extreme(&tight, values, false);
    Some(Interval { lo, hi })
}

/// Greedy extreme of the expectation: start every entry at its lower
/// bound, then pour the remaining mass into the most (or least)
/// valuable entries first.
fn extreme(tight: &[Interval], values: &[Interval], maximise: bool) -> f64 {
    let mut order: Vec<usize> = (0..tight.len()).collect();
    order.sort_by(|&a, &b| {
        let va = if maximise { values[a].hi } else { values[a].lo };
        let vb = if maximise { values[b].hi } else { values[b].lo };
        if maximise {
            vb.partial_cmp(&va).unwrap_or(std::cmp::Ordering::Equal)
        } else {
            va.partial_cmp(&vb).unwrap_or(std::cmp::Ordering::Equal)
        }
    });
    let mut mass: Vec<f64> = tight.iter().map(|i| i.lo).collect();
    let mut remaining: f64 = 1.0 - mass.iter().sum::<f64>();
    for &i in &order {
        if remaining <= 1e-15 {
            break;
        }
        let slack = (tight[i].hi - mass[i]).min(remaining);
        mass[i] += slack;
        remaining -= slack;
    }
    mass.iter()
        .zip(values)
        .map(|(&p, v)| p * if maximise { v.hi } else { v.lo })
        .sum()
}

/// Sound bounds on `P(∃o: o ∈ p)` for a tree-shaped interval instance.
pub fn interval_exists_query(ipi: &IProbInstance, p: &PathExpr) -> Option<Interval> {
    let layers = layers_weak(ipi.weak(), p);
    let located = layers.last().cloned().unwrap_or_default();
    if located.is_empty() {
        return Some(Interval::point(0.0));
    }
    epsilon_interval(ipi, p, &layers, &located)
}

/// Sound bounds on `P(o ∈ p)` for a tree-shaped interval instance.
pub fn interval_point_query(
    ipi: &IProbInstance,
    p: &PathExpr,
    o: ObjectId,
) -> Option<Interval> {
    let layers = layers_weak(ipi.weak(), p);
    let located = layers.last().cloned().unwrap_or_default();
    if located.binary_search(&o).is_err() {
        return Some(Interval::point(0.0));
    }
    epsilon_interval(ipi, p, &layers, &[o])
}

fn epsilon_interval(
    ipi: &IProbInstance,
    p: &PathExpr,
    layers: &[Vec<ObjectId>],
    targets: &[ObjectId],
) -> Option<Interval> {
    let weak = ipi.weak();
    let n = p.labels.len();
    let mut restricted = layers.to_vec();
    let mut final_layer: Vec<ObjectId> = targets.to_vec();
    final_layer.sort_unstable();
    final_layer.dedup();
    restricted[n] = final_layer;
    let kept = kept_roles(&restricted, &p.labels, |x, l| {
        weak.weak_edges(x)
            .into_iter()
            .filter(|&(el, _)| el == l)
            .map(|(_, c)| c)
            .collect()
    });

    // Tree-shape requirement (single role per object).
    let mut roles: HashMap<ObjectId, usize> = HashMap::new();
    for (depth, objs) in kept.iter().enumerate() {
        for &x in objs {
            if roles.insert(x, depth).is_some() {
                return None;
            }
        }
    }

    let mut eps: HashMap<ObjectId, Interval> = HashMap::new();
    for &t in &kept[n] {
        eps.insert(t, Interval::point(1.0));
    }
    for depth in (0..n).rev() {
        for &x in &kept[depth] {
            let node = weak.node(x)?;
            let iopf = ipi.iopf(x)?;
            // Per-entry survival intervals.
            let kept_children: Vec<(u32, Interval)> = node
                .universe()
                .iter()
                .filter(|&(_, c, l)| {
                    l == p.labels[depth] && kept[depth + 1].binary_search(&c).is_ok()
                })
                .map(|(pos, c, _)| {
                    (pos, eps.get(&c).copied().unwrap_or(Interval::point(0.0)))
                })
                .collect();
            let mut probs = Vec::with_capacity(iopf.entries().len());
            let mut values = Vec::with_capacity(iopf.entries().len());
            for (set, interval) in iopf.entries() {
                let mut none_lo = 1.0; // all ε at their hi ⇒ min none-survive
                let mut none_hi = 1.0;
                for &(pos, e) in &kept_children {
                    if set.contains_pos(pos) {
                        none_lo *= 1.0 - e.hi;
                        none_hi *= 1.0 - e.lo;
                    }
                }
                probs.push(*interval);
                values.push(Interval {
                    lo: (1.0 - none_hi).clamp(0.0, 1.0),
                    hi: (1.0 - none_lo).clamp(0.0, 1.0),
                });
            }
            let e_x = bound_expectation(&probs, &values)?;
            eps.insert(x, e_x);
        }
    }
    eps.get(&weak.root()).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iopf::IOpf;
    use pxml_core::ids::IdMap;
    use pxml_core::{ChildSet, WeakInstance};
    use pxml_query::exists_query;

    #[test]
    fn bound_expectation_on_degenerate_family_is_exact() {
        let probs = [Interval::point(0.25), Interval::point(0.75)];
        let values = [Interval::point(1.0), Interval::point(0.0)];
        let b = bound_expectation(&probs, &values).unwrap();
        assert!((b.lo - 0.25).abs() < 1e-12);
        assert!((b.hi - 0.25).abs() < 1e-12);
    }

    #[test]
    fn bound_expectation_pours_mass_greedily() {
        // Two entries, each in [0.2, 0.8]: the maximiser puts 0.8 on the
        // valuable one, the minimiser 0.2.
        let probs = [Interval::new(0.2, 0.8), Interval::new(0.2, 0.8)];
        let values = [Interval::point(1.0), Interval::point(0.0)];
        let b = bound_expectation(&probs, &values).unwrap();
        assert!((b.hi - 0.8).abs() < 1e-12);
        assert!((b.lo - 0.2).abs() < 1e-12);
    }

    #[test]
    fn bound_expectation_rejects_incoherent_families() {
        let probs = [Interval::new(0.0, 0.2), Interval::new(0.0, 0.2)];
        let values = [Interval::point(1.0), Interval::point(1.0)];
        assert!(bound_expectation(&probs, &values).is_none());
    }

    /// r → o1 → o2 chain with per-link probability intervals.
    fn interval_chain(l1: (f64, f64), l2: (f64, f64)) -> (IProbInstance, PathExpr) {
        let mut b = WeakInstance::builder();
        let r = b.object("r");
        let o1 = b.object("o1");
        let o2 = b.object("o2");
        let l = b.label("next");
        b.lch(r, l, &[o1]);
        b.lch(o1, l, &[o2]);
        let weak = b.build(r).unwrap();
        let mk = |o: ObjectId, (lo, hi): (f64, f64)| {
            let u = weak.node(o).unwrap().universe();
            IOpf::from_entries([
                (ChildSet::full(u), Interval::new(lo, hi)),
                (ChildSet::empty(u), Interval::new(1.0 - hi, 1.0 - lo)),
            ])
        };
        let mut iopf = IdMap::new();
        iopf.insert(r, mk(r, l1));
        iopf.insert(o1, mk(o1, l2));
        let path = PathExpr::new(r, [l, l]);
        (IProbInstance::new(weak, iopf, IdMap::new()).unwrap(), path)
    }

    #[test]
    fn interval_exists_bounds_are_the_link_products() {
        let (ipi, p) = interval_chain((0.4, 0.6), (0.5, 0.7));
        let b = interval_exists_query(&ipi, &p).unwrap();
        assert!((b.lo - 0.2).abs() < 1e-9);
        assert!((b.hi - 0.42).abs() < 1e-9);
    }

    #[test]
    fn point_instances_fall_inside_the_exists_bounds() {
        let (ipi, p) = interval_chain((0.3, 0.8), (0.1, 0.9));
        let bounds = interval_exists_query(&ipi, &p).unwrap();
        let pi = ipi.instantiate().unwrap();
        let exact = exists_query(&pi, &p).unwrap();
        assert!(
            bounds.contains(exact),
            "{exact} outside [{}, {}]",
            bounds.lo,
            bounds.hi
        );
    }

    #[test]
    fn unreachable_path_gives_point_zero() {
        let (ipi, _) = interval_chain((0.4, 0.6), (0.5, 0.7));
        let r = ipi.weak().root();
        let ghost_label = pxml_core::Label::from_raw(99);
        let p = PathExpr::new(r, [ghost_label]);
        let b = interval_exists_query(&ipi, &p).unwrap();
        assert_eq!((b.lo, b.hi), (0.0, 0.0));
    }

    #[test]
    fn interval_point_query_on_target() {
        let (ipi, p) = interval_chain((0.5, 0.5), (0.25, 0.25));
        let o2 = ipi.weak().catalog().find_object("o2").unwrap();
        let b = interval_point_query(&ipi, &p, o2).unwrap();
        assert!((b.lo - 0.125).abs() < 1e-9);
        assert!((b.hi - 0.125).abs() < 1e-9);
    }
}
