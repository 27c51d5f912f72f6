//! Interval-valued point queries: chain probabilities with bounds.
//!
//! An interval instance denotes the *set* of point instances inside its
//! intervals; an interval query returns bounds enclosing the answer of
//! every such point instance (the PIXML \[14\] reading).

use pxml_core::ObjectId;

use crate::iopf::IProbInstance;
use crate::iprob::Interval;

/// The interval of `P(r.o₁.….oᵢ)` over all point instances within the
/// interval instance: the product of per-link marginal intervals.
pub fn interval_chain_probability(
    ipi: &IProbInstance,
    chain: &[ObjectId],
) -> Option<Interval> {
    let (&first, rest) = chain.split_first()?;
    if first != ipi.weak().root() {
        return None;
    }
    let mut acc = Interval::point(1.0);
    let mut parent = first;
    for &child in rest {
        let node = ipi.weak().node(parent)?;
        let pos = node.universe().position(child)?;
        let iopf = ipi.iopf(parent)?;
        acc = acc.mul(&iopf.marginal_present(pos));
        parent = child;
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iopf::{IOpf, IProbInstance};
    use crate::iprob::Interval;
    use pxml_core::ids::IdMap;
    use pxml_core::{ChildSet, WeakInstance};
    use pxml_query::chain_probability;

    /// r → o1 → o2 with link probabilities in [0.4,0.6] and [0.5,0.7].
    fn interval_chain() -> (IProbInstance, Vec<pxml_core::ObjectId>) {
        let mut b = WeakInstance::builder();
        let r = b.object("r");
        let o1 = b.object("o1");
        let o2 = b.object("o2");
        let l = b.label("next");
        b.lch(r, l, &[o1]);
        b.lch(o1, l, &[o2]);
        let weak = b.build(r).unwrap();
        let mk = |o: pxml_core::ObjectId, lo: f64, hi: f64| {
            let node = weak.node(o).unwrap();
            let u = node.universe();
            IOpf::from_entries([
                (ChildSet::full(u), Interval::new(lo, hi)),
                (ChildSet::empty(u), Interval::new(1.0 - hi, 1.0 - lo)),
            ])
        };
        let mut iopf = IdMap::new();
        iopf.insert(r, mk(r, 0.4, 0.6));
        iopf.insert(o1, mk(o1, 0.5, 0.7));
        let ipi = IProbInstance::new(weak, iopf, IdMap::new()).unwrap();
        (ipi, vec![r, o1, o2])
    }

    #[test]
    fn chain_interval_is_product_of_link_intervals() {
        let (ipi, chain) = interval_chain();
        let iv = interval_chain_probability(&ipi, &chain).unwrap();
        assert!((iv.lo - 0.2).abs() < 1e-9);
        assert!((iv.hi - 0.42).abs() < 1e-9);
    }

    #[test]
    fn instantiated_point_instance_falls_inside_the_bounds() {
        let (ipi, chain) = interval_chain();
        let iv = interval_chain_probability(&ipi, &chain).unwrap();
        let pi = ipi.instantiate().unwrap();
        assert!(ipi.contains(&pi));
        let p = chain_probability(&pi, &chain).unwrap();
        assert!(iv.contains(p), "point {p} outside [{}, {}]", iv.lo, iv.hi);
    }

    #[test]
    fn degenerate_intervals_recover_point_semantics() {
        let mut b = WeakInstance::builder();
        let r = b.object("r");
        let o1 = b.object("o1");
        let l = b.label("next");
        b.lch(r, l, &[o1]);
        let weak = b.build(r).unwrap();
        let u = weak.node(r).unwrap().universe().clone();
        let mut iopf = IdMap::new();
        iopf.insert(
            r,
            IOpf::from_entries([
                (ChildSet::full(&u), Interval::point(0.3)),
                (ChildSet::empty(&u), Interval::point(0.7)),
            ]),
        );
        let ipi = IProbInstance::new(weak, iopf, IdMap::new()).unwrap();
        let iv = interval_chain_probability(&ipi, &[r, o1]).unwrap();
        assert!((iv.lo - 0.3).abs() < 1e-9);
        assert!((iv.hi - 0.3).abs() < 1e-9);
    }

    #[test]
    fn wrong_root_returns_none() {
        let (ipi, chain) = interval_chain();
        assert!(interval_chain_probability(&ipi, &chain[1..]).is_none());
    }
}
