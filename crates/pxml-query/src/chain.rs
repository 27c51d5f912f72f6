//! Simple object-chain probabilities (Section 6.2).
//!
//! The probability of a chain `r.o₁.o₂.….oᵢ` is the product, along the
//! chain, of the marginal probability that each object's child set
//! contains the next object:
//! `P(c) = Σ_{c₁∋o₁} ℘(r)(c₁) × Σ_{c₂∋o₂} ℘(o₁)(c₂) × …`.
//! Each factor concerns a different object's OPF, and local probability
//! functions are mutually independent given presence, so the product is
//! exact on arbitrary DAG-shaped instances.

use pxml_core::{Budget, ObjectId, ProbInstance};

use crate::error::{QueryError, Result};

/// `P(r.o₁.….oᵢ)`: the probability that the given object chain exists in
/// a compatible instance. The slice must start at the instance root; each
/// object must be a potential child of its predecessor (otherwise the
/// probability is 0 and an error pinpoints the break).
pub fn chain_probability(pi: &ProbInstance, chain: &[ObjectId]) -> Result<f64> {
    chain_probability_budgeted(pi, chain, &Budget::unlimited())
}

/// [`chain_probability`] under a resource [`Budget`]: one step per link
/// marginal, charged before the link is looked up; exhaustion surfaces
/// as [`pxml_core::CoreError::Exhausted`].
pub fn chain_probability_budgeted(
    pi: &ProbInstance,
    chain: &[ObjectId],
    budget: &Budget,
) -> Result<f64> {
    let Some((&first, rest)) = chain.split_first() else {
        return Err(QueryError::EmptyChain);
    };
    if first != pi.root() {
        return Err(QueryError::ChainMustStartAtRoot);
    }
    let mut p = 1.0;
    let mut parent = first;
    for &child in rest {
        budget.charge(1).map_err(pxml_core::CoreError::from)?;
        let node = pi
            .weak()
            .node(parent)
            .ok_or(QueryError::UnknownObject(parent))?;
        let pos = node
            .universe()
            .position(child)
            .ok_or(QueryError::NotAChild { parent, child })?;
        let opf = pi.opf(parent).ok_or(QueryError::UnknownObject(parent))?;
        p *= opf.marginal_present(pos);
        if p == 0.0 {
            return Ok(0.0);
        }
        parent = child;
    }
    Ok(p)
}

/// Resolves a dotted name chain (`["r", "o1", "o2"]`) and computes its
/// probability.
pub fn chain_probability_named(pi: &ProbInstance, names: &[&str]) -> Result<f64> {
    let ids: Vec<ObjectId> = names
        .iter()
        .map(|n| pi.oid(n).map_err(|_| QueryError::NameNotFound((*n).into())))
        .collect::<Result<_>>()?;
    chain_probability(pi, &ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_core::enumerate_worlds;
    use pxml_core::fixtures::{chain as chain_fixture, diamond, fig2_instance};

    #[test]
    fn chain_probability_is_product_of_marginals() {
        let pi = chain_fixture(3, 0.5);
        let p = chain_probability_named(&pi, &["r", "o1", "o2", "o3"]).unwrap();
        assert!((p - 0.125).abs() < 1e-12);
    }

    #[test]
    fn chain_probability_matches_world_enumeration() {
        let pi = fig2_instance();
        let worlds = enumerate_worlds(&pi).unwrap();
        let r = pi.root();
        let b1 = pi.oid("B1").unwrap();
        let a1 = pi.oid("A1").unwrap();
        let i1 = pi.oid("I1").unwrap();
        let p = chain_probability(&pi, &[r, b1, a1, i1]).unwrap();
        // The chain exists iff each consecutive containment holds.
        let direct = worlds.probability_that(|s| {
            s.children(b1).contains(&a1)
                && s.children(r).contains(&b1)
                && s.children(a1).contains(&i1)
        });
        assert!((p - direct).abs() < 1e-9);
    }

    #[test]
    fn chain_probability_on_dag_is_exact() {
        let pi = diamond();
        let worlds = enumerate_worlds(&pi).unwrap();
        let r = pi.root();
        let a = pi.oid("a").unwrap();
        let c = pi.oid("c").unwrap();
        let p = chain_probability(&pi, &[r, a, c]).unwrap();
        let direct =
            worlds.probability_that(|s| s.children(r).contains(&a) && s.children(a).contains(&c));
        assert!((p - direct).abs() < 1e-9);
        assert!((p - 0.5).abs() < 1e-9);
    }

    #[test]
    fn root_only_chain_has_probability_one() {
        let pi = chain_fixture(1, 0.3);
        assert_eq!(chain_probability(&pi, &[pi.root()]).unwrap(), 1.0);
    }

    #[test]
    fn broken_chain_is_an_error() {
        let pi = chain_fixture(2, 0.5);
        let r = pi.root();
        let o2 = pi.oid("o2").unwrap(); // not a direct child of r
        assert!(matches!(
            chain_probability(&pi, &[r, o2]),
            Err(QueryError::NotAChild { .. })
        ));
    }

    #[test]
    fn chain_not_starting_at_root_is_an_error() {
        let pi = chain_fixture(2, 0.5);
        let o1 = pi.oid("o1").unwrap();
        let o2 = pi.oid("o2").unwrap();
        assert!(matches!(
            chain_probability(&pi, &[o1, o2]),
            Err(QueryError::ChainMustStartAtRoot)
        ));
        assert!(matches!(chain_probability(&pi, &[]), Err(QueryError::EmptyChain)));
    }
}
