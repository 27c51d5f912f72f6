//! Random mutation-op generation for benchmarks and differential tests.
//!
//! The steady-state write workload of a probabilistic store is
//! overwhelmingly *entry-level*: probabilities drift as evidence
//! arrives, while the skeleton changes rarely. [`random_mutations`]
//! therefore draws from the two entry-level op kinds — `SETEDGE`
//! (re-mix an OPF marginal) and `SETVAL` (re-weight a VPF entry) — with
//! targets and probabilities chosen so that **every generated op applies
//! cleanly regardless of interleaving**: edge targets keep marginals
//! strictly inside `(0, 1)` and value targets keep positive residual
//! mass, so no sequence of generated ops can drive a distribution
//! degenerate. Structural ops (insert/delete/link/unlink) are
//! deliberately left to the tests that exercise them, which need
//! tighter control over reachability and cardinality.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pxml_core::{Mutation, ObjectId, ProbInstance, Value};

/// One safely re-mixable edge: the OPF marginal of `child` under
/// `parent` is strictly inside `(0, 1)`.
fn edge_candidates(pi: &ProbInstance) -> Vec<(ObjectId, ObjectId)> {
    let mut out = Vec::new();
    for o in pi.weak().objects() {
        let Some(node) = pi.weak().node(o) else { continue };
        let Some(opf) = pi.opf(o) else { continue };
        for (pos, child, _) in node.universe().iter() {
            let m = opf.marginal_present(pos);
            if m > 0.0 && m < 1.0 {
                out.push((o, child));
            }
        }
    }
    out.sort_unstable();
    out
}

/// One safely re-weightable leaf value: the VPF has at least two
/// entries and the chosen value holds less than the whole mass.
fn value_candidates(pi: &ProbInstance) -> Vec<(ObjectId, Value)> {
    let mut out = Vec::new();
    let mut leaves: Vec<ObjectId> = pi.weak().objects().collect();
    leaves.sort_unstable();
    for o in leaves {
        let Some(vpf) = pi.vpf(o) else { continue };
        if vpf.len() < 2 {
            continue;
        }
        for (v, p) in vpf.iter() {
            if p < 0.999 {
                out.push((o, v.clone()));
            }
        }
    }
    out
}

/// A deterministic batch of `count` entry-level mutations that apply
/// cleanly against `pi` in any order and any interleaving with queries.
/// The mix depends on the instance: roughly 4:1 `SETEDGE` : `SETVAL`
/// when it has both safe edges and VPF leaves, only `SETEDGE` when it
/// has no VPF leaves (as on [`crate::WorkloadConfig::paper`]'s
/// `leaf_domain: 0` instances), and only `SETVAL` when it has no safe
/// edges. Returns fewer ops (possibly none) when the instance offers no
/// safe targets.
pub fn random_mutations(pi: &ProbInstance, count: usize, seed: u64) -> Vec<Mutation> {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges = edge_candidates(pi);
    let values = value_candidates(pi);
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        let want_value = !values.is_empty() && (edges.is_empty() || rng.gen_range(0..5) == 0);
        if want_value {
            let (object, value) = values[rng.gen_range(0..values.len())].clone();
            // Cap below 0.95 so repeated hits on the same leaf keep
            // positive residual mass for every other value.
            let prob = rng.gen_range(0.05..0.90);
            ops.push(Mutation::SetValueProb { object, value, prob });
        } else if !edges.is_empty() {
            let (parent, child) = edges[rng.gen_range(0..edges.len())];
            // Stay strictly inside (0, 1): the re-mix of a marginal at
            // 0 or 1 is degenerate, and later ops need the same slack.
            let prob = rng.gen_range(0.05..0.95);
            ops.push(Mutation::SetEdgeProb { parent, child, prob });
        } else {
            break; // nothing mutable in this instance
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadConfig;
    use crate::tree::generate;
    use pxml_core::fixtures::fig2_instance;

    #[test]
    fn generated_ops_apply_cleanly_in_order_and_reversed() {
        let g = generate(&WorkloadConfig::paper(6, 2, crate::config::Labeling::FullyRandom, 7));
        let ops = random_mutations(&g.instance, 50, 11);
        assert!(!ops.is_empty(), "paper workload must offer mutable targets");
        let mut fwd = g.instance.clone();
        for op in &ops {
            fwd.apply(op).expect("generated op applies");
        }
        fwd.validate().expect("instance stays coherent");
        let mut rev = g.instance.clone();
        for op in ops.iter().rev() {
            rev.apply(op).expect("generated op applies in reverse order");
        }
        rev.validate().expect("instance stays coherent reversed");
    }

    #[test]
    fn deterministic_in_the_seed() {
        let pi = fig2_instance();
        assert_eq!(random_mutations(&pi, 20, 3), random_mutations(&pi, 20, 3));
        assert_ne!(random_mutations(&pi, 20, 3), random_mutations(&pi, 20, 4));
    }

    #[test]
    fn ops_roundtrip_through_surface_syntax() {
        let pi = fig2_instance();
        let ops = random_mutations(&pi, 10, 99);
        let text = pxml_core::render_ops(&pi, &ops);
        let back = pxml_core::parse_ops(&pi, &text).unwrap();
        assert_eq!(back.len(), ops.len());
        // Probabilities survive the float round-trip exactly (shortest
        // round-trip formatting), so the ops compare equal.
        assert_eq!(back, ops);
    }
}
