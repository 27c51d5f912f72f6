//! Random query generation (Section 7.1).
//!
//! "For each instance, we kept track of labels used by edges of objects
//! in each depth and generated 10 random queries that returned results
//! not only consisting of a root. […] we set the length of the query
//! equal to the depth of the instance."

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pxml_algebra::locate::locate_weak;
use pxml_algebra::path::PathExpr;
use pxml_algebra::selection::SelectCond;
use pxml_core::ObjectId;

use crate::tree::GeneratedInstance;

/// Generates one random ancestor-projection path query of length equal to
/// the instance depth, retrying until some object satisfies it. Returns
/// `None` if no accepted query is found within `max_attempts`.
pub fn random_path_query(
    g: &GeneratedInstance,
    rng: &mut StdRng,
    max_attempts: usize,
) -> Option<PathExpr> {
    for _ in 0..max_attempts {
        let labels: Vec<_> = g
            .depth_labels
            .iter()
            .map(|ls| ls[rng.gen_range(0..ls.len())])
            .collect();
        let p = PathExpr::new(g.instance.root(), labels);
        if !locate_weak(&g.instance, &p).is_empty() {
            return Some(p);
        }
    }
    None
}

/// Generates one random selection query `p = o`: a random accepted path
/// plus a random object from `SelObj`, the set satisfying it (§7.1).
pub fn random_selection_query(
    g: &GeneratedInstance,
    rng: &mut StdRng,
    max_attempts: usize,
) -> Option<(SelectCond, ObjectId)> {
    for _ in 0..max_attempts {
        let Some(p) = random_path_query(g, rng, max_attempts) else { continue };
        let sel_obj = locate_weak(&g.instance, &p);
        if sel_obj.is_empty() {
            continue;
        }
        let o = sel_obj[rng.gen_range(0..sel_obj.len())];
        return Some((SelectCond::ObjectAt(p, o), o));
    }
    None
}

/// A deterministic batch of accepted path queries for one instance.
pub fn query_batch(g: &GeneratedInstance, count: usize, seed: u64) -> Vec<PathExpr> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        if let Some(q) = random_path_query(g, &mut rng, 1000) {
            out.push(q);
        }
    }
    out
}

/// A deterministic batch of accepted selection queries for one instance.
pub fn selection_batch(
    g: &GeneratedInstance,
    count: usize,
    seed: u64,
) -> Vec<(SelectCond, ObjectId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        if let Some(q) = random_selection_query(g, &mut rng, 1000) {
            out.push(q);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Labeling, WorkloadConfig};
    use crate::tree::generate;

    #[test]
    fn path_queries_have_length_equal_to_depth() {
        let g = generate(&WorkloadConfig::paper(4, 2, Labeling::FullyRandom, 21));
        let qs = query_batch(&g, 10, 1);
        assert!(!qs.is_empty());
        for q in &qs {
            assert_eq!(q.len(), 4);
            assert!(!locate_weak(&g.instance, q).is_empty());
        }
    }

    #[test]
    fn sl_queries_always_match_something() {
        // With SL labelling every parent uses one label per level, so a
        // random per-depth label choice still frequently matches; the
        // acceptance loop guarantees matches.
        let g = generate(&WorkloadConfig::paper(3, 4, Labeling::SameLabel, 33));
        let qs = query_batch(&g, 10, 2);
        assert_eq!(qs.len(), 10);
    }

    #[test]
    fn selection_queries_select_objects_on_path() {
        let g = generate(&WorkloadConfig::paper(3, 2, Labeling::SameLabel, 5));
        let sels = selection_batch(&g, 5, 3);
        assert!(!sels.is_empty());
        for (cond, o) in &sels {
            let SelectCond::ObjectAt(p, obj) = cond else { panic!("object condition") };
            assert_eq!(obj, o);
            assert!(locate_weak(&g.instance, p).contains(o));
        }
    }

    #[test]
    fn query_batches_are_deterministic() {
        let g = generate(&WorkloadConfig::paper(3, 2, Labeling::FullyRandom, 8));
        assert_eq!(query_batch(&g, 5, 7), query_batch(&g, 5, 7));
    }
}
