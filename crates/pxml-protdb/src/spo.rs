//! The SPO (semistructured probabilistic object) encoding of Dekhtyar,
//! Goldsmith & Hawkes \[9\], expressed in PXML.
//!
//! Section 8: "our model can represent their table. For each random
//! variable, define a set of children (with the possible variable
//! values) connected to their parent with the same edge label (set as
//! the variable name). The cardinality associated with the parent object
//! with each label is set to [1, 1] so that each random variable can
//! have exactly one value in each possible world."

use std::sync::Arc;

use pxml_core::ids::{IdMap, ObjectKind};
use pxml_core::{
    Catalog, ChildSet, ChildUniverse, ObjectId, Opf, OpfTable, ProbInstance, Value, Vpf,
    WeakInstance, WeakNode,
};

/// One discrete random variable of an SPO table.
#[derive(Clone, Debug)]
pub struct SpoVariable {
    /// Variable name (used as the edge label).
    pub name: String,
    /// `(value, probability)` rows; probabilities must sum to 1.
    pub distribution: Vec<(Value, f64)>,
}

/// Encodes a set of **independent** random variables as a probabilistic
/// instance: one value-object per possible value, `card = [1, 1]` per
/// variable label, and a label-product OPF at the root.
///
/// (A joint SPO table over several variables can be encoded the same way
/// with an explicit [`OpfTable`] over value-object combinations; the
/// independent case shown here is what \[9\]'s flat tables most often
/// hold.)
pub fn encode_spo(root_name: &str, variables: &[SpoVariable]) -> pxml_core::Result<ProbInstance> {
    let mut catalog = Catalog::new();
    let root = catalog.object(root_name);
    let mut universe = ChildUniverse::new();
    // Value objects named "<var>=<value-index>", each a bare object whose
    // identity (not a VPF) carries the value choice.
    let mut per_label: Vec<(pxml_core::Label, Vec<(u32, f64)>)> = Vec::new();
    let mut value_nodes: Vec<ObjectId> = Vec::new();
    for var in variables {
        let label = catalog.label(&var.name);
        let mut positions = Vec::new();
        for (i, (value, p)) in var.distribution.iter().enumerate() {
            let name = format!("{}={}", var.name, value_slug(value, i));
            let id = catalog.object(&name);
            let pos = universe.push(id, label);
            positions.push((pos, *p));
            value_nodes.push(id);
        }
        per_label.push((label, positions));
    }

    // Root OPF: product over variables of (choose exactly one value).
    let mut entries: Vec<(Vec<u32>, f64)> = vec![(Vec::new(), 1.0)];
    for (_, positions) in &per_label {
        let mut next = Vec::with_capacity(entries.len() * positions.len());
        for (base, bp) in &entries {
            for &(pos, p) in positions {
                let mut set = base.clone();
                set.push(pos);
                next.push((set, bp * p));
            }
        }
        entries = next;
    }
    let table = OpfTable::from_entries(
        entries
            .into_iter()
            .map(|(positions, p)| (ChildSet::from_positions(&universe, positions), p)),
    );

    let mut nodes: IdMap<ObjectKind, WeakNode> = IdMap::new();
    let mut cards = Vec::new();
    for (label, _) in &per_label {
        cards.push((*label, pxml_core::Card::new(1, 1)));
    }
    nodes.insert(root, WeakNode::from_parts(universe, cards, None));
    for id in value_nodes {
        nodes.insert(id, WeakNode::from_parts(ChildUniverse::new(), Vec::new(), None));
    }
    let mut opfs: IdMap<ObjectKind, Opf> = IdMap::new();
    opfs.insert(root, Opf::Table(table));
    let weak = WeakInstance::from_parts(Arc::new(catalog), root, nodes)?;
    ProbInstance::from_parts(weak, opfs, IdMap::<ObjectKind, Vpf>::new())
}

fn value_slug(v: &Value, i: usize) -> String {
    match v {
        Value::Str(s) => s.to_string(),
        Value::Int(n) => n.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Float(_) => format!("v{i}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_core::enumerate_worlds;

    fn weather_vars() -> Vec<SpoVariable> {
        vec![
            SpoVariable {
                name: "sky".into(),
                distribution: vec![
                    (Value::str("clear"), 0.7),
                    (Value::str("cloudy"), 0.3),
                ],
            },
            SpoVariable {
                name: "wind".into(),
                distribution: vec![
                    (Value::str("calm"), 0.5),
                    (Value::str("breezy"), 0.3),
                    (Value::str("gale"), 0.2),
                ],
            },
        ]
    }

    #[test]
    fn every_world_assigns_exactly_one_value_per_variable() {
        let pi = encode_spo("obs", &weather_vars()).unwrap();
        let worlds = enumerate_worlds(&pi).unwrap();
        assert_eq!(worlds.len(), 6); // 2 × 3 joint assignments
        assert!((worlds.total() - 1.0).abs() < 1e-9);
        let sky = pi.lid("sky").unwrap();
        let wind = pi.lid("wind").unwrap();
        for (s, _) in worlds.iter() {
            assert_eq!(s.lch(pi.root(), sky).len(), 1);
            assert_eq!(s.lch(pi.root(), wind).len(), 1);
        }
    }

    #[test]
    fn marginals_match_the_spo_table() {
        let pi = encode_spo("obs", &weather_vars()).unwrap();
        let worlds = enumerate_worlds(&pi).unwrap();
        let clear = pi.oid("sky=clear").unwrap();
        let gale = pi.oid("wind=gale").unwrap();
        assert!((worlds.probability_that(|s| s.contains(clear)) - 0.7).abs() < 1e-9);
        assert!((worlds.probability_that(|s| s.contains(gale)) - 0.2).abs() < 1e-9);
        // Independence across variables.
        let joint = worlds.probability_that(|s| s.contains(clear) && s.contains(gale));
        assert!((joint - 0.14).abs() < 1e-9);
    }

    #[test]
    fn cardinality_is_one_one_per_variable() {
        let pi = encode_spo("obs", &weather_vars()).unwrap();
        let node = pi.weak().node(pi.root()).unwrap();
        for (label, _) in [("sky", 0), ("wind", 1)] {
            let l = pi.lid(label).unwrap();
            let card = node.card(l);
            assert_eq!((card.min, card.max), (1, 1));
        }
    }
}
