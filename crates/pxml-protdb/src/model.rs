//! The ProTDB probabilistic-XML model (Nierman & Jagadish \[19\]).
//!
//! ProTDB attaches an *independent* existence probability to each
//! individual child of a node, and requires tree-structured dependencies.
//! Section 8 of the PXML paper: "In ProTDB, independent probabilities
//! are assigned to each individual child of an object; PXML supports
//! arbitrary distributions over sets of children. […] Thus PXML data
//! model subsumes ProTDB data model."

use pxml_core::{LeafType, Value};

/// A node of a ProTDB tree (other than the root).
#[derive(Clone, Debug)]
pub struct ProtNode {
    /// Object name (must be unique in the tree).
    pub name: String,
    /// Label of the edge from the parent.
    pub label: String,
    /// Independent existence probability given the parent exists.
    pub prob: f64,
    /// Children (present only when this node exists).
    pub children: Vec<ProtNode>,
    /// Leaf payload: type name and fixed value.
    pub value: Option<(String, Value)>,
}

impl ProtNode {
    /// Creates an internal node.
    pub fn internal(name: &str, label: &str, prob: f64, children: Vec<ProtNode>) -> Self {
        ProtNode { name: name.into(), label: label.into(), prob, children, value: None }
    }

    /// Creates a leaf node with a typed value.
    pub fn leaf(name: &str, label: &str, prob: f64, ty: &str, value: Value) -> Self {
        ProtNode {
            name: name.into(),
            label: label.into(),
            prob,
            children: Vec::new(),
            value: Some((ty.into(), value)),
        }
    }

    /// Nodes in this subtree (including self).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(ProtNode::size).sum::<usize>()
    }
}

/// A ProTDB probabilistic tree.
#[derive(Clone, Debug)]
pub struct ProtTree {
    /// Name of the (always-present) root.
    pub root: String,
    /// Leaf types used by the tree.
    pub types: Vec<LeafType>,
    /// The root's children.
    pub children: Vec<ProtNode>,
}

impl ProtTree {
    /// Number of objects including the root.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(ProtNode::size).sum::<usize>()
    }

    /// The probability that a root-to-node *name* chain exists under
    /// ProTDB semantics: the product of the independent existence
    /// probabilities along the chain.
    pub fn chain_probability(&self, names: &[&str]) -> Option<f64> {
        let (&first, rest) = names.split_first()?;
        if first != self.root {
            return None;
        }
        let mut level = &self.children;
        let mut p = 1.0;
        for &name in rest {
            let node = level.iter().find(|n| n.name == name)?;
            p *= node.prob;
            level = &node.children;
        }
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn small_tree() -> ProtTree {
        ProtTree {
            root: "R".into(),
            types: vec![LeafType::new("t", [Value::Int(1), Value::Int(2)])],
            children: vec![
                ProtNode::internal(
                    "B1",
                    "book",
                    0.6,
                    vec![ProtNode::leaf("T1", "title", 0.5, "t", Value::Int(1))],
                ),
                ProtNode::leaf("B2", "book", 0.9, "t", Value::Int(2)),
            ],
        }
    }

    #[test]
    fn size_counts_all_nodes() {
        assert_eq!(small_tree().size(), 4);
    }

    #[test]
    fn chain_probability_multiplies_independent_probs() {
        let t = small_tree();
        assert!((t.chain_probability(&["R", "B1"]).unwrap() - 0.6).abs() < 1e-12);
        assert!((t.chain_probability(&["R", "B1", "T1"]).unwrap() - 0.3).abs() < 1e-12);
        assert!(t.chain_probability(&["R", "ghost"]).is_none());
        assert!(t.chain_probability(&["X"]).is_none());
    }
}
