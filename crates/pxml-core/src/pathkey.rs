//! Shared, hashable label-sequence keys for cross-query caches.
//!
//! The batch query engine (`pxml-query::engine`) memoises the located
//! layers of a path expression keyed by its root and its label
//! sequence. [`LabelPath`] is that sequence, interned behind an `Arc`
//! so keys clone cheaply.

use std::sync::Arc;

use crate::ids::Label;

/// An immutable, cheaply clonable label sequence used as a cache key.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LabelPath {
    labels: Arc<[Label]>,
}

impl LabelPath {
    /// Interns a label sequence.
    pub fn new(labels: impl Into<Arc<[Label]>>) -> Self {
        LabelPath { labels: labels.into() }
    }

    /// The full label sequence.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

impl From<&[Label]> for LabelPath {
    fn from(labels: &[Label]) -> Self {
        LabelPath::new(labels)
    }
}

impl From<Vec<Label>> for LabelPath {
    fn from(labels: Vec<Label>) -> Self {
        LabelPath::new(labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_paths_compare_by_content() {
        let l = Label::from_raw;
        let a = LabelPath::new(vec![l(1), l(2)]);
        assert_eq!(a, LabelPath::from(&[l(1), l(2)][..]));
        assert_ne!(a, LabelPath::new(vec![l(2), l(1)]));
        assert_eq!(a.labels(), &[l(1), l(2)]);
        assert!(!a.is_empty());
        assert_eq!(a.len(), 2);
    }
}
