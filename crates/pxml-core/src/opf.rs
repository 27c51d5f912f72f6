//! Object probability functions (Definition 3.8).
//!
//! An OPF for a non-leaf object `o` is a distribution over `PC(o)`. The
//! fully general representation is an explicit table; Section 3.2 of the
//! paper notes that "in the case where there is additional structure that
//! can be exploited, we plan to allow compact representations of the
//! distributions" — this module implements two such compact forms:
//!
//! * [`IndependentOpf`] — every potential child is present independently
//!   with its own probability (the ProTDB-style special case \[19\]);
//! * [`LabelProductOpf`] — an independent table per label (the paper's
//!   "if the existence of author and title objects is independent, then we
//!   only need to specify a distribution over authors and a distribution
//!   over titles").

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::childset::{ChildSet, ChildUniverse};
use crate::error::{CoreError, Result, PROB_EPS};
use crate::ids::{Label, ObjectId};

/// An explicit OPF table: `PC(o) → [0, 1]`.
///
/// The hash index accelerating [`OpfTable::prob`] and [`OpfTable::add`]
/// is **not** cloned: copying an instance is a hot path of the paper's
/// experimental procedure ("the time to make a copy of the input
/// instance", §7.1), and clones are usually only iterated. The index is
/// rebuilt lazily on the first keyed operation after a clone.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct OpfTable {
    entries: Vec<(ChildSet, f64)>,
    #[serde(skip)]
    index: HashMap<ChildSet, usize>,
}

impl Clone for OpfTable {
    fn clone(&self) -> Self {
        OpfTable { entries: self.entries.clone(), index: HashMap::new() }
    }
}

impl OpfTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the lazy hash index covers all entries.
    fn index_is_fresh(&self) -> bool {
        self.index.len() == self.entries.len()
    }

    /// Builds a table from `(set, probability)` pairs. Later entries for
    /// the same set overwrite earlier ones.
    pub fn from_entries(entries: impl IntoIterator<Item = (ChildSet, f64)>) -> Self {
        let mut t = OpfTable::new();
        for (set, p) in entries {
            t.set(set, p);
        }
        t
    }

    /// Sets the probability of `set`.
    pub fn set(&mut self, set: ChildSet, p: f64) {
        if !self.index_is_fresh() {
            self.rebuild_index();
        }
        match self.index.get(&set) {
            Some(&i) => self.entries[i].1 = p,
            None => {
                self.index.insert(set.clone(), self.entries.len());
                self.entries.push((set, p));
            }
        }
    }

    /// Adds `p` to the probability of `set` (inserting it if absent) —
    /// the primitive used by marginalisation.
    pub fn add(&mut self, set: ChildSet, p: f64) {
        if !self.index_is_fresh() {
            self.rebuild_index();
        }
        match self.index.get(&set) {
            Some(&i) => self.entries[i].1 += p,
            None => {
                self.index.insert(set.clone(), self.entries.len());
                self.entries.push((set, p));
            }
        }
    }

    /// The probability of `set` (0 if absent). Falls back to a linear
    /// scan on tables whose lazy index has not been rebuilt since a clone.
    pub fn prob(&self, set: &ChildSet) -> f64 {
        if self.index_is_fresh() {
            self.index.get(set).map_or(0.0, |&i| self.entries[i].1)
        } else {
            self.entries.iter().find(|(s, _)| s == set).map_or(0.0, |&(_, p)| p)
        }
    }

    /// Number of entries (the paper's `|℘(o)|`, the quantity Figure 7's
    /// cost model is quadratic in).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(set, probability)` entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&ChildSet, f64)> {
        self.entries.iter().map(|(s, p)| (s, *p))
    }

    /// Sum of all probabilities.
    pub fn total(&self) -> f64 {
        self.entries.iter().map(|&(_, p)| p).sum()
    }

    /// Divides every probability by `total()`, dropping zero entries.
    /// Returns the pre-normalisation total (the ε of Section 6.1 when the
    /// empty set has first been zeroed).
    ///
    /// Errors with [`CoreError::DegenerateMass`] when the total is zero,
    /// negative or non-finite — previously a NaN total propagated silently
    /// through every entry and a zero total left the table unnormalised.
    /// Callers that treat a (near-)zero total as "dead" should test
    /// [`OpfTable::total`] before normalising.
    pub fn normalize(&mut self) -> Result<f64> {
        let total = self.total();
        if !total.is_finite() || total <= 0.0 {
            return Err(CoreError::DegenerateMass { total });
        }
        for (_, p) in &mut self.entries {
            *p /= total;
        }
        self.retain_positive();
        Ok(total)
    }

    /// Removes entries with probability 0 (or below).
    pub fn retain_positive(&mut self) {
        self.entries.retain(|&(_, p)| p > 0.0);
        self.rebuild_index();
    }

    /// Rebuilds the hash index; required after deserialization.
    pub fn rebuild_index(&mut self) {
        self.index =
            self.entries.iter().enumerate().map(|(i, (s, _))| (s.clone(), i)).collect();
    }

    /// `P(child at position pos ∈ c)` under this table.
    pub fn marginal_present(&self, pos: u32) -> f64 {
        self.entries.iter().filter(|(s, _)| s.contains_pos(pos)).map(|&(_, p)| p).sum()
    }

    /// Conditions the table on the child at `pos` being present (if
    /// `present`) or absent. Returns the conditioned table and the
    /// marginal probability of the conditioning event.
    pub fn condition(&self, pos: u32, present: bool) -> (OpfTable, f64) {
        let mut out = OpfTable::new();
        let mut marginal = 0.0;
        for (s, p) in self.iter() {
            if s.contains_pos(pos) == present {
                marginal += p;
                out.add(s.clone(), p);
            }
        }
        if marginal > 0.0 {
            for (_, p) in &mut out.entries {
                *p /= marginal;
            }
        }
        (out, marginal)
    }
}

impl PartialEq for OpfTable {
    fn eq(&self, other: &Self) -> bool {
        if self.entries.len() != other.entries.len() {
            return false;
        }
        self.entries
            .iter()
            .all(|(s, p)| (other.prob(s) - p).abs() <= PROB_EPS)
    }
}

/// Compact OPF: each potential child is present independently.
///
/// Valid only when `PC(o)` is the full power set of the universe, i.e. no
/// cardinality constraints bind (the setting of the paper's experiments,
/// Section 7.1, and of ProTDB).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IndependentOpf {
    /// `probs[i]` is the probability that the child at universe position
    /// `i` is present.
    probs: Vec<f64>,
}

impl IndependentOpf {
    /// Creates the OPF from per-position presence probabilities.
    pub fn new(probs: Vec<f64>) -> Self {
        IndependentOpf { probs }
    }

    /// Per-position presence probabilities.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// The probability of an exact child set.
    pub fn prob(&self, set: &ChildSet) -> f64 {
        let mut p = 1.0;
        for (i, &pi) in self.probs.iter().enumerate() {
            if set.contains_pos(i as u32) {
                p *= pi;
            } else {
                p *= 1.0 - pi;
            }
        }
        p
    }

    /// Materialises the full `2^n` table.
    pub fn to_table(&self, universe: &ChildUniverse) -> OpfTable {
        let full = ChildSet::full(universe);
        OpfTable::from_entries(full.subsets().map(|s| {
            let p = self.prob(&s);
            (s, p)
        }))
    }
}

/// Compact OPF: independent distribution per label.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LabelProductOpf {
    /// For each label: the positions carrying it, and a table over subsets
    /// of those positions.
    parts: Vec<(Label, ChildSet, OpfTable)>,
}

impl LabelProductOpf {
    /// Builds the product OPF from per-label tables. `universe` supplies
    /// the position slice of each label.
    pub fn new(universe: &ChildUniverse, parts: impl IntoIterator<Item = (Label, OpfTable)>) -> Self {
        LabelProductOpf {
            parts: parts
                .into_iter()
                .map(|(l, t)| (l, universe.members_with_label(l), t))
                .collect(),
        }
    }

    /// The per-label parts.
    pub fn parts(&self) -> &[(Label, ChildSet, OpfTable)] {
        &self.parts
    }

    /// The probability of an exact child set: the product over labels of
    /// the probability of the set's restriction to that label.
    pub fn prob(&self, set: &ChildSet) -> f64 {
        // Members outside every label slice are impossible.
        let mut covered = set.clone();
        let mut p = 1.0;
        for (_, slice, table) in &self.parts {
            let restricted = set.intersect(slice);
            covered = covered.difference(slice);
            p *= table.prob(&restricted);
        }
        if covered.is_empty() {
            p
        } else {
            0.0
        }
    }

    /// Materialises the explicit joint table (cross product of parts).
    pub fn to_table(&self) -> OpfTable {
        let mut acc: Vec<(ChildSet, f64)> = vec![];
        for (i, (_, _, table)) in self.parts.iter().enumerate() {
            if i == 0 {
                acc = table.iter().map(|(s, p)| (s.clone(), p)).collect();
            } else {
                let mut next = Vec::with_capacity(acc.len() * table.len());
                for (s0, p0) in &acc {
                    for (s1, p1) in table.iter() {
                        next.push((s0.union(s1), p0 * p1));
                    }
                }
                acc = next;
            }
        }
        if acc.is_empty() {
            // No parts: the only child set is ∅.
            let mut t = OpfTable::new();
            t.set(ChildSet::Mask(0), 1.0);
            return t;
        }
        OpfTable::from_entries(acc)
    }
}

/// An object probability function in any representation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Opf {
    /// Fully general explicit table.
    Table(OpfTable),
    /// Independent per-child presence probabilities.
    Independent(IndependentOpf),
    /// Independent distribution per label.
    LabelProduct(LabelProductOpf),
}

impl Opf {
    /// The probability of an exact child set.
    pub fn prob(&self, set: &ChildSet) -> f64 {
        match self {
            Opf::Table(t) => t.prob(set),
            Opf::Independent(i) => i.prob(set),
            Opf::LabelProduct(l) => l.prob(set),
        }
    }

    /// Materialises to an explicit table (identity for `Table`).
    pub fn to_table(&self, universe: &ChildUniverse) -> OpfTable {
        match self {
            Opf::Table(t) => t.clone(),
            Opf::Independent(i) => i.to_table(universe),
            Opf::LabelProduct(l) => l.to_table(),
        }
    }

    /// Number of stored entries/parameters (`|℘(o)|` in the paper's cost
    /// model: table entries for `Table`, materialised-equivalent count for
    /// the compact forms is deliberately *not* used — compactness is the
    /// point).
    pub fn stored_len(&self) -> usize {
        match self {
            Opf::Table(t) => t.len(),
            Opf::Independent(i) => i.probs().len(),
            Opf::LabelProduct(l) => l.parts().iter().map(|(_, _, t)| t.len()).sum(),
        }
    }

    /// Number of entries of the *materialised* distribution.
    pub fn support_len(&self, universe: &ChildUniverse) -> usize {
        match self {
            Opf::Table(t) => t.len(),
            _ => self.to_table(universe).len(),
        }
    }

    /// The survival probability of Section 6.2's ε computation:
    /// `Σ_c ℘(c) · (1 − Π_{(pos, ε) ∈ kept, pos ∈ c} (1 − ε))` — the
    /// probability that at least one of the given children is chosen
    /// *and* survives, where `kept` pairs universe positions with their
    /// subtree-survival probabilities.
    ///
    /// Compact representations are evaluated in closed form without
    /// materialising the `2^b` table — the "make use of the additional
    /// structure effectively when answering queries" promise of §3.2:
    /// for independent children, `1 − Π_j (1 − p_j·ε_j)`.
    pub fn survival_probability(&self, kept: &[(u32, f64)]) -> f64 {
        match self {
            Opf::Table(t) => {
                let mut none = 0.0;
                for (set, p) in t.iter() {
                    if p <= 0.0 {
                        continue;
                    }
                    let mut dead = 1.0;
                    for &(pos, e) in kept {
                        if set.contains_pos(pos) {
                            dead *= 1.0 - e;
                            if dead == 0.0 {
                                break;
                            }
                        }
                    }
                    none += p * dead;
                }
                (1.0 - none).clamp(0.0, 1.0)
            }
            Opf::Independent(i) => {
                let mut none = 1.0;
                for &(pos, e) in kept {
                    let pj = i.probs().get(pos as usize).copied().unwrap_or(0.0);
                    none *= 1.0 - pj * e;
                }
                (1.0 - none).clamp(0.0, 1.0)
            }
            Opf::LabelProduct(l) => {
                // Parts are independent; a child belongs to exactly one
                // part's slice.
                let mut none = 1.0;
                for (_, slice, table) in l.parts() {
                    let in_part: Vec<(u32, f64)> = kept
                        .iter()
                        .copied()
                        .filter(|&(pos, _)| slice.contains_pos(pos))
                        .collect();
                    if in_part.is_empty() {
                        continue;
                    }
                    let mut part_none = 0.0;
                    for (set, p) in table.iter() {
                        if p <= 0.0 {
                            continue;
                        }
                        let mut dead = 1.0;
                        for &(pos, e) in &in_part {
                            if set.contains_pos(pos) {
                                dead *= 1.0 - e;
                            }
                        }
                        part_none += p * dead;
                    }
                    none *= part_none;
                }
                (1.0 - none).clamp(0.0, 1.0)
            }
        }
    }

    /// `P(all children at the given positions present simultaneously)`.
    pub fn marginal_all_present(&self, positions: &[u32]) -> f64 {
        match self {
            Opf::Table(t) => t
                .iter()
                .filter(|(s, _)| positions.iter().all(|&p| s.contains_pos(p)))
                .map(|(_, p)| p)
                .sum(),
            Opf::Independent(i) => positions
                .iter()
                .map(|&p| i.probs().get(p as usize).copied().unwrap_or(0.0))
                .product(),
            Opf::LabelProduct(l) => {
                // Group the required positions by part; parts are
                // independent, so the joint is the product of per-part
                // "all present" marginals.
                let mut acc = 1.0;
                let mut covered: Vec<u32> = Vec::new();
                for (_, slice, table) in l.parts() {
                    let needed: Vec<u32> =
                        positions.iter().copied().filter(|&p| slice.contains_pos(p)).collect();
                    covered.extend(needed.iter().copied());
                    if needed.is_empty() {
                        continue;
                    }
                    acc *= table
                        .iter()
                        .filter(|(s, _)| needed.iter().all(|&p| s.contains_pos(p)))
                        .map(|(_, p)| p)
                        .sum::<f64>();
                }
                if covered.len() == positions.len() {
                    acc
                } else {
                    0.0 // some required position belongs to no part
                }
            }
        }
    }

    /// `P(child at position pos present)`.
    pub fn marginal_present(&self, pos: u32) -> f64 {
        match self {
            Opf::Table(t) => t.marginal_present(pos),
            Opf::Independent(i) => i.probs().get(pos as usize).copied().unwrap_or(0.0),
            Opf::LabelProduct(l) => {
                for (_, slice, table) in l.parts() {
                    if slice.contains_pos(pos) {
                        return table
                            .iter()
                            .filter(|(s, _)| s.contains_pos(pos))
                            .map(|(_, p)| p)
                            .sum();
                    }
                }
                0.0
            }
        }
    }

    /// Conditions on the presence/absence of the child at `pos`,
    /// preserving compact representations where possible. Returns the
    /// conditioned OPF and the marginal probability of the event.
    pub fn condition(&self, pos: u32, present: bool) -> (Opf, f64) {
        match self {
            Opf::Table(t) => {
                let (t2, m) = t.condition(pos, present);
                (Opf::Table(t2), m)
            }
            Opf::Independent(i) => {
                let mut probs = i.probs().to_vec();
                let pi = probs.get(pos as usize).copied().unwrap_or(0.0);
                let m = if present { pi } else { 1.0 - pi };
                if let Some(p) = probs.get_mut(pos as usize) {
                    *p = if present { 1.0 } else { 0.0 };
                }
                (Opf::Independent(IndependentOpf::new(probs)), m)
            }
            Opf::LabelProduct(l) => {
                let mut parts = l.parts.clone();
                let mut marginal = 1.0;
                for (_, slice, table) in &mut parts {
                    if slice.contains_pos(pos) {
                        let (t2, m) = table.condition(pos, present);
                        *table = t2;
                        marginal = m;
                        break;
                    }
                }
                (Opf::LabelProduct(LabelProductOpf { parts }), marginal)
            }
        }
    }

    /// Validates the OPF for object `o` of weak instance `w`: entries in
    /// `[0,1]`, total 1, and support contained in `PC(o)`.
    pub fn validate(&self, w: &crate::weak::WeakInstance, o: ObjectId) -> Result<()> {
        let node = w.node(o).ok_or(CoreError::UnknownObject(o))?;
        let table = self.to_table(node.universe());
        let mut sum = 0.0;
        for (set, p) in table.iter() {
            if !(0.0..=1.0 + PROB_EPS).contains(&p) {
                return Err(CoreError::BadProbability { object: o, p });
            }
            if p > 0.0 && !crate::potential::pc_contains(w, o, set) {
                return Err(CoreError::OpfEntryOutsidePc { object: o });
            }
            sum += p;
        }
        if (sum - 1.0).abs() > 1e-6 {
            return Err(CoreError::OpfNotNormalized { object: o, sum });
        }
        Ok(())
    }

    /// Rebuilds hash indexes after deserialization.
    pub fn rebuild_index(&mut self) {
        match self {
            Opf::Table(t) => t.rebuild_index(),
            Opf::Independent(_) => {}
            Opf::LabelProduct(l) => {
                for (_, _, t) in &mut l.parts {
                    t.rebuild_index();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ObjectId;

    fn universe(n: u32) -> ChildUniverse {
        let l = Label::from_raw(0);
        ChildUniverse::from_members((0..n).map(|i| (ObjectId::from_raw(i), l)))
    }

    fn set(u: &ChildUniverse, ps: &[u32]) -> ChildSet {
        ChildSet::from_positions(u, ps.iter().copied())
    }

    #[test]
    fn table_set_get_and_add() {
        let u = universe(3);
        let mut t = OpfTable::new();
        t.set(set(&u, &[0]), 0.25);
        t.add(set(&u, &[0]), 0.25);
        t.set(set(&u, &[1, 2]), 0.5);
        assert_eq!(t.prob(&set(&u, &[0])), 0.5);
        assert_eq!(t.prob(&set(&u, &[1, 2])), 0.5);
        assert_eq!(t.prob(&set(&u, &[2])), 0.0);
        assert_eq!(t.len(), 2);
        assert!((t.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cloned_table_answers_queries_and_mutations_correctly() {
        let u = universe(3);
        let mut t = OpfTable::new();
        t.set(set(&u, &[0]), 0.25);
        t.set(set(&u, &[1, 2]), 0.75);
        let mut c = t.clone(); // index dropped, rebuilt lazily
        assert_eq!(c.prob(&set(&u, &[0])), 0.25); // linear-scan path
        c.add(set(&u, &[0]), 0.25); // triggers index rebuild
        assert_eq!(c.prob(&set(&u, &[0])), 0.5);
        assert_eq!(c.len(), 2);
        c.set(set(&u, &[2]), 0.1);
        assert_eq!(c.len(), 3);
        // The original is untouched.
        assert_eq!(t.prob(&set(&u, &[0])), 0.25);
    }

    #[test]
    fn table_normalize_returns_pre_total() {
        let u = universe(2);
        let mut t = OpfTable::from_entries([(set(&u, &[0]), 0.3), (set(&u, &[1]), 0.3)]);
        let total = t.normalize().unwrap();
        assert!((total - 0.6).abs() < 1e-12);
        assert!((t.prob(&set(&u, &[0])) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn table_normalize_rejects_degenerate_totals() {
        use crate::error::CoreError;
        let u = universe(2);
        // Zero total: previously left unnormalised without any signal.
        let mut zero = OpfTable::from_entries([(set(&u, &[0]), 0.0)]);
        assert!(matches!(zero.normalize(), Err(CoreError::DegenerateMass { total }) if total == 0.0));
        // NaN total: previously divided every entry by NaN silently.
        let mut nan = OpfTable::from_entries([(set(&u, &[0]), f64::NAN), (set(&u, &[1]), 0.5)]);
        assert!(matches!(nan.normalize(), Err(CoreError::DegenerateMass { total }) if total.is_nan()));
        // Infinite total.
        let mut inf = OpfTable::from_entries([(set(&u, &[0]), f64::INFINITY)]);
        assert!(inf.normalize().is_err());
        // Negative total.
        let mut neg = OpfTable::from_entries([(set(&u, &[0]), -1.0)]);
        assert!(neg.normalize().is_err());
    }

    #[test]
    fn table_marginal_and_condition() {
        let u = universe(2);
        let t = OpfTable::from_entries([
            (set(&u, &[]), 0.1),
            (set(&u, &[0]), 0.2),
            (set(&u, &[1]), 0.3),
            (set(&u, &[0, 1]), 0.4),
        ]);
        assert!((t.marginal_present(0) - 0.6).abs() < 1e-12);
        let (cond, m) = t.condition(0, true);
        assert!((m - 0.6).abs() < 1e-12);
        assert!((cond.prob(&set(&u, &[0])) - 0.2 / 0.6).abs() < 1e-12);
        assert!((cond.total() - 1.0).abs() < 1e-12);
        let (cond_abs, m_abs) = t.condition(0, false);
        assert!((m_abs - 0.4).abs() < 1e-12);
        assert!((cond_abs.prob(&set(&u, &[1])) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn independent_opf_prob_is_product() {
        let u = universe(3);
        let i = IndependentOpf::new(vec![0.5, 0.25, 1.0]);
        assert!((i.prob(&set(&u, &[0, 2])) - 0.5 * 0.75 * 1.0).abs() < 1e-12);
        assert!((i.prob(&set(&u, &[2])) - 0.5 * 0.75).abs() < 1e-12);
        // Child 2 always present, so any set without it has probability 0.
        assert_eq!(i.prob(&set(&u, &[0])), 0.0);
    }

    #[test]
    fn independent_opf_materialises_normalised_table() {
        let u = universe(3);
        let t = IndependentOpf::new(vec![0.5, 0.25, 0.9]).to_table(&u);
        assert_eq!(t.len(), 8);
        assert!((t.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn label_product_prob_multiplies_parts() {
        let a = Label::from_raw(0);
        let t_label = Label::from_raw(1);
        let u = ChildUniverse::from_members([
            (ObjectId::from_raw(0), a),
            (ObjectId::from_raw(1), a),
            (ObjectId::from_raw(2), t_label),
        ]);
        let authors = OpfTable::from_entries([
            (set(&u, &[0]), 0.3),
            (set(&u, &[1]), 0.3),
            (set(&u, &[0, 1]), 0.4),
        ]);
        let titles = OpfTable::from_entries([(set(&u, &[]), 0.5), (set(&u, &[2]), 0.5)]);
        let lp = LabelProductOpf::new(&u, [(a, authors), (t_label, titles)]);
        assert!((lp.prob(&set(&u, &[0, 2])) - 0.3 * 0.5).abs() < 1e-12);
        assert!((lp.prob(&set(&u, &[0, 1])) - 0.4 * 0.5).abs() < 1e-12);
        let joint = lp.to_table();
        assert_eq!(joint.len(), 6);
        assert!((joint.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn opf_condition_preserves_independent_form() {
        let i = Opf::Independent(IndependentOpf::new(vec![0.5, 0.5]));
        let (cond, m) = i.condition(1, true);
        assert!((m - 0.5).abs() < 1e-12);
        assert!(matches!(cond, Opf::Independent(_)));
        assert_eq!(cond.marginal_present(1), 1.0);
    }

    #[test]
    fn opf_marginals_agree_across_representations() {
        let u = universe(3);
        let i = IndependentOpf::new(vec![0.2, 0.7, 0.5]);
        let as_table = Opf::Table(i.to_table(&u));
        let as_indep = Opf::Independent(i);
        for pos in 0..3 {
            assert!(
                (as_table.marginal_present(pos) - as_indep.marginal_present(pos)).abs() < 1e-9
            );
        }
    }

    #[test]
    fn survival_probability_agrees_across_representations() {
        let u = universe(4);
        let i = IndependentOpf::new(vec![0.3, 0.6, 0.9, 0.2]);
        let table = Opf::Table(i.to_table(&u));
        let compact = Opf::Independent(i);
        for kept in [
            vec![(0u32, 1.0f64)],
            vec![(0, 0.5), (2, 0.25)],
            vec![(1, 0.0), (3, 1.0)],
            vec![],
        ] {
            let a = table.survival_probability(&kept);
            let b = compact.survival_probability(&kept);
            assert!((a - b).abs() < 1e-12, "kept {kept:?}: {a} vs {b}");
        }
    }

    #[test]
    fn survival_probability_closed_form() {
        // Two independent children with p = 0.5 each, both kept with
        // ε = 1: survival = 1 − 0.5² = 0.75.
        let i = Opf::Independent(IndependentOpf::new(vec![0.5, 0.5]));
        let s = i.survival_probability(&[(0, 1.0), (1, 1.0)]);
        assert!((s - 0.75).abs() < 1e-12);
        // With ε = 0 nothing survives.
        assert_eq!(i.survival_probability(&[(0, 0.0), (1, 0.0)]), 0.0);
    }

    #[test]
    fn survival_probability_label_product_matches_table() {
        let a = Label::from_raw(0);
        let t_label = Label::from_raw(1);
        let u = ChildUniverse::from_members([
            (ObjectId::from_raw(0), a),
            (ObjectId::from_raw(1), a),
            (ObjectId::from_raw(2), t_label),
        ]);
        let authors = OpfTable::from_entries([
            (ChildSet::from_positions(&u, [0]), 0.3),
            (ChildSet::from_positions(&u, [1]), 0.3),
            (ChildSet::from_positions(&u, [0, 1]), 0.4),
        ]);
        let titles = OpfTable::from_entries([
            (ChildSet::from_positions(&u, []), 0.5),
            (ChildSet::from_positions(&u, [2]), 0.5),
        ]);
        let lp = Opf::LabelProduct(LabelProductOpf::new(&u, [(a, authors), (t_label, titles)]));
        let table = Opf::Table(lp.to_table(&u));
        for kept in [vec![(0u32, 0.5f64), (2, 1.0)], vec![(1, 0.9)], vec![(2, 0.4)]] {
            let x = lp.survival_probability(&kept);
            let y = table.survival_probability(&kept);
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn marginal_all_present_agrees_across_representations() {
        let u = universe(3);
        let i = IndependentOpf::new(vec![0.4, 0.7, 0.2]);
        let table = Opf::Table(i.to_table(&u));
        let compact = Opf::Independent(i);
        for req in [vec![0u32], vec![0, 1], vec![0, 1, 2], vec![]] {
            let a = table.marginal_all_present(&req);
            let b = compact.marginal_all_present(&req);
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn stored_len_reflects_compactness() {
        let u = universe(8);
        let i = IndependentOpf::new(vec![0.5; 8]);
        let compact = Opf::Independent(i.clone());
        let table = Opf::Table(i.to_table(&u));
        assert_eq!(compact.stored_len(), 8);
        assert_eq!(table.stored_len(), 256);
        assert_eq!(compact.support_len(&u), 256);
    }
}
