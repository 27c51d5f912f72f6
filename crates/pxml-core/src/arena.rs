//! Flat-memory arena/CSR lowering of a [`ProbInstance`].
//!
//! A [`ArenaInstance`] stores one instance in contiguous arrays:
//!
//! * an **object arena** — row `x` describes `ObjectId::from_raw(x)`,
//!   so the arena needs no index space of its own: cached layers and
//!   link keys stay valid across re-lowerings that keep the objects
//!   they name. A row without a weak node (a dangling reference, or an
//!   object a mutation removed) has an empty CSR row and no OPF;
//! * **CSR adjacency** for `lch` — `child_offsets[x]..child_offsets[x+1]`
//!   delimits object `x`'s packed child/label rows, copied verbatim from
//!   its [`crate::childset::ChildUniverse`] so CSR row offsets *are*
//!   universe positions (the coordinates every OPF is expressed in);
//! * **OPF slabs** — explicit mask tables flatten into parallel
//!   `(u64 mask, f64 prob)` arrays, independent OPFs into one packed
//!   `f64` array, both addressed by per-object `(start, end)` slots, so
//!   the §6.1 survival evaluation runs over contiguous slices.
//!
//! The lowering is **bit-faithful**: survival and marginal arithmetic
//! replicate [`crate::opf::Opf`] operation-for-operation (same entry
//! order, same skip/early-exit conditions, same clamping), so every ε
//! computed through the arena equals the legacy value to the last bit.
//! Representations the slabs cannot express ([`Opf::LabelProduct`],
//! sparse child sets) fall back to a cloned legacy [`Opf`] — trivially
//! bit-identical, and absent from the paper's workloads.
//!
//! On a **forest** (no object is anyone's child twice) a point or exists
//! query needs no materialised region: [`ArenaInstance::point_pass`]
//! folds ε up the target's ancestor chain and
//! [`ArenaInstance::exists_pass`] evaluates it depth-first down the
//! path, each bit-equal to the region route (located layers → kept
//! region → [`ArenaInstance::eps_flat`]). Lowering a forest also numbers
//! its subtrees, so [`ArenaInstance::dirty_scope`] can tell a cache
//! which point and exists answers a write can have changed.
//!
//! Entry-level mutations (those that change OPF entries but not the
//! weak skeleton) leave both CSRs valid, so
//! [`ArenaInstance::patch_opfs`] re-lowers just the dirty objects' slots:
//! in place when the new OPF has the old slot's shape, otherwise into a
//! fresh slab range, compacting once dead ranges outgrow the live ones.

use std::collections::HashMap;

use crate::budget::{Budget, DegradePolicy};
use crate::childset::ChildSet;
use crate::error::{CoreError, Result};
use crate::ids::{Label, ObjectId};
use crate::opf::{Opf, OpfTable};
use crate::prob_instance::ProbInstance;

/// How one object's OPF is stored in the arena slabs.
#[derive(Clone, Copy, Debug, PartialEq)]
enum OpfSlot {
    /// The object has no OPF (leaves, and rows without a weak node).
    Missing,
    /// [`crate::opf::IndependentOpf`]: per-position presence
    /// probabilities in `indep[start..start + len]`.
    Independent {
        /// First slab index.
        start: u32,
        /// Number of per-position probabilities.
        len: u32,
    },
    /// Explicit mask table: entries `(table_masks[i], table_probs[i])`
    /// for `i ∈ start..end`, in the legacy table's insertion order.
    Table {
        /// First slab index.
        start: u32,
        /// One past the last slab index.
        end: u32,
    },
    /// Any other representation, evaluated through a cloned legacy
    /// [`Opf`] (bit-identical by construction).
    Fallback(u32),
}

/// The root ε of a budgeted sweep ([`ArenaInstance::eps_flat`]):
/// exact when `lo == hi`, otherwise a guaranteed bracket.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpsBounds {
    /// Lower bound; the value itself when exact.
    pub lo: f64,
    /// Upper bound; the value itself when exact.
    pub hi: f64,
    /// OPF entries of the evaluated nodes (Σ `stored_len`), the
    /// paper's `|℘|` work measure.
    pub opf_entries: u64,
}

/// Where a point query's kept region comes from
/// ([`ArenaInstance::kept_point`]).
#[derive(Clone, Debug, PartialEq)]
pub enum PointRegion {
    /// The target is located: its kept region, the target's path
    /// ancestors, one per depth (layer 0 is the path start).
    Kept(Vec<Vec<u32>>),
    /// The target is provably not located: the answer is exact `0.0`.
    Absent,
    /// The ancestor walk proves nothing here (the arena is not a
    /// forest, or the target has no weak node): locate the path's
    /// layers and filter them with [`ArenaInstance::kept_flat`].
    Layers,
}

/// What a one-pass forest evaluation found
/// ([`ArenaInstance::point_pass`], [`ArenaInstance::exists_pass`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OnePass {
    /// Nothing to evaluate: the answer is exact `0.0` and the region
    /// route charges no step (nothing located, or a path anchored off
    /// the root).
    Zero,
    /// The root ε, with what the region route's sweep spends on it:
    /// one step per kept node above the targets, and Σ `stored_len`
    /// over those nodes.
    Eps {
        /// The answer, bit-equal to [`ArenaInstance::eps_flat`]'s.
        eps: f64,
        /// Steps to charge (Σ |kept layer| above the targets).
        steps: u64,
        /// OPF entries visited.
        opf_entries: u64,
    },
    /// The pass proves nothing here (the arena is not a forest, or the
    /// target has no weak node) or met an error: take the region route,
    /// which also names the error.
    Region,
}

/// One open node of [`ArenaInstance::exists_pass`]'s depth-first walk.
struct Frame {
    /// The node's row.
    x: u32,
    /// Its position in its parent's row.
    pos: u32,
    /// First packed entry of its row.
    row: u32,
    /// Next packed entry to visit.
    next: u32,
    /// One past its row's last packed entry.
    end: u32,
    /// Where its kept children start in the walk's child buffer.
    base: usize,
}

/// What an entry-level write can have changed on a forest arena
/// ([`ArenaInstance::dirty_scope`]): the subtree numbers and root label
/// paths of its dirty objects. An entry-level write keeps the weak
/// skeleton, so a cached point or exists answer is stale only when a
/// dirty object is a proper weak ancestor of its target, or is located
/// by a prefix of its path.
#[derive(Clone, Debug)]
pub struct DirtyScope<'a> {
    /// The arena's subtree numbers.
    subtree: &'a [(u32, u32)],
    /// The arena root's row.
    root: u32,
    /// Subtree numbers of the dirty objects reached from the root.
    spans: Vec<(u32, u32)>,
    /// Their root label paths, concatenated; `path_ends[k]` closes the
    /// k-th.
    path_labels: Vec<Label>,
    /// One past each root label path's last label.
    path_ends: Vec<usize>,
}

impl DirtyScope<'_> {
    /// True when a cached point answer for `target` can have changed:
    /// some dirty object is a proper weak ancestor of it. A point
    /// answer reads only the OPFs of its target's path ancestors.
    pub fn point_stale(&self, target: ObjectId) -> bool {
        let Some(&(enter, _)) = self.subtree.get(target.index()) else { return false };
        self.spans.iter().any(|&(s, e)| s < enter && enter < e)
    }

    /// True when a cached exists answer over `root.labels` can have
    /// changed: `root` is the arena root and some dirty object's root
    /// label path is a prefix of `labels` (the object is located by the
    /// path). A path anchored elsewhere locates nothing.
    pub fn exists_stale(&self, root: ObjectId, labels: &[Label]) -> bool {
        if root.raw() != self.root {
            return false;
        }
        let mut start = 0;
        self.path_ends.iter().any(|&end| {
            let path = &self.path_labels[start..end];
            start = end;
            labels.starts_with(path)
        })
    }
}

/// Subtree numbers of a row no root path reaches.
const UNREACHED: (u32, u32) = (u32::MAX, u32::MAX);

/// What the pre-order grant pass decided for one kept node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Grant {
    /// Not reached: below a refused node, or past the stop.
    Unvisited,
    /// Charged, with an OPF: the sweep evaluates it.
    Granted,
    /// Its charge was refused under [`DegradePolicy::Interval`].
    Refused,
    /// The walk stopped here, with [`Grants::stop`].
    Stopped,
}

/// The grant pass's per-layer decisions, aligned to the kept layers
/// above the targets, and the error it stopped at, if any.
struct Grants {
    state: Vec<Vec<Grant>>,
    stop: Option<CoreError>,
}

impl OpfSlot {
    /// Slab entries the slot occupies (a fallback OPF counts as one).
    fn slab_entries(self) -> usize {
        match self {
            OpfSlot::Missing => 0,
            OpfSlot::Independent { len, .. } => len as usize,
            OpfSlot::Table { start, end } => (end - start) as usize,
            OpfSlot::Fallback(_) => 1,
        }
    }
}

/// One object's lowered OPF as the slabs store it
/// ([`ArenaInstance::opf_view`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OpfView<'a> {
    /// No OPF.
    Missing,
    /// Independent per-position presence probabilities.
    Independent(&'a [f64]),
    /// Explicit mask table, in the legacy table's insertion order.
    Table {
        /// Child-set masks.
        masks: &'a [u64],
        /// Probabilities, parallel to `masks`.
        probs: &'a [f64],
    },
    /// A representation the slabs cannot express.
    Fallback(&'a Opf),
}

/// A [`ProbInstance`] lowered to flat arrays (see the module docs).
///
/// Rows are the raw object ids `0..len()`, where `len()` is one past
/// the largest id the instance mentions (members, the root, universe
/// children). Row `x` is `ObjectId::from_raw(x)`'s; a row whose object
/// has no weak node — a dangling reference on a hostile input, or an
/// object a mutation deleted — has an empty CSR row, no parents and no
/// OPF, which makes every row lookup total.
#[derive(Clone, Debug)]
pub struct ArenaInstance {
    /// Row of the instance root (its raw id).
    root: u32,
    /// CSR row offsets, length `len() + 1`, monotone.
    child_offsets: Vec<u32>,
    /// Packed raw child ids (row `x` = universe of object `x`).
    children: Vec<u32>,
    /// Packed edge labels, parallel to `children`.
    child_labels: Vec<Label>,
    /// Whether the entry is an edge of the weak instance graph
    /// (`card(o, l).max ≥ 1`), parallel to `children`.
    child_weak: Vec<bool>,
    /// Reverse CSR over the weak edges, length `len() + 1`:
    /// `parents[parent_offsets[x]..parent_offsets[x + 1]]` are the
    /// distinct members with a weak edge into member `x`, ascending.
    /// Rows of non-members are empty, as in
    /// [`crate::weak::WeakInstance::parents`].
    parent_offsets: Vec<u32>,
    /// Packed raw parent ids.
    parents: Vec<u32>,
    /// Whether row `x`'s object has a weak node, length `len()`.
    member: Vec<bool>,
    /// True when no object appears as a child more than once and the
    /// root is nobody's child — the flat pipeline then skips dedup and
    /// the (unfireable) §6 tree-shape checks, and a point query walks up
    /// from its target ([`ArenaInstance::kept_point`]).
    forest: bool,
    /// On a forest, `(pre-order number, one past its subtree's last)`
    /// per row over the weak edges from the root, [`UNREACHED`] for
    /// rows no weak root path reaches; empty otherwise. Entry-level
    /// writes keep the skeleton, so they keep these numbers too.
    subtree: Vec<(u32, u32)>,
    /// Per-object OPF slot, length `len()`.
    slots: Vec<OpfSlot>,
    /// Slab of independent-OPF presence probabilities.
    indep: Vec<f64>,
    /// Slab of explicit-table child-set masks.
    table_masks: Vec<u64>,
    /// Slab of explicit-table probabilities, parallel to `table_masks`.
    table_probs: Vec<f64>,
    /// Cloned legacy OPFs for representations the slabs cannot express.
    fallback: Vec<Opf>,
    /// Slab entries no slot addresses any more (left behind when
    /// [`ArenaInstance::patch_opfs`] moved a slot to a fresh range).
    garbage: usize,
}

impl ArenaInstance {
    /// Lowers `pi`, rejecting universes with duplicate or ambiguous
    /// `(child, label)` rows with a typed error — the checks an
    /// unchecked instance may have skipped and that the CSR layout
    /// relies on for unambiguous position arithmetic. Members are
    /// checked in id order: of several malformed universes, the one
    /// with the smallest id is reported.
    pub fn lower(pi: &ProbInstance) -> Result<ArenaInstance> {
        let a = Self::lower_unchecked(pi);
        for (o, node) in pi.weak().nodes().iter() {
            let mut seen: HashMap<ObjectId, Label> = HashMap::new();
            for (_, c, l) in node.universe().iter() {
                match seen.get(&c) {
                    None => {
                        seen.insert(c, l);
                    }
                    Some(&first) if first == l => {
                        return Err(CoreError::DuplicateChild { parent: o, child: c, label: l });
                    }
                    Some(&first) => {
                        return Err(CoreError::AmbiguousChildLabel {
                            parent: o,
                            child: c,
                            first,
                            second: l,
                        });
                    }
                }
            }
        }
        Ok(a)
    }

    /// Lowers `pi` without validation. Never fails: cyclic or
    /// unreachable unchecked instances lower row for row like any
    /// other, and dangling references get rows without a weak node.
    pub fn lower_unchecked(pi: &ProbInstance) -> ArenaInstance {
        let weak = pi.weak();
        let root = pi.root().raw();
        let mut total = root as usize + 1;
        for (o, node) in weak.nodes().iter() {
            total = total.max(o.index() + 1);
            for (_, c, _) in node.universe().iter() {
                total = total.max(c.index() + 1);
            }
        }
        let mut member = vec![false; total];
        let mut child_offsets = Vec::with_capacity(total + 1);
        let mut children = Vec::new();
        let mut child_labels = Vec::new();
        let mut child_weak = Vec::new();
        let mut slots = Vec::with_capacity(total);
        let mut indep = Vec::new();
        let mut table_masks = Vec::new();
        let mut table_probs = Vec::new();
        let mut fallback = Vec::new();

        for (x, is_member) in member.iter_mut().enumerate() {
            child_offsets.push(children.len() as u32);
            let o = ObjectId::from_raw(x as u32);
            let Some(node) = weak.node(o) else {
                slots.push(OpfSlot::Missing);
                continue;
            };
            *is_member = true;
            // Per-label weak participation, cached per node.
            let mut weak_by_label: Vec<(Label, bool)> = Vec::new();
            for (_, c, l) in node.universe().iter() {
                children.push(c.raw());
                child_labels.push(l);
                let w = match weak_by_label.iter().find(|&&(wl, _)| wl == l) {
                    Some(&(_, w)) => w,
                    None => {
                        let w = node.card(l).max >= 1;
                        weak_by_label.push((l, w));
                        w
                    }
                };
                child_weak.push(w);
            }
            slots.push(lower_opf(
                pi.opf(o),
                node.universe().fits_mask(),
                &mut indep,
                &mut table_masks,
                &mut table_probs,
                &mut fallback,
            ));
        }
        child_offsets.push(children.len() as u32);
        let (parent_offsets, parents) =
            reverse_weak_csr(&child_offsets, &children, &child_weak, &member);

        // Forest detection: when no object appears as a child more than
        // once (and the root is nobody's child), the flat query pipeline
        // can skip dedup and the §6 tree-shape checks — they cannot fire.
        let forest = {
            let mut seen = vec![false; total];
            let mut forest = true;
            for &c in &children {
                if seen[c as usize] || c == root {
                    forest = false;
                    break;
                }
                seen[c as usize] = true;
            }
            forest
        };
        let subtree = if forest {
            subtree_numbers(root, &child_offsets, &children, &child_weak)
        } else {
            Vec::new()
        };

        let a = ArenaInstance {
            root,
            child_offsets,
            children,
            child_labels,
            child_weak,
            parent_offsets,
            parents,
            member,
            forest,
            subtree,
            slots,
            indep,
            table_masks,
            table_probs,
            fallback,
            garbage: 0,
        };
        debug_assert_eq!(a.debug_validate(), Ok(()));
        a
    }

    /// Re-lowers the OPFs of `dirty` after an entry-level mutation of
    /// `pi` — one that changed OPF or VPF entries but not the weak
    /// skeleton this arena was lowered from, so both CSRs stay valid
    /// and only those slots can differ. A new OPF with
    /// its old slot's shape (kind and length) overwrites the slot's slab
    /// range in place; any other goes to a fresh range and the old one
    /// becomes garbage. Once garbage exceeds the live slab entries the
    /// slabs are compacted, which keeps the work amortised O(dirty).
    /// Objects without a slot change (VPF-only updates, unknown ids)
    /// cost nothing.
    pub fn patch_opfs(&mut self, pi: &ProbInstance, dirty: &[ObjectId]) {
        for &o in dirty {
            let Some(node) = pi.weak().node(o) else { continue };
            let x = o.raw();
            let (s, e) = self.child_range(x);
            debug_assert_eq!(node.universe().len(), (e - s) as usize, "skeleton changed");
            self.patch_slot(x, pi.opf(o), node.universe().fits_mask());
        }
        let total = self.indep.len() + self.table_masks.len() + self.fallback.len();
        if self.garbage > total - self.garbage {
            self.compact_slabs();
        }
        debug_assert_eq!(self.debug_validate(), Ok(()));
    }

    /// Re-lowers one slot: in place when the shape is unchanged,
    /// otherwise appended (the old range counted as garbage).
    fn patch_slot(&mut self, x: u32, opf: Option<&Opf>, fits_mask: bool) {
        let old = self.slots[x as usize];
        match (old, opf) {
            (OpfSlot::Missing, None) => return,
            (OpfSlot::Independent { start, len }, Some(Opf::Independent(i)))
                if i.probs().len() == len as usize =>
            {
                self.indep[start as usize..(start + len) as usize].copy_from_slice(i.probs());
                return;
            }
            (OpfSlot::Table { start, end }, Some(Opf::Table(t)))
                if slab_table(t, fits_mask) && t.len() == (end - start) as usize =>
            {
                for (k, (set, p)) in t.iter().enumerate() {
                    if let ChildSet::Mask(m) = set {
                        self.table_masks[start as usize + k] = *m;
                        self.table_probs[start as usize + k] = p;
                    }
                }
                return;
            }
            (OpfSlot::Fallback(f), Some(other)) if !slab_expressible(other, fits_mask) => {
                self.fallback[f as usize] = other.clone();
                return;
            }
            _ => {}
        }
        self.garbage += old.slab_entries();
        self.slots[x as usize] = lower_opf(
            opf,
            fits_mask,
            &mut self.indep,
            &mut self.table_masks,
            &mut self.table_probs,
            &mut self.fallback,
        );
    }

    /// Rewrites the slabs with only the live ranges, in row order —
    /// the layout a fresh lowering of the same instance produces.
    fn compact_slabs(&mut self) {
        let (mut n_indep, mut n_table) = (0, 0);
        for slot in &self.slots {
            match *slot {
                OpfSlot::Independent { len, .. } => n_indep += len as usize,
                OpfSlot::Table { start, end } => n_table += (end - start) as usize,
                _ => {}
            }
        }
        let mut indep = Vec::with_capacity(n_indep);
        let mut table_masks = Vec::with_capacity(n_table);
        let mut table_probs = Vec::with_capacity(n_table);
        let mut old_fallback: Vec<Option<Opf>> =
            std::mem::take(&mut self.fallback).into_iter().map(Some).collect();
        let mut fallback = Vec::new();
        for slot in &mut self.slots {
            *slot = match *slot {
                OpfSlot::Missing => OpfSlot::Missing,
                OpfSlot::Independent { start, len } => {
                    let s = indep.len() as u32;
                    indep.extend_from_slice(&self.indep[start as usize..(start + len) as usize]);
                    OpfSlot::Independent { start: s, len }
                }
                OpfSlot::Table { start, end } => {
                    let s = table_masks.len() as u32;
                    table_masks.extend_from_slice(&self.table_masks[start as usize..end as usize]);
                    table_probs.extend_from_slice(&self.table_probs[start as usize..end as usize]);
                    OpfSlot::Table { start: s, end: table_masks.len() as u32 }
                }
                OpfSlot::Fallback(f) => {
                    fallback.push(old_fallback[f as usize].take().expect("one slot per fallback"));
                    OpfSlot::Fallback((fallback.len() - 1) as u32)
                }
            };
        }
        self.indep = indep;
        self.table_masks = table_masks;
        self.table_probs = table_probs;
        self.fallback = fallback;
        self.garbage = 0;
    }

    /// Number of rows: one past the largest raw id the instance mentions.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the arena has no rows (never, once lowered: the root
    /// has one).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The row of the instance root (its raw id).
    pub fn root_index(&self) -> u32 {
        self.root
    }

    /// True when row `x`'s object has a weak node. False for rows
    /// without one and for ids at or past [`ArenaInstance::len`].
    pub fn is_member(&self, x: u32) -> bool {
        self.member.get(x as usize) == Some(&true)
    }

    /// The universe position of `child` in member `parent`'s row: its
    /// first occurrence, as [`crate::childset::ChildUniverse::position`]
    /// reports it. `None` when `child` is not in the row, or `parent` is
    /// not a member (an id at or past [`ArenaInstance::len`] included).
    pub fn child_position(&self, parent: u32, child: u32) -> Option<u32> {
        if !self.is_member(parent) {
            return None;
        }
        let (s, e) = self.child_range(parent);
        (s..e).find(|&i| self.children[i as usize] == child).map(|i| i - s)
    }

    /// The distinct members with a weak edge into `x`, ascending (empty
    /// for non-members) — the weak parent map as a reverse CSR row.
    pub fn parents_of(&self, x: u32) -> &[u32] {
        let (s, e) = (self.parent_offsets[x as usize], self.parent_offsets[x as usize + 1]);
        &self.parents[s as usize..e as usize]
    }

    /// The lowered OPF of `x` as stored in the slabs.
    pub fn opf_view(&self, x: u32) -> OpfView<'_> {
        match self.slots[x as usize] {
            OpfSlot::Missing => OpfView::Missing,
            OpfSlot::Independent { start, len } => {
                OpfView::Independent(&self.indep[start as usize..(start + len) as usize])
            }
            OpfSlot::Table { start, end } => OpfView::Table {
                masks: &self.table_masks[start as usize..end as usize],
                probs: &self.table_probs[start as usize..end as usize],
            },
            OpfSlot::Fallback(f) => OpfView::Fallback(&self.fallback[f as usize]),
        }
    }

    /// Slab lengths `(independent, table, fallback)`, dead ranges included.
    pub fn slab_lens(&self) -> (usize, usize, usize) {
        (self.indep.len(), self.table_masks.len(), self.fallback.len())
    }

    /// Slab entries no slot addresses (0 right after lowering or
    /// compaction).
    pub fn garbage(&self) -> usize {
        self.garbage
    }

    /// The CSR row of `x`: offsets into the packed child arrays. The
    /// row offset of an entry equals its universe position.
    pub fn child_range(&self, x: u32) -> (u32, u32) {
        (self.child_offsets[x as usize], self.child_offsets[x as usize + 1])
    }

    /// The raw child id of packed entry `i`.
    pub fn child(&self, i: u32) -> u32 {
        self.children[i as usize]
    }

    /// The edge label of packed entry `i`.
    pub fn child_label(&self, i: u32) -> Label {
        self.child_labels[i as usize]
    }

    /// True when packed entry `i` is an edge of the weak instance graph
    /// (its label's cardinality admits at least one child).
    pub fn child_is_weak(&self, i: u32) -> bool {
        self.child_weak[i as usize]
    }

    /// True when `x` carries an OPF.
    pub fn has_opf(&self, x: u32) -> bool {
        !matches!(self.slots[x as usize], OpfSlot::Missing)
    }

    /// Stored OPF parameter count (the legacy `Opf::stored_len`).
    pub fn stored_len(&self, x: u32) -> u64 {
        match &self.slots[x as usize] {
            OpfSlot::Missing => 0,
            OpfSlot::Independent { len, .. } => u64::from(*len),
            OpfSlot::Table { start, end } => u64::from(end - start),
            OpfSlot::Fallback(f) => self.fallback[*f as usize].stored_len() as u64,
        }
    }

    /// The §6.2 survival probability of `x` over `kept` = `(universe
    /// position, child ε)` pairs, or `None` when `x` has no OPF.
    /// Bit-identical to [`Opf::survival_probability`].
    pub fn survival_probability(&self, x: u32, kept: &[(u32, f64)]) -> Option<f64> {
        match &self.slots[x as usize] {
            OpfSlot::Missing => None,
            OpfSlot::Table { start, end } => {
                let masks = &self.table_masks[*start as usize..*end as usize];
                let probs = &self.table_probs[*start as usize..*end as usize];
                let mut none = 0.0;
                for (&m, &p) in masks.iter().zip(probs) {
                    if p <= 0.0 {
                        continue;
                    }
                    let mut dead = 1.0;
                    for &(pos, e) in kept {
                        if (m >> pos) & 1 == 1 {
                            dead *= 1.0 - e;
                            if dead == 0.0 {
                                break;
                            }
                        }
                    }
                    none += p * dead;
                }
                Some((1.0 - none).clamp(0.0, 1.0))
            }
            OpfSlot::Independent { start, len } => {
                let probs = &self.indep[*start as usize..(*start + *len) as usize];
                let mut none = 1.0;
                for &(pos, e) in kept {
                    let pj = probs.get(pos as usize).copied().unwrap_or(0.0);
                    none *= 1.0 - pj * e;
                }
                Some((1.0 - none).clamp(0.0, 1.0))
            }
            OpfSlot::Fallback(f) => Some(self.fallback[*f as usize].survival_probability(kept)),
        }
    }

    /// `P(child at universe position pos present)`, or `None` when `x`
    /// has no OPF. Bit-identical to [`Opf::marginal_present`].
    pub fn marginal_present(&self, x: u32, pos: u32) -> Option<f64> {
        match &self.slots[x as usize] {
            OpfSlot::Missing => None,
            OpfSlot::Table { start, end } => {
                let masks = &self.table_masks[*start as usize..*end as usize];
                let probs = &self.table_probs[*start as usize..*end as usize];
                let mut sum = 0.0;
                for (&m, &p) in masks.iter().zip(probs) {
                    if (m >> pos) & 1 == 1 {
                        sum += p;
                    }
                }
                Some(sum)
            }
            OpfSlot::Independent { start, len } => {
                let probs = &self.indep[*start as usize..(*start + *len) as usize];
                Some(probs.get(pos as usize).copied().unwrap_or(0.0))
            }
            OpfSlot::Fallback(f) => Some(self.fallback[*f as usize].marginal_present(pos)),
        }
    }

    /// The per-depth reach sets of a root-anchored label path over the
    /// weak edges, as sorted raw ids (the flat counterpart of
    /// `layers_weak`; membership per depth is identical).
    pub fn layers_flat(&self, labels: &[Label]) -> Vec<Vec<u32>> {
        self.layers_flat_from(self.root, labels)
    }

    /// The located layers of the path `root.labels`, as `layers_weak`
    /// builds them: [`ArenaInstance::layers_flat`] when `root` is the
    /// instance root, and `labels.len() + 1` empty layers otherwise (a
    /// path anchored anywhere else locates nothing).
    pub fn locate(&self, root: ObjectId, labels: &[Label]) -> Vec<Vec<u32>> {
        if root.raw() == self.root {
            self.layers_flat(labels)
        } else {
            vec![Vec::new(); labels.len() + 1]
        }
    }

    /// The per-depth reach sets of `labels` from row `start` over the
    /// weak edges, as sorted raw ids; layer 0 is `[start]`.
    /// [`ArenaInstance::layers_flat`] is the root case.
    pub fn layers_flat_from(&self, start: u32, labels: &[Label]) -> Vec<Vec<u32>> {
        // On forests no child can be reached twice, so dedup is free;
        // otherwise a stamp per object replaces per-layer sort+dedup
        // hashing (an id is pushed at most once per depth). Either way
        // the sort is skipped when the push order is already ascending —
        // the common case, because parents are visited in ascending
        // order and breadth-first id assignment gives each parent's
        // children one ascending block of ids.
        let mut stamp = if self.forest { Vec::new() } else { vec![u32::MAX; self.len()] };
        let mut layers = Vec::with_capacity(labels.len() + 1);
        layers.push(vec![start]);
        for (d, &label) in labels.iter().enumerate() {
            let prev = layers.last().expect("at least the root layer");
            let mut next: Vec<u32> = Vec::new();
            for &x in prev {
                let (s, e) = self.child_range(x);
                for i in s..e {
                    let c = self.children[i as usize];
                    if self.child_weak[i as usize] && self.child_labels[i as usize] == label {
                        if !self.forest {
                            if stamp[c as usize] == d as u32 {
                                continue;
                            }
                            stamp[c as usize] = d as u32;
                        }
                        next.push(c);
                    }
                }
            }
            if !next.is_sorted() {
                next.sort_unstable();
            }
            layers.push(next);
        }
        layers
    }

    /// The distinct label paths from the root over the weak edges, up to
    /// `max_depth` labels long, in breadth-first order (the DataGuide
    /// view of the instance): per frontier, its labels ascending. At most
    /// `max_paths` paths are returned, so the walk stays bounded on
    /// adversarial fan-outs.
    pub fn label_paths(&self, max_depth: usize, max_paths: usize) -> Vec<Vec<Label>> {
        let mut out: Vec<Vec<Label>> = Vec::new();
        // Frontier of (objects, path) pairs; objects deduplicated.
        let mut frontier: Vec<(Vec<u32>, Vec<Label>)> = vec![(vec![self.root], Vec::new())];
        for _ in 0..max_depth {
            let mut next_frontier: Vec<(Vec<u32>, Vec<Label>)> = Vec::new();
            for (objs, path) in &frontier {
                let weak_entries = || {
                    objs.iter()
                        .flat_map(|&x| {
                            let (s, e) = self.child_range(x);
                            s as usize..e as usize
                        })
                        .filter(|&i| self.child_weak[i])
                };
                let mut labels: Vec<Label> = weak_entries().map(|i| self.child_labels[i]).collect();
                labels.sort_unstable();
                labels.dedup();
                for label in labels {
                    let mut children: Vec<u32> = weak_entries()
                        .filter(|&i| self.child_labels[i] == label)
                        .map(|i| self.children[i])
                        .collect();
                    children.sort_unstable();
                    children.dedup();
                    let mut p = path.clone();
                    p.push(label);
                    if out.len() >= max_paths {
                        return out;
                    }
                    out.push(p.clone());
                    next_frontier.push((children, p));
                }
            }
            if next_frontier.is_empty() {
                break;
            }
            frontier = next_frontier;
        }
        out
    }

    /// The proper ancestors of `x` on a forest, nearest first: its
    /// weak parent, that parent's parent, and so on, at most `steps` of
    /// them. A point query over a `steps`-label path reads OPFs of
    /// these objects only. The chain ends early when an object has no
    /// weak parent, and then no such path locates `x`; an id at or past
    /// [`ArenaInstance::len`] has no ancestors. `None` when the walk
    /// proves nothing: the arena is not a forest, or `x` has no weak
    /// node (a dangling child is located through its parent's row but
    /// has no reverse-CSR row).
    fn point_ancestors(&self, x: u32, steps: usize) -> Option<impl Iterator<Item = u32> + '_> {
        if !self.forest || self.member.get(x as usize) == Some(&false) {
            return None;
        }
        let steps = if (x as usize) < self.len() { steps } else { 0 };
        let mut cur = x;
        // On a forest every object is a child entry at most once, so a
        // member has at most one weak parent.
        let parent = move || match *self.parents_of(cur) {
            [p] => {
                cur = p;
                Some(p)
            }
            _ => None,
        };
        Some(std::iter::from_fn(parent).take(steps))
    }

    /// The kept region of the point query `P(target ∈ start.labels)`,
    /// by path-ancestor extraction (§6.2): on a forest, walk
    /// [`ArenaInstance::point_ancestors`] up from the target, checking
    /// that each edge carries the label at its depth, and require the
    /// walk to end at `start`. A located target's path is unique on a
    /// forest, so the region equals what
    /// [`ArenaInstance::layers_flat_from`] → [`ArenaInstance::kept_flat`]
    /// builds for it, at O(`labels.len()` × row width) instead of
    /// O(located layers). Governed runs and the error path of
    /// [`ArenaInstance::point_pass`] use it; an unlimited budget on a
    /// forest needs no region at all.
    pub fn kept_point(&self, start: u32, labels: &[Label], target: u32) -> PointRegion {
        let n = labels.len();
        let Some(ancestors) = self.point_ancestors(target, n) else {
            return PointRegion::Layers;
        };
        if target as usize >= self.len() {
            return PointRegion::Absent;
        }
        let mut kept: Vec<Vec<u32>> = vec![Vec::new(); n + 1];
        kept[n].push(target);
        let (mut child, mut d) = (target, n);
        for p in ancestors {
            d -= 1;
            let (s, e) = self.child_range(p);
            let on_path = (s..e).any(|i| {
                self.children[i as usize] == child
                    && self.child_weak[i as usize]
                    && self.child_labels[i as usize] == labels[d]
            });
            if !on_path {
                return PointRegion::Absent;
            }
            kept[d].push(p);
            child = p;
        }
        if d == 0 && child == start {
            PointRegion::Kept(kept)
        } else {
            PointRegion::Absent
        }
    }

    /// `P(target ∈ start.labels)` in one upward pass on a forest, for an
    /// unlimited budget. It walks [`ArenaInstance::point_ancestors`] as
    /// [`ArenaInstance::kept_point`] does, checking each edge's weakness
    /// and label, and folds `ε ← survival_probability(p, &[(pos, ε)])`
    /// on the way up: the call the sweep makes for a one-child kept row,
    /// so ε is bit-equal to `kept_point` → [`ArenaInstance::eps_flat`],
    /// and so are the steps (`labels.len()`) and OPF entries. A walk
    /// that does not end at the root, or a path anchored anywhere else,
    /// is [`OnePass::Zero`]. A missing OPF or non-finite mass on a walk
    /// that does end there is [`OnePass::Region`], and the region route
    /// names the error.
    pub fn point_pass(&self, start: u32, labels: &[Label], target: u32) -> OnePass {
        let n = labels.len();
        let Some(ancestors) = self.point_ancestors(target, n) else {
            return OnePass::Region;
        };
        if start != self.root || target as usize >= self.len() {
            return OnePass::Zero;
        }
        let (mut child, mut d) = (target, n);
        // `None` once an ancestor failed: the walk still decides
        // between an exact 0 and an error.
        let (mut eps, mut opf_entries) = (Some(1.0), 0);
        for p in ancestors {
            d -= 1;
            let (s, e) = self.child_range(p);
            // On a forest `child` is one entry of one row.
            let on_path = (s..e).find(|&i| self.children[i as usize] == child).filter(|&i| {
                self.child_weak[i as usize] && self.child_labels[i as usize] == labels[d]
            });
            let Some(i) = on_path else { return OnePass::Zero };
            if let Some(below) = eps {
                eps = self.survival_probability(p, &[(i - s, below)]).filter(|v| v.is_finite());
                opf_entries += self.stored_len(p);
            }
            child = p;
        }
        match eps {
            _ if d != 0 || child != start => OnePass::Zero,
            Some(eps) => OnePass::Eps { eps, steps: n as u64, opf_entries },
            None => OnePass::Region,
        }
    }

    /// `P(∃ o: o ∈ start.labels)` in one depth-first pass on a forest,
    /// for an unlimited budget. It descends over the weak,
    /// label-matching entries in universe order, drops the children
    /// with no located target below, and evaluates each kept node's
    /// survival over its surviving children as it closes. Those are the
    /// kept region and the per-node calls of `layers_flat_from` →
    /// [`ArenaInstance::kept_flat`] → [`ArenaInstance::eps_flat`], so ε
    /// is bit-equal to theirs, and so are the steps (one per kept node
    /// above the targets) and OPF entries. Nothing located, or a path
    /// anchored off the root, is [`OnePass::Zero`]; a missing OPF or
    /// non-finite mass is [`OnePass::Region`].
    pub fn exists_pass(&self, start: u32, labels: &[Label]) -> OnePass {
        if !self.forest {
            return OnePass::Region;
        }
        if start != self.root {
            return OnePass::Zero;
        }
        let n = labels.len();
        if n == 0 {
            // The root is the located target.
            return OnePass::Eps { eps: 1.0, steps: 0, opf_entries: 0 };
        }
        let (s, e) = self.child_range(start);
        let mut stack = vec![Frame { x: start, pos: 0, row: s, next: s, end: e, base: 0 }];
        // Kept children `(position, ε)` of every open node, each node's
        // from its frame's `base` on.
        let mut kids: Vec<(u32, f64)> = Vec::new();
        let (mut steps, mut opf_entries) = (0, 0);
        while let Some(&Frame { row, next, end, .. }) = stack.last() {
            let d = stack.len() - 1;
            if next < end {
                stack[d].next += 1;
                let i = next as usize;
                if self.child_weak[i] && self.child_labels[i] == labels[d] {
                    let (c, pos) = (self.children[i], next - row);
                    if d + 1 == n {
                        kids.push((pos, 1.0));
                    } else {
                        let (cs, ce) = self.child_range(c);
                        let base = kids.len();
                        stack.push(Frame { x: c, pos, row: cs, next: cs, end: ce, base });
                    }
                }
                continue;
            }
            let Some(f) = stack.pop() else { break };
            if kids.len() == f.base {
                continue; // no located target below: not kept
            }
            let eps = match self.survival_probability(f.x, &kids[f.base..]) {
                Some(v) if v.is_finite() => v,
                _ => return OnePass::Region,
            };
            steps += 1;
            opf_entries += self.stored_len(f.x);
            kids.truncate(f.base);
            if stack.is_empty() {
                return OnePass::Eps { eps, steps, opf_entries };
            }
            kids.push((f.pos, eps));
        }
        OnePass::Zero
    }

    /// Row `x`'s subtree numbers on a forest: `(enter, exit)` of a
    /// pre-order over the weak edges from the root, so row `y` lies in
    /// `x`'s subtree exactly when `enter(x) ≤ enter(y) < exit(x)`.
    /// `None` when the arena is not a forest or no weak root path
    /// reaches `x`.
    pub fn subtree(&self, x: u32) -> Option<(u32, u32)> {
        self.subtree.get(x as usize).copied().filter(|&s| s != UNREACHED)
    }

    /// What an entry-level write that dirtied `dirty` can have changed
    /// in cached point and exists answers ([`DirtyScope`]): each dirty
    /// object's subtree numbers and root label path, walked once. `None`
    /// when the arena is not a forest. Dirty objects no weak root path
    /// reaches are left out: no root-anchored path locates them or
    /// anything below them.
    pub fn dirty_scope(&self, dirty: &[ObjectId]) -> Option<DirtyScope<'_>> {
        if !self.forest {
            return None;
        }
        let mut scope = DirtyScope {
            subtree: &self.subtree,
            root: self.root,
            spans: Vec::with_capacity(dirty.len()),
            path_labels: Vec::new(),
            path_ends: Vec::with_capacity(dirty.len()),
        };
        for &o in dirty {
            let Some(span) = self.subtree(o.raw()) else { continue };
            scope.spans.push(span);
            let from = scope.path_labels.len();
            let mut cur = o.raw();
            while cur != self.root {
                let parent = match *self.parents_of(cur) {
                    [p] => {
                        let (s, e) = self.child_range(p);
                        (s..e).find(|&i| self.children[i as usize] == cur).map(|i| (p, i))
                    }
                    _ => None,
                };
                let Some((p, i)) = parent else {
                    // A reached row without a reverse-CSR row (a
                    // dangling child): the empty path, stale for every
                    // root-anchored path.
                    scope.path_labels.truncate(from);
                    break;
                };
                scope.path_labels.push(self.child_labels[i as usize]);
                cur = p;
            }
            scope.path_labels[from..].reverse();
            scope.path_ends.push(scope.path_labels.len());
        }
        Some(scope)
    }

    /// The kept region for `targets` with the Section 6 tree-shape
    /// checks (unique role, unique kept parent), mirroring the legacy
    /// kept-region construction over raw ids. Layers must come
    /// from [`ArenaInstance::layers_flat_from`] for the same labels. A
    /// violation reports the object the legacy check reports (see
    /// [`ArenaInstance::tree_shape_error`]).
    pub fn kept_flat(
        &self,
        labels: &[Label],
        layers: &[Vec<u32>],
        targets: &[u32],
    ) -> Result<Vec<Vec<u32>>> {
        let n = labels.len();
        let mut kept: Vec<Vec<u32>> = vec![Vec::new(); n + 1];
        let mut t: Vec<u32> = targets.to_vec();
        t.sort_unstable();
        t.dedup();
        kept[n] = t;
        // Forest fast path: every object has at most one parent, so the
        // §6 tree-shape violations (duplicate role, duplicate kept
        // parent) cannot occur — the backward sweep filters each sorted
        // layer against the sorted layer below and nothing else.
        if self.forest {
            for d in (0..n).rev() {
                let (head, tail) = kept.split_at_mut(d + 1);
                let next = &tail[0];
                head[d] = layers[d]
                    .iter()
                    .copied()
                    .filter(|&x| {
                        let (s, e) = self.child_range(x);
                        (s..e).any(|i| {
                            self.child_weak[i as usize]
                                && self.child_labels[i as usize] == labels[d]
                                && next.binary_search(&self.children[i as usize]).is_ok()
                        })
                    })
                    .collect();
            }
            return Ok(kept);
        }
        let total = self.len();
        // General (DAG) path: one dense depth mark per object replaces
        // both the per-layer membership binary searches and the role
        // hash map — an object's mark is the kept depth it was admitted
        // at (`u32::MAX` = not kept), so membership tests are O(1) loads
        // and a second admission at a different depth is exactly the
        // unique-role violation.
        let mut depth_mark = vec![u32::MAX; total];
        for &x in &kept[n] {
            depth_mark[x as usize] = n as u32;
        }
        for d in (0..n).rev() {
            let below = d as u32 + 1;
            let mut layer: Vec<u32> = Vec::new();
            // `layers[d]` is sorted, so the filtered layer stays sorted.
            for &x in &layers[d] {
                let (s, e) = self.child_range(x);
                let keeps = (s..e).any(|i| {
                    self.child_weak[i as usize]
                        && self.child_labels[i as usize] == labels[d]
                        && depth_mark[self.children[i as usize] as usize] == below
                });
                if keeps {
                    if depth_mark[x as usize] != u32::MAX {
                        return Err(self.tree_shape_error(labels, layers, &kept[n]));
                    }
                    depth_mark[x as usize] = d as u32;
                    layer.push(x);
                }
            }
            kept[d] = layer;
        }
        // Tree-shape: unique kept parent (over the *unfiltered*
        // label-matched entries, as in the legacy check), via stamped
        // dense arrays instead of a per-depth hash map.
        let mut parent_stamp = vec![u32::MAX; total];
        let mut parent_val = vec![0u32; total];
        for d in 0..n {
            for &x in &kept[d] {
                let (s, e) = self.child_range(x);
                for i in s..e {
                    if self.child_labels[i as usize] == labels[d] {
                        let c = self.children[i as usize] as usize;
                        if depth_mark[c] == d as u32 + 1 {
                            if parent_stamp[c] == d as u32 && parent_val[c] != x {
                                return Err(self.tree_shape_error(labels, layers, &kept[n]));
                            }
                            parent_stamp[c] = d as u32;
                            parent_val[c] = x;
                        }
                    }
                }
            }
        }
        Ok(kept)
    }

    /// The tree-shape violation the legacy kept-region check reports.
    /// That check builds every kept layer independently, then tests
    /// unique roles and unique kept parents in ascending [`ObjectId`]
    /// order, so the object it names can differ from the first
    /// violation the bottom-up sweep of [`ArenaInstance::kept_flat`]
    /// meets. Error path only: the caller has already found a
    /// violation, and the legacy check finds one exactly when it does.
    #[cold]
    fn tree_shape_error(
        &self,
        labels: &[Label],
        layers: &[Vec<u32>],
        targets: &[u32],
    ) -> CoreError {
        let n = labels.len();
        let mut kept: Vec<Vec<u32>> = vec![Vec::new(); n + 1];
        kept[n] = targets.to_vec();
        for d in (0..n).rev() {
            let layer = layers[d]
                .iter()
                .copied()
                .filter(|&x| {
                    let (s, e) = self.child_range(x);
                    (s..e).any(|i| {
                        self.child_weak[i as usize]
                            && self.child_labels[i as usize] == labels[d]
                            && kept[d + 1].binary_search(&self.children[i as usize]).is_ok()
                    })
                })
                .collect();
            kept[d] = layer;
        }
        // Every layer is sorted by id, the legacy check's order.
        let mut seen = vec![false; self.len()];
        for layer in &kept {
            for &x in layer {
                if std::mem::replace(&mut seen[x as usize], true) {
                    return CoreError::NotTreeShaped(ObjectId::from_raw(x));
                }
            }
        }
        for d in 0..n {
            let mut parent_of: HashMap<u32, u32> = HashMap::new();
            for &x in &kept[d] {
                let (s, e) = self.child_range(x);
                for i in s..e {
                    let c = self.children[i as usize];
                    if self.child_labels[i as usize] == labels[d]
                        && kept[d + 1].binary_search(&c).is_ok()
                        && parent_of.insert(c, x).is_some_and(|prev| prev != x)
                    {
                        return CoreError::NotTreeShaped(ObjectId::from_raw(c));
                    }
                }
            }
        }
        unreachable!("tree_shape_error called on a tree-shaped kept region")
    }

    /// Budgeted bottom-up §6.1 ε marginalisation over a verified kept
    /// region. Returns the root ε as `lo == hi` when every node was
    /// evaluated, and a guaranteed bracket `[lo, hi]` when
    /// [`DegradePolicy::Interval`] left some subtrees unevaluated.
    ///
    /// The budget is charged one step per kept node above the targets,
    /// in depth-first pre-order (universe order within a row), the order
    /// the sequential top-down ε recursion charges in, so both spend the
    /// same steps: a pre-order grant pass charges each node, checks its
    /// OPF slot, and descends only below a granted node. A refused charge is the typed
    /// [`CoreError::Exhausted`] under [`DegradePolicy::Error`]; under
    /// [`DegradePolicy::Interval`] it gives that node's whole subtree the
    /// trivial bracket `[0, 1]`. The sweep then evaluates the granted
    /// nodes bottom-up, each node's kept children gathered in universe
    /// order and its survival arithmetic replicating
    /// [`Opf::survival_probability`] op-for-op, so exact values equal
    /// the recursion's to the last bit. `Opf` survival is monotone in
    /// every child's ε, so a node with an inexact child is evaluated
    /// twice, over the children's lower and then upper bounds.
    ///
    /// Errors are the depth-first walk's first event: a refused charge
    /// or missing OPF where the walk meets the node, non-finite mass
    /// once its subtree is done. An unlimited budget cannot refuse, so
    /// the grant pass is skipped and the steps are charged in one call
    /// (one deadline poll instead of one per 64 steps).
    pub fn eps_flat(
        &self,
        labels: &[Label],
        kept: &[Vec<u32>],
        budget: &Budget,
        degrade: DegradePolicy,
    ) -> Result<EpsBounds> {
        if kept[0].binary_search(&self.root).is_err() {
            return Ok(EpsBounds { lo: 0.0, hi: 0.0, opf_entries: 0 });
        }
        if budget.is_unlimited() {
            if let Ok(bounds) = self.sweep(labels, kept, None) {
                let steps = kept[..labels.len()].iter().map(|l| l.len() as u64).sum();
                budget.charge(steps)?;
                return Ok(bounds);
            }
            // Error path: charge exactly the steps the walk spends
            // before it stops.
        }
        self.sweep(labels, kept, Some(&self.grant(labels, kept, budget, degrade)))
    }

    /// The pre-order grant pass of [`ArenaInstance::eps_flat`]: charges
    /// the budget once per node the top-down walk would visit, in its
    /// order, and stops at the walk's first pre-order error.
    fn grant(
        &self,
        labels: &[Label],
        kept: &[Vec<u32>],
        budget: &Budget,
        degrade: DegradePolicy,
    ) -> Grants {
        let n = labels.len();
        let mut state: Vec<Vec<Grant>> =
            kept[..n].iter().map(|l| vec![Grant::Unvisited; l.len()]).collect();
        // With no labels the root is a target: nothing is charged.
        let mut stack = Vec::new();
        if n > 0 {
            stack.push((0, kept[0].binary_search(&self.root).expect("root membership checked")));
        }
        while let Some((d, k)) = stack.pop() {
            // A repeated universe entry (unchecked instances only)
            // reaches a granted node again; it is not charged twice.
            if state[d][k] == Grant::Granted {
                continue;
            }
            if let Err(ex) = budget.charge(1) {
                if degrade == DegradePolicy::Interval {
                    state[d][k] = Grant::Refused;
                    continue;
                }
                state[d][k] = Grant::Stopped;
                return Grants { state, stop: Some(CoreError::Exhausted(ex)) };
            }
            let x = kept[d][k];
            if !self.has_opf(x) {
                state[d][k] = Grant::Stopped;
                let missing = CoreError::UnknownObject(ObjectId::from_raw(x));
                return Grants { state, stop: Some(missing) };
            }
            state[d][k] = Grant::Granted;
            if d + 1 < n {
                let (s, e) = self.child_range(x);
                // Pushed in reverse so the stack pops them in universe order.
                for i in (s..e).rev() {
                    if self.child_labels[i as usize] == labels[d] {
                        if let Ok(p) = kept[d + 1].binary_search(&self.children[i as usize]) {
                            stack.push((d + 1, p));
                        }
                    }
                }
            }
        }
        Grants { state, stop: None }
    }

    /// The bottom-up half of [`ArenaInstance::eps_flat`]. Without
    /// `grants` every node is evaluated; with them, only granted nodes
    /// are, refused ones are `[0, 1]`, and the stop node carries the
    /// grant pass's error.
    fn sweep(&self, labels: &[Label], kept: &[Vec<u32>], grants: Option<&Grants>) -> Result<EpsBounds> {
        let n = labels.len();
        // ε lives in per-layer vectors aligned to the sorted kept
        // layers (membership and lookup are one binary search into the
        // cache-resident layer below), so the sweep allocates O(kept),
        // not O(arena). A valid kept region has disjoint layers, which
        // makes this membership test equivalent to a depth check. The
        // lower bound (the value, for exact nodes) is dense; upper
        // bounds exist only below refused nodes, so they are kept as
        // sparse `(layer position, hi)` rows.
        let mut below_lo: Vec<f64> = vec![1.0; kept[n].len()];
        let mut below_hi: Vec<(usize, f64)> = Vec::new();
        let mut lo_children: Vec<(u32, f64)> = Vec::new();
        let mut hi_children: Vec<(u32, f64)> = Vec::new();
        // Failed nodes carry ε = NaN (no successful ε is NaN) and their
        // error here, so an ancestor can pass the error on.
        let mut failed: Vec<(u32, CoreError)> = Vec::new();
        let mut opf_entries = 0;
        for d in (0..n).rev() {
            let want = labels[d];
            let below = &kept[d + 1];
            let mut layer_lo: Vec<f64> = Vec::with_capacity(kept[d].len());
            let mut layer_hi: Vec<(usize, f64)> = Vec::new();
            for (k, &x) in kept[d].iter().enumerate() {
                match grants.map_or(Grant::Granted, |g| g.state[d][k]) {
                    Grant::Granted => {}
                    Grant::Refused => {
                        layer_lo.push(0.0);
                        layer_hi.push((k, 1.0));
                        continue;
                    }
                    Grant::Stopped => {
                        if let Some(e) = grants.and_then(|g| g.stop.clone()) {
                            failed.push((x, e));
                        }
                        layer_lo.push(f64::NAN);
                        continue;
                    }
                    Grant::Unvisited => {
                        // Past the stop: no ancestor reads it before an
                        // earlier sibling's failure.
                        layer_lo.push(f64::NAN);
                        continue;
                    }
                }
                let (s, e) = self.child_range(x);
                lo_children.clear();
                hi_children.clear();
                let mut exact = true;
                for i in s..e {
                    if self.child_labels[i as usize] == want {
                        if let Ok(p) = below.binary_search(&self.children[i as usize]) {
                            lo_children.push((i - s, below_lo[p]));
                            if !below_hi.is_empty() {
                                let hi = match below_hi.binary_search_by_key(&p, |h| h.0) {
                                    Ok(j) => {
                                        exact = false;
                                        below_hi[j].1
                                    }
                                    Err(_) => below_lo[p],
                                };
                                hi_children.push((i - s, hi));
                            }
                        }
                    }
                }
                let child_error = if failed.is_empty() {
                    None
                } else {
                    lo_children.iter().find(|c| c.1.is_nan()).and_then(|&(pos, _)| {
                        let c = self.children[(s + pos) as usize];
                        failed.iter().find(|f| f.0 == c).map(|f| f.1.clone())
                    })
                };
                let v = match (self.survival_probability(x, &lo_children), child_error) {
                    (None, _) => Err(CoreError::UnknownObject(ObjectId::from_raw(x))),
                    (Some(_), Some(e)) => Err(e),
                    (Some(lo), None) => {
                        opf_entries += self.stored_len(x);
                        let hi = if exact {
                            lo
                        } else {
                            self.survival_probability(x, &hi_children).expect("x has an OPF")
                        };
                        if lo.is_finite() && hi.is_finite() {
                            Ok((lo.min(hi), hi.max(lo)))
                        } else {
                            Err(CoreError::DegenerateMass { total: lo })
                        }
                    }
                };
                match v {
                    Ok((lo, hi)) => {
                        layer_lo.push(lo);
                        if hi != lo {
                            layer_hi.push((k, hi));
                        }
                    }
                    Err(e) => {
                        failed.push((x, e));
                        layer_lo.push(f64::NAN);
                    }
                }
            }
            below_lo = layer_lo;
            below_hi = layer_hi;
        }
        if let Some((_, e)) = failed.into_iter().find(|f| f.0 == self.root) {
            return Err(e);
        }
        let r = kept[0].binary_search(&self.root).expect("root membership checked above");
        let hi = below_hi.iter().find(|h| h.0 == r).map_or(below_lo[r], |h| h.1);
        Ok(EpsBounds { lo: below_lo[r], hi, opf_entries })
    }

    /// `P(∃ o: o ∈ p)` for a root-anchored label path, entirely over
    /// the flat layout: [`ArenaInstance::exists_pass`], or the region
    /// route (located layers → [`ArenaInstance::kept_flat`] →
    /// [`ArenaInstance::eps_flat`]) where that pass proves nothing.
    pub fn exists_flat(&self, labels: &[Label]) -> Result<f64> {
        match self.exists_pass(self.root, labels) {
            OnePass::Zero => return Ok(0.0),
            OnePass::Eps { eps, .. } => return Ok(eps),
            OnePass::Region => {}
        }
        let layers = self.layers_flat(labels);
        let located = layers.last().cloned().unwrap_or_default();
        if located.is_empty() {
            return Ok(0.0);
        }
        let kept = self.kept_flat(labels, &layers, &located)?;
        Ok(self.eps_flat(labels, &kept, &Budget::unlimited(), DegradePolicy::Error)?.lo)
    }

    /// `P(target ∈ p)` for a root-anchored label path, entirely over
    /// the flat layout: [`ArenaInstance::point_pass`], or where that pass
    /// proves nothing the region route: the kept region from
    /// [`ArenaInstance::kept_point`], or from the located layers where
    /// the ancestor walk proves nothing either, then
    /// [`ArenaInstance::eps_flat`].
    pub fn point_flat(&self, labels: &[Label], target: ObjectId) -> Result<f64> {
        let t = target.raw();
        match self.point_pass(self.root, labels, t) {
            OnePass::Zero => return Ok(0.0),
            OnePass::Eps { eps, .. } => return Ok(eps),
            OnePass::Region => {}
        }
        let kept = match self.kept_point(self.root, labels, t) {
            PointRegion::Kept(kept) => kept,
            PointRegion::Absent => return Ok(0.0),
            PointRegion::Layers => {
                let layers = self.layers_flat(labels);
                if layers[labels.len()].binary_search(&t).is_err() {
                    return Ok(0.0);
                }
                self.kept_flat(labels, &layers, &[t])?
            }
        };
        Ok(self.eps_flat(labels, &kept, &Budget::unlimited(), DegradePolicy::Error)?.lo)
    }

    /// Layout-invariant check (debug-asserted after every lowering and
    /// exercised by the fuzz harness): CSR offsets monotone and closed,
    /// child arrays in-bounds and mutually parallel, every reverse-CSR
    /// parent a weak parent of its row, and OPF slot ranges in-bounds.
    pub fn debug_validate(&self) -> std::result::Result<(), String> {
        let total = self.len();
        if self.child_offsets.len() != total + 1 {
            return Err(format!(
                "offsets length {} != objects + 1 ({})",
                self.child_offsets.len(),
                total + 1
            ));
        }
        if self.root as usize >= total {
            return Err(format!("root index {} out of bounds", self.root));
        }
        for w in self.child_offsets.windows(2) {
            if w[0] > w[1] {
                return Err(format!("offsets not monotone at {w:?}"));
            }
        }
        let packed = self.children.len();
        if self.child_offsets.last().copied().unwrap_or(0) as usize != packed {
            return Err("offsets do not close over the packed child array".into());
        }
        if self.child_labels.len() != packed || self.child_weak.len() != packed {
            return Err("child arrays are not parallel".into());
        }
        for &c in &self.children {
            if c as usize >= total {
                return Err(format!("child index {c} out of bounds"));
            }
        }
        if self.parent_offsets.len() != total + 1
            || self.parent_offsets.windows(2).any(|w| w[0] > w[1])
            || self.parent_offsets.last().copied().unwrap_or(0) as usize != self.parents.len()
        {
            return Err("parent CSR offsets malformed".into());
        }
        for x in 0..total as u32 {
            let ps = self.parents_of(x);
            if ps.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("parents of {x} not strictly ascending"));
            }
            for &p in ps {
                let weak_edge = (p as usize) < total && {
                    let (s, e) = self.child_range(p);
                    (s..e).any(|i| self.children[i as usize] == x && self.child_weak[i as usize])
                };
                if !weak_edge {
                    return Err(format!("parent {p} of {x} has no weak edge into it"));
                }
            }
        }
        if self.subtree.len() != if self.forest { total } else { 0 } {
            return Err(format!("subtree numbers length {} on {total} rows", self.subtree.len()));
        }
        if self.member.len() != total {
            return Err(format!("member flags length {} != objects ({total})", self.member.len()));
        }
        if self.table_masks.len() != self.table_probs.len() {
            return Err("table slabs are not parallel".into());
        }
        for (i, slot) in self.slots.iter().enumerate() {
            match slot {
                OpfSlot::Missing => {}
                OpfSlot::Independent { start, len } => {
                    if (*start as usize) + (*len as usize) > self.indep.len() {
                        return Err(format!("independent slab range of object {i} out of bounds"));
                    }
                }
                OpfSlot::Table { start, end } => {
                    if start > end || *end as usize > self.table_masks.len() {
                        return Err(format!("table slab range of object {i} out of bounds"));
                    }
                }
                OpfSlot::Fallback(f) => {
                    if *f as usize >= self.fallback.len() {
                        return Err(format!("fallback index of object {i} out of bounds"));
                    }
                }
            }
        }
        let live: usize = self.slots.iter().map(|s| s.slab_entries()).sum();
        if live + self.garbage != self.indep.len() + self.table_masks.len() + self.fallback.len() {
            return Err("slab garbage count disagrees with the live slots".into());
        }
        Ok(())
    }
}

/// True when `t` lowers into the table slab (masks over a ≤64 universe).
fn slab_table(t: &OpfTable, fits_mask: bool) -> bool {
    fits_mask && t.iter().all(|(s, _)| matches!(s, ChildSet::Mask(_)))
}

/// True when `opf` lowers into a slab rather than a fallback clone.
fn slab_expressible(opf: &Opf, fits_mask: bool) -> bool {
    match opf {
        Opf::Independent(_) => true,
        Opf::Table(t) => slab_table(t, fits_mask),
        Opf::LabelProduct(_) => false,
    }
}

/// The weak parent map as a reverse CSR `(offsets, parents)`: each
/// member's distinct weak parents, ascending. Children without a weak
/// node get no parents, matching [`crate::weak::WeakInstance::parents`].
fn reverse_weak_csr(
    child_offsets: &[u32],
    children: &[u32],
    child_weak: &[bool],
    member: &[bool],
) -> (Vec<u32>, Vec<u32>) {
    let total = child_offsets.len() - 1;
    // `last[c]` is the last parent recorded for `c`; rows are visited in
    // ascending order, so it dedups a parent reaching `c` twice.
    let mut last = vec![u32::MAX; total];
    let mut offsets = vec![0u32; total + 1];
    let mut each_edge = |f: &mut dyn FnMut(u32, u32)| {
        last.fill(u32::MAX);
        for x in 0..total as u32 {
            let (s, e) = (child_offsets[x as usize], child_offsets[x as usize + 1]);
            for i in s as usize..e as usize {
                let c = children[i];
                if child_weak[i] && member[c as usize] && last[c as usize] != x {
                    last[c as usize] = x;
                    f(x, c);
                }
            }
        }
    };
    each_edge(&mut |_, c| offsets[c as usize + 1] += 1);
    for i in 0..total {
        offsets[i + 1] += offsets[i];
    }
    let mut fill = offsets[..total].to_vec();
    let mut parents = vec![0u32; offsets[total] as usize];
    each_edge(&mut |x, c| {
        parents[fill[c as usize] as usize] = x;
        fill[c as usize] += 1;
    });
    (offsets, parents)
}

/// Pre-order subtree numbers over the weak edges from `root`, in
/// universe order, on a forest (each row is entered at most once): row
/// `x` gets `(enter, exit)`, and the rows of its subtree are exactly
/// those numbered `enter..exit`. Rows no weak root path reaches keep
/// [`UNREACHED`].
fn subtree_numbers(
    root: u32,
    child_offsets: &[u32],
    children: &[u32],
    child_weak: &[bool],
) -> Vec<(u32, u32)> {
    let mut numbers = vec![UNREACHED; child_offsets.len() - 1];
    numbers[root as usize].0 = 0;
    let mut next = 1;
    // (row, next packed entry of its row to visit)
    let mut stack = vec![(root, child_offsets[root as usize])];
    while let Some(top) = stack.last_mut() {
        let (x, i) = *top;
        if i == child_offsets[x as usize + 1] {
            numbers[x as usize].1 = next;
            stack.pop();
            continue;
        }
        top.1 += 1;
        if child_weak[i as usize] {
            let c = children[i as usize];
            numbers[c as usize].0 = next;
            next += 1;
            stack.push((c, child_offsets[c as usize]));
        }
    }
    numbers
}

/// Lowers one OPF into the slabs, falling back to a clone when the
/// representation cannot be expressed as masks over a ≤64 universe.
fn lower_opf(
    opf: Option<&Opf>,
    fits_mask: bool,
    indep: &mut Vec<f64>,
    table_masks: &mut Vec<u64>,
    table_probs: &mut Vec<f64>,
    fallback: &mut Vec<Opf>,
) -> OpfSlot {
    match opf {
        None => OpfSlot::Missing,
        Some(Opf::Independent(i)) => {
            let start = indep.len() as u32;
            indep.extend_from_slice(i.probs());
            OpfSlot::Independent { start, len: i.probs().len() as u32 }
        }
        Some(Opf::Table(t)) if slab_table(t, fits_mask) => {
            let start = table_masks.len() as u32;
            for (s, p) in t.iter() {
                if let ChildSet::Mask(m) = s {
                    table_masks.push(*m);
                    table_probs.push(p);
                }
            }
            OpfSlot::Table { start, end: table_masks.len() as u32 }
        }
        Some(other) => {
            fallback.push(other.clone());
            OpfSlot::Fallback((fallback.len() - 1) as u32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{chain, fig2_instance};

    #[test]
    fn row_x_is_object_x() {
        let pi = fig2_instance();
        let a = ArenaInstance::lower(&pi).expect("valid instance lowers");
        assert_eq!(a.len(), pi.weak().catalog().object_count());
        assert_eq!(a.root_index(), pi.root().raw());
        for o in pi.weak().objects() {
            let (s, e) = a.child_range(o.raw());
            let row: Vec<(ObjectId, Label)> =
                (s..e).map(|i| (ObjectId::from_raw(a.child(i)), a.child_label(i))).collect();
            let universe: Vec<(ObjectId, Label)> =
                pi.weak().node(o).unwrap().universe().iter().map(|(_, c, l)| (c, l)).collect();
            assert_eq!(row, universe, "row of {o:?}");
            assert_eq!(a.has_opf(o.raw()), pi.opf(o).is_some(), "OPF of {o:?}");
        }
        assert_eq!(a.debug_validate(), Ok(()));
    }

    #[test]
    fn chain_exists_flat_is_link_product() {
        for (n, q) in [(2usize, 0.3f64), (3, 0.5), (4, 0.9)] {
            let pi = chain(n, q);
            let a = ArenaInstance::lower(&pi).unwrap();
            let labels = vec![pi.lid("next").unwrap(); n];
            let got = a.exists_flat(&labels).unwrap();
            assert!((got - q.powi(n as i32)).abs() < 1e-12, "n={n} q={q}: {got}");
        }
    }

    #[test]
    fn fig2_point_flat_matches_paper_value() {
        // T2 through R.book.title is 0.8 (see the legacy point tests).
        let pi = fig2_instance();
        let a = ArenaInstance::lower(&pi).unwrap();
        let labels = vec![pi.lid("book").unwrap(), pi.lid("title").unwrap()];
        let t2 = pi.oid("T2").unwrap();
        let got = a.point_flat(&labels, t2).unwrap();
        assert!((got - 0.8).abs() < 1e-9, "got {got}");
    }

    #[test]
    fn fig2_shared_object_is_rejected_as_non_tree() {
        let pi = fig2_instance();
        let a = ArenaInstance::lower(&pi).unwrap();
        let labels = vec![pi.lid("book").unwrap(), pi.lid("author").unwrap()];
        let a1 = pi.oid("A1").unwrap();
        assert!(matches!(a.point_flat(&labels, a1), Err(CoreError::NotTreeShaped(_))));
    }

    #[test]
    fn point_flat_of_foreign_target_is_zero() {
        let pi = chain(2, 0.5);
        let a = ArenaInstance::lower(&pi).unwrap();
        let labels = vec![pi.lid("next").unwrap()];
        assert_eq!(a.point_flat(&labels, ObjectId::from_raw(9999)).unwrap(), 0.0);
    }

    /// An unchecked instance whose root universe is given verbatim —
    /// the shapes `ProbInstanceBuilder` refuses but hostile loaders can
    /// still hand the arena.
    fn hostile(rows: &[(&str, &str)], declare_children: bool) -> (ProbInstance, Vec<ObjectId>) {
        use std::sync::Arc;

        use crate::catalog::Catalog;
        use crate::childset::ChildUniverse;
        use crate::ids::{IdMap, ObjectKind};
        use crate::weak::{WeakInstance, WeakNode};

        let mut cat = Catalog::new();
        let r = cat.object("r");
        let mut universe = ChildUniverse::default();
        let mut ids = vec![r];
        let mut nodes: IdMap<ObjectKind, WeakNode> = IdMap::new();
        for &(child, label) in rows {
            let c = cat.object(child);
            let l = cat.label(label);
            universe.push(c, l);
            ids.push(c);
            if declare_children {
                nodes.insert(c, WeakNode::default());
            }
        }
        nodes.insert(r, WeakNode::from_parts(universe, Vec::new(), None));
        let w = WeakInstance::from_parts_unchecked(Arc::new(cat), r, nodes);
        (ProbInstance::from_parts_unchecked(w, IdMap::new(), IdMap::new()), ids)
    }

    #[test]
    fn duplicate_child_is_rejected_by_checked_lowering() {
        let (pi, _) = hostile(&[("c", "x"), ("c", "x")], true);
        assert!(matches!(
            ArenaInstance::lower(&pi),
            Err(CoreError::DuplicateChild { .. })
        ));
        // Unchecked lowering still succeeds with a valid layout.
        let a = ArenaInstance::lower_unchecked(&pi);
        assert_eq!(a.debug_validate(), Ok(()));
    }

    #[test]
    fn ambiguous_child_label_is_rejected_by_checked_lowering() {
        let (pi, _) = hostile(&[("c", "x"), ("c", "y")], true);
        assert!(matches!(
            ArenaInstance::lower(&pi),
            Err(CoreError::AmbiguousChildLabel { .. })
        ));
    }

    /// Slot-for-slot equality of the lowered OPFs, `to_bits`-exact.
    fn assert_same_opfs(a: &ArenaInstance, b: &ArenaInstance) {
        assert_eq!(a.len(), b.len());
        let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for x in 0..a.len() as u32 {
            match (a.opf_view(x), b.opf_view(x)) {
                (OpfView::Independent(p), OpfView::Independent(q)) => assert_eq!(bits(p), bits(q)),
                (OpfView::Table { masks: m, probs: p }, OpfView::Table { masks: n, probs: q }) => {
                    assert_eq!(m, n);
                    assert_eq!(bits(p), bits(q));
                }
                (v, w) => assert_eq!(v, w, "slot {x}"),
            }
        }
    }

    /// Replaces `o`'s OPF table by one grown by a zero-probability entry
    /// (`grow`) or stripped of its zero entries: a change of table length
    /// that leaves every answer alone.
    fn reshape(pi: &mut ProbInstance, o: ObjectId, grow: bool) -> Vec<ObjectId> {
        use crate::mutate::Mutation;
        let node = pi.weak().node(o).unwrap();
        let mut t = pi.opf(o).unwrap().to_table(node.universe());
        if grow {
            let n = node.universe().len() as u32;
            let unused = (0u64..1 << n)
                .map(ChildSet::Mask)
                .find(|s| t.iter().all(|(e, _)| e != s))
                .expect("fig2 tables leave a child set unused");
            t.set(unused, 0.0);
        } else {
            t.retain_positive();
        }
        pi.apply(&Mutation::ReplaceOpf { object: o, opf: Opf::Table(t) }).unwrap().dirty
    }

    #[test]
    fn same_shape_patch_overwrites_in_place() {
        use crate::mutate::Mutation;
        let mut pi = fig2_instance();
        let mut a = ArenaInstance::lower(&pi).unwrap();
        let (r, b1) = (pi.root(), pi.oid("B1").unwrap());
        let lens = a.slab_lens();
        let effect = pi.apply(&Mutation::SetEdgeProb { parent: r, child: b1, prob: 0.25 }).unwrap();
        a.patch_opfs(&pi, &effect.dirty);
        assert_eq!(a.slab_lens(), lens);
        assert_eq!(a.garbage(), 0);
        assert_same_opfs(&a, &ArenaInstance::lower(&pi).unwrap());
    }

    #[test]
    fn reshaped_slots_append_then_compact_to_a_fresh_layout() {
        let mut pi = fig2_instance();
        let mut a = ArenaInstance::lower(&pi).unwrap();
        let r = pi.root();
        let labels = vec![pi.lid("book").unwrap(), pi.lid("title").unwrap()];
        let t2 = pi.oid("T2").unwrap();
        let mut compactions = 0;
        for step in 0..12 {
            let dirty = reshape(&mut pi, r, step % 2 == 0);
            a.patch_opfs(&pi, &dirty);
            let fresh = ArenaInstance::lower(&pi).unwrap();
            assert_same_opfs(&a, &fresh);
            let (i, t, f) = a.slab_lens();
            assert!(a.garbage() <= i + t + f - a.garbage(), "garbage outgrew the live slabs");
            if a.garbage() == 0 {
                // Every step moved R's slot, so no garbage means compacted.
                compactions += 1;
                assert_eq!(a.slab_lens(), fresh.slab_lens());
            }
            assert_eq!(
                a.point_flat(&labels, t2).unwrap().to_bits(),
                fresh.point_flat(&labels, t2).unwrap().to_bits()
            );
        }
        assert!(compactions > 0, "twelve reshapes must compact at least once");
    }

    #[test]
    fn parents_of_is_the_weak_parent_map() {
        let pi = fig2_instance();
        let a = ArenaInstance::lower(&pi).unwrap();
        let parents = pi.weak().parents();
        for o in pi.weak().objects() {
            let mut want: Vec<u32> = parents.get(o).unwrap().iter().map(|p| p.raw()).collect();
            want.sort_unstable();
            assert_eq!(a.parents_of(o.raw()), &want[..], "parents of {o:?}");
        }
    }

    #[test]
    fn label_paths_enumerate_the_dataguide() {
        let pi = fig2_instance();
        let a = ArenaInstance::lower(&pi).unwrap();
        let [book, title, author, institution] =
            ["book", "title", "author", "institution"].map(|l| pi.lid(l).unwrap());
        assert_eq!(a.label_paths(3, 64), vec![
            vec![book],
            vec![book, title],
            vec![book, author],
            vec![book, author, institution],
        ]);
        assert_eq!(a.label_paths(3, 2), vec![vec![book], vec![book, title]]);
        assert!(a.label_paths(0, 64).is_empty());
    }

    #[test]
    fn child_position_checks_bounds_and_membership() {
        let mut pi = fig2_instance();
        let a = ArenaInstance::lower(&pi).unwrap();
        let (r, b2, a3) = (pi.root().raw(), pi.oid("B2").unwrap(), pi.oid("A3").unwrap());
        let universe = pi.weak().node(b2).unwrap().universe();
        assert_eq!(a.child_position(b2.raw(), a3.raw()), universe.position(a3));
        assert_eq!(a.child_position(r, a3.raw()), None);
        let len = a.len() as u32;
        assert!(!a.is_member(len));
        assert_eq!(a.child_position(len, a3.raw()), None);
        assert_eq!(a.child_position(r, len + 7), None);
        // A deleted object keeps an empty, non-member row.
        let i1 = pi.oid("I1").unwrap();
        pi.apply(&crate::mutate::Mutation::DeleteObject { object: i1 }).unwrap();
        let a = ArenaInstance::lower(&pi).unwrap();
        assert!(i1.raw() < len && !a.is_member(i1.raw()));
        assert_eq!(a.child_position(i1.raw(), a3.raw()), None);
    }

    /// Row `x` has an empty CSR row, no OPF and no parents.
    fn assert_empty_row(a: &ArenaInstance, x: u32) {
        let (s, e) = a.child_range(x);
        assert_eq!(s, e, "row {x} has children");
        assert!(!a.has_opf(x), "row {x} has an OPF");
        assert!(a.parents_of(x).is_empty(), "row {x} has parents");
    }

    #[test]
    fn phantom_children_get_indices_without_nodes() {
        // `ghost` appears in the universe but not in the vertex set.
        let (pi, ids) = hostile(&[("ghost", "x")], false);
        let a = ArenaInstance::lower_unchecked(&pi);
        assert_eq!(a.len(), 2);
        let (ghost, x) = (ids[1], pi.lid("x").unwrap());
        assert_empty_row(&a, ghost.raw());
        // Nothing is reachable through the dangling child.
        assert_eq!(a.point_flat(&[x, x], ghost).unwrap(), 0.0);
        assert_eq!(a.debug_validate(), Ok(()));

        // A deleted object keeps its row, empty, after re-lowering.
        use crate::mutate::Mutation;
        let mut pi = fig2_instance();
        let i1 = pi.oid("I1").unwrap();
        let len = ArenaInstance::lower(&pi).unwrap().len();
        pi.apply(&Mutation::DeleteObject { object: i1 }).unwrap();
        let a = ArenaInstance::lower(&pi).unwrap();
        assert!(i1.index() < len - 1, "I1 is not the largest id");
        assert_eq!(a.len(), len);
        assert_empty_row(&a, i1.raw());
        let labels: Vec<Label> =
            ["book", "author", "institution"].iter().map(|l| pi.lid(l).unwrap()).collect();
        assert_eq!(a.point_flat(&labels, i1).unwrap(), 0.0);
        assert_eq!(a.debug_validate(), Ok(()));
    }
}
