//! The shared marginalisation cache behind [`crate::engine::QueryEngine`].
//!
//! Three memo tables, each guarded by its own [`parking_lot::RwLock`] so
//! concurrent workers contend only on the table they touch:
//!
//! * **results** — whole-query memo: `Query → Result<f64>`. Duplicate
//!   queries in a batch (common in generated workloads, where distinct
//!   path expressions are few) cost one lookup.
//! * **layers** — the forward locate pass, keyed by `(root, full label
//!   path)` and holding sorted raw object ids, the row numbers of the
//!   engine's [`pxml_core::ArenaInstance`]. Point and exists queries
//!   over the same path share one traversal on a non-forest arena, and
//!   so do governed runs. On a forest an ungoverned point or exists
//!   query evaluates in one pass over the arena and never reads or
//!   writes this table (except to name an error). An entry doubles as
//!   the witness that dirty-set invalidation tests the path's results
//!   against, but only after a structural write or on a non-forest
//!   arena: an entry-level write on a forest tests results against its
//!   dirty objects' subtree numbers and root label paths instead.
//! * **links** — per-OPF child marginals `(parent raw id, universe
//!   position) → P(child present)` used by chain queries.
//!
//! There is no ε memo: a point/exists miss re-runs the flat §6.1 sweep
//! over its kept region. Measured on the 10⁵-object cold-read pool, a
//! shared `(object, path suffix, target)` ε table hit 15–24 times in
//! ~470k lookups, and its inserts forced whole-table evictions under
//! the byte ceiling.
//!
//! The link memo saves only a sum of at most 2^b OPF entries per link.
//! Reading `marginal_present` per link instead moved no e2ebench median
//! beyond its bound, but `mixed_rw_1e4` p50/p98 rose 5–12% (cause not
//! found), and on `cold_reads_1e5` the freed ceiling lifted the result
//! hit ratio from 0.04 to 0.13, past that workload's cold-read premise.
//! So the table stays until the benchmark states that premise apart
//! from the cache's table mix (DESIGN.md, "Cache-key design").

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use pxml_core::{DirtyScope, Label, LabelPath, ObjectId};

use crate::engine::Query;
use crate::error::Result;

/// One memoised entry plus the cost it was admitted at. Storing the
/// cost with the value makes eviction and replacement re-accounting
/// exact by construction: whatever was added on admission is exactly
/// what gets subtracted later, even when a later estimate for the same
/// key would differ.
#[derive(Debug)]
struct Entry<V> {
    value: V,
    cost: u64,
}

/// One memo table plus its approximate heap footprint. The byte counter
/// is only touched under the table's write lock, so it needs no
/// atomicity of its own.
#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<K, Entry<V>>,
    bytes: u64,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Shard { map: HashMap::new(), bytes: 0 }
    }
}

/// Per-depth located layers as sorted raw object ids, shared between
/// queries over the same path.
pub(crate) type Layers = Arc<Vec<Vec<u32>>>;

/// The layers table: `(root, label path) → located layers`.
type LayerTable = Shard<(ObjectId, LabelPath), Layers>;

/// The shared cache. Cheap to clone the handle (`Arc` inside the engine);
/// all tables are independently locked.
///
/// ## Byte accounting and eviction
///
/// Every insert carries an *approximate* cost estimate (entry struct
/// sizes plus variable-length heap parts; hash-table overhead is folded
/// into per-entry constants). When a ceiling is set via
/// [`MarginalCache::set_max_bytes`], admission is governed by a
/// make-room-or-refuse contract:
///
/// 1. An insert that fits (after accounting for any same-key entry it
///    replaces) is admitted without touching anything else.
/// 2. An insert that does not fit, but **would** fit once its target
///    table were emptied, evicts that whole table (epoch-style — the
///    memo tables have no useful recency structure, and dropping a
///    table is correctness-neutral because every entry is a pure
///    function of the instance) and is then admitted.
/// 3. An insert that could not fit even then — its cost alone exceeds
///    the ceiling, or other tables hold the budget — is **refused
///    without evicting anything** and counted in
///    [`MarginalCache::admission_rejections`]. Warm state is never
///    sacrificed for an entry that cannot be admitted anyway.
///
/// Same-key replacement subtracts the displaced entry's admitted cost
/// and adds the new one, so `approx_bytes()` stays equal to the sum of
/// live entry costs even when two estimates for one key differ. Within
/// one thread the accounted total never exceeds the ceiling; concurrent
/// admissions into *different* tables can transiently overshoot by at
/// most one entry each (the check reads the advisory total outside the
/// other tables' locks).
#[derive(Debug, Default)]
pub struct MarginalCache {
    results: RwLock<Shard<Query, Result<f64>>>,
    layers: RwLock<LayerTable>,
    links: RwLock<Shard<(u32, u32), f64>>,
    /// Byte ceiling; 0 = unlimited.
    max_bytes: AtomicU64,
    /// Sum of the three shards' `bytes` (kept in lock-step under the
    /// respective write locks; reads are advisory).
    total_bytes: AtomicU64,
    /// Whole-table evictions performed by the admission path.
    evictions: AtomicU64,
    /// Inserts refused because no eviction could have made room.
    rejections: AtomicU64,
}

/// Flat per-entry cost estimates (key + value + hash-table slot). The
/// variable-length parts (chain object lists, layer vectors) are added
/// on top at the insert sites.
pub(crate) const RESULT_ENTRY_BYTES: u64 = 96;
pub(crate) const LAYERS_ENTRY_BYTES: u64 = 64;
pub(crate) const LINK_ENTRY_BYTES: u64 = 40;

impl MarginalCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the byte ceiling for the accounted footprint (0 disables the
    /// ceiling). Takes effect on subsequent inserts.
    pub fn set_max_bytes(&self, max: u64) {
        self.max_bytes.store(max, Ordering::Relaxed);
    }

    /// The configured byte ceiling (0 = unlimited).
    pub fn max_bytes(&self) -> u64 {
        self.max_bytes.load(Ordering::Relaxed)
    }

    /// The approximate accounted footprint of all three tables.
    pub fn approx_bytes(&self) -> u64 {
        self.total_bytes.load(Ordering::Relaxed)
    }

    /// Whole-table evictions performed so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Inserts refused by admission control because no eviction could
    /// have made room (the entry's cost alone exceeds the ceiling, or
    /// other tables hold the budget).
    pub fn admission_rejections(&self) -> u64 {
        self.rejections.load(Ordering::Relaxed)
    }

    /// Zeroes the eviction and rejection counters (for `reset_stats`).
    pub fn reset_evictions(&self) {
        self.evictions.store(0, Ordering::Relaxed);
        self.rejections.store(0, Ordering::Relaxed);
    }

    /// The accounted footprint recomputed from scratch — the sum of
    /// every live entry's admitted cost across all three tables. Equal to
    /// [`MarginalCache::approx_bytes`] whenever the cache is quiescent;
    /// tests and `audit_cache` use the pair to prove the incremental
    /// accounting never drifts.
    pub fn recomputed_bytes(&self) -> u64 {
        fn sum<K, V>(shard: &RwLock<Shard<K, V>>) -> u64 {
            shard.read().map.values().map(|e| e.cost).sum()
        }
        sum(&self.results) + sum(&self.layers) + sum(&self.links)
    }

    /// Byte-governed insert into one shard, following the documented
    /// make-room-or-refuse contract (see the type docs): admit in place
    /// when it fits, evict the whole shard only when that actually makes
    /// room, refuse — evicting nothing — otherwise. Only this shard's
    /// lock is taken, so concurrent inserts into different tables never
    /// deadlock.
    fn admit<K: Eq + Hash, V>(&self, shard: &RwLock<Shard<K, V>>, key: K, value: V, cost: u64) {
        let max = self.max_bytes.load(Ordering::Relaxed);
        let mut s = shard.write();
        if max > 0 {
            let total = self.total_bytes.load(Ordering::Relaxed);
            let replaced = s.map.get(&key).map_or(0, |e| e.cost);
            // Footprint if the entry were admitted in place, displacing
            // any same-key entry.
            if total.saturating_sub(replaced).saturating_add(cost) > max {
                // Could emptying this whole table make room? If not —
                // the entry's cost alone busts the ceiling, or other
                // tables hold the budget — refuse WITHOUT evicting:
                // wiping warm state for an entry that still cannot be
                // admitted would thrash the cache on every oversized put.
                if total.saturating_sub(s.bytes).saturating_add(cost) > max {
                    self.rejections.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                self.total_bytes.fetch_sub(s.bytes, Ordering::Relaxed);
                s.map.clear();
                s.bytes = 0;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Replacement re-accounts: subtract the displaced entry's
        // admitted cost, add the new one. (Costs for one key can differ
        // across inserts in the value-bearing tables, e.g. a layers
        // entry recomputed after a mutation.)
        let displaced = s.map.insert(key, Entry { value, cost }).map_or(0, |e| e.cost);
        s.bytes = s.bytes.saturating_sub(displaced).saturating_add(cost);
        if cost >= displaced {
            self.total_bytes.fetch_add(cost - displaced, Ordering::Relaxed);
        } else {
            self.total_bytes.fetch_sub(displaced - cost, Ordering::Relaxed);
        }
    }

    /// Whole-query lookup.
    pub fn get_result(&self, q: &Query) -> Option<Result<f64>> {
        self.results.read().map.get(q).map(|e| e.value.clone())
    }

    /// Whole-query insert.
    pub fn put_result(&self, q: Query, r: Result<f64>) {
        let extra = match &q {
            Query::Chain { objects } => objects.len() as u64 * 4,
            Query::Point { path, .. } | Query::Exists { path } => path.labels.len() as u64 * 4,
        };
        self.admit(&self.results, q, r, RESULT_ENTRY_BYTES + extra);
    }

    /// Located-layers lookup for `(root, path labels)`: sorted raw
    /// object ids.
    pub fn get_layers(&self, root: ObjectId, path: &LabelPath) -> Option<Layers> {
        self.layers.read().map.get(&(root, path.clone())).map(|e| Arc::clone(&e.value))
    }

    /// Located-layers insert. Each layer must be sorted ascending (as
    /// `ArenaInstance::layers_flat_from` returns them): invalidation
    /// binary-searches them.
    pub fn put_layers(&self, root: ObjectId, path: LabelPath, layers: Layers) {
        debug_assert!(layers.iter().all(|l| l.is_sorted()), "layers must be sorted");
        let extra: u64 = layers.iter().map(|l| 24 + l.len() as u64 * 4).sum();
        self.admit(&self.layers, (root, path), layers, LAYERS_ENTRY_BYTES + extra);
    }

    /// Chain-link marginal lookup: `P(child at universe position ∈
    /// children(parent))`. `parent` is a raw object id.
    pub fn get_link(&self, parent: u32, pos: u32) -> Option<f64> {
        self.links.read().map.get(&(parent, pos)).map(|e| e.value)
    }

    /// Chain-link marginal insert. `parent` is a raw object id.
    pub fn put_link(&self, parent: u32, pos: u32, value: f64) {
        self.admit(&self.links, (parent, pos), value, LINK_ENTRY_BYTES);
    }

    /// Drops every memoised entry (all three tables).
    pub fn clear(&self) {
        fn wipe<K, V>(shard: &RwLock<Shard<K, V>>) {
            let mut s = shard.write();
            s.map.clear();
            s.bytes = 0;
        }
        wipe(&self.results);
        wipe(&self.layers);
        wipe(&self.links);
        self.total_bytes.store(0, Ordering::Relaxed);
    }

    /// Entry counts `(results, layers, links)` — used by stats
    /// reporting and tests.
    pub fn len(&self) -> (usize, usize, usize) {
        (self.results.read().map.len(), self.layers.read().map.len(), self.links.read().map.len())
    }

    /// True when no table holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == (0, 0, 0)
    }

    /// Dirty-set invalidation after a mutation: evicts exactly the
    /// entries whose keys can be affected, leaving the rest warm.
    ///
    /// `direct` is the set `D` of directly changed objects (mutated
    /// parents, removed objects, the inserted object) as raw ids — the
    /// arena rows the layers and link tables are keyed by. Per table:
    ///
    /// * **links** — `(parent, pos)` memoises one OPF marginal: evict
    ///   `parent ∈ D`.
    /// * **layers** — located layers depend only on the weak skeleton,
    ///   so entry-level mutations keep them valid; on structural
    ///   mutations evict entries with any located object in `D`. This is
    ///   sound for *additions* too: a newly locatable path must traverse
    ///   the mutated parent `P`, and its prefix uses only pre-existing
    ///   edges, so `P ∈ D` already appears in the stale entry's layers.
    /// * **results** — `Chain` answers touch exactly their listed
    ///   objects: evict on overlap with `D`. `Point`/`Exists` answers
    ///   are tested in one of two ways:
    ///   - `scope` is passed for an entry-level write on a forest, where
    ///     it holds `D`'s subtree numbers and root label paths
    ///     ([`DirtyScope`]). A point result is stale when a member of `D`
    ///     is a proper weak ancestor of its target, and an exists result
    ///     when a member of `D` is located by a proper prefix of its
    ///     path (an exists answer reads no OPF of its targets). Each
    ///     test is a few integer or label compares per member of `D`,
    ///     with no hashing and no layers lookup.
    ///   - Otherwise (a structural write, or a non-forest arena), the
    ///     answer is determined by the path's located layers plus the
    ///     OPFs of objects in them, so consult this cache's own layers
    ///     entry for the path, the *witness* (results are therefore
    ///     evicted *before* layers), and evict on overlap with `D`. A
    ///     result without a witness is evicted conservatively. A layers
    ///     entry touches `D` when some member of `D` is found by binary
    ///     search in one of its sorted layers; each distinct `(root,
    ///     labels)` verdict is computed once per call and shared by every
    ///     result over that path.
    ///
    /// The layers table and its witness role thus serve only non-forest
    /// arenas and structural writes (plus governed runs, which locate
    /// through it). Freed bytes are the entries' *admitted* costs, so
    /// the accounting stays exactly in step with `admit`.
    pub fn invalidate_dirty(
        &self,
        direct: &HashSet<u32>,
        structural: bool,
        scope: Option<&DirtyScope<'_>>,
    ) -> InvalidationCounts {
        debug_assert!(!(structural && scope.is_some()), "a structural write changes the skeleton");
        let mut counts = InvalidationCounts::default();
        let chain_stale = |objects: &[ObjectId]| objects.iter().any(|o| direct.contains(&o.raw()));
        let mut dirty: Vec<u32> = direct.iter().copied().collect();
        dirty.sort_unstable();
        let touches_direct = |layers: &[Vec<u32>]| {
            layers.iter().any(|l| dirty.iter().any(|x| l.binary_search(x).is_ok()))
        };
        // Witness verdicts by root, then by label sequence (looked up by
        // slice, so a memo hit allocates nothing); `None` = no witness.
        let mut verdicts: HashMap<ObjectId, HashMap<Vec<Label>, Option<bool>>> = HashMap::new();

        if let Some(scope) = scope {
            self.evict_results(&mut counts, |q| match q {
                Query::Chain { objects } => chain_stale(objects),
                Query::Point { object, .. } => scope.point_stale(*object),
                Query::Exists { path } => scope.exists_stale(path.root, &path.labels),
            });
        } else {
            // The Point/Exists test reads the layers table, which must
            // still hold the pre-mutation entries.
            let layers = self.layers.read();
            self.evict_results(&mut counts, |q| match q {
                Query::Chain { objects } => chain_stale(objects),
                Query::Point { path, .. } | Query::Exists { path } => {
                    let memo = verdicts.entry(path.root).or_default();
                    let witness = match memo.get(&path.labels[..]) {
                        Some(&v) => v,
                        None => {
                            let key = (path.root, LabelPath::from(&path.labels[..]));
                            let v = layers.map.get(&key).map(|l| touches_direct(&l.value));
                            memo.insert(path.labels.clone(), v);
                            v
                        }
                    };
                    witness.unwrap_or(true) // no witness — evict conservatively
                }
            });
        }

        if structural {
            let mut s = self.layers.write();
            let mut freed = 0u64;
            s.map.retain(|(root, labels), e| {
                let known =
                    verdicts.get(root).and_then(|m| m.get(labels.labels())).copied().flatten();
                let stale = known.unwrap_or_else(|| touches_direct(&e.value));
                if stale {
                    freed += e.cost;
                    counts.layers += 1;
                }
                !stale
            });
            s.bytes = s.bytes.saturating_sub(freed);
            self.total_bytes.fetch_sub(freed, Ordering::Relaxed);
        }

        let mut s = self.links.write();
        let mut freed = 0u64;
        s.map.retain(|(parent, _), e| {
            let stale = direct.contains(parent);
            if stale {
                freed += e.cost;
                counts.links += 1;
            }
            !stale
        });
        s.bytes = s.bytes.saturating_sub(freed);
        self.total_bytes.fetch_sub(freed, Ordering::Relaxed);
        counts
    }

    /// Evicts every result `stale` says is stale, freeing its admitted
    /// cost.
    fn evict_results(&self, counts: &mut InvalidationCounts, mut stale: impl FnMut(&Query) -> bool) {
        let mut s = self.results.write();
        let mut freed = 0u64;
        s.map.retain(|q, e| {
            let stale = stale(q);
            if stale {
                freed += e.cost;
                counts.results += 1;
            }
            !stale
        });
        s.bytes = s.bytes.saturating_sub(freed);
        self.total_bytes.fetch_sub(freed, Ordering::Relaxed);
    }

    /// Snapshot of the whole-query memo (audit support).
    pub(crate) fn result_entries(&self) -> Vec<(Query, Result<f64>)> {
        self.results.read().map.iter().map(|(k, e)| (k.clone(), e.value.clone())).collect()
    }

    /// Snapshot of the located-layers memo (audit support).
    pub(crate) fn layer_entries(&self) -> LayerEntries {
        self.layers.read().map.iter().map(|(k, e)| (k.clone(), Arc::clone(&e.value))).collect()
    }

    /// Snapshot of the link-marginal memo (audit support). Keys are
    /// `(parent raw id, universe position)`.
    pub(crate) fn link_entries(&self) -> Vec<((u32, u32), f64)> {
        self.links.read().map.iter().map(|(k, e)| (*k, e.value)).collect()
    }
}

/// Snapshot of the located-layers memo: `(root, label path)` key plus
/// the cached per-depth layers (audit support).
pub(crate) type LayerEntries = Vec<((ObjectId, LabelPath), Layers)>;

/// Per-table eviction counts from one [`MarginalCache::invalidate_dirty`]
/// call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InvalidationCounts {
    /// Whole-query results evicted.
    pub results: u64,
    /// Located-layer entries evicted.
    pub layers: u64,
    /// Link marginals evicted.
    pub links: u64,
}

impl InvalidationCounts {
    /// Total entries evicted across all three tables.
    pub fn total(&self) -> u64 {
        self.results + self.layers + self.links
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(raw: u32) -> ObjectId {
        ObjectId::from_raw(raw)
    }

    fn layer_cost(lens: &[usize]) -> u64 {
        LAYERS_ENTRY_BYTES + lens.iter().map(|&n| 24 + n as u64 * 4).sum::<u64>()
    }

    /// The verified bug: an entry whose cost alone busts the ceiling used
    /// to evict its shard (and bump `evictions`) on every put, even
    /// though it could never be admitted. It must now be refused without
    /// touching warm state.
    #[test]
    fn oversized_insert_refused_without_eviction() {
        let cache = MarginalCache::new();
        cache.set_max_bytes(200);
        for i in 0..4 {
            cache.put_link(i, 0, 0.5);
        }
        assert_eq!(cache.approx_bytes(), 4 * LINK_ENTRY_BYTES);

        let big: Layers = Arc::new(vec![(0..100).collect()]);
        let path = LabelPath::new(vec![Label::from_raw(1)]);
        assert!(layer_cost(&[100]) > cache.max_bytes());
        for _ in 0..10 {
            cache.put_layers(o(0), path.clone(), Arc::clone(&big));
        }

        assert_eq!(cache.evictions(), 0, "oversized puts must not evict");
        assert_eq!(cache.admission_rejections(), 10);
        assert!(cache.get_layers(o(0), &path).is_none());
        // Warm state survives: every link still hits.
        for i in 0..4 {
            assert_eq!(cache.get_link(i, 0), Some(0.5));
        }
        assert_eq!(cache.approx_bytes(), 4 * LINK_ENTRY_BYTES);
        assert_eq!(cache.approx_bytes(), cache.recomputed_bytes());
    }

    /// Evicting a shard is only allowed when that actually makes room;
    /// when *other* tables hold the budget the insert is refused instead.
    #[test]
    fn eviction_only_when_it_makes_room() {
        let cache = MarginalCache::new();
        cache.set_max_bytes(200);
        for i in 0..4 {
            cache.put_link(i, 0, 0.25);
        }
        // A result entry would fit nowhere: links hold 160 of the
        // 200-byte budget and emptying the (empty) results shard frees
        // nothing.
        let q = Query::Chain { objects: vec![o(9)] };
        cache.put_result(q.clone(), Ok(0.125));
        assert_eq!(cache.get_result(&q), None);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.admission_rejections(), 1);

        // A fifth link fits exactly in place (200 = ceiling): admitted.
        cache.put_link(4, 0, 0.25);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.approx_bytes(), 5 * LINK_ENTRY_BYTES);

        // A sixth does not fit, but emptying the links shard makes room:
        // one epoch eviction, then admission.
        cache.put_link(5, 0, 0.25);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.get_link(5, 0), Some(0.25));
        assert_eq!(cache.get_link(0, 0), None);
        assert_eq!(cache.approx_bytes(), LINK_ENTRY_BYTES);
        assert_eq!(cache.approx_bytes(), cache.recomputed_bytes());
    }

    /// The second bug: same-key replacement used to skip byte accounting
    /// entirely (`is_none()` guard), so a differing-cost replacement
    /// drifted the totals. Replacement must subtract the displaced cost
    /// and add the new one.
    #[test]
    fn replacement_reaccounts_bytes() {
        let cache = MarginalCache::new();
        let path = LabelPath::new(vec![Label::from_raw(1)]);
        let small: Layers = Arc::new(vec![vec![1]]);
        let large: Layers = Arc::new(vec![(0..10).collect()]);

        cache.put_layers(o(0), path.clone(), Arc::clone(&small));
        assert_eq!(cache.approx_bytes(), layer_cost(&[1]));

        // Grow: total must move to the new cost, not accumulate.
        cache.put_layers(o(0), path.clone(), Arc::clone(&large));
        assert_eq!(cache.approx_bytes(), layer_cost(&[10]));
        assert_eq!(cache.approx_bytes(), cache.recomputed_bytes());

        // Shrink back: total follows exactly.
        cache.put_layers(o(0), path.clone(), small);
        assert_eq!(cache.approx_bytes(), layer_cost(&[1]));
        assert_eq!(cache.approx_bytes(), cache.recomputed_bytes());
        assert_eq!(cache.len(), (0, 1, 0));
    }

    /// Under a ceiling, replacing a key accounts for the bytes it frees:
    /// a same-cost replacement of the sole entry always fits and must not
    /// evict or refuse.
    #[test]
    fn replacement_under_ceiling_counts_freed_bytes() {
        let cache = MarginalCache::new();
        let path = LabelPath::new(vec![Label::from_raw(1)]);
        let layers: Layers = Arc::new(vec![(0..10).collect()]);
        cache.set_max_bytes(layer_cost(&[10]));
        cache.put_layers(o(0), path.clone(), Arc::clone(&layers));
        assert_eq!(cache.approx_bytes(), cache.max_bytes());
        cache.put_layers(o(0), path.clone(), Arc::clone(&layers));
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.admission_rejections(), 0);
        assert!(cache.get_layers(o(0), &path).is_some());
        assert_eq!(cache.approx_bytes(), cache.recomputed_bytes());
    }

    impl MarginalCache {
        /// The linear-scan invalidation of the results and layers
        /// tables the binary-search one replaced, kept as its oracle:
        /// scans every object of every layer, once per cached result.
        fn invalidate_results_and_layers_linear(
            &self,
            direct: &HashSet<u32>,
            structural: bool,
            counts: &mut InvalidationCounts,
        ) {
            let touches_direct =
                |layers: &[Vec<u32>]| layers.iter().any(|l| l.iter().any(|x| direct.contains(x)));
            {
                let layers = self.layers.read();
                let mut s = self.results.write();
                let mut freed = 0u64;
                s.map.retain(|q, e| {
                    let stale = match q {
                        Query::Chain { objects } => {
                            objects.iter().any(|o| direct.contains(&o.raw()))
                        }
                        Query::Point { path, .. } | Query::Exists { path } => {
                            match layers.map.get(&(path.root, LabelPath::from(&path.labels[..]))) {
                                Some(l) => touches_direct(&l.value),
                                None => true,
                            }
                        }
                    };
                    if stale {
                        freed += e.cost;
                        counts.results += 1;
                    }
                    !stale
                });
                s.bytes = s.bytes.saturating_sub(freed);
                self.total_bytes.fetch_sub(freed, Ordering::Relaxed);
            }
            if structural {
                let mut s = self.layers.write();
                let mut freed = 0u64;
                s.map.retain(|_, e| {
                    let stale = touches_direct(&e.value);
                    if stale {
                        freed += e.cost;
                        counts.layers += 1;
                    }
                    !stale
                });
                s.bytes = s.bytes.saturating_sub(freed);
                self.total_bytes.fetch_sub(freed, Ordering::Relaxed);
            }
        }
    }

    /// Over random sorted layers, results and dirty sets, the
    /// binary-search invalidation evicts exactly the keys, and frees
    /// exactly the bytes, that the linear scan does.
    #[test]
    fn binary_search_invalidation_matches_the_linear_scan() {
        use pxml_algebra::path::PathExpr;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x1a7e);
        for round in 0..300 {
            let objects = rng.gen_range(1..48u32);
            let mut paths: Vec<(ObjectId, Vec<Label>)> = Vec::new();
            for _ in 0..rng.gen_range(1..12) {
                let len = rng.gen_range(0..4);
                let labels = (0..len).map(|_| Label::from_raw(rng.gen_range(0..3u32))).collect();
                paths.push((o(rng.gen_range(0..3u32)), labels));
            }
            let mut layer_puts = Vec::new();
            for (root, labels) in &paths {
                if rng.gen_bool(0.8) {
                    let layers: Vec<Vec<u32>> = (0..=labels.len())
                        .map(|_| {
                            let mut l: Vec<u32> = (0..rng.gen_range(0..10))
                                .map(|_| rng.gen_range(0..objects))
                                .collect();
                            l.sort_unstable();
                            l.dedup();
                            l
                        })
                        .collect();
                    layer_puts.push((*root, LabelPath::from(&labels[..]), Arc::new(layers)));
                }
            }
            let mut result_puts = Vec::new();
            for _ in 0..rng.gen_range(0..40) {
                let (root, labels) = paths[rng.gen_range(0..paths.len())].clone();
                let path = PathExpr::new(root, labels);
                let q = match rng.gen_range(0..3) {
                    0 => Query::Chain {
                        objects: (0..rng.gen_range(1..5)).map(|_| o(rng.gen_range(0..objects))).collect(),
                    },
                    1 => Query::Exists { path },
                    _ => Query::Point { path, object: o(rng.gen_range(0..objects)) },
                };
                result_puts.push(q);
            }
            let direct: HashSet<u32> =
                (0..rng.gen_range(0..5)).map(|_| rng.gen_range(0..objects)).collect();
            let structural = rng.gen_bool(0.5);

            let fill = || {
                let cache = MarginalCache::new();
                for (root, labels, layers) in &layer_puts {
                    cache.put_layers(*root, labels.clone(), Arc::clone(layers));
                }
                for q in &result_puts {
                    cache.put_result(q.clone(), Ok(0.5));
                }
                cache
            };
            let (fast, slow) = (fill(), fill());
            let got = fast.invalidate_dirty(&direct, structural, None);
            let mut want = InvalidationCounts::default();
            slow.invalidate_results_and_layers_linear(&direct, structural, &mut want);
            assert_eq!(got, want, "round {round}: eviction counts");
            assert_eq!(fast.approx_bytes(), slow.approx_bytes(), "round {round}: freed bytes");
            assert_eq!(fast.approx_bytes(), fast.recomputed_bytes());
            let keys = |c: &MarginalCache| {
                let results: HashSet<Query> = c.results.read().map.keys().cloned().collect();
                let layers: HashSet<(ObjectId, LabelPath)> = c.layers.read().map.keys().cloned().collect();
                (results, layers)
            };
            assert_eq!(keys(&fast), keys(&slow), "round {round}: surviving keys");
        }
    }
}
