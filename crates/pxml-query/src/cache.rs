//! The shared marginalisation cache behind [`crate::engine::QueryEngine`].
//!
//! Two memo tables, each guarded by its own [`parking_lot::RwLock`] so
//! concurrent workers contend only on the table they touch:
//!
//! * **results** — whole-query memo: `Query → Result<f64>`. Duplicate
//!   queries in a batch (common in generated workloads, where distinct
//!   path expressions are few) cost one lookup.
//! * **links** — per-OPF child marginals `(parent raw id, universe
//!   position) → P(child present)` used by chain queries.
//!
//! There is no ε memo: a point/exists miss re-runs the flat §6.1 sweep
//! over its kept region. Measured on the 10⁵-object cold-read pool, a
//! shared `(object, path suffix, target)` ε table hit 15–24 times in
//! ~470k lookups, and its inserts forced whole-table evictions under
//! the byte ceiling.
//!
//! There is no located-layers memo either: on a forest an ungoverned
//! point or exists query finds its region in one pass over the arena,
//! so a layers table got 0 lookups on both e2ebench workloads and every
//! `answer_checksums` replay. The region route (governed runs,
//! non-forest arenas) locates the path afresh.
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

use parking_lot::RwLock;
use pxml_core::DirtyScope;

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
    links: RwLock<Shard<(u32, u32), f64>>,
    /// Byte ceiling; 0 = unlimited.
    max_bytes: AtomicU64,
    /// Sum of the two shards' `bytes` (kept in lock-step under the
    /// respective write locks; reads are advisory).
    total_bytes: AtomicU64,
    /// Whole-table evictions performed by the admission path.
    evictions: AtomicU64,
    /// Inserts refused because no eviction could have made room.
    rejections: AtomicU64,
}

/// Flat per-entry cost estimates (key + value + hash-table slot). The
/// variable-length part (a result key's object or label list) is added
/// on top at the insert site.
pub(crate) const RESULT_ENTRY_BYTES: u64 = 96;
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

    /// The approximate accounted footprint of both tables.
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
    /// every live entry's admitted cost across both tables. Equal to
    /// [`MarginalCache::approx_bytes`] whenever the cache is quiescent;
    /// tests and `audit_cache` use the pair to prove the incremental
    /// accounting never drifts.
    pub fn recomputed_bytes(&self) -> u64 {
        fn sum<K, V>(shard: &RwLock<Shard<K, V>>) -> u64 {
            shard.read().map.values().map(|e| e.cost).sum()
        }
        sum(&self.results) + sum(&self.links)
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
        // admitted cost, add the new one, so the total stays exact even
        // if two estimates for one key ever differ.
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
        let cost = result_cost(&q);
        self.admit(&self.results, q, r, cost);
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

    /// Drops every memoised entry (both tables).
    pub fn clear(&self) {
        fn wipe<K, V>(shard: &RwLock<Shard<K, V>>) {
            let mut s = shard.write();
            s.map.clear();
            s.bytes = 0;
        }
        wipe(&self.results);
        wipe(&self.links);
        self.total_bytes.store(0, Ordering::Relaxed);
    }

    /// Entry counts `(results, links)` — used by stats reporting and
    /// tests.
    pub fn len(&self) -> (usize, usize) {
        (self.results.read().map.len(), self.links.read().map.len())
    }

    /// True when no table holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == (0, 0)
    }

    /// Dirty-set invalidation after a mutation: evicts exactly the
    /// entries whose keys can be affected, leaving the rest warm.
    ///
    /// `direct` is the set `D` of directly changed objects (mutated
    /// parents, removed objects, the inserted object) as raw ids — the
    /// arena rows the link table is keyed by. Per table:
    ///
    /// * **links** — `(parent, pos)` memoises one OPF marginal: evict
    ///   `parent ∈ D`.
    /// * **results** — `Chain` answers touch exactly their listed
    ///   objects: evict on overlap with `D`. `Point`/`Exists` answers
    ///   are tested by `scope` when the write has one: an entry-level
    ///   write on a forest, where it holds `D`'s subtree numbers and
    ///   root label paths ([`DirtyScope`]). A point result is stale when
    ///   a member of `D` is a proper weak ancestor of its target, and an
    ///   exists result when a member of `D` is located by a proper prefix
    ///   of its path (an exists answer reads no OPF of its targets). Each
    ///   test is a few integer or label compares per member of `D`. Any
    ///   other write (a structural one, or any write on a non-forest
    ///   arena) evicts every point and exists result.
    ///
    /// Freed bytes are the entries' *admitted* costs, so the accounting
    /// stays exactly in step with `admit`.
    pub fn invalidate_dirty(
        &self,
        direct: &HashSet<u32>,
        scope: Option<&DirtyScope<'_>>,
    ) -> InvalidationCounts {
        let results = self.evict(&self.results, |q| match (q, scope) {
            (Query::Chain { objects }, _) => objects.iter().any(|o| direct.contains(&o.raw())),
            (Query::Point { object, .. }, Some(scope)) => scope.point_stale(*object),
            (Query::Exists { path }, Some(scope)) => scope.exists_stale(path.root, &path.labels),
            (Query::Point { .. } | Query::Exists { .. }, None) => true,
        });
        let links = self.evict(&self.links, |(parent, _)| direct.contains(parent));
        InvalidationCounts { results, links }
    }

    /// Evicts every entry of `shard` whose key `stale` says is stale,
    /// freeing its admitted cost; returns how many went.
    fn evict<K, V>(&self, shard: &RwLock<Shard<K, V>>, mut stale: impl FnMut(&K) -> bool) -> u64 {
        let mut s = shard.write();
        let (mut evicted, mut freed) = (0, 0);
        s.map.retain(|k, e| {
            let stale = stale(k);
            if stale {
                evicted += 1;
                freed += e.cost;
            }
            !stale
        });
        s.bytes = s.bytes.saturating_sub(freed);
        self.total_bytes.fetch_sub(freed, Ordering::Relaxed);
        evicted
    }

    /// Snapshot of the whole-query memo (audit support).
    pub(crate) fn result_entries(&self) -> Vec<(Query, Result<f64>)> {
        self.results.read().map.iter().map(|(k, e)| (k.clone(), e.value.clone())).collect()
    }

    /// Snapshot of the link-marginal memo (audit support). Keys are
    /// `(parent raw id, universe position)`.
    pub(crate) fn link_entries(&self) -> Vec<((u32, u32), f64)> {
        self.links.read().map.iter().map(|(k, e)| (*k, e.value)).collect()
    }
}

/// The admitted cost of `q`'s result entry: the flat entry size plus
/// its key's object or label list.
pub(crate) fn result_cost(q: &Query) -> u64 {
    let extra = match q {
        Query::Chain { objects } => objects.len() as u64 * 4,
        Query::Point { path, .. } | Query::Exists { path } => path.labels.len() as u64 * 4,
    };
    RESULT_ENTRY_BYTES + extra
}

/// Per-table eviction counts from one [`MarginalCache::invalidate_dirty`]
/// call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InvalidationCounts {
    /// Whole-query results evicted.
    pub results: u64,
    /// Link marginals evicted.
    pub links: u64,
}

impl InvalidationCounts {
    /// Total entries evicted across both tables.
    pub fn total(&self) -> u64 {
        self.results + self.links
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_core::ObjectId;

    fn o(raw: u32) -> ObjectId {
        ObjectId::from_raw(raw)
    }

    /// A chain result over `n` objects, and its admitted cost.
    fn chain(n: u32) -> (Query, u64) {
        (Query::Chain { objects: (0..n).map(o).collect() }, RESULT_ENTRY_BYTES + u64::from(n) * 4)
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

        let (big, cost) = chain(100);
        assert!(cost > cache.max_bytes());
        for _ in 0..10 {
            cache.put_result(big.clone(), Ok(0.5));
        }

        assert_eq!(cache.evictions(), 0, "oversized puts must not evict");
        assert_eq!(cache.admission_rejections(), 10);
        assert!(cache.get_result(&big).is_none());
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
    /// and add the new one. Both tables derive an entry's cost from its
    /// key, so the differing costs go through `admit` directly.
    #[test]
    fn replacement_reaccounts_bytes() {
        let cache = MarginalCache::new();
        let (q, _) = chain(1);

        cache.admit(&cache.results, q.clone(), Ok(0.5), 100);
        assert_eq!(cache.approx_bytes(), 100);

        // Grow: total must move to the new cost, not accumulate.
        cache.admit(&cache.results, q.clone(), Ok(0.25), 500);
        assert_eq!(cache.approx_bytes(), 500);
        assert_eq!(cache.approx_bytes(), cache.recomputed_bytes());

        // Shrink back: total follows exactly.
        cache.admit(&cache.results, q.clone(), Ok(0.5), 100);
        assert_eq!(cache.approx_bytes(), 100);
        assert_eq!(cache.approx_bytes(), cache.recomputed_bytes());
        assert_eq!(cache.len(), (1, 0));
        assert_eq!(cache.get_result(&q), Some(Ok(0.5)));
    }

    /// Under a ceiling, replacing a key accounts for the bytes it frees:
    /// a same-cost replacement of the sole entry always fits and must not
    /// evict or refuse.
    #[test]
    fn replacement_under_ceiling_counts_freed_bytes() {
        let cache = MarginalCache::new();
        let (q, cost) = chain(10);
        cache.set_max_bytes(cost);
        cache.put_result(q.clone(), Ok(0.5));
        assert_eq!(cache.approx_bytes(), cache.max_bytes());
        cache.put_result(q.clone(), Ok(0.5));
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.admission_rejections(), 0);
        assert!(cache.get_result(&q).is_some());
        assert_eq!(cache.approx_bytes(), cache.recomputed_bytes());
    }
}
