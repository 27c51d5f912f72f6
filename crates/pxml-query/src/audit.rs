//! Cache-coherence audit: recompute every *retained* cache entry from
//! scratch and report mismatches.
//!
//! Dirty-set invalidation has one silent failure mode:
//! under-invalidation, where a stale entry survives a mutation and
//! poisons later answers with plausible-but-wrong probabilities. The
//! differential test suite catches this indirectly (a later query must
//! disagree with the fresh-instance oracle); [`QueryEngine::audit_cache`]
//! catches it directly by checking, entry by entry, that what the cache
//! holds is exactly what evaluation would recompute against the current
//! instance:
//!
//! * **links** — compare against `℘(parent)`'s marginal at the cached
//!   universe position.
//! * **results** — rerun each cached query on a fresh single-threaded
//!   engine over a clone of the instance and compare answers bit-exactly
//!   (errors compare by rendered message).
//!
//! The audit is test/debug machinery — it is deliberately `O(cache)` ×
//! `O(instance)` and takes no shortcuts from the very caches it audits.

use pxml_core::ObjectId;

use crate::engine::QueryEngine;

impl QueryEngine {
    /// Recomputes every retained cache entry from scratch; returns one
    /// human-readable finding per mismatch (empty = coherent). See the
    /// module docs for what is checked per table.
    pub fn audit_cache(&self) -> Vec<String> {
        let mut findings = Vec::new();
        self.audit_bytes(&mut findings);
        self.audit_links(&mut findings);
        self.audit_results(&mut findings);
        findings
    }

    /// The running byte total must equal the sum of the live entries'
    /// stored admitted costs — admission, replacement, eviction, and
    /// dirty-set invalidation all promise exact accounting.
    fn audit_bytes(&self, findings: &mut Vec<String>) {
        let accounted = self.cache().approx_bytes();
        let recomputed = self.cache().recomputed_bytes();
        if accounted != recomputed {
            findings.push(format!(
                "bytes: running total {accounted} != recomputed sum of live entry costs {recomputed}"
            ));
        }
    }

    fn audit_links(&self, findings: &mut Vec<String>) {
        let pi = self.instance();
        for ((pidx, pos), cached) in self.cache().link_entries() {
            let parent = ObjectId::from_raw(pidx);
            let fresh = match pi.opf(parent) {
                Some(opf) if (pos as usize) < pi.weak().node(parent).map_or(0, |n| n.universe().len()) => {
                    opf.marginal_present(pos)
                }
                _ => {
                    findings.push(format!(
                        "links[{parent:?}, {pos}]: parent or position no longer exists"
                    ));
                    continue;
                }
            };
            if cached.to_bits() != fresh.to_bits() {
                findings.push(format!(
                    "links[{parent:?}, {pos}]: cached {cached} != fresh {fresh}"
                ));
            }
        }
    }

    fn audit_results(&self, findings: &mut Vec<String>) {
        let entries = self.cache().result_entries();
        if entries.is_empty() {
            return;
        }
        // A fresh single-threaded engine with an empty cache is the
        // from-scratch oracle; it shares no state with `self`.
        let oracle = QueryEngine::with_threads(self.instance().clone(), 1);
        for (q, cached) in entries {
            let fresh = oracle.run(&q);
            let agree = match (&cached, &fresh) {
                (Ok(a), Ok(b)) => a.to_bits() == b.to_bits(),
                (Err(a), Err(b)) => a.to_string() == b.to_string(),
                _ => false,
            };
            if !agree {
                findings.push(format!(
                    "results[{q:?}]: cached {cached:?} != fresh {fresh:?}"
                ));
            }
        }
    }
}
