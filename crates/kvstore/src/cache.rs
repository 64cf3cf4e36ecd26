//! An LRU KV-bitstream cache in front of the storage server.
//!
//! §3's premise is that GPU/host memory cannot hold every reused context —
//! "the reused KV cache may have to be offloaded to make space for fresh
//! chat sessions" — so a serving node keeps a bounded local cache of hot
//! contexts and falls back to the remote store on miss. The paper defers
//! caching policy to concurrent work (§9); LRU with byte-capacity
//! accounting is the natural baseline and is what this module provides,
//! including hit/miss statistics so experiments can report network-bytes
//! saved by locality.

use parking_lot::Mutex;
use std::collections::BTreeMap;

use crate::ContextId;

/// Cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the context locally.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Contexts evicted to make space.
    pub evictions: u64,
    /// Cumulative bytes admitted by successful inserts. Re-inserting an
    /// existing context counts the new size here and the replaced size in
    /// [`CacheStats::freed_bytes`], so `admitted - freed` always equals
    /// the resident footprint (never double-counted).
    pub admitted_bytes: u64,
    /// Cumulative bytes released by evictions, replacements, and explicit
    /// removes.
    pub freed_bytes: u64,
}

impl CacheStats {
    /// Hit ratio in [0, 1]; 0 when no lookups have happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter deltas since an `earlier` snapshot of the same cache —
    /// what happened between two observation points (e.g. one serving
    /// run on a cache that stays warm across runs).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            admitted_bytes: self.admitted_bytes - earlier.admitted_bytes,
            freed_bytes: self.freed_bytes - earlier.freed_bytes,
        }
    }
}

struct Entry {
    bytes: u64,
    /// Logical clock of last use.
    last_used: u64,
}

/// A byte-bounded LRU cache of context KV bitstreams.
///
/// The cache tracks *which* contexts are resident and how big they are; the
/// payload itself lives in the [`crate::KvStore`] (or GPU memory in a real
/// deployment). This split keeps the policy testable independent of
/// payload plumbing.
pub struct LruKvCache {
    capacity_bytes: u64,
    inner: Mutex<Inner>,
}

struct Inner {
    entries: BTreeMap<ContextId, Entry>,
    used_bytes: u64,
    clock: u64,
    stats: CacheStats,
}

impl LruKvCache {
    /// Creates a cache with the given byte capacity.
    pub fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "capacity must be positive");
        LruKvCache {
            capacity_bytes,
            inner: Mutex::new(Inner {
                entries: BTreeMap::new(),
                used_bytes: 0,
                clock: 0,
                stats: CacheStats::default(),
            }),
        }
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats
    }

    /// Looks up a context, marking it most-recently-used on hit. Returns
    /// whether the context was resident.
    pub fn touch(&self, id: ContextId) -> bool {
        let mut g = self.inner.lock();
        g.clock += 1;
        let clock = g.clock;
        if let Some(e) = g.entries.get_mut(&id) {
            e.last_used = clock;
            g.stats.hits += 1;
            true
        } else {
            g.stats.misses += 1;
            false
        }
    }

    /// Inserts (or refreshes) a context of `bytes` size, evicting
    /// least-recently-used entries as needed. Returns the ids evicted.
    /// Contexts larger than the whole capacity are rejected (empty return,
    /// not inserted) — the caller should stream those without caching.
    pub fn insert(&self, id: ContextId, bytes: u64) -> Vec<ContextId> {
        let mut g = self.inner.lock();
        // Replacing an existing entry must release the old footprint
        // exactly once, *before* any capacity decision — otherwise an
        // oversized re-insert would leave the stale version resident (the
        // caller believes it replaced the payload) and the byte counters
        // would double-count the context.
        if let Some(old) = g.entries.remove(&id) {
            g.used_bytes -= old.bytes;
            g.stats.freed_bytes += old.bytes;
        }
        if bytes > self.capacity_bytes {
            return Vec::new();
        }
        g.clock += 1;
        let clock = g.clock;
        let mut evicted = Vec::new();
        while g.used_bytes + bytes > self.capacity_bytes {
            // Find the LRU entry. Ties are impossible (the logical clock
            // is strictly increasing), and an empty map cannot be over
            // capacity, but both fallbacks stay typed rather than
            // panicking.
            let Some(victim) = g
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&vid, _)| vid)
            else {
                break;
            };
            if let Some(e) = g.entries.remove(&victim) {
                g.used_bytes -= e.bytes;
                g.stats.freed_bytes += e.bytes;
            }
            g.stats.evictions += 1;
            evicted.push(victim);
        }
        g.entries.insert(
            id,
            Entry {
                bytes,
                last_used: clock,
            },
        );
        g.used_bytes += bytes;
        g.stats.admitted_bytes += bytes;
        evicted
    }

    /// Removes a context explicitly (e.g. invalidated upstream).
    pub fn remove(&self, id: ContextId) -> bool {
        let mut g = self.inner.lock();
        if let Some(e) = g.entries.remove(&id) {
            g.used_bytes -= e.bytes;
            g.stats.freed_bytes += e.bytes;
            true
        } else {
            false
        }
    }

    /// Whether a context is resident (without touching LRU order).
    pub fn contains(&self, id: ContextId) -> bool {
        self.inner.lock().entries.contains_key(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_accounting() {
        let c = LruKvCache::new(1000);
        assert!(!c.touch(1));
        c.insert(1, 400);
        assert!(c.touch(1));
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_eviction_order() {
        let c = LruKvCache::new(1000);
        c.insert(1, 400);
        c.insert(2, 400);
        // Touch 1 so 2 becomes LRU.
        assert!(c.touch(1));
        let evicted = c.insert(3, 400);
        assert_eq!(evicted, vec![2]);
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn multi_eviction_for_large_insert() {
        let c = LruKvCache::new(1000);
        c.insert(1, 300);
        c.insert(2, 300);
        c.insert(3, 300);
        let evicted = c.insert(4, 900);
        assert_eq!(evicted.len(), 3);
        assert_eq!(c.inner.lock().used_bytes, 900);
    }

    #[test]
    fn oversized_context_rejected() {
        let c = LruKvCache::new(100);
        let evicted = c.insert(1, 500);
        assert!(evicted.is_empty());
        assert!(!c.contains(1));
        assert_eq!(c.inner.lock().used_bytes, 0);
    }

    #[test]
    fn reinsert_updates_size() {
        let c = LruKvCache::new(1000);
        c.insert(1, 400);
        c.insert(1, 700);
        assert_eq!(c.inner.lock().used_bytes, 700);
    }

    #[test]
    fn reinsert_does_not_double_count_bytes() {
        // Regression: re-inserting an existing context must count the
        // replaced footprint as freed, keeping admitted - freed == used.
        let c = LruKvCache::new(1000);
        c.insert(1, 400);
        c.insert(1, 400); // same size
        c.insert(1, 700); // grow
        c.insert(1, 200); // shrink
        let s = c.stats();
        assert_eq!(c.inner.lock().used_bytes, 200);
        assert_eq!(s.admitted_bytes - s.freed_bytes, c.inner.lock().used_bytes);
        assert_eq!(s.admitted_bytes, 400 + 400 + 700 + 200);
        assert_eq!(s.freed_bytes, 400 + 400 + 700);
        assert_eq!(s.evictions, 0, "replacement is not an eviction");
    }

    #[test]
    fn oversized_reinsert_drops_stale_entry() {
        // Regression: a resident context re-inserted at a size beyond the
        // whole capacity must not stay resident at its stale size — the
        // caller just replaced the payload with one the cache cannot hold.
        let c = LruKvCache::new(1000);
        c.insert(1, 400);
        let evicted = c.insert(1, 5000);
        assert!(evicted.is_empty());
        assert!(!c.contains(1));
        assert_eq!(c.inner.lock().used_bytes, 0);
        assert_eq!(c.stats().admitted_bytes - c.stats().freed_bytes, 0);
    }

    #[test]
    fn byte_counters_track_evictions_and_removes() {
        let c = LruKvCache::new(1000);
        c.insert(1, 600);
        c.insert(2, 600); // evicts 1
        assert!(c.remove(2));
        let s = c.stats();
        assert_eq!(s.admitted_bytes, 1200);
        assert_eq!(s.freed_bytes, 1200);
        assert_eq!(s.admitted_bytes - s.freed_bytes, 0);
        assert_eq!(s.evictions, 1);
    }

    #[test]
    fn remove_frees_space() {
        let c = LruKvCache::new(1000);
        c.insert(1, 600);
        assert!(c.remove(1));
        assert!(!c.remove(1));
        assert_eq!(c.inner.lock().used_bytes, 0);
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        // Round-robin over 4 contexts of 400 B with 1000 B capacity: every
        // access misses (classic LRU thrash), hit ratio ~0.
        let c = LruKvCache::new(1000);
        for round in 0..5 {
            for id in 0..4u64 {
                let hit = c.touch(id);
                if !hit {
                    c.insert(id, 400);
                }
                if round > 0 {
                    assert!(!hit, "LRU should thrash on round-robin overflow");
                }
            }
        }
        assert!(c.stats().hit_ratio() < 0.01);
    }

    #[test]
    fn concurrent_touch_insert() {
        // Four real threads on any host, from the executor's `run_pooled`;
        // scoped workers borrow the cache directly, no Arc needed.
        let c = LruKvCache::new(10_000);
        let hammer = |_, t: u64| {
            for i in 0..500 {
                let id = (t * 31 + i) % 16;
                if !c.touch(id) {
                    c.insert(id, 500);
                }
            }
            Ok::<(), ()>(())
        };
        let done = cachegen_codec::pool::run_pooled((0..8).collect(), 4, hammer, |_| {});
        assert_eq!(done, Ok(()));
        assert!(c.inner.lock().used_bytes <= c.capacity_bytes);
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 8 * 500);
    }
}
