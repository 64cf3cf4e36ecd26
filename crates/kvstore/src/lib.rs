//! KV-cache storage service (§6's `store_kv` / `get_kv` interfaces).
//!
//! CacheGen stores each context's encoded KV bitstreams on a storage server
//! as a dictionary `chunk_id → encoded bytes`, one entry per (chunk,
//! encoding level) plus the text fallback; at fetch time the streamer pulls
//! whichever version its adapter picked. [`KvStore`] is that server: a
//! thread-safe in-process map with byte-accurate storage accounting
//! (Figure 14d evaluates the multi-version storage overhead) and a dollar
//! cost model (Appendix E).

pub mod cache;
pub mod cost;

pub use cache::{CacheStats, LruKvCache};
pub use cost::CostModel;

use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::BTreeMap;

/// Identifier of a stored context.
pub type ContextId = u64;

/// One stored chunk: every encoding level's bitstream plus the raw text.
#[derive(Clone, Debug)]
pub struct StoredChunk {
    /// Tokens this chunk covers.
    pub tokens: usize,
    /// Encoded bitstreams, one per level (finest first).
    pub versions: Vec<Bytes>,
    /// Raw text fallback.
    pub text: Bytes,
}

impl StoredChunk {
    /// Total stored bytes across all versions and the text.
    pub fn stored_bytes(&self) -> u64 {
        self.versions.iter().map(|v| v.len() as u64).sum::<u64>() + self.text.len() as u64
    }
}

/// A fetch handle returned by [`KvStore::get_kv`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FetchedChunk {
    /// An encoded KV bitstream at some level.
    Encoded(Bytes),
    /// The raw text fallback.
    Text(Bytes),
}

impl FetchedChunk {
    /// Wire size of the fetched representation.
    pub fn len(&self) -> usize {
        match self {
            FetchedChunk::Encoded(b) | FetchedChunk::Text(b) => b.len(),
        }
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The in-process storage server.
#[derive(Debug, Default)]
pub struct KvStore {
    contexts: RwLock<BTreeMap<ContextId, Vec<StoredChunk>>>,
}

impl KvStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// `store_kv`: stores (or replaces) a context's chunk dictionary.
    pub fn store_kv(&self, id: ContextId, chunks: Vec<StoredChunk>) {
        assert!(!chunks.is_empty(), "context must have at least one chunk");
        let levels = chunks[0].versions.len();
        assert!(
            chunks.iter().all(|c| c.versions.len() == levels),
            "all chunks must be encoded at the same number of levels"
        );
        self.contexts.write().insert(id, chunks);
    }

    /// `get_kv`: fetches one chunk at an encoding level, or `None` if the
    /// context/chunk/level is unknown.
    pub fn get_kv(&self, id: ContextId, chunk: usize, level: usize) -> Option<FetchedChunk> {
        let guard = self.contexts.read();
        let stored = guard.get(&id)?.get(chunk)?;
        stored
            .versions
            .get(level)
            .map(|b| FetchedChunk::Encoded(b.clone()))
    }

    /// Fetches one chunk's raw text fallback.
    pub fn get_text(&self, id: ContextId, chunk: usize) -> Option<FetchedChunk> {
        let guard = self.contexts.read();
        let stored = guard.get(&id)?.get(chunk)?;
        Some(FetchedChunk::Text(stored.text.clone()))
    }

    /// Whether the KV cache of a context already exists (§6's LangChain
    /// integration checks this before deciding to `calculate_kv`).
    pub fn contains(&self, id: ContextId) -> bool {
        self.contexts.read().contains_key(&id)
    }

    /// Number of chunks stored for a context.
    pub fn num_chunks(&self, id: ContextId) -> Option<usize> {
        self.contexts.read().get(&id).map(Vec::len)
    }

    /// Evicts a context, returning the bytes freed.
    pub fn evict(&self, id: ContextId) -> u64 {
        self.contexts
            .write()
            .remove(&id)
            .map(|chunks| chunks.iter().map(StoredChunk::stored_bytes).sum())
            .unwrap_or(0)
    }

    /// Total bytes stored across all contexts and versions (Figure 14d).
    pub fn total_bytes(&self) -> u64 {
        self.contexts
            .read()
            .values()
            .flat_map(|chunks| chunks.iter().map(StoredChunk::stored_bytes))
            .sum()
    }

    /// Bytes stored for one context.
    pub fn context_bytes(&self, id: ContextId) -> Option<u64> {
        self.contexts
            .read()
            .get(&id)
            .map(|chunks| chunks.iter().map(StoredChunk::stored_bytes).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(tokens: usize, sizes: &[usize], text: usize) -> StoredChunk {
        StoredChunk {
            tokens,
            versions: sizes.iter().map(|&n| Bytes::from(vec![0xAB; n])).collect(),
            text: Bytes::from(vec![0x20; text]),
        }
    }

    #[test]
    fn store_and_fetch() {
        let store = KvStore::new();
        store.store_kv(
            7,
            vec![chunk(100, &[1000, 500], 400), chunk(100, &[900, 450], 380)],
        );
        assert!(store.contains(7));
        assert_eq!(store.num_chunks(7), Some(2));
        let f = store.get_kv(7, 0, 1).unwrap();
        assert_eq!(f.len(), 500);
        let t = store.get_text(7, 1).unwrap();
        assert_eq!(t.len(), 380);
    }

    #[test]
    fn missing_lookups_are_none() {
        let store = KvStore::new();
        assert!(store.get_kv(1, 0, 0).is_none());
        store.store_kv(1, vec![chunk(10, &[100], 40)]);
        assert!(store.get_kv(1, 1, 0).is_none(), "chunk out of range");
        assert!(store.get_kv(1, 0, 5).is_none(), "level out of range");
        assert!(store.get_kv(2, 0, 0).is_none(), "unknown context");
    }

    #[test]
    fn storage_accounting() {
        let store = KvStore::new();
        store.store_kv(1, vec![chunk(10, &[1000, 500, 250], 100)]);
        store.store_kv(2, vec![chunk(10, &[2000], 100)]);
        assert_eq!(store.context_bytes(1), Some(1850));
        assert_eq!(store.total_bytes(), 1850 + 2100);
        assert_eq!(store.evict(1), 1850);
        assert_eq!(store.total_bytes(), 2100);
        assert_eq!(store.evict(1), 0, "double evict frees nothing");
    }

    #[test]
    fn replace_overwrites() {
        let store = KvStore::new();
        store.store_kv(3, vec![chunk(10, &[100], 10)]);
        store.store_kv(3, vec![chunk(10, &[200], 10)]);
        assert_eq!(store.context_bytes(3), Some(210));
    }

    #[test]
    fn concurrent_reads_and_writes() {
        // Four real threads on any host, from the executor's `run_pooled`;
        // scoped workers borrow the store directly, no Arc needed.
        let store = KvStore::new();
        store.store_kv(9, vec![chunk(10, &[64; 4], 16)]);
        let hammer = |_, i: usize| {
            for _ in 0..200 {
                if i.is_multiple_of(2) {
                    let f = store.get_kv(9, 0, i % 4).unwrap();
                    assert_eq!(f.len(), 64);
                } else {
                    store.store_kv(100 + i as u64, vec![chunk(5, &[32], 8)]);
                }
            }
            Ok::<(), ()>(())
        };
        let done = cachegen_codec::pool::run_pooled((0..8).collect(), 4, hammer, |_| {});
        assert_eq!(done, Ok(()));
        assert!(store.total_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "same number of levels")]
    fn rejects_ragged_levels() {
        let store = KvStore::new();
        store.store_kv(1, vec![chunk(10, &[100, 50], 10), chunk(10, &[100], 10)]);
    }
}
