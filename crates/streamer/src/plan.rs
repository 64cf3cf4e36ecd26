//! Chunk geometry and the offline per-chunk/per-level size table.
//!
//! §5.3: contexts are split into chunks of ~1.5K tokens; each chunk's KV is
//! encoded offline at every level (decodable independently because chunks
//! are group-aligned, §5.2). The adapter only needs each version's wire
//! size, so [`ChunkPlan`] stores a `chunks × levels` byte table plus the
//! text-fallback byte size per chunk. The table can be filled two ways:
//!
//! * **functional scale** — by actually encoding each chunk with
//!   `cachegen-codec` at every level;
//! * **analytic scale** — by applying measured compression ratios to a
//!   [`cachegen_llm::ModelSpec`]'s KV byte counts (how the GB-scale figures
//!   are produced).

use crate::schedule::ChunkSchedule;

/// Sizes of one chunk at every encoding level, plus its text form.
#[derive(Clone, Debug, PartialEq)]
pub struct ChunkSizes {
    /// Tokens covered by this chunk.
    pub tokens: usize,
    /// Wire bytes per level (index = level id, finest first; sizes must be
    /// non-increasing since coarser bins compress harder).
    pub level_bytes: Vec<u64>,
    /// Wire bytes of the raw text fallback.
    pub text_bytes: u64,
    /// Per-level packet schedules (the per-(layer, group) entropy-chunk
    /// framing a lossy link delivers packet by packet). Empty when the
    /// plan was built analytically — the streamer then falls back to a
    /// one-packet schedule per chunk.
    schedules: Vec<ChunkSchedule>,
}

impl ChunkSizes {
    /// Validates and constructs (no packet geometry: analytic scale).
    pub fn new(tokens: usize, level_bytes: Vec<u64>, text_bytes: u64) -> Self {
        assert!(tokens > 0, "chunk must cover at least one token");
        assert!(!level_bytes.is_empty(), "need at least one level size");
        assert!(
            level_bytes.windows(2).all(|w| w[0] >= w[1]),
            "coarser levels cannot be larger: {level_bytes:?}"
        );
        ChunkSizes {
            tokens,
            level_bytes,
            text_bytes,
            schedules: Vec::new(),
        }
    }

    /// Attaches one packet schedule per level (functional scale: built
    /// from the actual encoded chunks). Each schedule's total must equal
    /// the level's byte count so the analytic and packetized paths agree.
    pub fn with_schedules(mut self, schedules: Vec<ChunkSchedule>) -> Self {
        assert_eq!(
            schedules.len(),
            self.level_bytes.len(),
            "need one schedule per level"
        );
        for (l, s) in schedules.iter().enumerate() {
            assert_eq!(
                s.total_bytes(),
                self.level_bytes[l],
                "schedule bytes must match level {l} size"
            );
        }
        self.schedules = schedules;
        self
    }

    /// The packet schedule of one level, if the plan carries packet
    /// geometry.
    pub fn schedule_for(&self, level: usize) -> Option<&ChunkSchedule> {
        self.schedules.get(level)
    }

    /// Wire size of a streaming configuration.
    pub fn bytes_for(&self, cfg: crate::levels::StreamConfig) -> u64 {
        match cfg {
            crate::levels::StreamConfig::Level(id) => self.level_bytes[id],
            crate::levels::StreamConfig::Text => self.text_bytes,
        }
    }
}

/// The offline plan for streaming one context: chunk boundaries and the
/// per-chunk/per-level size table.
#[derive(Clone, Debug, PartialEq)]
pub struct ChunkPlan {
    chunks: Vec<ChunkSizes>,
    levels: usize,
}

impl ChunkPlan {
    /// Builds a plan from per-chunk size entries; all chunks must agree on
    /// the number of levels.
    pub fn new(chunks: Vec<ChunkSizes>) -> Self {
        assert!(!chunks.is_empty(), "plan needs at least one chunk");
        let levels = chunks[0].level_bytes.len();
        assert!(
            chunks.iter().all(|c| c.level_bytes.len() == levels),
            "all chunks must have the same number of levels"
        );
        ChunkPlan { chunks, levels }
    }

    /// Splits `total_tokens` into chunk token counts of `chunk_tokens` each
    /// (last chunk may be short).
    fn chunk_token_counts(total_tokens: usize, chunk_tokens: usize) -> Vec<usize> {
        assert!(total_tokens > 0 && chunk_tokens > 0);
        let mut out = Vec::new();
        let mut remaining = total_tokens;
        while remaining > 0 {
            let n = remaining.min(chunk_tokens);
            out.push(n);
            remaining -= n;
        }
        out
    }

    /// Like `chunk_token_counts`, but rounds the chunk length
    /// down to a multiple of the codec's anchor-group size whenever it fits
    /// at least one group (§5.2/§5.3: chunks are independently decodable
    /// *because* they are group-aligned; a mid-group boundary would split
    /// a group's members from its anchor and also leave the codec's
    /// per-(layer, group) entropy chunks straddling stream chunks).
    pub fn chunk_token_counts_aligned(
        total_tokens: usize,
        chunk_tokens: usize,
        group_size: usize,
    ) -> Vec<usize> {
        assert!(group_size > 0, "group size must be ≥ 1");
        let aligned = if chunk_tokens >= group_size {
            chunk_tokens - chunk_tokens % group_size
        } else {
            chunk_tokens
        };
        Self::chunk_token_counts(total_tokens, aligned)
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Number of encoding levels.
    pub fn num_levels(&self) -> usize {
        self.levels
    }

    /// The size entry of chunk `i`.
    pub fn chunk(&self, i: usize) -> &ChunkSizes {
        &self.chunks[i]
    }

    /// All chunks.
    pub fn chunks(&self) -> &[ChunkSizes] {
        &self.chunks
    }

    /// Total tokens across chunks.
    pub fn total_tokens(&self) -> usize {
        self.chunks.iter().map(|c| c.tokens).sum()
    }

    /// Total bytes if every chunk is sent at `level`.
    pub fn total_bytes_at_level(&self, level: usize) -> u64 {
        self.chunks.iter().map(|c| c.level_bytes[level]).sum()
    }

    /// Bytes remaining from chunk `from` onward at `level` — the
    /// `size(chunks_to_send, level)` term of Algorithm 1.
    pub fn remaining_bytes_at_level(&self, from: usize, level: usize) -> u64 {
        self.chunks[from..]
            .iter()
            .map(|c| c.level_bytes[level])
            .sum()
    }

    /// Tokens remaining from chunk `from` onward.
    pub fn remaining_tokens(&self, from: usize) -> usize {
        self.chunks[from..].iter().map(|c| c.tokens).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levels::StreamConfig;

    fn plan3() -> ChunkPlan {
        ChunkPlan::new(vec![
            ChunkSizes::new(100, vec![1000, 700, 400], 400),
            ChunkSizes::new(100, vec![1100, 750, 420], 400),
            ChunkSizes::new(50, vec![600, 380, 210], 200),
        ])
    }

    #[test]
    fn token_splitting() {
        assert_eq!(
            ChunkPlan::chunk_token_counts(4000, 1500),
            vec![1500, 1500, 1000]
        );
        assert_eq!(ChunkPlan::chunk_token_counts(1500, 1500), vec![1500]);
        assert_eq!(ChunkPlan::chunk_token_counts(10, 1500), vec![10]);
    }

    #[test]
    fn aligned_token_splitting_respects_group_boundaries() {
        // 35-token chunks over group size 10 round down to 30.
        assert_eq!(
            ChunkPlan::chunk_token_counts_aligned(100, 35, 10),
            vec![30, 30, 30, 10]
        );
        // Already aligned: unchanged.
        assert_eq!(
            ChunkPlan::chunk_token_counts_aligned(90, 30, 10),
            vec![30, 30, 30]
        );
        // Chunks smaller than a group cannot align; fall back verbatim.
        assert_eq!(
            ChunkPlan::chunk_token_counts_aligned(10, 4, 10),
            vec![4, 4, 2]
        );
    }

    #[test]
    fn totals() {
        let p = plan3();
        assert_eq!(p.num_chunks(), 3);
        assert_eq!(p.num_levels(), 3);
        assert_eq!(p.total_tokens(), 250);
        assert_eq!(p.total_bytes_at_level(0), 2700);
        assert_eq!(p.total_bytes_at_level(2), 1030);
    }

    #[test]
    fn remaining_math() {
        let p = plan3();
        assert_eq!(p.remaining_bytes_at_level(1, 1), 750 + 380);
        assert_eq!(p.remaining_tokens(2), 50);
        assert_eq!(p.remaining_bytes_at_level(0, 0), 2700);
    }

    #[test]
    fn bytes_for_config() {
        let p = plan3();
        assert_eq!(p.chunk(0).bytes_for(StreamConfig::Level(2)), 400);
        assert_eq!(p.chunk(0).bytes_for(StreamConfig::Text), 400);
    }

    #[test]
    #[should_panic(expected = "coarser levels cannot be larger")]
    fn rejects_increasing_level_sizes() {
        let _ = ChunkSizes::new(10, vec![100, 200], 40);
    }
}
