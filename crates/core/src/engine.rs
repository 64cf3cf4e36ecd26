//! The CacheGen engine: §6's interfaces over the simulator substrate.
//!
//! The paper integrates with LLM frameworks through two calls —
//! `calculate_kv(context) -> KVCache` and `generate_with_kv(KVCache) ->
//! text` — and manages storage through `store_kv` / `get_kv`.
//! [`CacheGenEngine`] implements all four against the functional
//! transformer, holding one codec per encoding level (profiles are built
//! offline from sample contexts, §5.2).

use cachegen_codec::repair::{ChunkArrivalMap, RepairPolicy, RepairedKv};
use cachegen_codec::{CodecConfig, CodecProfile, EncodedKv, KvCodec};
use cachegen_kvstore::{ContextId, FetchedChunk, KvStore, StoredChunk};
use cachegen_llm::{KvCache, SimModelConfig, SimTransformer};
use cachegen_streamer::schedule::PacketId;
use cachegen_streamer::{ChunkPlan, ChunkSchedule, ChunkSizes, LevelLadder};
use cachegen_telemetry::Recorder;
use std::sync::Arc;

use crate::pipeline::LoadError;

/// Engine-wide configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Base codec configuration (level factors scale its bins).
    pub codec: CodecConfig,
    /// Encoding-level ladder (finest first).
    pub ladder: LevelLadder,
    /// Chunk length in tokens for streaming (§5.3; scaled down for the
    /// functional substrate — the paper default of 1 500 assumes 9K-token
    /// contexts).
    pub chunk_tokens: usize,
    /// Bytes per token when a chunk is shipped as text.
    pub text_bytes_per_token: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            codec: CodecConfig::default(),
            ladder: LevelLadder::paper_default(),
            chunk_tokens: 30,
            text_bytes_per_token: 4,
        }
    }
}

/// The CacheGen serving engine.
pub struct CacheGenEngine {
    // Immutable once built, so engines derived with `with_empty_store`
    // share them instead of re-profiling.
    model: Arc<SimTransformer>,
    config: EngineConfig,
    codecs: Arc<[KvCodec]>,
    store: KvStore,
}

impl CacheGenEngine {
    /// Builds an engine: instantiates the model and profiles every encoding
    /// level's codec from the given sample contexts (offline, once per
    /// model — §5.2).
    pub fn build(
        model_cfg: SimModelConfig,
        config: EngineConfig,
        profile_contexts: &[Vec<usize>],
    ) -> Self {
        assert!(
            !profile_contexts.is_empty(),
            "need at least one profiling context"
        );
        let model = SimTransformer::new(model_cfg);
        let samples: Vec<KvCache> = profile_contexts
            .iter()
            .map(|ctx| model.prefill(ctx))
            .collect();
        let sample_refs: Vec<&KvCache> = samples.iter().collect();
        let codecs = config
            .ladder
            .factors()
            .iter()
            .map(|&f| {
                let cfg = config.codec.with_bin_factor(f);
                let profile = CodecProfile::build(&cfg, &sample_refs);
                KvCodec::new(cfg, profile)
            })
            .collect();
        CacheGenEngine {
            model: Arc::new(model),
            config,
            codecs,
            store: KvStore::new(),
        }
    }

    /// An engine over the *same* model and per-level codecs (shared, not
    /// rebuilt) with its own empty store — one shard of a cluster whose
    /// shards all serve one model.
    pub fn with_empty_store(&self) -> Self {
        CacheGenEngine {
            model: Arc::clone(&self.model),
            config: self.config.clone(),
            codecs: Arc::clone(&self.codecs),
            store: KvStore::new(),
        }
    }

    /// The underlying simulator model.
    pub fn model(&self) -> &SimTransformer {
        &self.model
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of encoding levels.
    pub fn num_levels(&self) -> usize {
        self.codecs.len()
    }

    /// The codec of one level (0 = finest).
    pub fn codec(&self, level: usize) -> &KvCodec {
        &self.codecs[level]
    }

    /// §6 `calculate_kv`: prefills a context, returning its KV cache.
    pub fn calculate_kv(&self, context: &[usize]) -> KvCache {
        self.model.prefill(context)
    }

    /// Encodes a cache (or chunk) at one level.
    pub fn encode_at_level(&self, cache: &KvCache, level: usize) -> EncodedKv {
        self.codecs[level].encode(cache)
    }

    /// Decodes an encoded chunk produced by [`Self::encode_at_level`] with
    /// the same `level`. A truncated or corrupted chunk is reported
    /// instead of decoded as noise, so a serving front can fall back
    /// (re-fetch, or degrade to text) rather than feed garbage KV to the
    /// model.
    pub fn try_decode_at_level(
        &self,
        enc: &EncodedKv,
        level: usize,
    ) -> Result<KvCache, cachegen_codec::CodecError> {
        self.codecs[level].try_decode_parallel(enc)
    }

    /// Hole-aware decode: entropy chunks the transport did not deliver
    /// (per `arrivals`) are filled by `policy` and reported per chunk —
    /// the stream degrades instead of stalling. See
    /// [`cachegen_codec::repair`] for the policy semantics.
    pub fn decode_with_repairs_at_level(
        &self,
        enc: &EncodedKv,
        level: usize,
        arrivals: &ChunkArrivalMap,
        policy: RepairPolicy,
    ) -> Result<RepairedKv, cachegen_codec::CodecError> {
        self.codecs[level].decode_with_repairs(enc, arrivals, policy)
    }

    /// The priority-ordered packet schedule of one encoded stream chunk:
    /// one packet per (side, layer, group) entropy chunk at its wire
    /// size, container overhead folded into the head packet, early token
    /// groups first.
    pub fn packet_schedule(enc: &EncodedKv) -> ChunkSchedule {
        let groups = enc.num_groups();
        let mut entries = Vec::with_capacity(2 * enc.layers * groups);
        for is_k in [true, false] {
            for layer in 0..enc.layers {
                for group in 0..groups {
                    let mut bytes = enc.chunk_wire_bytes(is_k, layer, group);
                    if is_k && layer == 0 && group == 0 {
                        // The head packet (highest priority) carries the
                        // container header + scale tables.
                        bytes += enc.container_overhead_bytes();
                    }
                    entries.push((PacketId { group, layer, is_k }, bytes));
                }
            }
        }
        ChunkSchedule::priority_ordered(entries)
    }

    /// The default medium level used before any throughput estimate (§5.3).
    pub fn default_level(&self) -> usize {
        self.config.ladder.default_medium()
    }

    /// The chunk token counts used for a context of `total_tokens` —
    /// chunk boundaries are forced onto anchor-group multiples so every
    /// stored chunk is independently decodable and the codec's
    /// per-(layer, group) entropy chunks never straddle stream chunks.
    fn chunk_counts(&self, total_tokens: usize) -> Vec<usize> {
        ChunkPlan::chunk_token_counts_aligned(
            total_tokens,
            self.config.chunk_tokens,
            self.config.codec.group_size,
        )
    }

    /// Splits a cache into streaming chunks of `chunk_tokens` (§5.3),
    /// respecting group alignment (chunk length is rounded down to a
    /// multiple of the anchor group size whenever one fits).
    pub fn chunk_caches(&self, cache: &KvCache) -> Vec<KvCache> {
        let counts = self.chunk_counts(cache.tokens());
        let mut out = Vec::with_capacity(counts.len());
        let mut start = 0;
        for n in counts {
            out.push(cache.slice_tokens(start, start + n));
            start += n;
        }
        out
    }

    /// Offline encoding of a whole context at every level: returns the
    /// per-chunk encoded versions (`encoded[chunk][level]`) and the
    /// [`ChunkPlan`] the streaming adapter consults. Every plan entry
    /// carries its per-level packet schedule (one packet per (side,
    /// layer, group) entropy chunk) so a lossy link delivers the chunk
    /// packet by packet.
    pub fn encode_context(&self, cache: &KvCache) -> (Vec<Vec<EncodedKv>>, ChunkPlan) {
        let chunks = self.chunk_caches(cache);
        let mut encoded = Vec::with_capacity(chunks.len());
        let mut sizes = Vec::with_capacity(chunks.len());
        for chunk in &chunks {
            let versions: Vec<EncodedKv> = (0..self.num_levels())
                .map(|l| self.encode_at_level(chunk, l))
                .collect();
            let mut level_bytes: Vec<u64> = versions.iter().map(EncodedKv::total_bytes).collect();
            let mut schedules: Vec<ChunkSchedule> =
                versions.iter().map(Self::packet_schedule).collect();
            // Guard the (rare, tiny-chunk) case where entropy-coding noise
            // makes a coarser level marginally larger: enforce monotone
            // sizes so the plan invariant holds (the schedule trims its
            // lowest-priority packets to stay in sync).
            for i in 1..level_bytes.len() {
                if level_bytes[i] > level_bytes[i - 1] {
                    level_bytes[i] = level_bytes[i - 1];
                    schedules[i].shrink_to(level_bytes[i]);
                }
            }
            sizes.push(
                ChunkSizes::new(
                    chunk.tokens(),
                    level_bytes,
                    chunk.tokens() as u64 * self.config.text_bytes_per_token,
                )
                .with_schedules(schedules),
            );
            encoded.push(versions);
        }
        (encoded, ChunkPlan::new(sizes))
    }

    /// §6 `store_kv`: encodes every chunk at every level and stores the
    /// bitstreams (plus text fallbacks) on the storage server.
    pub fn store_kv(&self, id: ContextId, context: &[usize]) -> ChunkPlan {
        self.store_prefilled(id, context, &self.calculate_kv(context))
    }

    /// The post-prefill half of [`Self::store_kv`], for callers that
    /// already hold `cache = calculate_kv(context)` and should not run the
    /// prefill twice.
    pub fn store_prefilled(&self, id: ContextId, context: &[usize], cache: &KvCache) -> ChunkPlan {
        assert_eq!(cache.tokens(), context.len(), "cache is not this context's");
        let (encoded, plan) = self.encode_context(cache);
        let counts = self.chunk_counts(context.len());
        let mut stored = Vec::with_capacity(encoded.len());
        let mut start = 0usize;
        for (versions, tokens) in encoded.into_iter().zip(counts) {
            let text: Vec<u8> = context[start..start + tokens]
                .iter()
                .flat_map(|&t| (t as u32).to_le_bytes())
                .collect();
            start += tokens;
            stored.push(StoredChunk {
                tokens,
                versions: versions
                    .iter()
                    .map(|e| bytes::Bytes::from(e.to_bytes()))
                    .collect(),
                text: bytes::Bytes::from(text),
            });
        }
        self.store.store_kv(id, stored);
        plan
    }

    /// §6 `get_kv`: fetches one chunk's bitstream at a level.
    pub fn get_kv(&self, id: ContextId, chunk: usize, level: usize) -> Option<FetchedChunk> {
        self.store.get_kv(id, chunk, level)
    }

    /// Parses one stored stream chunk and checks it is the chunk the plan
    /// (`tokens`), the model (layers, channels) and the codec (group size)
    /// describe. Stored bytes are outside input: every defect is a typed
    /// error, raised before any tensor is sized from the container's header.
    pub(crate) fn parse_stored(&self, bytes: &[u8], tokens: usize) -> Result<EncodedKv, LoadError> {
        let enc = EncodedKv::from_bytes(bytes).map_err(LoadError::Parse)?;
        let model = self.model.config();
        let group = self.config.codec.group_size;
        let want = (tokens, model.n_layers, model.kv_channels(), group);
        let got = (enc.tokens, enc.layers, enc.channels, enc.group_size);
        if got != want {
            return Err(LoadError::PlanMismatch(format!(
                "stored chunk is {got:?} (tokens, layers, channels, group size), expected {want:?}"
            )));
        }
        Ok(enc)
    }

    /// Stored bytes → KV cache: parse, check against the plan's `tokens`
    /// and the model ([`LoadError::PlanMismatch`]), then the clean decode at
    /// `level`, profiled through `recorder`. The one function every
    /// receiver of a whole stored chunk decodes through.
    pub fn decode_stored(
        &self,
        bytes: &[u8],
        level: usize,
        tokens: usize,
        recorder: &Recorder,
    ) -> Result<KvCache, LoadError> {
        let enc = self.parse_stored(bytes, tokens)?;
        Ok(self.codecs[level].try_decode_parallel_traced(&enc, recorder)?)
    }

    /// The token ids of one chunk's stored text fallback, checked against
    /// the plan's token count and the model's vocabulary.
    pub(crate) fn stored_text(
        &self,
        id: ContextId,
        chunk: usize,
        tokens: usize,
    ) -> Result<Vec<usize>, LoadError> {
        let Some(FetchedChunk::Text(text)) = self.store.get_text(id, chunk) else {
            return Err(LoadError::NotStored {
                id,
                chunk,
                level: None,
            });
        };
        let word = |w: &[u8]| u32::from_le_bytes([w[0], w[1], w[2], w[3]]) as usize;
        let ids: Vec<usize> = text.chunks_exact(4).map(word).collect();
        let vocab = self.model.config().vocab;
        if text.len() != 4 * tokens || ids.iter().any(|&t| t >= vocab) {
            return Err(LoadError::PlanMismatch(format!(
                "stored text of chunk {chunk} is not {tokens} tokens of the {vocab}-token vocabulary"
            )));
        }
        Ok(ids)
    }

    /// The storage server (for accounting and eviction).
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    /// §6 `generate_with_kv`: greedy generation from a (possibly lossy)
    /// cache, skipping context prefill.
    pub fn generate_with_kv(&self, cache: &KvCache, prompt: &[usize], steps: usize) -> Vec<usize> {
        self.model.generate_with_kv(cache, prompt, steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> CacheGenEngine {
        let profile_ctx: Vec<usize> = (0..60).map(|i| (i * 7) % 64).collect();
        CacheGenEngine::build(
            SimModelConfig::tiny(42),
            EngineConfig::default(),
            &[profile_ctx],
        )
    }

    #[test]
    fn build_creates_one_codec_per_level() {
        let e = engine();
        assert_eq!(e.num_levels(), 5);
        assert_eq!(e.default_level(), 2);
    }

    #[test]
    fn encode_decode_round_trip_at_each_level() {
        let e = engine();
        let ctx: Vec<usize> = (0..50).map(|i| (i * 3) % 64).collect();
        let cache = e.calculate_kv(&ctx);
        let mut last_err = -1.0f32;
        for level in 0..e.num_levels() {
            let enc = e.encode_at_level(&cache, level);
            let dec = e.try_decode_at_level(&enc, level).unwrap();
            assert_eq!(dec.tokens(), cache.tokens());
            let err = cache.mse(&dec);
            assert!(
                err >= last_err * 0.5,
                "error should broadly grow with level: {err} after {last_err}"
            );
            last_err = err;
        }
    }

    #[test]
    fn encode_context_plan_is_consistent() {
        let e = engine();
        let ctx: Vec<usize> = (0..95).map(|i| (i * 11) % 64).collect();
        let cache = e.calculate_kv(&ctx);
        let (encoded, plan) = e.encode_context(&cache);
        assert_eq!(plan.num_chunks(), encoded.len());
        assert_eq!(plan.num_chunks(), 4); // 95 tokens / 30 = 4 chunks
        assert_eq!(plan.total_tokens(), 95);
        for (i, versions) in encoded.iter().enumerate() {
            assert_eq!(versions.len(), e.num_levels());
            // Plan sizes are the (monotone-clamped) encoded sizes.
            assert!(plan.chunk(i).level_bytes[0] >= plan.chunk(i).level_bytes[4]);
        }
    }

    #[test]
    fn store_and_get_kv() {
        let e = engine();
        let ctx: Vec<usize> = (0..60).map(|i| (i * 13) % 64).collect();
        assert!(!e.store.contains(99));
        let plan = e.store_kv(99, &ctx);
        assert!(e.store.contains(99));
        assert_eq!(plan.num_chunks(), 2);
        let fetched = e.get_kv(99, 0, 1).expect("stored chunk");
        // The stored bytes parse back into a decodable bitstream.
        let bytes = match fetched {
            FetchedChunk::Encoded(b) => b,
            _ => panic!("expected encoded"),
        };
        let enc = cachegen_codec::EncodedKv::from_bytes(&bytes).expect("parse");
        let dec = e.try_decode_at_level(&enc, 1).unwrap();
        assert_eq!(dec.tokens(), 30);
    }

    #[test]
    fn generation_from_decoded_cache_tracks_reference() {
        // First-token accuracy across many prompts — the robust proxy
        // (long-horizon greedy matching is chaotic on a 64-vocab model).
        let e = engine();
        let ctx: Vec<usize> = (0..60).map(|i| (i * 5) % 64).collect();
        let cache = e.calculate_kv(&ctx);
        let prompts: Vec<Vec<usize>> = (0..20)
            .map(|p| vec![(p * 3) % 64, (p * 7 + 1) % 64])
            .collect();
        let acc_at = |level: usize| {
            let enc = e.encode_at_level(&cache, level);
            let dec = e.try_decode_at_level(&enc, level).unwrap();
            cachegen_llm::eval::first_token_accuracy(e.model(), &cache, &dec, &prompts)
        };
        let finest = acc_at(0);
        let coarsest = acc_at(e.num_levels() - 1);
        assert!(finest >= 0.6, "finest level accuracy {finest}");
        assert!(finest >= coarsest, "finest {finest} < coarsest {coarsest}");
    }

    #[test]
    fn chunk_boundaries_align_to_anchor_groups() {
        // chunk_tokens = 35 is not a multiple of the group size (10); the
        // engine must round chunks down to 30 so no group straddles a
        // chunk boundary.
        let profile_ctx: Vec<usize> = (0..60).map(|i| (i * 7) % 64).collect();
        let e = CacheGenEngine::build(
            SimModelConfig::tiny(42),
            EngineConfig {
                chunk_tokens: 35,
                ..EngineConfig::default()
            },
            &[profile_ctx],
        );
        let ctx: Vec<usize> = (0..70).map(|i| i % 64).collect();
        let cache = e.calculate_kv(&ctx);
        let chunks = e.chunk_caches(&cache);
        let tokens: Vec<usize> = chunks.iter().map(|c| c.tokens()).collect();
        assert_eq!(tokens, vec![30, 30, 10]);
        // store_kv uses the same boundaries.
        let plan = e.store_kv(7, &ctx);
        assert_eq!(plan.num_chunks(), 3);
        assert_eq!(plan.chunk(0).tokens, 30);
    }

    #[test]
    fn corrupted_stored_chunk_is_reported() {
        let e = engine();
        let ctx: Vec<usize> = (0..50).map(|i| (i * 3) % 64).collect();
        let cache = e.calculate_kv(&ctx);
        let mut enc = e.encode_at_level(&cache, 0);
        let chunk = &mut enc.k_chunks[0][0];
        chunk.truncate(chunk.len().saturating_sub(6));
        assert!(e.try_decode_at_level(&enc, 0).is_err());
    }

    #[test]
    fn chunked_caches_cover_context() {
        let e = engine();
        let cache = e.calculate_kv(&(0..64).collect::<Vec<_>>());
        let chunks = e.chunk_caches(&cache);
        assert_eq!(chunks.len(), 3);
        let total: usize = chunks.iter().map(|c| c.tokens()).sum();
        assert_eq!(total, 64);
        let merged = KvCache::concat_tokens(&chunks);
        assert_eq!(merged, cache);
    }
}
