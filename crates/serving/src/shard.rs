//! One serving shard: an engine + store, a local KV-bitstream cache, and
//! the link that connects the shard to the remote store.
//!
//! A shard serves one batch at a time (its store connection is the
//! serialized resource — §3's premise that loading bandwidth, not compute,
//! bounds context loading). A batch is all queued requests for one
//! context; the fetch runs once over the shard's link at whatever
//! configuration the streaming adapter picks, and every request in the
//! batch observes the same ready time. A hit in the local
//! [`LruKvCache`] skips the link entirely and pays only decode time.

use std::collections::BTreeMap;

use cachegen::engine::CacheGenEngine;
use cachegen::{RepairPolicy, DECODE_BYTES_PER_SEC};
use cachegen_kvstore::{ContextId, LruKvCache};
use cachegen_net::Link;
use cachegen_streamer::{simulate_stream_from, AdaptPolicy, ChunkPlan, StreamConfig, StreamParams};
use cachegen_telemetry::Recorder;

use crate::config::{quality_of_level, ServingConfig};
use crate::metrics::ShardSummary;
use crate::plan::PlannedChunk;
use crate::queue::TenantQueues;

/// How one batch was served.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchOutcome {
    /// Virtual time the batch's KV was ready in GPU memory.
    pub ready: f64,
    /// Token-weighted quality proxy in [0, 1], including any loss-repair
    /// penalty.
    pub quality: f64,
    /// Whether the batch hit the local cache (no store fetch).
    pub cache_hit: bool,
    /// Bytes the lossy transfer never delivered (repaired per the
    /// configured policy; under [`RepairPolicy::Refetch`] the cluster
    /// queues a re-fetch for them).
    pub lost_bytes: u64,
    /// Quality the context recovers to once a pending re-fetch fills the
    /// holes (equals `quality` when nothing was lost).
    pub restore_quality: f64,
}

/// One shard of the serving cluster.
pub struct Shard {
    /// Shard index.
    pub id: usize,
    /// The engine (model + codecs + this shard's slice of the store).
    pub engine: CacheGenEngine,
    /// Local cache of fetched KV bitstreams.
    pub cache: LruKvCache,
    /// Link from the remote store to this shard.
    pub link: Link,
    /// Per-tenant admission queues.
    pub queues: TenantQueues,
    /// Whether a batch is in flight.
    pub busy: bool,
    /// Offline chunk plans of the contexts this shard owns.
    plans: BTreeMap<ContextId, ChunkPlan>,
    /// Wire size and quality of each locally cached bitstream.
    cached: BTreeMap<ContextId, CachedMeta>,
    /// Accounting.
    pub stats: ShardSummary,
}

/// What is resident for one cached context: the bytes a hit must decode,
/// the quality the fetched bitstream carries, and the per-chunk work a
/// hit replays (the thread backend decodes exactly these chunks).
#[derive(Clone, Debug)]
struct CachedMeta {
    bytes: u64,
    quality: f64,
    chunks: Vec<PlannedChunk>,
}

impl Shard {
    /// Creates a shard around a built engine.
    pub fn new(id: usize, engine: CacheGenEngine, link: Link, cfg: &ServingConfig) -> Self {
        Shard {
            id,
            engine,
            cache: LruKvCache::new(cfg.cache_capacity_bytes),
            link,
            queues: TenantQueues::new(cfg.num_tenants, cfg.degrade_depth, cfg.shed_depth),
            busy: false,
            plans: BTreeMap::new(),
            cached: BTreeMap::new(),
            stats: ShardSummary::default(),
        }
    }

    /// Stores a context on this shard (offline or streaming-ingest path):
    /// encodes every chunk at every level into the shard's store and
    /// remembers the plan. Re-storing an id (a chat append grew the
    /// context) invalidates the locally cached bitstream — a hit must
    /// never serve the stale, shorter context.
    pub fn store_context(&mut self, id: ContextId, tokens: &[usize]) {
        let plan = self.engine.store_kv(id, tokens);
        let before = self.plans.insert(id, plan);
        // Only a *changed* context invalidates: re-ingesting identical
        // bytes (a warm-up pass) keeps the cache warm by design.
        if before.is_some_and(|old| old != self.plans[&id]) {
            self.cache.remove(id);
            self.cached.remove(&id);
        }
    }

    /// Whether this shard owns a context.
    pub fn owns(&self, id: ContextId) -> bool {
        self.plans.contains_key(&id)
    }

    /// The stored plan of a context.
    pub fn plan(&self, id: ContextId) -> &ChunkPlan {
        &self.plans[&id]
    }

    /// Total bitstream bytes resident in this shard's decoded-KV cache —
    /// the final-state invariant every execution backend must agree on.
    pub fn cached_bytes(&self) -> u64 {
        self.cached.values().map(|m| m.bytes).sum()
    }

    /// Serves one same-context batch starting at virtual time `now`,
    /// returning when its KV was ready and at what quality, plus the
    /// batch's per-chunk work (decode level per chunk, or text-recompute
    /// token counts) — what the thread backend replays to run exactly the
    /// load the virtual model accounted for. `degraded` forces the
    /// coarsest level regardless of the adapter policy; the fetch carries
    /// `cfg.fec_overhead` parity and decodes at
    /// [`cachegen::DECODE_BYTES_PER_SEC`]. Wire-level and decode spans land
    /// on `recorder` under whatever span context the caller set (pass
    /// [`cachegen_telemetry::NOOP`] to skip tracing).
    pub fn serve_batch(
        &mut self,
        context_id: ContextId,
        degraded: bool,
        now: f64,
        cfg: &ServingConfig,
        recorder: &Recorder,
    ) -> (BatchOutcome, Vec<PlannedChunk>) {
        let plan = &self.plans[&context_id];
        let decode_seconds = |bytes: u64| bytes as f64 / DECODE_BYTES_PER_SEC;

        if self.cache.touch(context_id) {
            // Local hit: the bitstream fetched last time is resident;
            // only its decode is paid, at the quality it was fetched at.
            let meta = &self.cached[&context_id];
            let outcome = BatchOutcome {
                ready: now + decode_seconds(meta.bytes),
                quality: meta.quality,
                cache_hit: true,
                lost_bytes: 0,
                restore_quality: meta.quality,
            };
            return (outcome, meta.chunks.clone());
        }

        // Miss: fetch over the shard's link at the adapter's choice —
        // once for the whole batch (the coalescing win). Backpressure
        // degrades to the coarsest encoding level; the text-fallback policy
        // has no levels to degrade to, so it stays text.
        let policy = if degraded && cfg.policy != AdaptPolicy::AlwaysText {
            AdaptPolicy::FixedLevel(self.engine.num_levels() - 1)
        } else {
            cfg.policy
        };
        let recompute = cfg.recompute_sec_per_token;
        let recompute_seconds = move |tokens: usize| tokens as f64 * recompute;
        let params = StreamParams {
            slo: cfg.slo,
            policy,
            prior_throughput_bps: cfg.prior_throughput_bps,
            concurrent_requests: 1,
            retransmit_budget: cfg.retransmit_budget,
            fec_overhead: cfg.fec_overhead.clone(),
            ladder: &self.engine.config().ladder,
            decode_seconds: &decode_seconds,
            recompute_seconds: &recompute_seconds,
            recorder: Some(recorder),
        };
        let out = simulate_stream_from(plan, &mut self.link, &params, now);
        self.stats.bytes_fetched += out.bytes_sent + out.parity_bytes();
        self.stats.parity_bytes += out.parity_bytes();
        self.stats.fec_recovered_packets += out.fec_recovered_packets() as u64;
        self.stats.lost_bytes += out.lost_bytes();

        // Token-weighted quality of what was actually delivered. Chunks
        // with transport holes are charged the repair penalty: a lost
        // fraction of the chunk retains only the policy's effectiveness
        // (zero-fill mutes it, interpolation keeps most of it, refetch is
        // zero *until* the re-fetch lands and restores the cached entry).
        let effectiveness = repair_effectiveness(cfg.repair);
        let mut quality = 0.0f64;
        let mut restore_quality = 0.0f64;
        let mut kv_tokens = 0usize;
        let mut total_tokens = 0usize;
        let mut chunk_work: Vec<PlannedChunk> = Vec::with_capacity(out.chunks.len());
        for c in &out.chunks {
            let tokens = plan.chunk(c.index).tokens;
            total_tokens += tokens;
            match c.config {
                StreamConfig::Text => {
                    chunk_work.push(PlannedChunk::Text { tokens });
                    quality += tokens as f64;
                    restore_quality += tokens as f64;
                }
                StreamConfig::Level(l) => {
                    chunk_work.push(PlannedChunk::Decode {
                        chunk: c.index,
                        level: l,
                    });
                    let base = quality_of_level(l);
                    let lost_frac = if c.bytes == 0 {
                        0.0
                    } else {
                        (c.lost_bytes() as f64 / c.bytes as f64).min(1.0)
                    };
                    quality += tokens as f64 * base * (1.0 - lost_frac * (1.0 - effectiveness));
                    restore_quality += tokens as f64 * base;
                    kv_tokens += tokens;
                }
            }
        }
        quality /= total_tokens.max(1) as f64;
        restore_quality /= total_tokens.max(1) as f64;

        // Only a stream delivered entirely as KV bitstreams is cacheable:
        // text chunks are recomputed on the GPU and leave no bitstream, so
        // a mixed stream would serve future hits from data that was never
        // fetched. Cache the bytes that are resident and the quality they
        // carry.
        if kv_tokens == total_tokens {
            for evicted in self.cache.insert(context_id, out.bytes_sent) {
                self.cached.remove(&evicted);
            }
            if self.cache.contains(context_id) {
                self.cached.insert(
                    context_id,
                    CachedMeta {
                        bytes: out.bytes_sent,
                        quality,
                        chunks: chunk_work.clone(),
                    },
                );
            }
        }
        let outcome = BatchOutcome {
            ready: out.finish,
            quality,
            cache_hit: false,
            lost_bytes: out.lost_bytes(),
            restore_quality,
        };
        (outcome, chunk_work)
    }

    /// Serves a loss-repair re-fetch: pulls the missing bytes over the
    /// shard's link and, if the context is still resident, restores its
    /// cached quality. Returns when the re-fetched data was in hand. Only
    /// a per-packet-fault link loses bytes, so a re-fetch always rides
    /// that faulty wire, as one packet resent until it lands — the
    /// re-fetch is the reliability layer, so *it* stalls, never the
    /// original stream.
    pub fn serve_refetch(
        &mut self,
        context_id: ContextId,
        bytes: u64,
        restore_quality: f64,
        now: f64,
    ) -> f64 {
        let mut t = now;
        let mut finish = now;
        loop {
            let res = self.link.send_packets(&[bytes], t);
            t = res.wire_finish;
            finish = finish.max(res.last_arrival);
            self.stats.bytes_fetched += bytes;
            if res.all_delivered() {
                break;
            }
            // NACK round trip before the resend, as in the streamer.
            t = t.max(res.last_arrival + self.link.propagation());
        }
        self.stats.refetched_bytes += bytes;
        if let Some(meta) = self.cached.get_mut(&context_id) {
            meta.quality = meta.quality.max(restore_quality);
        }
        finish
    }
}

/// Fraction of a repaired chunk's quality the policy retains: zero-fill
/// mutes the tokens, neighbor-anchor interpolation reconstructs most of
/// their signal, and refetch is zero-fill until the re-fetch lands.
pub fn repair_effectiveness(policy: RepairPolicy) -> f64 {
    match policy {
        RepairPolicy::ZeroFill | RepairPolicy::Refetch => 0.0,
        RepairPolicy::AnchorInterpolate => 0.65,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachegen::EngineConfig;
    use cachegen_llm::SimModelConfig;
    use cachegen_net::BandwidthTrace;
    use cachegen_telemetry::NOOP;

    fn shard(cfg: &ServingConfig) -> Shard {
        let profile: Vec<usize> = (0..60).map(|i| (i * 7) % 64).collect();
        let engine = CacheGenEngine::build(
            SimModelConfig::tiny(42),
            EngineConfig::default(),
            &[profile],
        );
        let link = Link::new(BandwidthTrace::constant(1e6), 0.0);
        Shard::new(0, engine, link, cfg)
    }

    #[test]
    fn second_fetch_hits_cache_and_is_faster() {
        let cfg = ServingConfig::default();
        let mut s = shard(&cfg);
        let ctx: Vec<usize> = (0..90).map(|i| (i * 3) % 64).collect();
        s.store_context(5, &ctx);
        assert!(s.owns(5));
        let miss = s.serve_batch(5, false, 0.0, &cfg, &NOOP).0;
        assert!(!miss.cache_hit);
        let hit = s.serve_batch(5, false, miss.ready, &cfg, &NOOP).0;
        assert!(hit.cache_hit);
        assert!(
            hit.ready - miss.ready < miss.ready,
            "hit {} should be faster than miss {}",
            hit.ready - miss.ready,
            miss.ready
        );
        assert_eq!(s.cache.stats().hits, 1);
        assert_eq!(s.cache.stats().misses, 1);
    }

    #[test]
    fn cache_hit_decodes_at_the_simulated_gpu_rate() {
        let cfg = ServingConfig::default();
        let mut s = shard(&cfg);
        let ctx: Vec<usize> = (0..90).map(|i| (i * 3) % 64).collect();
        s.store_context(5, &ctx);
        s.serve_batch(5, false, 0.0, &cfg, &NOOP);
        let hit = s.serve_batch(5, false, 1.0, &cfg, &NOOP).0;
        assert!(hit.cache_hit);
        // A hit pays the decode of the resident bytes and nothing else.
        let decode = s.cached_bytes() as f64 / DECODE_BYTES_PER_SEC;
        assert_eq!(hit.ready, 1.0 + decode);
    }

    #[test]
    fn degraded_batch_fetches_fewer_bytes_at_lower_quality() {
        let cfg = ServingConfig::default();
        let mut s = shard(&cfg);
        let ctx: Vec<usize> = (0..90).map(|i| (i * 5) % 64).collect();
        s.store_context(9, &ctx);
        let normal = s.serve_batch(9, false, 0.0, &cfg, &NOOP).0;
        let fetched_normal = s.stats.bytes_fetched;

        let mut s2 = shard(&cfg);
        s2.store_context(9, &ctx);
        let degraded = s2.serve_batch(9, true, 0.0, &cfg, &NOOP).0;
        assert!(
            s2.stats.bytes_fetched < fetched_normal,
            "degraded fetch {} vs normal {}",
            s2.stats.bytes_fetched,
            fetched_normal
        );
        assert!(degraded.quality < normal.quality);
        assert!(degraded.ready < normal.ready, "coarser level loads faster");
    }

    #[test]
    fn all_text_stream_does_not_populate_cache() {
        let cfg = ServingConfig {
            policy: AdaptPolicy::AlwaysText,
            ..ServingConfig::default()
        };
        let mut s = shard(&cfg);
        let ctx: Vec<usize> = (0..60).map(|i| (i * 11) % 64).collect();
        s.store_context(3, &ctx);
        let first = s.serve_batch(3, false, 0.0, &cfg, &NOOP).0;
        assert!(!first.cache_hit);
        assert!((first.quality - 1.0).abs() < 1e-9, "text is lossless");
        let second = s.serve_batch(3, false, first.ready, &cfg, &NOOP).0;
        assert!(!second.cache_hit, "text fallback leaves no bitstream");
    }

    #[test]
    fn refetch_resends_after_each_nack_until_delivered() {
        use cachegen_net::PacketFaults;
        let lossy = || {
            Link::new(BandwidthTrace::constant(1e6), 0.01)
                .with_packet_faults(PacketFaults::loss(0.6), 3)
        };
        let cfg = ServingConfig::default();
        let mut s = shard(&cfg);
        s.link = lossy();
        let finish = s.serve_refetch(1, 1_000, 0.9, 0.5);

        // The same link driven by hand: one packet, resent one NACK round
        // trip after each failed send's last arrival.
        let mut link = lossy();
        let (mut t, mut sends) = (0.5, 0u64);
        let expected = loop {
            let res = link.send_packets(&[1_000], t);
            sends += 1;
            if res.all_delivered() {
                break res.last_arrival;
            }
            t = res.last_arrival + link.propagation();
        };
        assert!(sends >= 2, "the seeded link must drop the first send");
        assert_eq!(finish, expected);
        // Every send is fetched bytes; the re-fetch itself counts once.
        assert_eq!(s.stats.bytes_fetched, sends * 1_000);
        assert_eq!(s.stats.refetched_bytes, 1_000);
    }
}
