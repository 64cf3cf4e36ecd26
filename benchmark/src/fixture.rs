//! What every workload is measured on: the engine, the corpus, and the
//! streaming parameters. Building it is the program's set-up (`setup_s`).

use crate::trace::Tracer;
use cachegen::{CacheGenEngine, EngineConfig, FecOverhead, LoadParams, RepairPolicy};
use cachegen_codec::EncodedKv;
use cachegen_kvstore::StoredChunk;
use cachegen_llm::{KvCache, SimModelConfig};
use cachegen_net::{BandwidthTrace, Link, PacketFaults};
use cachegen_streamer::{AdaptPolicy, ChunkPlan, StreamParams};
use cachegen_workloads::{workload_rng, Dataset};
use std::time::Instant;

/// Weight seed of the simulated model (fixed; `--seed` varies inputs).
pub const MODEL_SEED: u64 = 42;
/// Tokens per context. All contexts are equally long: with mixed lengths
/// operation times are bimodal and the median jumps between the modes.
pub const CONTEXT_TOKENS: usize = 480;
/// Store → loader link rate, bits/s.
pub const LINK_BPS: f64 = 4e6;
/// One-way propagation delay, seconds.
pub const PROPAGATION_S: f64 = 0.010;
/// The deadline handed to the streaming adapter, seconds.
pub const PLAN_SLO_S: f64 = 0.48;
/// The deadline operations are judged against, seconds. The adapter
/// plans to its deadline with no margin, so under packet loss the finish
/// lands within about 2% either side of `PLAN_SLO_S`; judged at the
/// planning deadline itself, `slo_met_share` would be a coin flip.
pub const SLO_S: f64 = 0.60;
/// Prefill recompute price, seconds per token. At the crate default
/// (1e-3) the adapter ships every chunk of a 480-token context as text
/// and a "load" decodes nothing.
pub const RECOMPUTE_S_PER_TOKEN: f64 = 5e-3;
/// Virtual GPU decode rate of compressed bytes (the crate default).
pub const DECODE_BYTES_PER_S: f64 = 8.0e9;
/// The level `transport_burst` ships and the level reference reads of
/// single chunks use.
pub const MID_LEVEL: usize = 2;

fn decode_seconds(bytes: u64) -> f64 {
    bytes as f64 / DECODE_BYTES_PER_S
}

fn recompute_seconds(tokens: usize) -> f64 {
    tokens as f64 * RECOMPUTE_S_PER_TOKEN
}

/// The streaming parameters of every workload that streams.
pub fn stream_params<'a>(engine: &'a CacheGenEngine, fec: FecOverhead) -> StreamParams<'a> {
    StreamParams {
        slo: Some(PLAN_SLO_S),
        policy: AdaptPolicy::Adaptive,
        prior_throughput_bps: Some(LINK_BPS),
        concurrent_requests: 1,
        retransmit_budget: 0,
        fec_overhead: fec,
        ladder: &engine.config().ladder,
        decode_seconds: &decode_seconds,
        recompute_seconds: &recompute_seconds,
        recorder: None,
    }
}

/// The same parameters in the shape the library's one-call
/// `load_context` takes (the reference the composed operation is
/// checked against).
pub fn load_params(fec: FecOverhead) -> LoadParams {
    LoadParams {
        slo: Some(PLAN_SLO_S),
        policy: AdaptPolicy::Adaptive,
        prior_throughput_bps: Some(LINK_BPS),
        concurrent_requests: 1,
        decode_bytes_per_sec: DECODE_BYTES_PER_S,
        recompute_sec_per_token: RECOMPUTE_S_PER_TOKEN,
        repair: RepairPolicy::AnchorInterpolate,
        retransmit_budget: 0,
        fec_overhead: fec,
    }
}

/// The standard link, clean or with per-packet faults.
pub fn link(faults: Option<(PacketFaults, u64)>) -> Link {
    let link = Link::new(BandwidthTrace::constant(LINK_BPS), PROPAGATION_S);
    match faults {
        Some((f, seed)) => link.with_packet_faults(f, seed),
        None => link,
    }
}

/// splitmix64: derives independent fault seeds from `--seed` and a slot.
pub fn mix(seed: u64, slot: u64) -> u64 {
    let mut z = seed
        .wrapping_add(slot.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Profiling contexts of the engine: 2 LongChat samples × 200 tokens.
pub fn profile_contexts(rng: &mut rand::rngs::StdRng, vocab: usize) -> Vec<Vec<usize>> {
    (0..2)
        .map(|_| Dataset::LongChat.generate(rng, vocab, 200).tokens)
        .collect()
}

/// Serialises one context's encodings and puts them in the engine's
/// store: what `CacheGenEngine::store_kv` does after prefill and encode.
pub fn store_encoded(
    engine: &CacheGenEngine,
    id: u64,
    tokens: &[usize],
    encoded: &[Vec<EncodedKv>],
    tr: &mut Tracer,
) {
    let mut stored = Vec::with_capacity(encoded.len());
    let mut start = 0usize;
    for versions in encoded {
        let n = versions[0].tokens;
        let text: Vec<u8> = tokens[start..start + n]
            .iter()
            .flat_map(|&t| (t as u32).to_le_bytes())
            .collect();
        start += n;
        stored.push(StoredChunk {
            tokens: n,
            versions: versions
                .iter()
                .map(|e| bytes::Bytes::from(tr.span("codec.to_bytes", || e.to_bytes())))
                .collect(),
            text: bytes::Bytes::from(text),
        });
    }
    tr.span("kvstore.store_kv", || engine.store().store_kv(id, stored));
}

/// Engine + corpus: 8 contexts (`Dataset::all()` × 2) of
/// [`CONTEXT_TOKENS`] tokens, prefilled, encoded at every level and
/// stored under ids `0..8`.
pub struct EngineFixture {
    /// The engine under test.
    pub engine: CacheGenEngine,
    /// Context tokens.
    pub contexts: Vec<Vec<usize>>,
    /// Full-precision KV of each context.
    pub kvs: Vec<KvCache>,
    /// `encoded[context][chunk][level]`.
    pub encoded: Vec<Vec<Vec<EncodedKv>>>,
    /// The offline plan of each context.
    pub plans: Vec<ChunkPlan>,
    /// Seconds the corpus prefill (`calculate_kv`) took.
    pub prefill_secs: f64,
}

impl EngineFixture {
    /// Builds the fixture; every input derives from `seed`.
    pub fn build(seed: u64) -> Self {
        let model = SimModelConfig::llama7b_sim(MODEL_SEED);
        let vocab = model.vocab;
        let mut rng = workload_rng(seed);
        let profile = profile_contexts(&mut rng, vocab);
        let engine = CacheGenEngine::build(model, EngineConfig::default(), &profile);
        let contexts: Vec<Vec<usize>> = Dataset::all()
            .iter()
            .flat_map(|d| {
                d.generate_set(&mut rng, vocab, CONTEXT_TOKENS, 2)
                    .into_iter()
                    .map(|s| s.tokens)
            })
            .collect();
        let prefill = Instant::now();
        let kvs: Vec<KvCache> = contexts.iter().map(|c| engine.calculate_kv(c)).collect();
        let prefill_secs = prefill.elapsed().as_secs_f64();
        let mut encoded = Vec::with_capacity(kvs.len());
        let mut plans = Vec::with_capacity(kvs.len());
        for (id, kv) in kvs.iter().enumerate() {
            let (enc, plan) = engine.encode_context(kv);
            store_encoded(&engine, id as u64, &contexts[id], &enc, &mut Tracer::off());
            encoded.push(enc);
            plans.push(plan);
        }
        EngineFixture {
            engine,
            contexts,
            kvs,
            encoded,
            plans,
            prefill_secs,
        }
    }

    /// Corpus tokens in total.
    pub fn corpus_tokens(&self) -> usize {
        self.contexts.iter().map(Vec::len).sum()
    }
}

/// Mean square of a cache's values (K and V averaged like
/// `KvCache::mse`), the denominator of `kv_nmse`.
pub fn mean_square(kv: &KvCache) -> f64 {
    let ms =
        |d: &[f32]| d.iter().map(|&x| f64::from(x) * f64::from(x)).sum::<f64>() / d.len() as f64;
    (ms(kv.k().data()) + ms(kv.v().data())) / 2.0
}

/// `KvCache::mse(got, reference)` over the reference's mean square.
pub fn nmse(got: &KvCache, reference: &KvCache) -> f64 {
    f64::from(reference.mse(got)) / mean_square(reference)
}

/// Order-sensitive 64-bit digest of a cache's exact bit patterns: what
/// the timed loop compares instead of keeping every expected cache.
pub fn digest(kv: &KvCache) -> u64 {
    let fold = |h: u64, d: &[f32]| {
        d.iter().fold(h, |h, &x| {
            (h ^ u64::from(x.to_bits()))
                .wrapping_mul(0x0000_0100_0000_01B3)
                .rotate_left(23)
        })
    };
    fold(fold(0xCBF2_9CE4_8422_2325, kv.k().data()), kv.v().data())
}
