//! The read path over stored bytes ([`load_stored`]) against the
//! ingest + load convenience ([`load_context`]):
//!
//! * across clean, lossy, bursty, FEC, refetch, text-fallback and batched
//!   loads, both entry points return the same outcome field for field, and
//!   loading the same stored context again returns it again;
//! * a hostile store — missing entries, truncated or bit-flipped
//!   containers, a well-formed chunk that is not the plan's — yields the
//!   matching [`LoadError`], never a panic.

use bytes::Bytes;
use cachegen::{
    load_context, load_stored, CacheGenEngine, EngineConfig, FecOverhead, LoadError, LoadOutcome,
    LoadParams, RepairPolicy,
};
use cachegen_codec::CodecError;
use cachegen_kvstore::{FetchedChunk, StoredChunk};
use cachegen_llm::SimModelConfig;
use cachegen_net::{BandwidthTrace, Link, PacketFaults};
use cachegen_streamer::{AdaptPolicy, ChunkPlan, StreamConfig};
use cachegen_telemetry::NOOP;
use cachegen_workloads::{workload_rng, Dataset};

const BW_BPS: f64 = 1.0e6;
const ID: u64 = 7;

fn engine_and_context() -> (CacheGenEngine, Vec<usize>) {
    let mut rng = workload_rng(900);
    let profile = Dataset::LongChat.generate(&mut rng, 512, 90).tokens;
    let engine = CacheGenEngine::build(
        SimModelConfig::llama7b_sim(42),
        EngineConfig::default(),
        &[profile],
    );
    let ctx = Dataset::LongChat.generate(&mut rng, 512, 90).tokens;
    (engine, ctx)
}

fn assert_same(a: &LoadOutcome, b: &LoadOutcome, what: &str) {
    assert_eq!(a.cache, b.cache, "{what}: cache");
    assert_eq!(a.stream, b.stream, "{what}: stream");
    assert_eq!(a.repairs, b.repairs, "{what}: repairs");
    assert_eq!(a.fec_recovered, b.fec_recovered, "{what}: fec_recovered");
    assert_eq!(
        a.repaired_fraction.to_bits(),
        b.repaired_fraction.to_bits(),
        "{what}: repaired_fraction"
    );
    assert_eq!(a.parity_bytes, b.parity_bytes, "{what}: parity_bytes");
    assert_eq!(a.refetch_finish, b.refetch_finish, "{what}: refetch_finish");
}

/// Every arm of the one load body, over three fault seeds: the read path
/// equals ingest + load, and a second load of the same stored bytes equals
/// the first.
#[test]
fn load_stored_equals_load_context_and_repeats() {
    let (engine, ctx) = engine_and_context();
    let reference = engine.calculate_kv(&ctx);
    let plan = engine.store_prefilled(ID, &ctx, &reference);
    let lossy = LoadParams {
        policy: AdaptPolicy::FixedLevel(2),
        prior_throughput_bps: Some(BW_BPS),
        ..LoadParams::default()
    };
    let bursts = PacketFaults {
        burst_start: 0.03,
        burst_len: 4,
        ..PacketFaults::none()
    };
    // Level 0 alone would take 2.8× the SLO and recomputing every chunk
    // 1.4×: the adapter has to mix coarse levels and text chunks to fit.
    let starved_bps = plan.total_bytes_at_level(0) as f64 * 8.0 / 1.4;
    let cases: Vec<(&str, f64, PacketFaults, LoadParams)> = vec![
        ("clean", BW_BPS, PacketFaults::none(), LoadParams::default()),
        (
            "10% loss, RS(12,2)",
            BW_BPS,
            PacketFaults::loss(0.10),
            LoadParams {
                fec_overhead: FecOverhead::Rs { k: 12, r: 2 },
                ..lossy.clone()
            },
        ),
        (
            "4-packet bursts, adaptive FEC",
            BW_BPS,
            bursts,
            LoadParams {
                fec_overhead: FecOverhead::adaptive_default(),
                ..lossy.clone()
            },
        ),
        (
            "refetch, budget 0",
            BW_BPS,
            PacketFaults::loss(0.15),
            LoadParams {
                repair: RepairPolicy::Refetch,
                retransmit_budget: 0,
                ..lossy.clone()
            },
        ),
        (
            "refetch, budget 2",
            BW_BPS,
            PacketFaults::loss(0.15),
            LoadParams {
                repair: RepairPolicy::Refetch,
                retransmit_budget: 2,
                ..lossy.clone()
            },
        ),
        (
            "starved link, text fallback",
            starved_bps,
            PacketFaults::loss(0.05),
            LoadParams {
                slo: Some(0.5),
                prior_throughput_bps: Some(starved_bps),
                recompute_sec_per_token: 8e-3,
                ..LoadParams::default()
            },
        ),
        (
            "3 concurrent requests",
            BW_BPS,
            PacketFaults::loss(0.10),
            LoadParams {
                concurrent_requests: 3,
                repair: RepairPolicy::Refetch,
                ..lossy.clone()
            },
        ),
    ];
    for (name, bps, faults, params) in &cases {
        for seed in [3u64, 31, 77] {
            let what = format!("{name}, seed {seed}");
            let link = || {
                Link::new(BandwidthTrace::constant(*bps), 0.05).with_packet_faults(*faults, seed)
            };
            let stored = |what: &str| {
                load_stored(&engine, ID, &plan, &mut link(), params, &NOOP)
                    .unwrap_or_else(|e| panic!("{what}: {e}"))
            };
            let ingest = load_context(&engine, &reference, &mut link(), params);
            let first = stored(&what);
            assert_same(&first, &ingest, &what);
            assert_same(&stored(&what), &first, &format!("{what}, second load"));
            assert_eq!(first.cache.tokens(), ctx.len());
        }
    }
    // The matrix is not vacuous: the arms it names were taken.
    let run = |i: usize| {
        let (_, bps, faults, params) = &cases[i];
        let mut link =
            Link::new(BandwidthTrace::constant(*bps), 0.05).with_packet_faults(*faults, 3);
        load_stored(&engine, ID, &plan, &mut link, params, &NOOP).expect("stored context loads")
    };
    assert!(!run(1).fec_recovered.is_empty(), "RS recovered nothing");
    assert!(run(3).refetch_finish.is_some(), "no refetch pass ran");
    let configs: Vec<StreamConfig> = run(5).stream.chunks.iter().map(|c| c.config).collect();
    assert!(
        configs.contains(&StreamConfig::Text)
            && configs.iter().any(|c| matches!(c, StreamConfig::Level(_))),
        "starved link should mix text and KV chunks: {configs:?}"
    );
}

/// Rewrites one stored version (`level: Some`) or the text fallback
/// (`None`) of `chunk`, leaving everything else as stored.
fn tamper(
    engine: &CacheGenEngine,
    plan: &ChunkPlan,
    chunk: usize,
    level: Option<usize>,
    edit: impl Fn(&[u8]) -> Vec<u8>,
) {
    let bytes = |f: Option<FetchedChunk>| match f.expect("context is stored") {
        FetchedChunk::Encoded(b) | FetchedChunk::Text(b) => b,
    };
    let rewrite = |b: Bytes, hit: bool| if hit { Bytes::from(edit(&b)) } else { b };
    let chunks = (0..plan.num_chunks())
        .map(|c| StoredChunk {
            tokens: plan.chunk(c).tokens,
            versions: (0..engine.num_levels())
                .map(|l| {
                    rewrite(
                        bytes(engine.get_kv(ID, c, l)),
                        c == chunk && level == Some(l),
                    )
                })
                .collect(),
            text: rewrite(
                bytes(engine.store().get_text(ID, c)),
                c == chunk && level.is_none(),
            ),
        })
        .collect();
    engine.store().store_kv(ID, chunks);
}

#[test]
fn hostile_store_yields_typed_errors() {
    let (engine, ctx) = engine_and_context();
    let reference = engine.calculate_kv(&ctx);
    let plan = engine.store_prefilled(ID, &ctx, &reference);
    let level = 1;
    // Clean fast link at a fixed level: every chunk's `level` version is
    // fetched; starved link: every chunk falls back to text.
    let kv = LoadParams {
        policy: AdaptPolicy::FixedLevel(level),
        ..LoadParams::default()
    };
    let text = LoadParams {
        slo: Some(5.0),
        prior_throughput_bps: Some(1e4),
        ..LoadParams::default()
    };
    let load = |id: u64, plan: &ChunkPlan, params: &LoadParams| {
        let bps = if params.slo.is_some() { 1e4 } else { 1e9 };
        let mut link = Link::new(BandwidthTrace::constant(bps), 0.0);
        load_stored(&engine, id, plan, &mut link, params, &NOOP).map(|out| out.cache)
    };
    let restore = || engine.store_prefilled(ID, &ctx, &reference);
    assert_eq!(load(ID, &plan, &text), Ok(reference.clone()));

    // Unknown id: nothing to fetch, as KV or as text.
    let missing = |chunk, level| LoadError::NotStored {
        id: 99,
        chunk,
        level,
    };
    assert_eq!(load(99, &plan, &kv), Err(missing(0, Some(level))));
    assert_eq!(load(99, &plan, &text), Err(missing(0, None)));

    // A plan one chunk longer than what is stored under the id.
    let short = engine.store_kv(ID, &ctx[..60]);
    assert_eq!(short.num_chunks() + 1, plan.num_chunks());
    let past = LoadError::NotStored {
        id: ID,
        chunk: 2,
        level: Some(level),
    };
    assert_eq!(load(ID, &plan, &kv), Err(past));
    restore();

    // A truncated version and a bit-flipped header do not parse.
    tamper(&engine, &plan, 1, Some(level), |b| {
        b[..b.len() / 2].to_vec()
    });
    assert!(matches!(load(ID, &plan, &kv), Err(LoadError::Parse(_))));
    restore();
    tamper(&engine, &plan, 1, Some(level), |b| {
        let mut b = b.to_vec();
        b[2] ^= 0x10; // magic
        b
    });
    assert!(matches!(load(ID, &plan, &kv), Err(LoadError::Parse(_))));
    restore();

    // A bit flip inside an entropy payload parses but does not decode.
    tamper(&engine, &plan, 0, Some(level), |b| {
        let mut b = b.to_vec();
        let last = b.len() - 1;
        b[last] ^= 0x01;
        b
    });
    let codec = load(ID, &plan, &kv);
    assert!(
        matches!(
            codec,
            Err(LoadError::Codec(CodecError::CorruptChunk { .. }))
        ),
        "got {codec:?}"
    );
    restore();

    // A valid container of the wrong chunk: 20 tokens where the plan says 30.
    let wrong = engine.encode_at_level(&reference.slice_tokens(0, 20), level);
    tamper(&engine, &plan, 2, Some(level), |_| wrong.to_bytes());
    let mismatch = load(ID, &plan, &kv);
    assert!(
        matches!(mismatch, Err(LoadError::PlanMismatch(_))),
        "got {mismatch:?}"
    );
    restore();

    // Hostile text: a short token list, and a token outside the vocabulary.
    let not_the_plans = |edit: &dyn Fn(&[u8]) -> Vec<u8>| {
        tamper(&engine, &plan, 1, None, edit);
        let got = load(ID, &plan, &text);
        assert!(
            matches!(got, Err(LoadError::PlanMismatch(_))),
            "got {got:?}"
        );
        restore();
    };
    not_the_plans(&|b| b[..b.len() - 4].to_vec());
    not_the_plans(&|b| [&u32::MAX.to_le_bytes()[..], &b[4..]].concat());

    // The store is whole again: the same id loads as before.
    assert_eq!(load(ID, &plan, &text), Ok(reference));
}
