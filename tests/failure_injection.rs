//! Failure injection: lossy links, corrupted bitstreams, eviction races.
//!
//! In the spirit of the smoltcp examples' `--drop-chance` / `--corrupt-
//! chance` options: the system must degrade predictably, never panic on
//! malformed input, and keep its accounting consistent under faults.

use cachegen::{load_stored, CacheGenEngine, EngineConfig, LoadOutcome, LoadParams};
use cachegen_codec::EncodedKv;
use cachegen_llm::SimModelConfig;
use cachegen_net::trace::{BandwidthTrace, GBPS};
use cachegen_net::Link;
use cachegen_streamer::{AdaptPolicy, ChunkPlan};
use cachegen_telemetry::NOOP;
use cachegen_workloads::{workload_rng, Dataset};

fn engine() -> (CacheGenEngine, Vec<usize>) {
    let mut rng = workload_rng(900);
    let profile = Dataset::LongChat.generate(&mut rng, 512, 150).tokens;
    let engine = CacheGenEngine::build(
        SimModelConfig::llama7b_sim(42),
        EngineConfig::default(),
        &[profile],
    );
    let ctx = Dataset::LongChat.generate(&mut rng, 512, 150).tokens;
    (engine, ctx)
}

/// Id the load tests store their one context under.
const ID: u64 = 1;

/// Loads the context stored under [`ID`].
fn load(engine: &CacheGenEngine, plan: &ChunkPlan, link: &mut Link, p: &LoadParams) -> LoadOutcome {
    load_stored(engine, ID, plan, link, p, &NOOP).expect("stored context loads")
}

/// A slower trace costs time, never damage: the load still completes and
/// the cache is bit-identical to the fast link's.
#[test]
fn slower_trace_costs_time_never_damage() {
    let (engine, ctx) = engine();
    let plan = engine.store_kv(ID, &ctx);
    let mut clean = Link::new(BandwidthTrace::constant(GBPS), 0.0);
    let t_clean = load(&engine, &plan, &mut clean, &LoadParams::default());
    let mut slow = Link::new(BandwidthTrace::constant(GBPS * 0.8), 0.0);
    let t_slow = load(&engine, &plan, &mut slow, &LoadParams::default());
    assert_eq!(t_slow.cache.tokens(), ctx.len());
    assert!(
        t_slow.stream.finish > t_clean.stream.finish,
        "a slower link must cost time: {} vs {}",
        t_slow.stream.finish,
        t_clean.stream.finish
    );
    // Delivered payload is identical — slowness shows up as delay only.
    assert_eq!(t_slow.cache, t_clean.cache);
    assert!(
        t_slow.repairs.is_empty(),
        "fault-free links never leave holes"
    );
}

/// The adapter still meets the SLO when the link delivers only 70% of the
/// goodput the plan was sized for, by downshifting harder.
#[test]
fn adapter_compensates_for_loss() {
    let (engine, ctx) = engine();
    let plan = engine.store_kv(ID, &ctx);
    let bw = plan.total_bytes_at_level(0) as f64 * 8.0 / 0.9; // level 0 ≈ 0.9 s clean
    let p = LoadParams {
        slo: Some(1.0),
        policy: AdaptPolicy::Adaptive,
        prior_throughput_bps: Some(bw * 0.5), // conservative prior
        recompute_sec_per_token: 0.5,
        ..LoadParams::default()
    };
    let mut slow = Link::new(BandwidthTrace::constant(bw * 0.7), 0.0);
    let out = load(&engine, &plan, &mut slow, &p);
    assert!(
        out.stream.slo_met,
        "adapter should absorb a 30% goodput shortfall: finish {}",
        out.stream.finish
    );
}

/// On a per-packet-fault link, holes are repaired — the load completes at
/// the clean link's pace with provenance for every damaged chunk, and the
/// cache contains no undecoded noise.
#[test]
fn packet_loss_degrades_instead_of_stalling() {
    use cachegen::RepairPolicy;
    use cachegen_net::PacketFaults;
    let (engine, ctx) = engine();
    let plan = engine.store_kv(ID, &ctx);
    let mut clean = Link::new(BandwidthTrace::constant(GBPS), 0.0);
    let t_clean = load(&engine, &plan, &mut clean, &LoadParams::default());
    let mut lossy = Link::new(BandwidthTrace::constant(GBPS), 0.0)
        .with_packet_faults(PacketFaults::loss(0.15), 77);
    let p = LoadParams {
        repair: RepairPolicy::AnchorInterpolate,
        retransmit_budget: 0,
        ..LoadParams::default()
    };
    let t_lossy = load(&engine, &plan, &mut lossy, &p);
    assert_eq!(t_lossy.cache.tokens(), ctx.len());
    assert!(!t_lossy.repairs.is_empty(), "15% loss must need repairs");
    assert!(t_lossy.repaired_fraction > 0.0 && t_lossy.repaired_fraction < 1.0);
    assert!(t_lossy.cache.k().data().iter().all(|x| x.is_finite()));
    assert!(t_lossy.cache.v().data().iter().all(|x| x.is_finite()));
    // No stall: the damaged stream finishes within a whisker of clean.
    assert!(
        t_lossy.stream.finish <= t_clean.stream.finish * 1.1 + 0.05,
        "repair path must not stall: {} vs {}",
        t_lossy.stream.finish,
        t_clean.stream.finish
    );
}

/// Every single-byte truncation of a valid container either parses to the
/// identical value (impossible here) or errors — never panics.
#[test]
fn truncated_bitstreams_error_cleanly() {
    let (engine, ctx) = engine();
    let cache = engine.calculate_kv(&ctx);
    let bytes = engine
        .encode_at_level(&cache.slice_tokens(0, 30), 1)
        .to_bytes();
    for cut in 0..bytes.len() {
        let r = EncodedKv::from_bytes(&bytes[..cut]);
        assert!(r.is_err(), "truncation at {cut} should fail to parse");
    }
}

/// Corrupting stream payload bytes never crashes the decoder: the
/// fallible decode either detects the damage through the chunk's exact
/// byte accounting (a [`cachegen_codec::CodecError`]) or yields a
/// *different but total* decode (range decoding maps any bit pattern to
/// some symbol sequence) whose blast radius is confined to the corrupted
/// (layer, group) chunk.
#[test]
fn corrupted_payload_decodes_or_reports_without_panic() {
    let (engine, ctx) = engine();
    let cache = engine.calculate_kv(&ctx);
    let chunk = cache.slice_tokens(0, 30);
    let enc = engine.encode_at_level(&chunk, 1);
    let reference = engine.try_decode_at_level(&enc, 1).unwrap();
    let mut corrupted = enc.clone();
    let payload = &mut corrupted.k_chunks[0][0];
    let mid = payload.len() / 2;
    payload[mid] ^= 0xFF;
    match engine.try_decode_at_level(&corrupted, 1) {
        Err(e) => {
            // Exact accounting caught the damage and named the chunk.
            assert!(format!("{e}").contains("layer 0"), "got: {e}");
        }
        Ok(got) => {
            assert_eq!(got.tokens(), reference.tokens(), "shape must survive");
            assert!(got.k().data().iter().all(|v| v.is_finite()));
            // Damage cannot leak outside the corrupted chunk's layer 0
            // token range; every other layer decodes identically.
            for l in 1..got.layers() {
                assert_eq!(got.k().slab(l), reference.k().slab(l));
            }
            assert_eq!(got.v(), reference.v());
        }
    }
}

/// Decoding with a mismatched level never panics through the fallible
/// path — the engine ships the level out of band, so this is the blast
/// radius of a level-routing bug. The chunked decoder's exact byte
/// accounting usually *detects* the mismatch (the wrong level's frequency
/// tables consume a different byte count than the chunk frames); when the
/// counts happen to coincide, the decode is total (shape preserved,
/// finite) as before.
#[test]
fn wrong_level_decode_is_reported_or_total() {
    let (engine, ctx) = engine();
    let cache = engine.calculate_kv(&ctx);
    let chunk = cache.slice_tokens(0, 30);
    let enc = engine.encode_at_level(&chunk, 0);
    match engine.try_decode_at_level(&enc, engine.num_levels() - 1) {
        Err(_) => {} // mismatch detected — the routing bug is surfaced
        Ok(wrong) => {
            assert_eq!(wrong.tokens(), 30);
            assert!(wrong.k().data().iter().all(|v| v.is_finite()));
        }
    }
}

/// Store eviction under concurrent readers keeps accounting exact.
#[test]
fn eviction_accounting_under_concurrency() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let (engine, ctx) = engine();
    for id in 0..4u64 {
        engine.store_kv(id, &ctx);
    }
    let total = engine.store().total_bytes();
    let per: Vec<u64> = (0..4)
        .map(|i| engine.store().context_bytes(i).unwrap())
        .collect();
    assert_eq!(total, per.iter().sum::<u64>());

    let freed = AtomicU64::new(0);
    let evict = |_, id| {
        freed.fetch_add(engine.store().evict(id), Ordering::Relaxed);
        Ok::<(), ()>(())
    };
    let done = cachegen_codec::pool::run_pooled((0..4u64).collect(), 4, evict, |_| {});
    assert_eq!(done, Ok(()));
    assert_eq!(freed.load(Ordering::Relaxed), total);
    assert_eq!(engine.store().total_bytes(), 0);
}

/// Zero-propagation-delay and high-propagation links bracket the finish
/// time monotonically.
#[test]
fn propagation_delay_monotonicity() {
    let (engine, ctx) = engine();
    let plan = engine.store_kv(ID, &ctx);
    let run = |prop: f64| {
        let mut link = Link::new(BandwidthTrace::constant(GBPS), prop);
        load(&engine, &plan, &mut link, &LoadParams::default())
            .stream
            .finish
    };
    let t0 = run(0.0);
    let t1 = run(0.05);
    let t2 = run(0.5);
    assert!(t0 < t1 && t1 < t2, "{t0} {t1} {t2}");
}
