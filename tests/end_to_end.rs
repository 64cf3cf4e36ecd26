//! Cross-crate integration tests: the full CacheGen data path.

use cachegen::{load_stored, CacheGenEngine, EngineConfig, LoadParams};
use cachegen_baselines::{h2o, lingua, quantization_baseline};
use cachegen_codec::{CodecConfig, CodecProfile, KvCodec};
use cachegen_llm::{eval, SimModelConfig, SimTransformer};
use cachegen_net::trace::{BandwidthTrace, GBPS};
use cachegen_net::Link;
use cachegen_streamer::{AdaptPolicy, StreamConfig};
use cachegen_telemetry::NOOP;
use cachegen_workloads::{workload_rng, Dataset};

fn build_engine(seed: u64) -> (CacheGenEngine, Vec<usize>) {
    let mut rng = workload_rng(seed);
    let vocab = 512;
    let profile: Vec<Vec<usize>> = (0..2)
        .map(|_| Dataset::LongChat.generate(&mut rng, vocab, 200).tokens)
        .collect();
    let engine = CacheGenEngine::build(
        SimModelConfig::llama7b_sim(42),
        EngineConfig::default(),
        &profile,
    );
    let ctx = Dataset::LongChat.generate(&mut rng, vocab, 200).tokens;
    (engine, ctx)
}

fn prompts(n: usize, vocab: usize) -> Vec<Vec<usize>> {
    (0..n)
        .map(|p| vec![(p * 13) % vocab, (p * 31 + 5) % vocab])
        .collect()
}

/// Table 1's core claim: at comparable accuracy, CacheGen's bitstream is
/// several times smaller than the 8-bit quantization baseline.
#[test]
fn table1_cachegen_beats_8bit_at_matched_quality() {
    let (engine, ctx) = build_engine(100);
    let cache = engine.calculate_kv(&ctx);
    let ps = prompts(24, 512);

    let q8 = quantization_baseline(&cache, 8);
    let acc_q8 = eval::first_token_accuracy(engine.model(), &cache, &q8.cache, &ps);

    let enc = engine.encode_at_level(&cache, 1); // paper-default bins
    let dec = engine.try_decode_at_level(&enc, 1).unwrap();
    let acc_cg = eval::first_token_accuracy(engine.model(), &cache, &dec, &ps);

    let ratio = q8.wire_bytes as f64 / enc.total_bytes() as f64;
    assert!(
        ratio > 1.8,
        "CacheGen should be well below 8-bit: ratio {ratio:.2} \
         ({} vs {} bytes)",
        enc.total_bytes(),
        q8.wire_bytes
    );
    assert!(
        acc_cg >= acc_q8 - 0.25,
        "CacheGen accuracy {acc_cg:.2} should be near the 8-bit baseline {acc_q8:.2}"
    );
}

/// Figure 10: CacheGen composes with context-compression baselines — the
/// codec further shrinks the KV cache H2O and LLMLingua leave behind.
#[test]
fn fig10_cachegen_on_h2o_and_lingua() {
    let (engine, ctx) = build_engine(200);
    let model = engine.model();

    // H2O keeps 60% of tokens; its wire format is a quantized tensor.
    let pruned = h2o::prune(model, &ctx, 0.6);
    let h2o_bytes = pruned.wire_bytes(8.0);
    // CacheGen on H2O: encode the pruned cache with a profile built on it.
    let cfg = CodecConfig::default();
    let profile = CodecProfile::build(&cfg, &[&pruned.cache]);
    let codec = KvCodec::new(cfg, profile);
    let enc = codec.encode(&pruned.cache);
    assert!(
        enc.total_bytes() * 2 < h2o_bytes,
        "CacheGen on H2O: {} vs {} bytes",
        enc.total_bytes(),
        h2o_bytes
    );
    // Decode still reconstructs a usable cache.
    let dec = codec.try_decode_parallel(&enc).unwrap();
    assert_eq!(dec.tokens(), pruned.cache.tokens());

    // LLMLingua compresses the text; the (smaller) recomputed cache still
    // compresses under CacheGen.
    let compressed = lingua::compress(&ctx, 0.5);
    let small_cache = model.prefill(&compressed.tokens);
    let lingua_bytes = small_cache.size_bytes(8.0);
    let cfg2 = CodecConfig::default();
    let profile2 = CodecProfile::build(&cfg2, &[&small_cache]);
    let enc2 = KvCodec::new(cfg2, profile2).encode(&small_cache);
    assert!(
        enc2.total_bytes() * 2 < lingua_bytes,
        "CacheGen on LLMLingua: {} vs {} bytes",
        enc2.total_bytes(),
        lingua_bytes
    );
}

/// The full serving path: store_kv → get_kv over the wire → decode →
/// generate, across engine, codec, kvstore and llm crates.
#[test]
fn store_fetch_decode_generate_round_trip() {
    let (engine, ctx) = build_engine(300);
    let plan = engine.store_kv(5, &ctx);
    let level = 1;
    let mut link = Link::new(BandwidthTrace::constant(GBPS), 0.0);
    let p = LoadParams {
        policy: AdaptPolicy::FixedLevel(level),
        ..LoadParams::default()
    };
    let cache = load_stored(&engine, 5, &plan, &mut link, &p, &NOOP)
        .expect("stored context loads")
        .cache;
    assert_eq!(cache.tokens(), ctx.len());
    let out = engine.generate_with_kv(&cache, &[3, 9], 5);
    assert_eq!(out.len(), 5);

    // The streamed+decoded cache reconstructs the context with the same
    // order of loss as direct whole-context encoding (chunks carry their
    // own vectorwise scales, §5.3).
    let reference = engine.calculate_kv(&ctx);
    let enc_whole = engine.encode_at_level(&reference, level);
    let dec_whole = engine.try_decode_at_level(&enc_whole, level).unwrap();
    let whole_mse = reference.mse(&dec_whole);
    let streamed_mse = reference.mse(&cache);
    assert!(
        streamed_mse <= 2.5 * whole_mse + 1e-6,
        "streamed loss {streamed_mse} vs whole loss {whole_mse}"
    );
}

/// Figure 7 end-to-end at functional scale: adaptation downshifts under a
/// bandwidth dip and finishes sooner than the non-adaptive stream.
#[test]
fn adaptive_streaming_beats_fixed_under_bandwidth_dip() {
    let (engine, ctx) = build_engine(400);
    let plan = engine.store_kv(4, &ctx);
    // Scale a figure-7-like trace to this plan: level 0 fits in 4 s at the
    // starting bandwidth, then the link dips 10× for 2 s.
    let level0 = plan.total_bytes_at_level(0) as f64 * 8.0;
    let bw = level0 / 4.0;
    let trace = BandwidthTrace::from_segments(vec![(0.0, bw), (2.0, bw / 10.0), (4.0, bw)]);

    let run = |policy: AdaptPolicy| {
        let mut link = Link::new(trace.clone(), 0.0);
        let p = LoadParams {
            slo: Some(4.5),
            policy,
            prior_throughput_bps: Some(bw),
            recompute_sec_per_token: 0.2, // recompute unattractive
            ..LoadParams::default()
        };
        load_stored(&engine, 4, &plan, &mut link, &p, &NOOP).expect("stored context loads")
    };
    let fixed = run(AdaptPolicy::FixedLevel(0));
    let adaptive = run(AdaptPolicy::Adaptive);
    assert!(
        !fixed.stream.slo_met,
        "fixed should violate ({})",
        fixed.stream.finish
    );
    assert!(
        adaptive.stream.finish < fixed.stream.finish,
        "adaptive {} vs fixed {}",
        adaptive.stream.finish,
        fixed.stream.finish
    );
    assert!(adaptive
        .stream
        .chunks
        .iter()
        .any(|c| c.config != StreamConfig::Level(0)));
}

/// Figure 13's mechanism at functional scale: across random bandwidth
/// traces, adaptation violates the SLO less often than a fixed level.
#[test]
fn fig13_adaptation_reduces_slo_violations() {
    let (engine, ctx) = build_engine(500);
    let plan = engine.store_kv(5, &ctx);
    let level0 = plan.total_bytes_at_level(0) as f64 * 8.0;
    let slo = 1.0;
    // Traces centred so level 0 sometimes fits and sometimes doesn't.
    let mut fixed_viol = 0;
    let mut adapt_viol = 0;
    let n_traces = 20;
    for seed in 0..n_traces {
        let mut rng = workload_rng(1_000 + seed);
        let trace = BandwidthTrace::random_uniform(
            &mut rng,
            0.2 * level0 / slo,
            3.0 * level0 / slo,
            0.25,
            8,
        );
        let run = |policy: AdaptPolicy| {
            let mut link = Link::new(trace.clone(), 0.0);
            let p = LoadParams {
                slo: Some(slo),
                policy,
                prior_throughput_bps: Some(level0 / slo),
                recompute_sec_per_token: 0.2,
                ..LoadParams::default()
            };
            load_stored(&engine, 5, &plan, &mut link, &p, &NOOP)
                .expect("stored context loads")
                .stream
                .slo_met
        };
        if !run(AdaptPolicy::FixedLevel(0)) {
            fixed_viol += 1;
        }
        if !run(AdaptPolicy::Adaptive) {
            adapt_viol += 1;
        }
    }
    assert!(
        adapt_viol <= fixed_viol,
        "adaptive violations {adapt_viol}/{n_traces} vs fixed {fixed_viol}/{n_traces}"
    );
    assert!(fixed_viol > 0, "sweep should include hard traces");
}

/// Quality/size frontier (Figure 9's shape): walking the level ladder
/// trades bytes for accuracy monotonically in size and (loosely) in
/// quality.
#[test]
fn fig9_quality_size_frontier() {
    let (engine, ctx) = build_engine(600);
    let cache = engine.calculate_kv(&ctx);
    let ps = prompts(20, 512);
    let mut sizes = Vec::new();
    let mut accs = Vec::new();
    for level in 0..engine.num_levels() {
        let enc = engine.encode_at_level(&cache, level);
        let dec = engine.try_decode_at_level(&enc, level).unwrap();
        sizes.push(enc.total_bytes());
        accs.push(eval::first_token_accuracy(
            engine.model(),
            &cache,
            &dec,
            &ps,
        ));
    }
    assert!(
        sizes.windows(2).all(|w| w[0] > w[1]),
        "sizes must fall monotonically: {sizes:?}"
    );
    assert!(
        accs[0] >= *accs.last().unwrap(),
        "finest should be at least as accurate as coarsest: {accs:?}"
    );
    assert!(accs[0] >= 0.6, "finest accuracy too low: {accs:?}");
}

/// A second model (GQA Mistral-style) exercises the non-MHA path through
/// the whole stack.
#[test]
fn gqa_model_full_path() {
    let mut rng = workload_rng(700);
    let ctx = Dataset::TriviaQa.generate(&mut rng, 512, 150).tokens;
    let engine = CacheGenEngine::build(
        SimModelConfig::mistral7b_sim(9),
        EngineConfig::default(),
        std::slice::from_ref(&ctx),
    );
    let cache = engine.calculate_kv(&ctx);
    assert!(
        cache.channels()
            < SimTransformer::new(SimModelConfig::llama7b_sim(9))
                .config()
                .kv_channels()
    );
    let enc = engine.encode_at_level(&cache, 1);
    let dec = engine.try_decode_at_level(&enc, 1).unwrap();
    assert!(cache.mse(&dec) < 0.5);
    let plan = engine.store_prefilled(7, &ctx, &cache);
    let mut link = Link::new(BandwidthTrace::constant(GBPS), 0.0);
    let out = load_stored(&engine, 7, &plan, &mut link, &LoadParams::default(), &NOOP)
        .expect("stored context loads");
    assert_eq!(out.cache.tokens(), ctx.len());
}
