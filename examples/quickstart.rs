//! Quickstart: compress a KV cache, ship it, generate from it.
//!
//! Walks the whole CacheGen data path on a small simulated model:
//! 1. prefill a long context (`calculate_kv`),
//! 2. encode the KV cache into bitstreams at several quality levels,
//! 3. compare wire sizes against the uniform-quantization baseline,
//! 4. decode and generate, checking quality against the full-precision
//!    reference,
//! 5. ingest once (`store_kv`), load twice (`load_stored`) over two links.
//!
//! Run with: `cargo run --release --example quickstart`

use cachegen::{load_stored, CacheGenEngine, EngineConfig, LoadParams};
use cachegen_baselines::quantization_baseline;
use cachegen_llm::{eval, SimModelConfig};
use cachegen_net::trace::{BandwidthTrace, GBPS};
use cachegen_net::Link;
use cachegen_telemetry::NOOP;
use cachegen_workloads::{workload_rng, Dataset};

fn main() {
    // An engine needs offline profiling contexts from the same model
    // (§5.2: one profile per LLM, reused for every context).
    let mut rng = workload_rng(7);
    let vocab = 512;
    let profile: Vec<Vec<usize>> = (0..2)
        .map(|_| Dataset::LongChat.generate(&mut rng, vocab, 240).tokens)
        .collect();
    let engine = CacheGenEngine::build(
        SimModelConfig::llama7b_sim(42),
        EngineConfig::default(),
        &profile,
    );

    // A fresh context to serve.
    let sample = Dataset::LongChat.generate(&mut rng, vocab, 240);
    println!(
        "context: {} sim tokens (paper-scale {} tokens)",
        sample.tokens.len(),
        sample.paper_tokens
    );

    // 1. calculate_kv
    let cache = engine.calculate_kv(&sample.tokens);
    let fp16 = cache.size_bytes(16.0);
    println!(
        "KV cache: {} layers × {} tokens × {} channels = {:.1} KB at fp16",
        cache.layers(),
        cache.tokens(),
        cache.channels(),
        fp16 as f64 / 1e3
    );

    // 2–3. encode at each level; compare against quantization baselines.
    println!("\n{:<22} {:>12} {:>12}", "method", "wire bytes", "vs fp16");
    for bits in [8u8, 4, 3] {
        let q = quantization_baseline(&cache, bits);
        println!(
            "{:<22} {:>12} {:>11.1}x",
            format!("uniform {bits}-bit"),
            q.wire_bytes,
            fp16 as f64 / q.wire_bytes as f64
        );
    }
    for level in 0..engine.num_levels() {
        let enc = engine.encode_at_level(&cache, level);
        println!(
            "{:<22} {:>12} {:>11.1}x",
            format!("CacheGen level {level}"),
            enc.total_bytes(),
            fp16 as f64 / enc.total_bytes() as f64
        );
    }

    // 4. decode and generate; score against the lossless reference.
    let prompts: Vec<Vec<usize>> = (0..16).map(|p| sample_prompt(p, vocab)).collect();
    println!("\n{:<22} {:>18}", "method", "first-token acc");
    for level in [0, engine.default_level(), engine.num_levels() - 1] {
        let enc = engine.encode_at_level(&cache, level);
        let dec = engine
            .try_decode_at_level(&enc, level)
            .expect("own encoding decodes");
        let acc = eval::first_token_accuracy(engine.model(), &cache, &dec, &prompts);
        println!(
            "{:<22} {:>17.0}%",
            format!("CacheGen level {level}"),
            acc * 100.0
        );
    }

    let out = engine.generate_with_kv(&cache, &sample.prompt, 8);
    println!("\nreference generation from exact KV: {out:?}");

    // 5. ingest once, load many: the encode above happens once per context
    // (`store_kv`; the prefill from step 1 is reused); every later request
    // streams the stored bytes — here over a fast and a 1000× slower link,
    // where the 0.5 s SLO makes the adapter downshift (coarser levels, or
    // text chunks the LLM recomputes exactly).
    let plan = engine.store_prefilled(1, &sample.tokens, &cache);
    let params = LoadParams {
        slo: Some(0.5),
        ..LoadParams::default()
    };
    println!(
        "\n{:<22} {:>12} {:>12} {:>10}",
        "link", "wire bytes", "load (ms)", "KV mse"
    );
    for (name, bps) in [("1 Gbps", GBPS), ("1 Mbps", GBPS / 1000.0)] {
        let mut link = Link::new(BandwidthTrace::constant(bps), 0.0);
        let loaded = load_stored(&engine, 1, &plan, &mut link, &params, &NOOP)
            .expect("stored context loads");
        println!(
            "{:<22} {:>12} {:>12.2} {:>10.4}",
            name,
            loaded.stream.bytes_sent,
            loaded.stream.finish * 1e3,
            cache.mse(&loaded.cache)
        );
    }
}

fn sample_prompt(i: usize, vocab: usize) -> Vec<usize> {
    vec![(i * 13) % vocab, (i * 29 + 3) % vocab]
}
