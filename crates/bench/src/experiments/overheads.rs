//! Overheads and micro-benchmarks: Figures 14–17.

use crate::harness::{section, Bench, SIM_CONTEXTS_PER_CELL};
use cachegen::qoe::QoeModel;
use cachegen::{LoadMethod, TtftModel};
use cachegen_codec::{CodecConfig, CodecProfile, KvCodec, ModelGranularity};
use cachegen_llm::{eval, GpuSpec, ModelSpec, SimModelConfig};
use cachegen_net::trace::GBPS;
use cachegen_quant::{LayerGroupBins, UniformQuantizer};
use cachegen_workloads::Dataset;
use std::time::Instant;

const PAPER_TOKENS: u64 = 9_400;

/// Figure 14: TTFT breakdown, compute breakdown, offline delay, storage.
pub fn fig14() {
    let bench = Bench::new(SimModelConfig::mistral7b_sim(42), Dataset::LongChat, 14, 1);
    let cg = bench.level_report(1);
    let spec = ModelSpec::mistral_7b();
    let gpu = GpuSpec::default();
    let ttft = TtftModel::new(spec.clone(), gpu.clone());
    let bw = 3.0 * GBPS;

    section("Figure 14a: TTFT breakdown (seconds)");
    println!(
        "{:<12} {:>9} {:>9} {:>9} {:>9}",
        "method", "compute", "transfer", "decode", "total"
    );
    for (name, m) in [
        ("Text", LoadMethod::TextContext),
        ("Quant-8", LoadMethod::Quantized { bits: 8.0 }),
        (
            "CacheGen",
            LoadMethod::CacheGen {
                bits_per_element: cg.bits_per_element,
            },
        ),
    ] {
        let b = ttft.ttft(m, PAPER_TOKENS, bw);
        println!(
            "{:<12} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            name,
            b.compute,
            b.transfer,
            b.decode,
            b.total()
        );
    }

    section("Figure 14b: compute (TFLOP) — prefill vs decode");
    let prefill_tf = spec.prefill_flops(PAPER_TOKENS) / 1e12;
    // The AC decode kernel does on the order of 10² integer ops per
    // compressed byte — orders of magnitude below prefill.
    let decode_bytes = spec.kv_bytes(PAPER_TOKENS, cg.bits_per_element) as f64;
    let decode_tf = decode_bytes * 200.0 / 1e12;
    println!("text (prefill): {prefill_tf:>8.1} TFLOP");
    println!(
        "CacheGen decode: {decode_tf:>7.2} TFLOP  ({:.1}% of prefill)",
        100.0 * decode_tf / prefill_tf
    );

    section("Figure 14c: offline encoding delay (functional measurement)");
    let sample = &bench.samples[0];
    let cache = bench.engine.calculate_kv(&sample.tokens);
    let t0 = Instant::now();
    let _ = UniformQuantizer::new(8).round_trip_cache(&cache);
    let quant_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    for level in 0..bench.engine.num_levels() {
        let _ = bench.engine.encode_at_level(&cache, level);
    }
    let encode_ms = t1.elapsed().as_secs_f64() * 1e3;
    // Wall-clock readings go to stderr: stdout is the checked-in
    // `FIGURES.txt` and must come out byte-identical run to run.
    println!("(wall-timed: quantization round trip and CacheGen encode, on stderr)");
    eprintln!("quantization round trip: {quant_ms:>8.1} ms");
    eprintln!(
        "CacheGen encode ({} levels): {encode_ms:>8.1} ms (one-time, offline)",
        bench.engine.num_levels()
    );

    section("Figure 14d: storage cost per context (paper-scale GB)");
    let fp16 = spec.kv_bytes(PAPER_TOKENS, 16.0) as f64 / 1e9;
    let q8 = spec.kv_bytes(PAPER_TOKENS, 8.0) as f64 / 1e9;
    let all_levels: f64 = (0..bench.engine.num_levels())
        .map(|l| {
            let r = bench.level_report(l);
            spec.kv_bytes(PAPER_TOKENS, r.bits_per_element) as f64 / 1e9
        })
        .sum();
    println!("original fp16:          {fp16:>6.2} GB");
    println!("8-bit quantized:        {q8:>6.2} GB");
    println!("CacheGen (all levels):  {all_levels:>6.2} GB  (multi-version ≈ one quantized copy)");
}

/// Figure 15: ablation of the encoder's ideas.
pub fn fig15() {
    section("Figure 15: encoder ablation (Mistral-7B sim × LongChat)");
    let bench = Bench::new(
        SimModelConfig::mistral7b_sim(42),
        Dataset::LongChat,
        15,
        SIM_CONTEXTS_PER_CELL,
    );
    // Arms build up CacheGen: uniform quant (tensor wire) → + AC with
    // channel-layer models → + change-based (delta) encoding → + layer-wise
    // quantization = CacheGen.
    let arm = |name: &str, cfg: Option<CodecConfig>| -> (String, f64, f64) {
        match cfg {
            None => {
                let r = bench.quant_report(4);
                (name.to_string(), r.bits_per_element, r.quality)
            }
            Some(cfg) => {
                let mut bits = 0.0;
                let mut quality = 0.0;
                for s in &bench.samples {
                    let cache = bench.engine.calculate_kv(&s.tokens);
                    let profile = CodecProfile::build(&cfg, &[&cache]);
                    let codec = KvCodec::new(cfg.clone(), profile);
                    let (dec, bytes) = codec.round_trip(&cache);
                    bits += bytes as f64 * 8.0 / cache.num_elements() as f64;
                    quality += bench.quality(&cache, &dec, s);
                }
                let n = bench.samples.len() as f64;
                (name.to_string(), bits / n, quality / n)
            }
        }
    };
    let base = CodecConfig {
        bins: LayerGroupBins::uniform(1.0),
        delta_encoding: false,
        granularity: ModelGranularity::PerChannelLayer,
        ..CodecConfig::default()
    };
    let rows = vec![
        arm("Default quant (4-bit)", None),
        arm("+ AC (channel-layer)", Some(base.clone())),
        arm(
            "+ change-based encoding",
            Some(CodecConfig {
                delta_encoding: true,
                ..base.clone()
            }),
        ),
        arm(
            "+ layer-wise quant = CacheGen",
            Some(CodecConfig {
                delta_encoding: true,
                bins: LayerGroupBins::paper_default(),
                ..base
            }),
        ),
    ];
    println!("{:<32} {:>12} {:>10}", "arm", "bits/elem", "quality");
    for (name, bits, q) in rows {
        println!("{name:<32} {bits:>12.2} {q:>10.2}");
    }

    // Group-count sweep (ROADMAP "Quant sweep depth"): how many layer
    // groups the depth-graded bins need. N = 3 is the paper's choice;
    // N = 1 collapses to uniform quantization, larger N grades finer.
    section("Figure 15 (ext): layer-group count sweep (bins span 0.5–1.5)");
    println!("{:<12} {:>12} {:>10}", "groups", "bits/elem", "quality");
    for n in [1usize, 2, 3, 4, 6] {
        let cfg = CodecConfig {
            bins: LayerGroupBins::evenly(n),
            delta_encoding: true,
            granularity: ModelGranularity::PerChannelLayer,
            ..CodecConfig::default()
        };
        let (_, bits, q) = arm("", Some(cfg));
        let ns = n.to_string();
        let label: &str = if n == 3 { "3 (paper)" } else { &ns };
        println!("{label:<12} {bits:>12.2} {q:>10.2}");
    }
}

/// Figure 16: quality-of-experience (MOS model over three samples).
pub fn fig16() {
    section("Figure 16: QoE (mean opinion score model)");
    let bench = Bench::new(SimModelConfig::mistral7b_sim(42), Dataset::LongChat, 16, 3);
    let spec = ModelSpec::mistral_7b();
    let ttft = TtftModel::new(spec, GpuSpec::default());
    let bw = 3.0 * GBPS;
    let qoe = QoeModel::default();
    let cg = bench.level_report(1);
    let q3 = bench.quant_report(3);
    println!(
        "{:<10} {:>10} {:>10} {:>10}",
        "sample", "Original", "Quant-3", "CacheGen"
    );
    for (i, _) in bench.samples.iter().enumerate() {
        let t_text = ttft.ttft(LoadMethod::TextContext, PAPER_TOKENS, bw).total();
        let t_q3 = ttft
            .ttft(LoadMethod::Quantized { bits: 3.0 }, PAPER_TOKENS, bw)
            .total();
        let t_cg = ttft
            .ttft(
                LoadMethod::CacheGen {
                    bits_per_element: cg.bits_per_element,
                },
                PAPER_TOKENS,
                bw,
            )
            .total();
        println!(
            "{:<10} {:>10.2} {:>10.2} {:>10.2}",
            format!("Sample {}", i + 1),
            qoe.mos(t_text, 1.0),
            qoe.mos(t_q3, q3.quality),
            qoe.mos(t_cg, cg.quality)
        );
    }
    println!("(paper's MTurk study: CacheGen consistently outranks both pipelines)");
}

/// Figure 17: a qualitative example — first-topic retrieval.
pub fn fig17() {
    section("Figure 17: qualitative example (LongChat first-topic retrieval)");
    let bench = Bench::new(SimModelConfig::mistral7b_sim(42), Dataset::LongChat, 17, 1);
    let s = &bench.samples[0];
    let model = bench.engine.model();
    let cache = bench.engine.calculate_kv(&s.tokens);
    let reference = model.generate_with_kv(&cache, &s.prompt, 4);
    println!(
        "prompt (probes the FIRST topic's vocabulary band): {:?}",
        s.prompt
    );
    println!("ground truth (exact KV):        {reference:?}");
    let enc = bench.engine.encode_at_level(&cache, 1);
    let dec = bench
        .engine
        .try_decode_at_level(&enc, 1)
        .expect("own encoding decodes");
    let cg_out = model.generate_with_kv(&dec, &s.prompt, 4);
    let match_cg = eval::token_f1(&cg_out, &reference);
    println!(
        "CacheGen (level 1):             {cg_out:?}   F1 {match_cg:.2} {}",
        if cg_out[0] == reference[0] {
            "✓ right"
        } else {
            "✗"
        }
    );
    let q3 = UniformQuantizer::new(3).round_trip_cache(&cache);
    let q3_out = model.generate_with_kv(&q3, &s.prompt, 4);
    let match_q3 = eval::token_f1(&q3_out, &reference);
    println!(
        "3-bit quant (similar size):     {q3_out:?}   F1 {match_q3:.2} {}",
        if q3_out[0] == reference[0] {
            "✓"
        } else {
            "✗ wrong"
        }
    );
}
