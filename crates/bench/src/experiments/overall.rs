//! Headline results: Table 1 and Figures 8, 9, 10.

use crate::harness::{cachegen_level, quantized, section, Bench, SIM_CONTEXTS_PER_CELL};
use cachegen::{LoadMethod, TtftModel};
use cachegen_baselines::{h2o, lingua};
use cachegen_codec::{CodecConfig, CodecProfile, KvCodec};
use cachegen_llm::{GpuSpec, KvCache, ModelSpec, SimModelConfig};
use cachegen_net::trace::GBPS;
use cachegen_workloads::Dataset;

const PAPER_TOKENS: u64 = 9_400;

/// Table 1: KV size (paper-scale MB) and accuracy for CacheGen, the 8-bit
/// baseline, H2O, LLMLingua, and CacheGen layered on both.
pub fn table1() {
    section("Table 1: Mistral-7B × LongChat — size vs accuracy");
    let bench = Bench::new(
        SimModelConfig::mistral7b_sim(42),
        Dataset::LongChat,
        SIM_CONTEXTS_PER_CELL,
    );
    let spec = ModelSpec::mistral_7b();
    let model = bench.engine.model();
    let q8 = bench.score(quantized(8));
    let cg = bench.score(cachegen_level(&bench.engine, 1));

    // H2O keeps 50% of tokens, LLMLingua 60%. CacheGen layered on either
    // encodes the smaller cache and takes its accuracy (CacheGen on top is
    // near-lossless); all bits are per element of the *full* cache.
    let mut cg_h2o_bits = 0.0;
    let h2o = bench.score(|s, r| {
        let pruned = h2o::prune(model, &s.tokens, 0.5);
        cg_h2o_bits += encoded_bytes(&pruned.cache) as f64 * 8.0 / r.cache.num_elements() as f64;
        let bytes = pruned.wire_bytes(8.0);
        (pruned.cache, bytes)
    });
    let mut cg_lingua_bits = 0.0;
    let lingua = bench.score(|s, r| {
        let small = model.prefill(&lingua::compress(&s.tokens, 0.6).tokens);
        cg_lingua_bits += encoded_bytes(&small) as f64 * 8.0 / r.cache.num_elements() as f64;
        let bytes = small.size_bytes(8.0);
        (small, bytes)
    });
    let n = bench.samples.len() as f64;
    let mb = |bits: f64| spec.kv_bytes(PAPER_TOKENS, bits) as f64 / 1e6;
    let norm = q8.quality.max(1e-9);
    println!(
        "{:<26} {:>10} {:>10}   (paper: 622 MB / 1.00 for 8-bit)",
        "Technique", "MB", "Accuracy"
    );
    let rows: Vec<(&str, f64, f64)> = vec![
        ("8-bit quantization", q8.bits_per_element, q8.quality),
        ("CacheGen (this paper)", cg.bits_per_element, cg.quality),
        ("H2O", h2o.bits_per_element, h2o.quality),
        ("CacheGen on H2O", cg_h2o_bits / n, h2o.quality),
        ("LLMLingua", lingua.bits_per_element, lingua.quality),
        ("CacheGen on LLMLingua", cg_lingua_bits / n, lingua.quality),
    ];
    for (name, bits, q) in rows {
        println!("{:<26} {:>10.0} {:>10.2}", name, mb(bits), q / norm);
    }
}

/// Bytes of `cache` under a default codec profiled on that cache alone —
/// CacheGen layered on a context-compression baseline.
fn encoded_bytes(cache: &KvCache) -> u64 {
    let cfg = CodecConfig::default();
    let profile = CodecProfile::build(&cfg, &[cache]);
    KvCodec::new(cfg, profile).encode(cache).total_bytes()
}

/// Figure 8: TTFT vs quality across three models and four datasets.
pub fn fig8() {
    section("Figure 8: TTFT (3 Gbps) and quality per model × dataset");
    let models: [(SimModelConfig, ModelSpec); 3] = [
        (SimModelConfig::mistral7b_sim(42), ModelSpec::mistral_7b()),
        (SimModelConfig::llama34b_sim(42), ModelSpec::llama_34b()),
        (SimModelConfig::llama70b_sim(42), ModelSpec::llama_70b()),
    ];
    let bw = 3.0 * GBPS;
    for (sim, spec) in models {
        for dataset in Dataset::all() {
            let bench = Bench::new(sim.clone(), dataset, SIM_CONTEXTS_PER_CELL);
            let cg = bench.score(cachegen_level(&bench.engine, 1));
            let q8 = bench.score(quantized(8));
            let ttft = TtftModel::new(spec.clone(), GpuSpec::default());
            let t_text = ttft.ttft(LoadMethod::TextContext, PAPER_TOKENS, bw).total();
            let t_q8 = ttft
                .ttft(LoadMethod::Quantized { bits: 8.0 }, PAPER_TOKENS, bw)
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
                "{:<14} {:<12} text {:>5.2}s/1.00  quant8 {:>5.2}s/{:>4.2}  CacheGen {:>5.2}s/{:>4.2}",
                spec.name,
                dataset.name(),
                t_text,
                t_q8,
                q8.quality,
                t_cg,
                cg.quality
            );
        }
    }
    println!("(quality = accuracy/F1 relative metric, or perplexity for WikiText — lower better)");
}

/// Figure 9: size ↔ quality trade-off curves.
pub fn fig9() {
    section("Figure 9: KV size vs quality (level ladder and quant baseline)");
    for sim in [
        SimModelConfig::mistral7b_sim(42),
        SimModelConfig::llama34b_sim(42),
        SimModelConfig::llama70b_sim(42),
    ] {
        let name = sim.name.clone();
        let bench = Bench::new(sim, Dataset::LongChat, SIM_CONTEXTS_PER_CELL);
        println!("\n{name}:");
        println!(
            "{:<22} {:>12} {:>10}",
            "operating point", "bits/elem", "quality"
        );
        for bits in [8u8, 4, 3] {
            let r = bench.score(quantized(bits));
            println!(
                "{:<22} {:>12.2} {:>10.2}",
                format!("quant {bits}-bit"),
                r.bits_per_element,
                r.quality
            );
        }
        for level in 0..bench.engine.num_levels() {
            let r = bench.score(cachegen_level(&bench.engine, level));
            println!(
                "{:<22} {:>12.2} {:>10.2}",
                format!("CacheGen level {level}"),
                r.bits_per_element,
                r.quality
            );
        }
    }
}

/// Figure 10: CacheGen layered on H2O / LLMLingua across keep ratios.
pub fn fig10() {
    section("Figure 10: CacheGen on top of context compression");
    let bench = Bench::new(
        SimModelConfig::mistral7b_sim(42),
        Dataset::LongChat,
        SIM_CONTEXTS_PER_CELL,
    );
    let model = bench.engine.model();
    println!(
        "{:<10} {:>16} {:>16} {:>10}",
        "keep", "pruned@8bit b/e", "CacheGen∘ b/e", "reduction"
    );
    for keep in [0.3f64, 0.5, 0.7] {
        let mut pruned_bits = 0.0;
        let mut cg_bits = 0.0;
        for (s, r) in bench.samples.iter().zip(&bench.references) {
            let full = r.cache.num_elements() as f64;
            let pruned = h2o::prune(model, &s.tokens, keep);
            pruned_bits += pruned.wire_bytes(8.0) as f64 * 8.0 / full;
            cg_bits += encoded_bytes(&pruned.cache) as f64 * 8.0 / full;
        }
        let n = bench.samples.len() as f64;
        println!(
            "H2O {keep:.1}   {:>16.2} {:>16.2} {:>9.1}x",
            pruned_bits / n,
            cg_bits / n,
            pruned_bits / cg_bits
        );
    }
    for keep in [0.4f64, 0.6, 0.8] {
        let mut base_bits = 0.0;
        let mut cg_bits = 0.0;
        for (s, r) in bench.samples.iter().zip(&bench.references) {
            let full = r.cache.num_elements() as f64;
            let small = model.prefill(&lingua::compress(&s.tokens, keep).tokens);
            base_bits += small.size_bytes(8.0) as f64 * 8.0 / full;
            cg_bits += encoded_bytes(&small) as f64 * 8.0 / full;
        }
        let n = bench.samples.len() as f64;
        println!(
            "Lingua {keep:.1} {:>15.2} {:>16.2} {:>9.1}x",
            base_bits / n,
            cg_bits / n,
            base_bits / cg_bits
        );
    }
    println!("(bits per element of the ORIGINAL cache; paper reports 3.3-4.2x further reduction)");
}
