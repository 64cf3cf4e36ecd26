//! Sensitivity sweeps: Figures 11, 12 and the Figure 19 heatmap.

use crate::harness::{cachegen_level, section, Bench, SIM_CONTEXTS_PER_CELL};
use cachegen::{LoadMethod, TtftModel};
use cachegen_llm::{GpuSpec, ModelSpec, SimModelConfig};
use cachegen_net::trace::GBPS;
use cachegen_workloads::Dataset;

/// The Mistral-7B TTFT model, and CacheGen loading at its level-1
/// bits/element measured on the Mistral-7B sim × LongChat cell (the
/// operating point Table 1 and Figs. 8 and 9 report).
fn model() -> (TtftModel, LoadMethod) {
    let sim = SimModelConfig::mistral7b_sim(42);
    let bench = Bench::new(sim, Dataset::LongChat, SIM_CONTEXTS_PER_CELL);
    let bits_per_element = bench
        .score(cachegen_level(&bench.engine, 1))
        .bits_per_element;
    let ttft = TtftModel::new(ModelSpec::mistral_7b(), GpuSpec::default());
    (ttft, LoadMethod::CacheGen { bits_per_element })
}

/// Figure 11: TTFT under bandwidths from 0.4 to 400 Gbps (16K context).
pub fn fig11() {
    section("Figure 11: TTFT vs bandwidth (Mistral-7B, 16K tokens)");
    let (m, cachegen) = model();
    let tokens = 16_000;
    println!(
        "{:>10} {:>10} {:>10} {:>10}",
        "Gbps", "text s", "quant8 s", "CacheGen s"
    );
    for gbps in [0.4, 1.0, 3.0, 10.0, 15.0, 50.0, 100.0, 200.0, 400.0] {
        let bw = gbps * GBPS;
        let t = m.ttft(LoadMethod::TextContext, tokens, bw).total();
        let q = m
            .ttft(LoadMethod::Quantized { bits: 8.0 }, tokens, bw)
            .total();
        let c = m.ttft(cachegen, tokens, bw).total();
        println!("{gbps:>10.1} {t:>10.2} {q:>10.2} {c:>10.2}");
    }
    println!("(CacheGen wins below ~20 Gbps; gaps shrink at very high bandwidth — paper Fig 11)");
}

/// Figure 12: TTFT vs concurrent requests (left) and context length
/// (right).
pub fn fig12() {
    section("Figure 12 left: TTFT vs concurrent requests (9.6K tokens, 3 Gbps)");
    let (m, cachegen) = model();
    let bw = 3.0 * GBPS;
    println!(
        "{:>6} {:>10} {:>10} {:>10}",
        "reqs", "text s", "quant8 s", "CacheGen s"
    );
    for n in [1u64, 2, 4, 6, 8, 10] {
        let t = m
            .ttft_concurrent(LoadMethod::TextContext, 9_600, bw, n)
            .total();
        let q = m
            .ttft_concurrent(LoadMethod::Quantized { bits: 8.0 }, 9_600, bw, n)
            .total();
        let c = m.ttft_concurrent(cachegen, 9_600, bw, n).total();
        println!("{n:>6} {t:>10.2} {q:>10.2} {c:>10.2}");
    }

    section("Figure 12 right: TTFT vs context length (3 Gbps)");
    println!(
        "{:>8} {:>10} {:>10} {:>12} {:>14}",
        "tokens", "text s", "quant8 s", "CacheGen s", "CacheGen+auto"
    );
    for tokens in [100u64, 500, 1_000, 3_000, 6_000, 9_000, 12_000, 15_000] {
        let t = m.ttft(LoadMethod::TextContext, tokens, bw).total();
        let q = m
            .ttft(LoadMethod::Quantized { bits: 8.0 }, tokens, bw)
            .total();
        let c = m.ttft(cachegen, tokens, bw).total();
        // "CacheGen automatically reverts to text when that is faster"
        // (short contexts — §7.3).
        let auto = c.min(t);
        println!("{tokens:>8} {t:>10.3} {q:>10.3} {c:>12.3} {auto:>14.3}");
    }
}

/// Figure 19: heatmap of CacheGen's TTFT reduction over the best baseline
/// across bandwidth × GPU share.
pub fn fig19() {
    section("Figure 19: TTFT gain over best baseline (rows: concurrency, cols: Gbps)");
    let (m, cachegen) = model();
    let tokens = 9_600;
    let bands = [0.4, 1.0, 3.0, 10.0, 30.0, 100.0, 400.0];
    print!("{:>6}", "reqs");
    for b in bands {
        print!(" {b:>7.1}");
    }
    println!();
    for n in [1u64, 2, 4, 8, 16] {
        print!("{n:>6}");
        for gbps in bands {
            let bw = gbps * GBPS;
            let best = m.best_baseline_ttft(tokens, bw, n);
            let cg = m.ttft_concurrent(cachegen, tokens, bw, n).total();
            print!(" {:>6.1}x", best / cg);
        }
        println!();
    }
    println!(
        "(brighter = more reduction; gains peak at low bandwidth × scarce GPU — paper Fig 19)"
    );
}
