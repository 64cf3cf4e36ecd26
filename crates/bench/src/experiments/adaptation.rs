//! Streaming adaptation: Figure 7 (timeline) and Figure 13 (SLO sweep).

use crate::harness::{cachegen_level, quantized, section, Bench, SIM_CONTEXTS_PER_CELL};
use cachegen_llm::{ModelSpec, SimModelConfig};
use cachegen_net::trace::{BandwidthTrace, GBPS};
use cachegen_net::Link;
use cachegen_streamer::{
    simulate_stream, AdaptPolicy, ChunkPlan, ChunkSizes, FecOverhead, LevelLadder, StreamConfig,
    StreamParams,
};
use cachegen_workloads::{workload_rng, Dataset};

const PAPER_TOKENS: u64 = 9_400;
const CHUNK_TOKENS: u64 = 1_500;

/// Builds the paper-scale chunk plan from functionally-measured
/// bits/element per level.
fn paper_plan(bpe: &[f64]) -> ChunkPlan {
    let spec = ModelSpec::mistral_7b();
    let mut chunks = Vec::new();
    let mut remaining = PAPER_TOKENS;
    while remaining > 0 {
        let t = remaining.min(CHUNK_TOKENS);
        let mut level_bytes: Vec<u64> = bpe.iter().map(|&b| spec.kv_bytes(t, b)).collect();
        for i in 1..level_bytes.len() {
            level_bytes[i] = level_bytes[i].min(level_bytes[i - 1]);
        }
        chunks.push(ChunkSizes::new(t as usize, level_bytes, t * 4));
        remaining -= t;
    }
    ChunkPlan::new(chunks)
}

/// A one-level plan for the quantization baseline (8-bit tensors, no
/// adaptation possible).
fn quant_plan() -> ChunkPlan {
    paper_plan(&[8.0])
}

fn decode_secs(bytes: u64) -> f64 {
    bytes as f64 / 2.0e9
}

fn recompute_secs(tokens: usize) -> f64 {
    // Per-token prefill cost from the calibrated A40 model at 9.4K scale.
    tokens as f64 * 3.6e-4
}

/// Figure 7: the adaptation timeline under a mid-stream bandwidth dip
/// (the paper's 2 → 0.2 → 1 Gbps scenario, scaled so the finest level
/// nominally fills the 4 s SLO — same geometry as the original figure).
pub fn fig7() {
    section("Figure 7: adaptation under a bandwidth dip (SLO 4 s)");
    let bench = Bench::new(SimModelConfig::mistral7b_sim(42), Dataset::LongChat, 1);
    let bpe: Vec<f64> = (0..bench.engine.num_levels())
        .map(|l| {
            bench
                .score(cachegen_level(&bench.engine, l))
                .bits_per_element
        })
        .collect();
    let plan = paper_plan(&bpe);
    let ladder = bench.engine.config().ladder.clone();
    // Starting bandwidth such that streaming everything at the finest level
    // nominally takes 3 s (inside the 4 s SLO); a 10x dip during [1 s, 3 s).
    let bw0 = plan.total_bytes_at_level(0) as f64 * 8.0 / 3.0;
    let trace = BandwidthTrace::from_segments(vec![(0.0, bw0), (1.0, bw0 / 10.0), (3.0, bw0)]);
    for (name, policy, plan) in [
        (
            "Baseline KV quant (8-bit, fixed)",
            AdaptPolicy::FixedLevel(0),
            quant_plan(),
        ),
        (
            "CacheGen w/o adapt (level 0)",
            AdaptPolicy::FixedLevel(0),
            plan.clone(),
        ),
        ("CacheGen", AdaptPolicy::Adaptive, plan.clone()),
    ] {
        let one_level = LevelLadder::new(vec![1.0]);
        let lad = if plan.num_levels() == 1 {
            &one_level
        } else {
            &ladder
        };
        let mut link = Link::new(trace.clone(), 0.0);
        let params = StreamParams {
            slo: Some(4.0),
            policy,
            prior_throughput_bps: Some(bw0),
            concurrent_requests: 1,
            retransmit_budget: 0,
            fec_overhead: FecOverhead::Off,
            ladder: lad,
            decode_seconds: &decode_secs,
            recompute_seconds: &recompute_secs,
            recorder: None,
        };
        let out = simulate_stream(&plan, &mut link, &params);
        let configs: Vec<String> = out
            .chunks
            .iter()
            .map(|c| match c.config {
                StreamConfig::Level(l) => format!("L{l}"),
                StreamConfig::Text => "txt".into(),
            })
            .collect();
        println!(
            "{:<34} finish {:>6.2}s  SLO {}  chunks [{}]",
            name,
            out.finish,
            if out.slo_met { "met     " } else { "VIOLATED" },
            configs.join(" ")
        );
    }
}

/// Figure 13: SLO violation rate vs quality across 20 random traces.
pub fn fig13() {
    section("Figure 13: SLO violation rate vs quality (random 0.1-10 Gbps traces)");
    let bench = Bench::new(
        SimModelConfig::mistral7b_sim(42),
        Dataset::LongChat,
        SIM_CONTEXTS_PER_CELL,
    );
    let reports: Vec<_> = (0..bench.engine.num_levels())
        .map(|l| bench.score(cachegen_level(&bench.engine, l)))
        .collect();
    let bpe: Vec<f64> = reports.iter().map(|r| r.bits_per_element).collect();
    let q8 = bench.score(quantized(8));
    let plan = paper_plan(&bpe);
    let ladder = bench.engine.config().ladder.clone();
    let one_level = LevelLadder::new(vec![1.0]);

    let quality_of = |cfg: StreamConfig, quant: bool| -> f64 {
        match cfg {
            StreamConfig::Text => 1.0,
            StreamConfig::Level(l) => {
                if quant {
                    q8.quality
                } else {
                    reports[l].quality
                }
            }
        }
    };

    for slo in [0.5f64, 1.0] {
        println!("\nSLO = {slo} s:");
        println!("{:<26} {:>12} {:>10}", "policy", "violation %", "quality");
        for (name, policy, p, lad, quant) in [
            (
                "Quantization (8-bit)",
                AdaptPolicy::FixedLevel(0),
                &quant_plan(),
                &one_level,
                true,
            ),
            (
                "CacheGen w/o adaptation",
                AdaptPolicy::FixedLevel(1),
                &plan,
                &ladder,
                false,
            ),
            ("CacheGen", AdaptPolicy::Adaptive, &plan, &ladder, false),
        ] {
            let mut violations = 0usize;
            let mut quality = 0.0f64;
            let n_traces = 20;
            for seed in 0..n_traces {
                let mut rng = workload_rng(4_000 + seed);
                let trace =
                    BandwidthTrace::random_uniform(&mut rng, 0.1 * GBPS, 10.0 * GBPS, 0.25, 40);
                let mut link = Link::new(trace, 0.0);
                let params = StreamParams {
                    slo: Some(slo),
                    policy,
                    prior_throughput_bps: Some(5.0 * GBPS),
                    concurrent_requests: 1,
                    retransmit_budget: 0,
                    fec_overhead: FecOverhead::Off,
                    ladder: lad,
                    decode_seconds: &decode_secs,
                    recompute_seconds: &recompute_secs,
                    recorder: None,
                };
                let out = simulate_stream(p, &mut link, &params);
                if !out.slo_met {
                    violations += 1;
                }
                let total_tokens: usize = p.chunks().iter().map(|c| c.tokens).sum();
                quality += out
                    .chunks
                    .iter()
                    .map(|c| quality_of(c.config, quant) * p.chunk(c.index).tokens as f64)
                    .sum::<f64>()
                    / total_tokens as f64;
            }
            println!(
                "{:<26} {:>11.0}% {:>10.2}",
                name,
                100.0 * violations as f64 / n_traces as f64,
                quality / n_traces as f64
            );
        }
    }
    println!("(paper: CacheGen cuts the 1 s-SLO violation rate from 81% to 8% at equal quality)");
}
