//! Figure 18: CacheGen vs more intrusive methods (Appendix B).

use crate::harness::{cachegen_level, section, Bench, SIM_CONTEXTS_PER_CELL};
use cachegen_baselines::{gisting, scissorhands};
use cachegen_llm::{ModelSpec, SimModelConfig, SimTransformer};
use cachegen_workloads::Dataset;

/// Figure 18: smaller models (left), token selection (middle), gisting
/// (right) — all vs CacheGen's size/quality frontier.
pub fn fig18() {
    smaller_model();
    token_selection();
    gist();
}

/// Left panel: replacing the model with a smaller one (WikiText
/// perplexity vs KV size).
fn smaller_model() {
    section("Figure 18 left: smaller model vs CacheGen (perplexity, lower better)");
    let bench = Bench::new(
        SimModelConfig::llama7b_sim(42),
        Dataset::WikiText,
        SIM_CONTEXTS_PER_CELL,
    );
    let big_spec = ModelSpec::llama_7b();
    let small_spec = ModelSpec::llama_3b();
    let small = SimTransformer::new(SimModelConfig::llama3b_sim(42));
    let tokens = 9_400u64;

    println!(
        "{:<26} {:>10} {:>12}",
        "operating point", "MB", "perplexity"
    );
    // CacheGen on the big model at each level.
    for level in [0usize, 2, 4] {
        let r = bench.score(cachegen_level(&bench.engine, level));
        println!(
            "{:<26} {:>10.0} {:>12.2}",
            format!("CacheGen level {level}"),
            big_spec.kv_bytes(tokens, r.bits_per_element) as f64 / 1e6,
            r.quality
        );
    }
    // The smaller model: its KV is smaller, but it models the big model's
    // text (the reference continuation) far worse.
    let ppl = bench
        .samples
        .iter()
        .zip(&bench.references)
        .map(|(s, r)| r.quality(&small, s, &small.prefill(&s.tokens)))
        .sum::<f64>()
        / bench.samples.len() as f64;
    for bits in [8.0f64, 4.0, 3.0] {
        println!(
            "{:<26} {:>10.0} {:>12.2}",
            format!("Llama-3B @ {bits:.0}-bit"),
            small_spec.kv_bytes(tokens, bits) as f64 / 1e6,
            ppl
        );
    }
}

/// Middle panel: Scissorhands*-style token selection (F1 vs size).
fn token_selection() {
    section("Figure 18 middle: token selection (Scissorhands*) vs CacheGen (F1)");
    let bench = Bench::new(
        SimModelConfig::llama7b_sim(42),
        Dataset::TriviaQa,
        SIM_CONTEXTS_PER_CELL,
    );
    let spec = ModelSpec::llama_7b();
    let tokens = 9_400u64;
    println!("{:<26} {:>10} {:>8}", "operating point", "MB", "F1");
    for level in [0usize, 2, 4] {
        let r = bench.score(cachegen_level(&bench.engine, level));
        println!(
            "{:<26} {:>10.0} {:>8.2}",
            format!("CacheGen level {level}"),
            spec.kv_bytes(tokens, r.bits_per_element) as f64 / 1e6,
            r.quality
        );
    }
    let model = bench.engine.model();
    for keep in [0.7f64, 0.5, 0.3] {
        let r = bench.score(|s, _| {
            let pruned = scissorhands::prune(model, &s.tokens, keep);
            let bytes = pruned.wire_bytes(8.0);
            (pruned.cache, bytes)
        });
        println!(
            "{:<26} {:>10.0} {:>8.2}",
            format!("Scissorhands* keep {keep:.1}"),
            spec.kv_bytes(tokens, r.bits_per_element) as f64 / 1e6,
            r.quality
        );
    }
}

/// Right panel: gisting (accuracy vs size).
fn gist() {
    section("Figure 18 right: gisting vs CacheGen (accuracy)");
    let bench = Bench::new(
        SimModelConfig::llama7b_sim(42),
        Dataset::LongChat,
        SIM_CONTEXTS_PER_CELL,
    );
    let spec = ModelSpec::llama_7b();
    let tokens = 512u64; // the public gisting model caps at 512 tokens (App. B)
    println!("{:<26} {:>10} {:>10}", "operating point", "MB", "accuracy");
    for level in [0usize, 2, 4] {
        let r = bench.score(cachegen_level(&bench.engine, level));
        println!(
            "{:<26} {:>10.1} {:>10.2}",
            format!("CacheGen level {level}"),
            spec.kv_bytes(tokens, r.bits_per_element) as f64 / 1e6,
            r.quality
        );
    }
    for span in [2usize, 4, 8] {
        let r = bench.score(|_, r| {
            let g = gisting::pool(&r.cache, span);
            let bytes = g.wire_bytes(16.0);
            (g.cache, bytes)
        });
        println!(
            "{:<26} {:>10.1} {:>10.2}",
            format!("Gisting span {span}"),
            spec.kv_bytes(tokens, r.bits_per_element) as f64 / 1e6,
            r.quality
        );
    }
}
