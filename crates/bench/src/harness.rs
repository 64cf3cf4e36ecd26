//! Engine/workload builders and quality measurement shared by all
//! experiments.

use cachegen::{CacheGenEngine, EngineConfig};
use cachegen_llm::{eval, KvCache, SimModelConfig};
use cachegen_workloads::{workload_rng, ContextSample, Dataset, Metric};

/// Standard functional-scale experiment sizes. Kept modest so the full
/// `figures all` run completes in minutes on a laptop CPU; raise for
/// smoother curves.
pub const SIM_CONTEXT_TOKENS: usize = 200;
/// Contexts evaluated per (model, dataset) cell.
pub const SIM_CONTEXTS_PER_CELL: usize = 3;
/// Probe prompts per context for first-token accuracy.
const PROBE_PROMPTS: usize = 16;
/// Greedy horizon for F1 scoring.
pub const F1_HORIZON: usize = 6;
/// Continuation length for perplexity scoring.
pub const PPL_HORIZON: usize = 12;

/// Tokens of the context the `codec` and `fec` benches measure (16
/// stream chunks of 30).
pub const CONTEXT_TOKENS: usize = 480;

/// The engine the `codec` and `fec` bench rows run on — the layered
/// benchmark's fixture: default five-level ladder, profile from two
/// 200-token LongChat contexts — plus one context's tokens and its KV
/// cache split into stream chunks.
pub fn context_fixture() -> (CacheGenEngine, Vec<usize>, Vec<KvCache>) {
    let model = SimModelConfig::llama7b_sim(42);
    let vocab = model.vocab;
    let mut rng = workload_rng(1);
    let profile: Vec<Vec<usize>> = (0..2)
        .map(|_| Dataset::LongChat.generate(&mut rng, vocab, 200).tokens)
        .collect();
    let engine = CacheGenEngine::build(model, EngineConfig::default(), &profile);
    let context = Dataset::LongChat.generate(&mut rng, vocab, CONTEXT_TOKENS);
    let chunks = engine.chunk_caches(&engine.calculate_kv(&context.tokens));
    (engine, context.tokens, chunks)
}

/// Median wall seconds of `samples` timed calls of `call`, after one
/// untimed call to warm caches and the allocator. The vendored criterion
/// stand-in takes one timing per function; bench rows that are gated
/// sample for themselves through this.
pub fn median_secs(samples: usize, mut call: impl FnMut()) -> f64 {
    let mut timed = || {
        let start = std::time::Instant::now();
        call();
        start.elapsed().as_secs_f64()
    };
    timed();
    let mut secs: Vec<f64> = (0..samples).map(|_| timed()).collect();
    secs.sort_by(f64::total_cmp);
    secs[samples / 2]
}

/// A ready-to-measure bench fixture: an engine plus evaluation samples.
pub struct Bench {
    /// The engine under test.
    pub engine: CacheGenEngine,
    /// Evaluation contexts.
    pub samples: Vec<ContextSample>,
    /// Which dataset generated the samples.
    pub dataset: Dataset,
}

impl Bench {
    /// Builds a fixture: profiles the codec on two held-out contexts of
    /// the same dataset, then generates `n` evaluation contexts.
    pub fn new(model: SimModelConfig, dataset: Dataset, seed: u64, n: usize) -> Self {
        let vocab = model.vocab;
        let mut rng = workload_rng(seed);
        let profile: Vec<Vec<usize>> = (0..2)
            .map(|_| dataset.generate(&mut rng, vocab, SIM_CONTEXT_TOKENS).tokens)
            .collect();
        let engine = CacheGenEngine::build(model, EngineConfig::default(), &profile);
        let samples = dataset.generate_set(&mut rng, vocab, SIM_CONTEXT_TOKENS, n);
        Bench {
            engine,
            samples,
            dataset,
        }
    }

    /// Probe prompts for first-token accuracy, deterministic per index.
    pub fn probe_prompts(&self, vocab: usize) -> Vec<Vec<usize>> {
        (0..PROBE_PROMPTS)
            .map(|p| vec![(p * 13 + 1) % vocab, (p * 37 + 5) % vocab])
            .collect()
    }

    /// Measures dataset-appropriate quality of a degraded cache against
    /// the full-precision reference for one sample.
    pub fn quality(&self, reference: &KvCache, degraded: &KvCache, sample: &ContextSample) -> f64 {
        let model = self.engine.model();
        let vocab = model.config().vocab;
        match self.dataset.metric() {
            Metric::Accuracy => {
                eval::first_token_accuracy(model, reference, degraded, &self.probe_prompts(vocab))
            }
            Metric::F1 => {
                let a = model.generate_with_kv(reference, &sample.prompt, F1_HORIZON);
                let b = model.generate_with_kv(degraded, &sample.prompt, F1_HORIZON);
                eval::token_f1(&b, &a)
            }
            Metric::Perplexity => {
                let cont = model.generate_with_kv(reference, &sample.prompt, PPL_HORIZON);
                eval::perplexity(model, degraded, &sample.prompt, &cont)
            }
        }
    }

    /// Mean quality and mean compressed bits/element at one encoding
    /// level, across all samples.
    pub fn level_report(&self, level: usize) -> QualityReport {
        let mut quality = 0.0;
        let mut bits = 0.0;
        for s in &self.samples {
            let cache = self.engine.calculate_kv(&s.tokens);
            let enc = self.engine.encode_at_level(&cache, level);
            let dec = self
                .engine
                .try_decode_at_level(&enc, level)
                .expect("own encoding decodes");
            quality += self.quality(&cache, &dec, s);
            bits += enc.total_bytes() as f64 * 8.0 / cache.num_elements() as f64;
        }
        let n = self.samples.len() as f64;
        QualityReport {
            quality: quality / n,
            bits_per_element: bits / n,
        }
    }

    /// Mean quality and bits/element of the uniform-quantization baseline.
    pub fn quant_report(&self, bits: u8) -> QualityReport {
        let mut quality = 0.0;
        let mut bpe = 0.0;
        for s in &self.samples {
            let cache = self.engine.calculate_kv(&s.tokens);
            let q = cachegen_baselines::quantization_baseline(&cache, bits);
            quality += self.quality(&cache, &q.cache, s);
            bpe += q.wire_bytes as f64 * 8.0 / cache.num_elements() as f64;
        }
        let n = self.samples.len() as f64;
        QualityReport {
            quality: quality / n,
            bits_per_element: bpe / n,
        }
    }
}

/// One (quality, size) measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QualityReport {
    /// Dataset-metric quality (accuracy/F1 in \[0, 1\]; perplexity ≥ 1,
    /// lower better).
    pub quality: f64,
    /// Compressed size in bits per KV element.
    pub bits_per_element: f64,
}

/// Prints a section header for the figure output.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_fixture_builds_and_reports() {
        let b = Bench::new(SimModelConfig::tiny(5), Dataset::LongChat, 1, 1);
        let r = b.level_report(1);
        assert!(r.quality >= 0.0 && r.quality <= 1.0);
        assert!(r.bits_per_element > 0.0 && r.bits_per_element < 16.0);
        let q8 = b.quant_report(8);
        assert!(q8.bits_per_element > 8.0); // payload + scale overhead
    }

    #[test]
    fn perplexity_metric_path() {
        let b = Bench::new(SimModelConfig::tiny(6), Dataset::WikiText, 2, 1);
        let s = &b.samples[0];
        let cache = b.engine.calculate_kv(&s.tokens);
        let q = b.quality(&cache, &cache.clone(), s);
        assert!(q >= 1.0, "self-perplexity must be ≥ 1, got {q}");
    }

    #[test]
    fn paper_mb_scaling() {
        let r = QualityReport {
            quality: 1.0,
            bits_per_element: 8.0,
        };
        let mb =
            cachegen_llm::ModelSpec::mistral_7b().kv_bytes(9_400, r.bits_per_element) as f64 / 1e6;
        assert!((mb - 616.0).abs() < 10.0);
    }
}
