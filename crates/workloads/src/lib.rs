//! Synthetic long-context workloads standing in for the paper's datasets.
//!
//! §7.1 evaluates on four datasets (Table 2):
//!
//! | Dataset     | Size | Median | Std  | P95  | Metric     |
//! |-------------|------|--------|------|------|------------|
//! | LongChat    | 200  | 9.4K   | 164  | 9.6K | accuracy   |
//! | TriviaQA    | 200  | 9.3K   | 4497 | 15K  | F1         |
//! | NarrativeQA | 200  | 14K    | 1916 | 15K  | F1         |
//! | WikiText    | 62   | 5.9K   | 4548 | 14.8K| perplexity |
//!
//! The real corpora are not available offline, so each dataset is replaced
//! by a seeded generator that matches the table's length statistics at
//! *paper scale* and produces structured token sequences at *functional
//! scale* (topic-segmented Markov text, so KV caches exhibit the token-wise
//! locality real text induces). Quality is measured against the
//! full-precision reference generation (`cachegen_llm::eval`): accuracy =
//! greedy-token exact-match rate, F1 = bag-of-token overlap, perplexity =
//! exp(mean NLL) of the reference continuation — the same *degradation*
//! measurement the paper makes, on a substrate we can run.

pub mod generator;
pub mod ingest;
pub mod multitenant;
pub mod stats;

pub use generator::{ContextSample, MarkovTextGen};
pub use ingest::{AppendRound, ChatAppendGen, ChatSession, IngestWorkload};
pub use multitenant::{MultiTenantWorkload, ServingRequest, SharedPrefixGen};
pub use stats::LengthStats;

use rand::rngs::StdRng;

/// The four evaluation datasets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Multi-topic conversation history; task: recall the first topic.
    LongChat,
    /// Single-document reading comprehension.
    TriviaQa,
    /// Story/script question answering.
    NarrativeQa,
    /// Language modelling over wiki articles.
    WikiText,
}

/// Which quality metric a dataset is scored with (§7.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Exact-match accuracy (LongChat).
    Accuracy,
    /// Token-overlap F1 (TriviaQA / NarrativeQA).
    F1,
    /// Perplexity — lower is better (WikiText).
    Perplexity,
}

impl Dataset {
    /// All four datasets in the paper's order.
    pub fn all() -> [Dataset; 4] {
        [
            Dataset::LongChat,
            Dataset::TriviaQa,
            Dataset::NarrativeQa,
            Dataset::WikiText,
        ]
    }

    /// Dataset name as used in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::LongChat => "LongChat",
            Dataset::TriviaQa => "TriviaQA",
            Dataset::NarrativeQa => "NarrativeQA",
            Dataset::WikiText => "WikiText",
        }
    }

    /// The quality metric the paper reports for this dataset.
    pub fn metric(&self) -> Metric {
        match self {
            Dataset::LongChat => Metric::Accuracy,
            Dataset::TriviaQa | Dataset::NarrativeQa => Metric::F1,
            Dataset::WikiText => Metric::Perplexity,
        }
    }

    /// Number of contexts in the paper's evaluation set (Table 2).
    pub fn size(&self) -> usize {
        match self {
            Dataset::LongChat | Dataset::TriviaQa | Dataset::NarrativeQa => 200,
            Dataset::WikiText => 62,
        }
    }

    /// Target paper-scale length statistics (median, std) from Table 2.
    pub fn target_stats(&self) -> (f64, f64) {
        match self {
            Dataset::LongChat => (9_400.0, 164.0),
            Dataset::TriviaQa => (9_300.0, 4_497.0),
            Dataset::NarrativeQa => (14_000.0, 1_916.0),
            Dataset::WikiText => (5_900.0, 4_548.0),
        }
    }

    /// Samples one paper-scale context length (tokens), clipped to the
    /// plausible range seen in Table 2 (min 1.4K, max 16K — §1 "662
    /// contexts with 1.4K to 16K tokens").
    fn sample_paper_length(&self, rng: &mut StdRng) -> u64 {
        let (median, std) = self.target_stats();
        let x = cachegen_tensor::rng::normal(rng, median as f32, std as f32) as f64;
        // NarrativeQA / TriviaQA are capped at 15-16K by the models' window.
        x.clamp(1_400.0, 15_000.0).round() as u64
    }

    /// Generates one functional-scale sample: a structured token sequence
    /// of `sim_len` tokens plus a task prompt, and a paper-scale length for
    /// analytic sizing.
    pub fn generate(&self, rng: &mut StdRng, vocab: usize, sim_len: usize) -> ContextSample {
        let paper_tokens = self.sample_paper_length(rng);
        let (n_topics, repeat_p) = match self {
            // Conversation history: many topical segments, high repetition.
            // 0.62 reproduces Figure 3's 2.4–2.9× token-delta variance
            // reduction on the simulator models (insights.rs, insight 1).
            Dataset::LongChat => (8, 0.62),
            // Single document: fewer topics, moderate repetition.
            Dataset::TriviaQa => (4, 0.35),
            // Narrative: long arcs, strong local coherence.
            Dataset::NarrativeQa => (3, 0.5),
            // Encyclopedic text: varied sections.
            Dataset::WikiText => (6, 0.3),
        };
        let gen = MarkovTextGen::new(vocab, n_topics, repeat_p);
        let tokens = gen.generate(rng, sim_len);
        // The prompt references the first topic's token band (the LongChat
        // task asks about the *first* topic; QA prompts also probe early
        // context, which is what makes truncation/corruption costly).
        let prompt = gen.probe_prompt(rng, 0, 4);
        ContextSample {
            dataset: *self,
            tokens,
            prompt,
            paper_tokens,
        }
    }

    /// Generates the full evaluation set at functional scale.
    pub fn generate_set(
        &self,
        rng: &mut StdRng,
        vocab: usize,
        sim_len: usize,
        n: usize,
    ) -> Vec<ContextSample> {
        (0..n).map(|_| self.generate(rng, vocab, sim_len)).collect()
    }
}

/// Convenience: a seeded RNG for workload generation.
pub fn workload_rng(seed: u64) -> StdRng {
    cachegen_tensor::rng::seeded(seed)
}

/// Samples `n` paper-scale lengths and summarises them (Table 2
/// reproduction).
pub fn paper_length_sample(dataset: Dataset, seed: u64, n: usize) -> Vec<u64> {
    let mut rng = workload_rng(seed);
    (0..n)
        .map(|_| dataset.sample_paper_length(&mut rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_match_paper() {
        assert_eq!(Dataset::LongChat.metric(), Metric::Accuracy);
        assert_eq!(Dataset::TriviaQa.metric(), Metric::F1);
        assert_eq!(Dataset::NarrativeQa.metric(), Metric::F1);
        assert_eq!(Dataset::WikiText.metric(), Metric::Perplexity);
    }

    #[test]
    fn sizes_sum_to_662_contexts() {
        // §1: "four datasets of long contexts (662 contexts…)".
        let total: usize = Dataset::all().iter().map(|d| d.size()).sum();
        assert_eq!(total, 662);
    }

    #[test]
    fn paper_lengths_match_table2_medians() {
        for d in Dataset::all() {
            let lens = paper_length_sample(d, 42, 2_000);
            let mut sorted = lens.clone();
            sorted.sort_unstable();
            let median = sorted[sorted.len() / 2] as f64;
            let (target, _) = d.target_stats();
            let tolerance = 0.12 * target;
            assert!(
                (median - target).abs() < tolerance.max(400.0),
                "{}: median {median} vs target {target}",
                d.name()
            );
        }
    }

    #[test]
    fn lengths_respect_clips() {
        for d in Dataset::all() {
            for &l in &paper_length_sample(d, 7, 500) {
                assert!((1_400..=15_000).contains(&l), "{}: {l}", d.name());
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::LongChat.generate(&mut workload_rng(1), 64, 100);
        let b = Dataset::LongChat.generate(&mut workload_rng(1), 64, 100);
        assert_eq!(a.tokens, b.tokens);
        assert_eq!(a.prompt, b.prompt);
    }

    #[test]
    fn samples_are_well_formed() {
        for d in Dataset::all() {
            let s = d.generate(&mut workload_rng(3), 64, 120);
            assert_eq!(s.tokens.len(), 120);
            assert!(!s.prompt.is_empty());
            assert!(s.tokens.iter().all(|&t| t < 64));
            assert!(s.prompt.iter().all(|&t| t < 64));
        }
    }
}
