//! Topic-segmented Markov text generation.
//!
//! Real long contexts (chat histories, documents, stories) have strong
//! local structure: nearby tokens share topic and vocabulary. That locality
//! is what gives KV caches the token-wise similarity CacheGen's delta
//! encoder exploits (Insight 1). The generator reproduces it with a simple
//! two-level process: the context is divided into topical segments; within
//! a segment, tokens are drawn from a topic-specific band of the vocabulary
//! with a probability of repeating the previous token.

use rand::rngs::StdRng;
use rand::Rng;

use crate::Dataset;

/// One generated evaluation sample.
#[derive(Clone, Debug, PartialEq)]
pub struct ContextSample {
    /// Which dataset generated this sample.
    pub dataset: Dataset,
    /// Functional-scale context tokens.
    pub tokens: Vec<usize>,
    /// Task prompt appended after the context.
    pub prompt: Vec<usize>,
    /// Paper-scale context length, for analytic sizes/delays.
    pub paper_tokens: u64,
}

/// Topic-banded Markov token generator.
#[derive(Clone, Debug)]
pub struct MarkovTextGen {
    vocab: usize,
    n_topics: usize,
    repeat_p: f64,
}

impl MarkovTextGen {
    /// Creates a generator. `vocab` must comfortably exceed `n_topics`.
    pub fn new(vocab: usize, n_topics: usize, repeat_p: f64) -> Self {
        assert!(n_topics >= 1 && vocab >= 2 * n_topics, "vocab too small");
        assert!((0.0..1.0).contains(&repeat_p));
        MarkovTextGen {
            vocab,
            n_topics,
            repeat_p,
        }
    }

    /// The vocabulary band `[lo, hi)` of a topic.
    fn topic_band(&self, topic: usize) -> (usize, usize) {
        let width = self.vocab / self.n_topics;
        let lo = (topic % self.n_topics) * width;
        (lo, lo + width)
    }

    /// Generates `len` tokens: equal-length topical segments, tokens drawn
    /// from the segment's band with self-repetition.
    pub fn generate(&self, rng: &mut StdRng, len: usize) -> Vec<usize> {
        assert!(len > 0);
        let seg_len = len.div_ceil(self.n_topics);
        let mut out = Vec::with_capacity(len);
        let mut prev: Option<usize> = None;
        for i in 0..len {
            let topic = (i / seg_len).min(self.n_topics - 1);
            let (lo, hi) = self.topic_band(topic);
            let tok = match prev {
                Some(p) if (lo..hi).contains(&p) && rng.gen::<f64>() < self.repeat_p => p,
                _ => lo + rng.gen::<usize>() % (hi - lo),
            };
            out.push(tok);
            prev = Some(tok);
        }
        out
    }

    /// A prompt probing one topic: `len` tokens drawn from the topic's
    /// band (stands in for "what was the first topic we discussed?").
    pub fn probe_prompt(&self, rng: &mut StdRng, topic: usize, len: usize) -> Vec<usize> {
        assert!(len > 0);
        let (lo, hi) = self.topic_band(topic);
        (0..len)
            .map(|_| lo + rng.gen::<usize>() % (hi - lo))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload_rng;

    #[test]
    fn bands_partition_vocab() {
        let g = MarkovTextGen::new(64, 8, 0.3);
        let mut covered = [false; 64];
        for t in 0..8 {
            let (lo, hi) = g.topic_band(t);
            assert_eq!(hi - lo, 8);
            for (v, c) in covered.iter_mut().enumerate().take(hi).skip(lo) {
                assert!(!*c, "band overlap at {v}");
                *c = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn tokens_stay_in_segment_band() {
        let g = MarkovTextGen::new(64, 4, 0.4);
        let toks = g.generate(&mut workload_rng(5), 100);
        let seg_len = 25;
        for (i, &t) in toks.iter().enumerate() {
            let topic = (i / seg_len).min(3);
            let (lo, hi) = g.topic_band(topic);
            assert!((lo..hi).contains(&t), "token {t} at {i} outside band");
        }
    }

    #[test]
    fn repetition_rate_is_elevated() {
        let g = MarkovTextGen::new(64, 2, 0.5);
        let toks = g.generate(&mut workload_rng(11), 5_000);
        let repeats = toks.windows(2).filter(|w| w[0] == w[1]).count();
        let rate = repeats as f64 / (toks.len() - 1) as f64;
        // 0.5 explicit repeats + 1/32 chance of random repeat within band.
        assert!(rate > 0.4, "repeat rate {rate}");
        // Compare against an unstructured baseline.
        let g0 = MarkovTextGen::new(64, 1, 0.0);
        let toks0 = g0.generate(&mut workload_rng(11), 5_000);
        let repeats0 = toks0.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(repeats > 4 * repeats0);
    }

    #[test]
    fn probe_prompt_hits_requested_band() {
        let g = MarkovTextGen::new(64, 8, 0.3);
        let p = g.probe_prompt(&mut workload_rng(2), 3, 16);
        let (lo, hi) = g.topic_band(3);
        assert!(p.iter().all(|&t| (lo..hi).contains(&t)));
    }

    #[test]
    #[should_panic(expected = "vocab too small")]
    fn rejects_tiny_vocab() {
        let _ = MarkovTextGen::new(4, 8, 0.3);
    }
}
