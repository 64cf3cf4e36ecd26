//! LLMLingua-style prompt compression: drop tokens from the *text*.
//!
//! LLMLingua [Jiang et al. 2023] compresses the prompt before prefill by
//! removing low-information tokens (as judged by a small LM's token-level
//! surprisal). Our stand-in uses the same principle with the information
//! signal available in the simulator: a token's *novelty* — repeated and
//! locally-redundant tokens carry little information in the Markov
//! workloads (and in real text), so they are dropped first, while rare and
//! first-occurrence tokens are kept.
//!
//! Unlike H2O, the output is a shorter *text*; the KV cache is recomputed
//! from it, so the result is a smaller cache that CacheGen can further
//! encode (Figure 10's "CacheGen on LLMLingua").

use std::collections::HashMap;

/// Result of text-level compression.
#[derive(Clone, Debug, PartialEq)]
pub struct LinguaResult {
    /// The compressed token sequence.
    pub tokens: Vec<usize>,
    /// Original indices of the kept tokens (sorted).
    pub kept: Vec<usize>,
    /// Original length.
    pub original_tokens: usize,
}

/// Per-token importance: novelty-based surprisal proxy. A token scores
/// high if it differs from its predecessor (not a repeat) and is globally
/// rare; first occurrences get a bonus.
fn importance_scores(tokens: &[usize]) -> Vec<f64> {
    let mut freq: HashMap<usize, usize> = HashMap::new();
    for &t in tokens {
        *freq.entry(t).or_insert(0) += 1;
    }
    let n = tokens.len() as f64;
    let mut seen: HashMap<usize, bool> = HashMap::new();
    tokens
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let p = freq[&t] as f64 / n;
            let mut s = -p.ln(); // rarity
            if i > 0 && tokens[i - 1] == t {
                s *= 0.2; // immediate repeat: near-zero information
            }
            if seen.insert(t, true).is_none() {
                s += 1.0; // first occurrence bonus
            }
            s
        })
        .collect()
}

/// Compresses a token sequence to `keep_ratio` of its length, keeping the
/// most informative tokens in their original order.
pub fn compress(tokens: &[usize], keep_ratio: f64) -> LinguaResult {
    assert!(
        keep_ratio > 0.0 && keep_ratio <= 1.0,
        "keep_ratio must be in (0, 1]"
    );
    assert!(!tokens.is_empty(), "empty context");
    let n = tokens.len();
    let keep_count = ((n as f64 * keep_ratio).round() as usize).clamp(1, n);
    let scores = importance_scores(tokens);
    let kept = crate::top_indices_with_recent(&scores, keep_count, 1);
    LinguaResult {
        tokens: kept.iter().map(|&i| tokens[i]).collect(),
        kept,
        original_tokens: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compress_hits_target_ratio() {
        let tokens: Vec<usize> = (0..100).map(|i| (i * 3) % 50).collect();
        let r = compress(&tokens, 0.4);
        assert_eq!(r.tokens.len(), 40);
        assert!((r.tokens.len() as f64 / r.original_tokens as f64 - 0.4).abs() < 1e-9);
    }

    #[test]
    fn keeps_order() {
        let tokens: Vec<usize> = (0..60).map(|i| (i * 7) % 30).collect();
        let r = compress(&tokens, 0.5);
        assert!(r.kept.windows(2).all(|w| w[0] < w[1]));
        for (j, &i) in r.kept.iter().enumerate() {
            assert_eq!(r.tokens[j], tokens[i]);
        }
    }

    #[test]
    fn repeats_are_dropped_first() {
        // A long run of repeats plus a few distinct tokens: the distinct
        // ones must survive 50% compression.
        let mut tokens = vec![5usize; 40];
        tokens[10] = 1;
        tokens[20] = 2;
        tokens[30] = 3;
        let r = compress(&tokens, 0.25);
        for distinct in [1usize, 2, 3] {
            assert!(
                r.tokens.contains(&distinct),
                "distinct token {distinct} was dropped: {:?}",
                r.tokens
            );
        }
    }

    #[test]
    fn keep_all_is_identity() {
        let tokens: Vec<usize> = (0..20).collect();
        let r = compress(&tokens, 1.0);
        assert_eq!(r.tokens, tokens);
    }

    #[test]
    fn importance_rewards_rarity_and_novelty() {
        let tokens = vec![7, 7, 7, 7, 9];
        let s = importance_scores(&tokens);
        // The rare token 9 outranks the repeated 7s.
        assert!(s[4] > s[1]);
        // A first occurrence outranks its own repeats.
        assert!(s[0] > s[1]);
    }
}
