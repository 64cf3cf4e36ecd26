//! H2O (Heavy-Hitter Oracle) — KV-cache token dropping by attention score.
//!
//! H2O [Zhang et al. 2023] keeps the KV entries of "heavy-hitter" tokens —
//! those that accumulate the most attention — plus a recent window, and
//! drops the rest. The paper evaluates an *idealized* H2O (§7.2): the
//! attention scores of the query are computed offline and supplied to the
//! pruner. We reproduce exactly that: [`cachegen_llm::SimTransformer::prefill_with_scores`]
//! records each context token's cumulative received attention, and the
//! pruner keeps the top fraction.
//!
//! The pruned cache still has tensor form (that is H2O's constraint), so
//! CacheGen's codec can be applied on top — Figure 10's "CacheGen on H2O".

use crate::top_indices_with_recent;
use cachegen_llm::{KvCache, SimTransformer};

/// Result of H2O pruning.
#[derive(Clone, Debug)]
pub struct H2oResult {
    /// The pruned cache (token axis shrunk; tensor form preserved).
    pub cache: KvCache,
    /// Original indices of the kept tokens (sorted).
    pub kept: Vec<usize>,
    /// Wire size if the pruned cache is shipped at `bits` per element plus
    /// per-vector scales (H2O itself does not entropy-code).
    pub original_tokens: usize,
}

impl H2oResult {
    /// Wire bytes when the pruned tensors are shipped at a given precision
    /// (the paper quantizes H2O's output for its size comparisons).
    pub fn wire_bytes(&self, bits_per_element: f64) -> u64 {
        self.cache.size_bytes(bits_per_element)
    }
}

/// Idealized H2O: prefill with attention-score recording, keep the
/// `keep_ratio` highest-scoring tokens (always including a recent window of
/// 10% of the context).
pub fn prune(model: &SimTransformer, context: &[usize], keep_ratio: f64) -> H2oResult {
    assert!(
        keep_ratio > 0.0 && keep_ratio <= 1.0,
        "keep_ratio must be in (0, 1]"
    );
    let (cache, scores) = model.prefill_with_scores(context);
    prune_with_scores(&cache, &scores, keep_ratio)
}

/// Pruning from an existing cache + score vector (lets callers reuse one
/// prefill across keep ratios).
fn prune_with_scores(cache: &KvCache, scores: &[f64], keep_ratio: f64) -> H2oResult {
    assert_eq!(scores.len(), cache.tokens());
    let n = cache.tokens();
    let keep_count = ((n as f64 * keep_ratio).round() as usize).clamp(1, n);
    let recent = (n / 10).max(1).min(keep_count);
    let kept = top_indices_with_recent(scores, keep_count, recent);
    H2oResult {
        cache: cache.select_tokens(&kept),
        kept,
        original_tokens: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachegen_llm::SimModelConfig;

    fn setup() -> (SimTransformer, Vec<usize>) {
        let m = SimTransformer::new(SimModelConfig::tiny(17));
        let ctx: Vec<usize> = (0..40).map(|i| (i * 7) % 64).collect();
        (m, ctx)
    }

    #[test]
    fn prune_shrinks_cache() {
        let (m, ctx) = setup();
        let r = prune(&m, &ctx, 0.5);
        assert_eq!(r.cache.tokens(), 20);
        assert_eq!(r.kept.len(), 20);
        assert!((r.kept.len() as f64 / r.original_tokens as f64 - 0.5).abs() < 1e-9);
        assert!(r.wire_bytes(8.0) < m.prefill(&ctx).size_bytes(8.0));
    }

    #[test]
    fn keep_all_preserves_cache() {
        let (m, ctx) = setup();
        let full = m.prefill(&ctx);
        let r = prune(&m, &ctx, 1.0);
        assert_eq!(r.cache, full);
        assert_eq!(r.kept, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn kept_indices_are_valid_rows() {
        let (m, ctx) = setup();
        let full = m.prefill(&ctx);
        let r = prune(&m, &ctx, 0.3);
        for (dst, &src) in r.kept.iter().enumerate() {
            for c in 0..full.channels() {
                assert_eq!(r.cache.k_at(0, dst, c), full.k_at(0, src, c));
            }
        }
    }

    #[test]
    fn recent_tokens_survive() {
        let (m, ctx) = setup();
        let r = prune(&m, &ctx, 0.25);
        // Recent window = 4 tokens of a 40-token context.
        for t in 36..40 {
            assert!(r.kept.contains(&t), "recent token {t} dropped");
        }
    }

    #[test]
    fn generation_with_pruned_cache_is_usable() {
        // The pruned cache must feed generation without panicking and
        // degrade gracefully (not necessarily match).
        let (m, ctx) = setup();
        let full = m.prefill(&ctx);
        let r = prune(&m, &ctx, 0.5);
        let a = m.generate_with_kv(&full, &[1, 2], 6);
        let b = m.generate_with_kv_at(&r.cache, ctx.len(), &[1, 2], 6);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn heavier_pruning_drops_more_quality() {
        let (m, ctx) = setup();
        let full = m.prefill(&ctx);
        let reference = m.generate_with_kv(&full, &[3], 8);
        let score = |ratio: f64| {
            let r = prune(&m, &ctx, ratio);
            let out = m.generate_with_kv_at(&r.cache, ctx.len(), &[3], 8);
            cachegen_llm::eval::sequence_match_rate(&reference, &out)
        };
        // keep-90% should never be worse than keep-10% (monotone trend on
        // this deterministic workload).
        assert!(score(0.9) >= score(0.1));
    }
}
