//! Every baseline the paper compares against, implemented on the shared
//! simulator substrate.
//!
//! §7.1's head-to-head baselines:
//! * **Default quantization** — uniform per-channel quantization at 3/4/8
//!   bits ([`quantization_baseline`], using `cachegen-quant`); ships
//!   tensors, not bitstreams.
//! * **Text context** — send raw text, recompute the KV cache; minimal
//!   bytes, maximal GPU time. Pure accounting, so no code here:
//!   [`cachegen_llm::ModelSpec::text_bytes`] on the wire, then
//!   [`cachegen_llm::GpuSpec::prefill_seconds`] of recompute.
//! * **Context compression** — [`h2o`] (drop tokens from the KV cache by
//!   attention score) and [`lingua`] (drop tokens from the *text* before
//!   prefill, LLMLingua-style).
//!
//! Appendix B's more intrusive methods:
//! * [`scissorhands`] — persistence-of-importance token dropping.
//! * [`gisting`] — pool spans of KV rows into gist rows.
//! * smaller models — just a smaller [`cachegen_llm::SimModelConfig`]
//!   preset; no extra code needed here.
//!
//! All token-dropping baselines return both the pruned cache and the kept
//! indices so CacheGen's codec can be layered on top (Figure 10: "CacheGen
//! on H2O", "CacheGen on LLMLingua").

pub mod gisting;
pub mod h2o;
pub mod lingua;
pub mod scissorhands;

use cachegen_llm::KvCache;
use cachegen_quant::UniformQuantizer;

/// Result of the uniform-quantization baseline: the degraded cache the LLM
/// consumes and the bytes it puts on the wire.
#[derive(Clone, Debug)]
pub struct QuantBaselineResult {
    /// Lossy round-tripped cache.
    pub cache: KvCache,
    /// Wire bytes (quantized tensor + per-vector scale metadata).
    pub wire_bytes: u64,
    /// Bits per element used.
    pub bits: u8,
}

/// Runs the §7.1 "default quantization" baseline at a bit width.
pub fn quantization_baseline(cache: &KvCache, bits: u8) -> QuantBaselineResult {
    let q = UniformQuantizer::new(bits);
    QuantBaselineResult {
        cache: q.round_trip_cache(cache),
        wire_bytes: q.wire_bytes(cache),
        bits,
    }
}

/// Sorted, deduplicated indices of the `keep_count` largest scores, always
/// including the last `recent_window` positions (shared by the
/// token-dropping baselines).
pub fn top_indices_with_recent(
    scores: &[f64],
    keep_count: usize,
    recent_window: usize,
) -> Vec<usize> {
    let n = scores.len();
    assert!(keep_count >= 1 && keep_count <= n, "bad keep_count");
    let recent_start = n.saturating_sub(recent_window);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    let mut keep: Vec<usize> = Vec::with_capacity(keep_count);
    // Recent window first (always kept), then heavy hitters.
    keep.extend(recent_start..n);
    for &i in &order {
        if keep.len() >= keep_count {
            break;
        }
        if i < recent_start {
            keep.push(i);
        }
    }
    keep.sort_unstable();
    keep.dedup();
    keep.truncate(keep_count.max(keep.len().min(keep_count)));
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachegen_llm::{SimModelConfig, SimTransformer};

    #[test]
    fn quant_baseline_sizes_scale_with_bits() {
        let m = SimTransformer::new(SimModelConfig::tiny(1));
        let cache = m.prefill(&(0..20).collect::<Vec<_>>());
        let b8 = quantization_baseline(&cache, 8);
        let b4 = quantization_baseline(&cache, 4);
        let b3 = quantization_baseline(&cache, 3);
        assert!(b8.wire_bytes > b4.wire_bytes);
        assert!(b4.wire_bytes > b3.wire_bytes);
        // Lower bits → larger degradation.
        assert!(cache.mse(&b3.cache) > cache.mse(&b8.cache));
    }

    #[test]
    fn text_baseline_accounting() {
        let wire_bytes = cachegen_llm::ModelSpec::text_bytes(9_400);
        assert_eq!(wire_bytes, 9_400 * 4);
        let model = cachegen_llm::ModelSpec::mistral_7b();
        let gpu = cachegen_llm::GpuSpec::default();
        let s = gpu.prefill_seconds(&model, 9_400);
        assert!(s > 1.0, "9.4K prefill should take seconds: {s}");
        // The text wire size is tiny next to even a 3-bit quantized KV.
        let kv3 = model.kv_bytes(9_400, 3.0);
        assert!(wire_bytes * 100 < kv3);
    }

    #[test]
    fn top_indices_keeps_recent_and_heavy() {
        let scores = vec![9.0, 0.1, 5.0, 0.2, 0.3, 0.1];
        let keep = top_indices_with_recent(&scores, 4, 2);
        // Recent window {4, 5} always kept; then heavy hitters 0 and 2.
        assert_eq!(keep, vec![0, 2, 4, 5]);
    }

    #[test]
    fn top_indices_sorted_unique() {
        let scores: Vec<f64> = (0..50).map(|i| ((i * 31) % 17) as f64).collect();
        let keep = top_indices_with_recent(&scores, 20, 5);
        assert_eq!(keep.len(), 20);
        assert!(keep.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn keep_all_is_identity() {
        let scores = vec![1.0, 2.0, 3.0];
        assert_eq!(top_indices_with_recent(&scores, 3, 1), vec![0, 1, 2]);
    }
}
