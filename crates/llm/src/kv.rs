//! The KV cache: the object CacheGen compresses, streams, and reuses.
//!
//! A decoder-only transformer's prefill phase produces, for every layer, a
//! key tensor and a value tensor of shape `[tokens, channels]` where
//! `channels = n_kv_heads × head_dim`. The whole collection is the KV cache
//! (§2.1 of the paper). [`KvCache`] stores K and V as two rank-3 tensors
//! `[layers, tokens, channels]` and provides the slicing operations the
//! streamer needs: splitting along the token axis into context chunks and
//! concatenating independently-decoded chunks back together (§5.3).

use cachegen_tensor::Tensor;

/// A KV cache produced by a transformer prefill.
#[derive(Clone, Debug, PartialEq)]
pub struct KvCache {
    /// Key tensor, `[layers, tokens, channels]`.
    k: Tensor,
    /// Value tensor, `[layers, tokens, channels]`.
    v: Tensor,
}

impl KvCache {
    /// Creates an empty (zero) cache with the given dimensions.
    pub fn zeros(layers: usize, tokens: usize, channels: usize) -> Self {
        KvCache {
            k: Tensor::zeros(&[layers, tokens, channels]),
            v: Tensor::zeros(&[layers, tokens, channels]),
        }
    }

    /// Builds a cache from existing K and V tensors. Both must be rank-3 and
    /// identically shaped.
    pub fn from_tensors(k: Tensor, v: Tensor) -> Self {
        assert_eq!(k.shape().len(), 3, "K must be [layers, tokens, channels]");
        assert_eq!(k.shape(), v.shape(), "K and V shapes must match");
        KvCache { k, v }
    }

    /// Number of transformer layers.
    pub fn layers(&self) -> usize {
        self.k.shape()[0]
    }

    /// Number of tokens covered by the cache.
    pub fn tokens(&self) -> usize {
        self.k.shape()[1]
    }

    /// Channels per token per layer (`n_kv_heads × head_dim`).
    pub fn channels(&self) -> usize {
        self.k.shape()[2]
    }

    /// The key tensor.
    pub fn k(&self) -> &Tensor {
        &self.k
    }

    /// The value tensor.
    pub fn v(&self) -> &Tensor {
        &self.v
    }

    /// Total number of `f32` elements across K and V.
    pub fn num_elements(&self) -> usize {
        self.k.len() + self.v.len()
    }

    /// Size in bytes at a given per-element precision (e.g. 16 bits for the
    /// fp16 tensors the paper ships, 8 for int8 quantization).
    pub fn size_bytes(&self, bits_per_element: f64) -> u64 {
        ((self.num_elements() as f64) * bits_per_element / 8.0).ceil() as u64
    }

    /// Value of K at `(layer, token, channel)`.
    pub fn k_at(&self, layer: usize, token: usize, channel: usize) -> f32 {
        self.k.get(&[layer, token, channel])
    }

    /// Extracts tokens `[start, end)` as a new cache (a *context chunk* in
    /// the paper's terminology, §5.3).
    pub fn slice_tokens(&self, start: usize, end: usize) -> KvCache {
        assert!(start <= end && end <= self.tokens(), "slice out of range");
        let (layers, channels) = (self.layers(), self.channels());
        let ntok = end - start;
        let mut k = Tensor::zeros(&[layers, ntok, channels]);
        let mut v = Tensor::zeros(&[layers, ntok, channels]);
        for l in 0..layers {
            let ks = self.k.slab(l);
            let vs = self.v.slab(l);
            k.slab_mut(l)
                .copy_from_slice(&ks[start * channels..end * channels]);
            v.slab_mut(l)
                .copy_from_slice(&vs[start * channels..end * channels]);
        }
        KvCache { k, v }
    }

    /// Concatenates chunks along the token axis, inverse of
    /// [`KvCache::slice_tokens`]. All chunks must agree on layers/channels.
    pub fn concat_tokens(chunks: &[KvCache]) -> KvCache {
        assert!(!chunks.is_empty(), "concat of zero chunks");
        let layers = chunks[0].layers();
        let channels = chunks[0].channels();
        for c in chunks {
            assert_eq!(c.layers(), layers, "layer count mismatch in concat");
            assert_eq!(c.channels(), channels, "channel count mismatch in concat");
        }
        let total: usize = chunks.iter().map(|c| c.tokens()).sum();
        let mut k = Tensor::zeros(&[layers, total, channels]);
        let mut v = Tensor::zeros(&[layers, total, channels]);
        for l in 0..layers {
            let mut off = 0;
            for c in chunks {
                let n = c.tokens() * channels;
                k.slab_mut(l)[off..off + n].copy_from_slice(c.k.slab(l));
                v.slab_mut(l)[off..off + n].copy_from_slice(c.v.slab(l));
                off += n;
            }
        }
        KvCache { k, v }
    }

    /// Keeps only the tokens whose indices appear in `keep` (sorted,
    /// deduplicated by the caller). Used by token-dropping baselines
    /// (H2O / Scissorhands), which preserve tensor form but shrink the token
    /// axis (§3 "drop unimportant tokens").
    pub fn select_tokens(&self, keep: &[usize]) -> KvCache {
        let (layers, channels) = (self.layers(), self.channels());
        let mut k = Tensor::zeros(&[layers, keep.len(), channels]);
        let mut v = Tensor::zeros(&[layers, keep.len(), channels]);
        for l in 0..layers {
            let ks = self.k.slab(l);
            let vs = self.v.slab(l);
            for (dst, &t) in keep.iter().enumerate() {
                assert!(t < self.tokens(), "select_tokens: index {t} out of range");
                k.slab_mut(l)[dst * channels..(dst + 1) * channels]
                    .copy_from_slice(&ks[t * channels..(t + 1) * channels]);
                v.slab_mut(l)[dst * channels..(dst + 1) * channels]
                    .copy_from_slice(&vs[t * channels..(t + 1) * channels]);
            }
        }
        KvCache { k, v }
    }

    /// Maximum absolute difference against another cache, across K and V.
    pub fn max_abs_diff(&self, other: &KvCache) -> f32 {
        self.k
            .max_abs_diff(&other.k)
            .max(self.v.max_abs_diff(&other.v))
    }

    /// Mean squared error against another cache, across K and V.
    pub fn mse(&self, other: &KvCache) -> f32 {
        (self.k.mse(&other.k) + self.v.mse(&other.v)) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arange_cache(layers: usize, tokens: usize, channels: usize) -> KvCache {
        let n = layers * tokens * channels;
        let k = Tensor::from_vec(
            &[layers, tokens, channels],
            (0..n).map(|i| i as f32).collect(),
        );
        let v = Tensor::from_vec(
            &[layers, tokens, channels],
            (0..n).map(|i| -(i as f32)).collect(),
        );
        KvCache::from_tensors(k, v)
    }

    #[test]
    fn dims_accessors() {
        let c = arange_cache(3, 5, 4);
        assert_eq!(c.layers(), 3);
        assert_eq!(c.tokens(), 5);
        assert_eq!(c.channels(), 4);
        assert_eq!(c.num_elements(), 2 * 60);
    }

    #[test]
    fn size_bytes_at_precisions() {
        let c = KvCache::zeros(2, 10, 8);
        // 2*2*10*8 = 320 elements.
        assert_eq!(c.size_bytes(16.0), 640);
        assert_eq!(c.size_bytes(8.0), 320);
        assert_eq!(c.size_bytes(4.0), 160);
    }

    #[test]
    fn row_access_matches_get() {
        let c = arange_cache(2, 3, 4);
        let row = &c.k().slab(1)[2 * 4..3 * 4];
        for (ch, &x) in row.iter().enumerate() {
            assert_eq!(x, c.k_at(1, 2, ch));
        }
    }

    #[test]
    fn slice_then_concat_is_identity() {
        let c = arange_cache(3, 10, 4);
        let a = c.slice_tokens(0, 4);
        let b = c.slice_tokens(4, 7);
        let d = c.slice_tokens(7, 10);
        assert_eq!(a.tokens(), 4);
        let back = KvCache::concat_tokens(&[a, b, d]);
        assert_eq!(back, c);
    }

    #[test]
    fn slice_preserves_values() {
        let c = arange_cache(2, 6, 3);
        let s = c.slice_tokens(2, 5);
        for l in 0..2 {
            for t in 0..3 {
                for ch in 0..3 {
                    assert_eq!(s.k_at(l, t, ch), c.k_at(l, t + 2, ch));
                    assert_eq!(s.v().get(&[l, t, ch]), c.v().get(&[l, t + 2, ch]));
                }
            }
        }
    }

    #[test]
    fn select_tokens_subset() {
        let c = arange_cache(2, 6, 3);
        let s = c.select_tokens(&[0, 3, 5]);
        assert_eq!(s.tokens(), 3);
        for ch in 0..3 {
            assert_eq!(s.k_at(1, 1, ch), c.k_at(1, 3, ch));
        }
    }

    #[test]
    fn diff_metrics_zero_for_identical() {
        let c = arange_cache(2, 4, 3);
        assert_eq!(c.max_abs_diff(&c.clone()), 0.0);
        assert_eq!(c.mse(&c.clone()), 0.0);
    }

    #[test]
    #[should_panic(expected = "slice out of range")]
    fn slice_out_of_range_panics() {
        let c = arange_cache(1, 4, 2);
        let _ = c.slice_tokens(2, 6);
    }
}
