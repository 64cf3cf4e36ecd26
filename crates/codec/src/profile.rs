//! Offline per-model profiling of scales and symbol distributions.
//!
//! §5.2: the encoder "offline profiles a separate probability distribution
//! for each channel-layer combination of delta tensors and another for
//! anchor tensors produced by an LLM, and uses the same distributions for
//! all KV caches produced by the same LLM". A [`CodecProfile`] is therefore
//! built once from sample KV caches of a model and shipped with the model —
//! it does not count against per-context wire size.
//!
//! The profile holds, for K and V separately, **symbol distributions**
//! for anchors and deltas at the configured [`ModelGranularity`]. They
//! are counted over samples normalised by per-(layer, channel) **scales**
//! (population std of anchor values and of anchor-relative deltas) that
//! only the build needs: at encode time each cache ships its own scales
//! ([`single_cache_scales`]) in the container. (The delta scales are
//! still stored, for the frozen benchmark's one read of them.)

use crate::delta::GroupLayout;
use crate::encoder::{walk_layer_symbols, CodecConfig, SymKind};
use crate::symbol_model::{FreqTable, ModelGranularity, SymbolModelSet};
use cachegen_llm::KvCache;
use cachegen_quant::BinQuantizer;
use cachegen_tensor::Tensor;

/// Per-model codec profile (symbol models).
#[derive(Clone, Debug)]
pub struct CodecProfile {
    layers: usize,
    channels: usize,
    granularity: ModelGranularity,
    // [0] = K, [1] = V; scales are [layer][channel]
    delta_scales: [Vec<Vec<f32>>; 2],
    anchor_models: [SymbolModelSet; 2],
    delta_models: [SymbolModelSet; 2],
}

fn tensor_of(cache: &KvCache, is_k: bool) -> &Tensor {
    if is_k {
        cache.k()
    } else {
        cache.v()
    }
}

/// Per-(layer, channel) scales of one cache: what the encoder computes at
/// encode time (vectorwise quantization derives scales from the tensor
/// itself, after LLM.int8) and ships in the bitstream header.
pub fn single_cache_scales(
    cache: &KvCache,
    is_k: bool,
    cfg: &CodecConfig,
) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
    profile_scales(&[cache], is_k, cfg)
}

/// Population std per (layer, channel) of anchor values and anchor-relative
/// deltas, accumulated across sample caches.
fn profile_scales(
    samples: &[&KvCache],
    is_k: bool,
    cfg: &CodecConfig,
) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let layers = samples[0].layers();
    let channels = samples[0].channels();
    // Welford-free accumulation: sums and sums of squares per (layer, chan).
    let mut acc = vec![vec![[0.0f64; 5]; channels]; layers]; // [a_sum, a_sq, d_sum, d_sq, counts-in-[4]]
    let mut a_counts = vec![0u64; layers];
    let mut d_counts = vec![0u64; layers];
    for cache in samples {
        let t = tensor_of(cache, is_k);
        let layout = GroupLayout::new(cfg.group_size, cache.tokens());
        for l in 0..layers {
            let slab = t.slab(l);
            for (anchor, members) in layout.groups() {
                let arow = &slab[anchor * channels..(anchor + 1) * channels];
                for (c, &a) in arow.iter().enumerate() {
                    acc[l][c][0] += a as f64;
                    acc[l][c][1] += (a as f64) * (a as f64);
                }
                a_counts[l] += 1;
                for tok in members {
                    let row = &slab[tok * channels..(tok + 1) * channels];
                    for c in 0..channels {
                        let d = (row[c] - arow[c]) as f64;
                        acc[l][c][2] += d;
                        acc[l][c][3] += d * d;
                    }
                    d_counts[l] += 1;
                }
            }
        }
    }
    let std_of = |sum: f64, sq: f64, n: u64| -> f32 {
        if n == 0 {
            return cfg.scale_floor;
        }
        let mean = sum / n as f64;
        let var = (sq / n as f64 - mean * mean).max(0.0);
        (var.sqrt() as f32).max(cfg.scale_floor)
    };
    let mut anchor_scales = vec![vec![0.0f32; channels]; layers];
    let mut delta_scales = vec![vec![0.0f32; channels]; layers];
    for l in 0..layers {
        for c in 0..channels {
            anchor_scales[l][c] = std_of(acc[l][c][0], acc[l][c][1], a_counts[l]);
            delta_scales[l][c] = std_of(acc[l][c][2], acc[l][c][3], d_counts[l]);
        }
    }
    (anchor_scales, delta_scales)
}

impl CodecProfile {
    /// Builds a profile from one or more sample KV caches of the target
    /// model, for a specific codec configuration (bins determine the symbol
    /// alphabet, so a profile is per encoding level).
    pub fn build(cfg: &CodecConfig, samples: &[&KvCache]) -> Self {
        assert!(!samples.is_empty(), "need at least one sample cache");
        let layers = samples[0].layers();
        let channels = samples[0].channels();
        for s in samples {
            assert_eq!(s.layers(), layers, "sample layer mismatch");
            assert_eq!(s.channels(), channels, "sample channel mismatch");
        }

        let (k_anchor_scales, k_delta_scales) = profile_scales(samples, true, cfg);
        let (v_anchor_scales, v_delta_scales) = profile_scales(samples, false, cfg);

        let build_models = |is_k: bool,
                            anchor_scales: &Vec<Vec<f32>>,
                            delta_scales: &Vec<Vec<f32>>|
         -> (SymbolModelSet, SymbolModelSet) {
            // Collect symbol occurrences by walking every sample in encode
            // order with the same routine the encoder uses.
            let mut anchor_obs: Vec<(usize, usize, i32)> = Vec::new();
            let mut delta_obs: Vec<(usize, usize, i32)> = Vec::new();
            for cache in samples {
                let t = tensor_of(cache, is_k);
                let layout = GroupLayout::new(cfg.group_size, cache.tokens());
                for l in 0..layers {
                    let delta_bin = cfg.bins.bin_for_layer(l, layers);
                    walk_layer_symbols(
                        t.slab(l),
                        channels,
                        layout,
                        cfg.delta_encoding,
                        BinQuantizer::new(cfg.anchor_bin),
                        BinQuantizer::new(delta_bin),
                        &anchor_scales[l],
                        &delta_scales[l],
                        |kind, c, sym| match kind {
                            SymKind::Anchor => anchor_obs.push((l, c, sym)),
                            SymKind::Delta => delta_obs.push((l, c, sym)),
                        },
                    );
                }
            }
            let anchors = SymbolModelSet::build(cfg.granularity, layers, channels, |rec| {
                for &(l, c, s) in &anchor_obs {
                    rec(l, c, s);
                }
            });
            let deltas = SymbolModelSet::build(cfg.granularity, layers, channels, |rec| {
                for &(l, c, s) in &delta_obs {
                    rec(l, c, s);
                }
            });
            (anchors, deltas)
        };

        let (k_anchor_models, k_delta_models) =
            build_models(true, &k_anchor_scales, &k_delta_scales);
        let (v_anchor_models, v_delta_models) =
            build_models(false, &v_anchor_scales, &v_delta_scales);

        CodecProfile {
            layers,
            channels,
            granularity: cfg.granularity,
            delta_scales: [k_delta_scales, v_delta_scales],
            anchor_models: [k_anchor_models, v_anchor_models],
            delta_models: [k_delta_models, v_delta_models],
        }
    }

    /// Layers this profile covers.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Channels per token per layer.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Symbol-model granularity.
    pub fn granularity(&self) -> ModelGranularity {
        self.granularity
    }

    fn side(is_k: bool) -> usize {
        if is_k {
            0
        } else {
            1
        }
    }

    /// Delta scales for one layer of K or V, as profiled over the samples.
    /// Encode does not read them (each cache ships its own scales); the
    /// frozen `benchmark/` package does.
    pub fn delta_scales(&self, is_k: bool, layer: usize) -> &[f32] {
        &self.delta_scales[Self::side(is_k)][layer]
    }

    /// The frequency table for a symbol kind at (layer, channel).
    pub fn table(&self, kind: SymKind, is_k: bool, layer: usize, channel: usize) -> &FreqTable {
        let s = Self::side(is_k);
        match kind {
            SymKind::Anchor => self.anchor_models[s].table(layer, channel),
            SymKind::Delta => self.delta_models[s].table(layer, channel),
        }
    }

    /// All per-channel tables of one kind for one layer, resolved once —
    /// the hot encode/decode loops index the returned slice per channel
    /// instead of routing through the granularity per symbol.
    pub fn layer_tables(&self, kind: SymKind, is_k: bool, layer: usize) -> Vec<&FreqTable> {
        let s = Self::side(is_k);
        match kind {
            SymKind::Anchor => self.anchor_models[s].layer_tables(layer),
            SymKind::Delta => self.delta_models[s].layer_tables(layer),
        }
    }

    /// [`CodecProfile::layer_tables`] under the name it had while the
    /// rANS stage read a separate alias layout; the frozen `benchmark/`
    /// package still calls it.
    pub fn layer_alias_tables(&self, kind: SymKind, is_k: bool, layer: usize) -> Vec<&FreqTable> {
        self.layer_tables(kind, is_k, layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachegen_llm::{SimModelConfig, SimTransformer};

    fn sample_cache(seed: u64, tokens: usize) -> KvCache {
        let m = SimTransformer::new(SimModelConfig::tiny(9));
        let ctx: Vec<usize> = (0..tokens)
            .map(|i| ((i as u64 * 13 + seed) % 64) as usize)
            .collect();
        m.prefill(&ctx)
    }

    #[test]
    fn profile_dimensions() {
        let cache = sample_cache(1, 30);
        let cfg = CodecConfig::default();
        let p = CodecProfile::build(&cfg, &[&cache]);
        assert_eq!(p.layers(), cache.layers());
        assert_eq!(p.channels(), cache.channels());
        let (anchor_scales, _) = single_cache_scales(&cache, true, &cfg);
        assert_eq!(anchor_scales[0].len(), cache.channels());
        assert_eq!(p.delta_scales(false, 1).len(), cache.channels());
    }

    #[test]
    fn scales_are_positive() {
        let cache = sample_cache(2, 30);
        let cfg = CodecConfig::default();
        let p = CodecProfile::build(&cfg, &[&cache]);
        for l in 0..p.layers() {
            for is_k in [true, false] {
                let (anchor_scales, _) = single_cache_scales(&cache, is_k, &cfg);
                assert!(anchor_scales[l].iter().all(|&s| s > 0.0));
                assert!(p.delta_scales(is_k, l).iter().all(|&s| s > 0.0));
            }
        }
    }

    #[test]
    fn multi_sample_profile_generalises() {
        // A profile built on caches A and B should encode a third cache C
        // from the same model without blowup.
        let a = sample_cache(10, 30);
        let b = sample_cache(20, 30);
        let c = sample_cache(30, 30);
        let cfg = CodecConfig::default();
        let p = CodecProfile::build(&cfg, &[&a, &b]);
        let codec = crate::KvCodec::new(cfg, p);
        let (dec, bytes) = codec.round_trip(&c);
        assert!(bytes > 0);
        let bits = bytes as f64 * 8.0 / c.num_elements() as f64;
        assert!(
            bits < 9.0,
            "cross-context encoding blew up: {bits:.2} bits/elem"
        );
        assert!(c.mse(&dec) < 1.0);
    }

    #[test]
    fn delta_entropy_below_anchor_alphabet_width() {
        let cache = sample_cache(4, 40);
        let p = CodecProfile::build(&CodecConfig::default(), &[&cache]);
        // Deltas under std-normalised bins ≥ 0.5 concentrate on few symbols.
        let mean_delta_entropy =
            (p.delta_models[0].mean_entropy_bits() + p.delta_models[1].mean_entropy_bits()) / 2.0;
        assert!(mean_delta_entropy < 5.0, "entropy {mean_delta_entropy:.2}");
    }
}
