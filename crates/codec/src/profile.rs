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
use crate::encoder::{CodecConfig, SymKind, ANCHOR_BIN};
use crate::quantize::{channel_steps, quantize_layer};
use crate::symbol_model::{FreqTable, ModelGranularity, SymbolCounts, SymbolModelSet};
use cachegen_llm::KvCache;
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

/// Floor under every computed scale: guards near-constant channels, whose
/// zero std would make a zero quantization step.
const SCALE_FLOOR: f32 = 1e-4;

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
    let std_of = |sum: f64, sq: f64, n: u64| -> f32 {
        if n == 0 {
            return SCALE_FLOOR;
        }
        let mean = sum / n as f64;
        let var = (sq / n as f64 - mean * mean).max(0.0);
        (var.sqrt() as f32).max(SCALE_FLOOR)
    };
    // Welford-free accumulation: a sum and a sum of squares per channel,
    // each statistic its own flat array so the channel loop is four
    // independent streams of `f64` adds and vectorises. A channel's terms
    // are added in (sample, group, token) order whatever the loop shape,
    // which is what keeps the scales — and every byte coded under them —
    // reproducible.
    let mut acc = vec![0.0f64; 4 * channels];
    let mut anchor_scales = Vec::with_capacity(layers);
    let mut delta_scales = Vec::with_capacity(layers);
    for l in 0..layers {
        acc.fill(0.0);
        let (a_sum, rest) = acc.split_at_mut(channels);
        let (a_sq, rest) = rest.split_at_mut(channels);
        let (d_sum, d_sq) = rest.split_at_mut(channels);
        let (mut anchors, mut deltas) = (0u64, 0u64);
        for cache in samples {
            let slab = tensor_of(cache, is_k).slab(l);
            let layout = GroupLayout::new(cfg.group_size, cache.tokens());
            for (anchor, members) in layout.groups() {
                let arow = &slab[anchor * channels..(anchor + 1) * channels];
                for ((sum, sq), &a) in a_sum.iter_mut().zip(a_sq.iter_mut()).zip(arow) {
                    let a = f64::from(a);
                    *sum += a;
                    *sq += a * a;
                }
                anchors += 1;
                for tok in members {
                    let row = &slab[tok * channels..(tok + 1) * channels];
                    let terms = d_sum.iter_mut().zip(d_sq.iter_mut());
                    for ((sum, sq), (&x, &a)) in terms.zip(row.iter().zip(arow)) {
                        let d = f64::from(x - a);
                        *sum += d;
                        *sq += d * d;
                    }
                    deltas += 1;
                }
            }
        }
        let stds = |sums: &[f64], sqs: &[f64], n: u64| -> Vec<f32> {
            sums.iter()
                .zip(sqs)
                .map(|(&s, &q)| std_of(s, q, n))
                .collect()
        };
        anchor_scales.push(stds(a_sum, a_sq, anchors));
        delta_scales.push(stds(d_sum, d_sq, deltas));
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
                            anchor_scales: &[Vec<f32>],
                            delta_scales: &[Vec<f32>]|
         -> (SymbolModelSet, SymbolModelSet) {
            // Count every sample's symbols out of the quantise stage the
            // encoder runs, so the tables describe exactly what it codes.
            let mut anchors = SymbolCounts::new(cfg.granularity, layers, channels);
            let mut deltas = SymbolCounts::new(cfg.granularity, layers, channels);
            let anchor_len = if cfg.delta_encoding { channels } else { 0 };
            for cache in samples {
                let t = tensor_of(cache, is_k);
                let layout = GroupLayout::new(cfg.group_size, cache.tokens());
                for l in 0..layers {
                    let delta_bin = cfg.bins.bin_for_layer(l, layers);
                    quantize_layer(
                        t.slab(l),
                        channels,
                        layout,
                        cfg.delta_encoding,
                        &channel_steps(ANCHOR_BIN, &anchor_scales[l]),
                        &channel_steps(delta_bin, &delta_scales[l]),
                        |indices| {
                            let (anchor_row, delta_rows) = indices.split_at(anchor_len);
                            anchors.record_rows(l, anchor_row);
                            deltas.record_rows(l, delta_rows);
                        },
                    );
                }
            }
            (anchors.into_models(), deltas.into_models())
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
    fn every_profiled_hot_reciprocal_divides_exactly() {
        // Every reciprocal a real profile's tables hold — both kinds, both
        // sides, every (layer, channel) — against the hardware divide, in
        // release builds too (debug builds assert it on every symbol coded).
        let cache = sample_cache(6, 40);
        let p = CodecProfile::build(&CodecConfig::default(), &[&cache]);
        let mut reciprocals = 0;
        for kind in [SymKind::Anchor, SymKind::Delta] {
            for is_k in [true, false] {
                for l in 0..p.layers() {
                    for t in p.layer_tables(kind, is_k, l) {
                        for i in 0..t.len() {
                            let code = t.code(i);
                            if !code.has_reciprocal() {
                                continue;
                            }
                            reciprocals += 1;
                            for x in code.quotient_probes() {
                                assert_eq!(
                                    code.quotient(x),
                                    x / u64::from(code.freq),
                                    "f = {}, x = {x}",
                                    code.freq
                                );
                            }
                        }
                    }
                }
            }
        }
        // Fifteen per table: 2 kinds × 2 sides × layers × channels tables.
        assert_eq!(reciprocals, 15 * 4 * p.layers() * p.channels());
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
