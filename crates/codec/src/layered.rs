//! Incremental (layered) KV-cache streaming — the paper's §9 future work.
//!
//! "Future work includes extending CacheGen to stream KV caches
//! incrementally, akin to Scalable Video Coding (SVC), by initially sending
//! low-quality KV caches and then incrementally improving quality by
//! sending differences."
//!
//! [`LayeredCodec`] implements exactly that two-layer scheme:
//!
//! * the **base layer** is a normal CacheGen stream at a coarse encoding
//!   level — small, arrives fast, immediately usable;
//! * the **enhancement layer** encodes the *residual* between the original
//!   cache and the base reconstruction, at a fine quantization step.
//!   Adding it on top of an already-decoded base upgrades the cache to
//!   near-fine-level quality without retransmitting the base.
//!
//! Residuals have no token-wise locality left (the base already removed
//! it), so the enhancement layer skips the delta transform and relies on
//! per-(channel, layer) entropy coding alone.

use crate::container::EncodedKv;
use crate::encoder::{CodecConfig, KvCodec};
use crate::profile::CodecProfile;
use cachegen_llm::KvCache;
use cachegen_quant::LayerGroupBins;

/// A base + enhancement encoding of one KV cache (or chunk).
#[derive(Clone, Debug, PartialEq)]
pub struct LayeredKv {
    /// Coarse, immediately-decodable base stream.
    pub base: EncodedKv,
    /// Residual stream that refines the base.
    pub enhancement: EncodedKv,
}

impl LayeredKv {
    /// Wire bytes of the base layer alone.
    pub fn base_bytes(&self) -> u64 {
        self.base.total_bytes()
    }

    /// Wire bytes of base + enhancement.
    pub fn total_bytes(&self) -> u64 {
        self.base.total_bytes() + self.enhancement.total_bytes()
    }
}

/// Two-layer (SVC-style) codec.
pub struct LayeredCodec {
    base: KvCodec,
    enhancement: KvCodec,
}

impl LayeredCodec {
    /// Default enhancement config: fine uniform bins, no delta transform
    /// (residuals carry no token locality).
    fn enhancement_config(base_cfg: &CodecConfig, fine_bin: f32) -> CodecConfig {
        CodecConfig {
            bins: LayerGroupBins::uniform(fine_bin),
            delta_encoding: false,
            ..base_cfg.clone()
        }
    }

    /// Builds a layered codec. `base_cfg` sets the coarse layer;
    /// `fine_bin` sets the enhancement quantization step (in residual-std
    /// units; smaller = higher final quality, bigger enhancement stream).
    /// Profiles for both layers are learned from `samples`.
    pub fn build(base_cfg: CodecConfig, fine_bin: f32, samples: &[&KvCache]) -> Self {
        assert!(!samples.is_empty(), "need profiling samples");
        let base_profile = CodecProfile::build(&base_cfg, samples);
        let base = KvCodec::new(base_cfg.clone(), base_profile);
        // Profile the enhancement codec on actual base residuals.
        let residuals: Vec<KvCache> = samples
            .iter()
            .map(|s| {
                let dec = base.decode(&base.encode(s));
                KvCache::from_tensors(s.k().sub(dec.k()), s.v().sub(dec.v()))
            })
            .collect();
        let residual_refs: Vec<&KvCache> = residuals.iter().collect();
        let enh_cfg = Self::enhancement_config(&base_cfg, fine_bin);
        let enh_profile = CodecProfile::build(&enh_cfg, &residual_refs);
        let enhancement = KvCodec::new(enh_cfg, enh_profile);
        LayeredCodec { base, enhancement }
    }

    /// The base-layer codec.
    pub fn base_codec(&self) -> &KvCodec {
        &self.base
    }

    /// Encodes a cache into base + enhancement streams.
    pub fn encode(&self, cache: &KvCache) -> LayeredKv {
        let base = self.base.encode(cache);
        let base_dec = self.base.decode(&base);
        let residual =
            KvCache::from_tensors(cache.k().sub(base_dec.k()), cache.v().sub(base_dec.v()));
        let enhancement = self.enhancement.encode(&residual);
        LayeredKv { base, enhancement }
    }

    /// Decodes the base layer alone (low quality, available first).
    pub fn decode_base(&self, layered: &LayeredKv) -> KvCache {
        self.base.decode(&layered.base)
    }

    /// Decodes base + enhancement (near-fine quality).
    pub fn decode_full(&self, layered: &LayeredKv) -> KvCache {
        let base = self.base.decode(&layered.base);
        let residual = self.enhancement.decode(&layered.enhancement);
        let k = cachegen_tensor::Tensor::from_vec(
            base.k().shape(),
            base.k()
                .data()
                .iter()
                .zip(residual.k().data())
                .map(|(a, b)| a + b)
                .collect(),
        );
        let v = cachegen_tensor::Tensor::from_vec(
            base.v().shape(),
            base.v()
                .data()
                .iter()
                .zip(residual.v().data())
                .map(|(a, b)| a + b)
                .collect(),
        );
        KvCache::from_tensors(k, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachegen_llm::{SimModelConfig, SimTransformer};

    fn setup() -> (KvCache, LayeredCodec) {
        let model = SimTransformer::new(SimModelConfig::tiny(31));
        let sample = model.prefill(&(0..40).map(|i| (i * 3) % 64).collect::<Vec<_>>());
        let cache = model.prefill(&(0..40).map(|i| (i * 7 + 1) % 64).collect::<Vec<_>>());
        // Coarse base: 2x the paper bins.
        let base_cfg = CodecConfig::default().with_bin_factor(2.0);
        let codec = LayeredCodec::build(base_cfg, 0.25, &[&sample]);
        (cache, codec)
    }

    #[test]
    fn enhancement_improves_reconstruction() {
        let (cache, codec) = setup();
        let layered = codec.encode(&cache);
        let base = codec.decode_base(&layered);
        let full = codec.decode_full(&layered);
        let base_mse = cache.mse(&base);
        let full_mse = cache.mse(&full);
        assert!(
            full_mse < 0.5 * base_mse,
            "enhancement should at least halve MSE: base {base_mse}, full {full_mse}"
        );
    }

    #[test]
    fn base_is_smaller_than_total() {
        let (cache, codec) = setup();
        let layered = codec.encode(&cache);
        assert!(layered.base_bytes() > 0);
        assert!(layered.total_bytes() > layered.base_bytes());
    }

    #[test]
    fn layering_overhead_is_bounded() {
        // base + enhancement should not cost much more than a single
        // fine-level encode of comparable quality (the classic SVC
        // overhead trade-off).
        let (cache, codec) = setup();
        let layered = codec.encode(&cache);
        let fine_cfg = CodecConfig::default();
        let fine_profile = CodecProfile::build(&fine_cfg, &[&cache]);
        let fine = KvCodec::new(fine_cfg, fine_profile);
        let fine_bytes = fine.encode(&cache).total_bytes();
        assert!(
            layered.total_bytes() < 3 * fine_bytes,
            "layered {} vs single fine {}",
            layered.total_bytes(),
            fine_bytes
        );
    }

    #[test]
    fn incremental_upgrade_matches_one_shot_decode() {
        // Decoding base first and upgrading later gives the same result as
        // decoding both at once (there is no cross-layer coupling).
        let (cache, codec) = setup();
        let layered = codec.encode(&cache);
        let full_a = codec.decode_full(&layered);
        // "Later upgrade": re-derive from stored streams.
        let stored = LayeredKv {
            base: EncodedKv::from_bytes(&layered.base.to_bytes()).unwrap(),
            enhancement: EncodedKv::from_bytes(&layered.enhancement.to_bytes()).unwrap(),
        };
        let full_b = codec.decode_full(&stored);
        assert_eq!(full_a, full_b);
    }
}
