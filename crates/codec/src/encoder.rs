//! The KV-cache encoder: [`KvCodec`] and its [`CodecConfig`].
//!
//! Encoding a chunk (§5.2):
//! 1. compute the cache's own per-(layer, channel) scales in one pass
//!    ([`crate::profile::single_cache_scales`]) and split each layer's
//!    token axis into anchor groups ([`crate::delta`]);
//! 2. quantize one group at a time into a buffer of alphabet indices
//!    ([`crate::quantize`]): the anchor row at high precision
//!    (8-bit-equivalent bin), then the delta rows against the
//!    reconstructed anchor with the layer group's bin
//!    ([`cachegen_quant`]);
//! 3. entropy-code that buffer **backwards, in one pass**, with
//!    per-(layer, channel) distributions from an offline [`CodecProfile`]
//!    ([`crate::rans`]: rANS is last-in-first-out, so the
//!    encoder walks last row → anchor row and writes its words straight
//!    into decode order) — one **independently decodable stream per
//!    (layer, token-group)** of K and of V.
//!
//! Deltas are taken against the *reconstructed* (quantized) anchor, so
//! anchor quantization error does not leak into member tokens — total
//! error per element is bounded by half the applicable quantization step.
//! The anchor of every group lives in the group's own stream, so a chunk
//! decodes with no state from any other chunk (the property
//! multiple-description loss robustness needs). The decode half is
//! [`crate::decode`].

use crate::container::{scale_to_wire, wire_to_scale, EncodedKv};
use crate::delta::GroupLayout;
use crate::profile::CodecProfile;
use crate::quantize::{channel_steps, quantize_layer};
use crate::rans;
use crate::symbol_model::{FreqTable, ModelGranularity};
use cachegen_llm::KvCache;
use cachegen_quant::LayerGroupBins;
use cachegen_tensor::Tensor;

/// Anchor-token bin in scale units, at every level: 1/16 ≈ 8-bit
/// precision over ±8σ (256 symbols before the alphabet clamp binds) —
/// §5.2's anchors are kept at high precision, not scaled with the level.
pub const ANCHOR_BIN: f32 = 1.0 / 16.0;

/// Configuration of the CacheGen codec (one *encoding level* — the streamer
/// holds several, produced by scaling `bins`). The anchor bin
/// ([`ANCHOR_BIN`]) and the floor under profiled scales are fixed.
#[derive(Clone, Debug, PartialEq)]
pub struct CodecConfig {
    /// Tokens per anchor group (§5.2 default: 10).
    pub group_size: usize,
    /// Per-layer-group delta quantization bins (§C.2 default: 0.5/1.0/1.5).
    pub bins: LayerGroupBins,
    /// Symbol-distribution grouping (paper: per channel-layer).
    pub granularity: ModelGranularity,
    /// If false, skip the delta transform and code raw quantized values
    /// (the "Quant + AC" ablation arm of Figure 15).
    pub delta_encoding: bool,
}

impl Default for CodecConfig {
    fn default() -> Self {
        CodecConfig {
            group_size: crate::delta::DEFAULT_GROUP_SIZE,
            bins: LayerGroupBins::paper_default(),
            granularity: ModelGranularity::PerChannelLayer,
            delta_encoding: true,
        }
    }
}

impl CodecConfig {
    /// This config with all delta bins scaled by `factor` (a different
    /// encoding level: `factor > 1` = smaller streams, lower quality).
    pub fn with_bin_factor(&self, factor: f32) -> Self {
        CodecConfig {
            bins: self.bins.scaled(factor),
            ..self.clone()
        }
    }
}

/// Which of the two per-(layer, channel) distributions a symbol belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SymKind {
    /// Anchor-token symbol (fine quantization, own distribution).
    Anchor,
    /// Delta symbol (layer-group bin, own distribution).
    Delta,
}

/// The CacheGen codec: a config plus a per-model profile.
pub struct KvCodec {
    config: CodecConfig,
    profile: CodecProfile,
}

/// What chunk coding needs that is fixed per (side, layer): the
/// quantization steps and the per-channel tables of both symbol kinds.
/// Resolved once per layer — a context has hundreds of entropy chunks
/// per (side, layer).
pub(crate) struct LayerCoding<'a> {
    pub(crate) is_k: bool,
    pub(crate) layer: usize,
    pub(crate) anchor_steps: Vec<f32>,
    pub(crate) delta_steps: Vec<f32>,
    pub(crate) anchor_tables: Vec<&'a FreqTable>,
    pub(crate) delta_tables: Vec<&'a FreqTable>,
}

impl KvCodec {
    /// Creates a codec. The profile must have been built for the same model
    /// dimensions and a compatible config.
    pub fn new(config: CodecConfig, profile: CodecProfile) -> Self {
        assert_eq!(
            profile.granularity(),
            config.granularity,
            "profile granularity does not match config"
        );
        KvCodec { config, profile }
    }

    /// The codec's configuration.
    pub fn config(&self) -> &CodecConfig {
        &self.config
    }

    /// The codec's profile.
    pub fn profile(&self) -> &CodecProfile {
        &self.profile
    }

    /// Resolves the steps and tables of one (side, layer) against a
    /// container's scale sets ([`EncodedKv::scales`] order).
    fn layer_coding(
        &self,
        is_k: bool,
        layer: usize,
        n_layers: usize,
        scales: &[Vec<Vec<f32>>; 4],
    ) -> LayerCoding<'_> {
        let set = if is_k { 0 } else { 2 };
        let delta_bin = self.config.bins.bin_for_layer(layer, n_layers);
        LayerCoding {
            is_k,
            layer,
            anchor_steps: channel_steps(ANCHOR_BIN, &scales[set][layer]),
            delta_steps: channel_steps(delta_bin, &scales[set + 1][layer]),
            anchor_tables: self.profile.layer_tables(SymKind::Anchor, is_k, layer),
            delta_tables: self.profile.layer_tables(SymKind::Delta, is_k, layer),
        }
    }

    /// The [`LayerCoding`]s of a container, `[K, V][layer]`, against the
    /// scales it shipped. Geometry must have been checked.
    pub(crate) fn layer_codings(&self, enc: &EncodedKv) -> [Vec<LayerCoding<'_>>; 2] {
        [true, false].map(|is_k| {
            (0..enc.layers)
                .map(|layer| self.layer_coding(is_k, layer, enc.layers, &enc.scales))
                .collect()
        })
    }

    /// Encodes one layer into its per-group chunks: each group is
    /// quantised into alphabet indices and entropy-coded from that buffer
    /// in one reverse pass. Frequency tables and quantization steps are
    /// resolved once per layer, outside the symbol loop. Lane = channel
    /// mod [`rans::LANES`], so each row's channel blocks align with the
    /// decoder's batched four-wide loop. `words` is the entropy stage's
    /// scratch, shared by every chunk of an encode call.
    fn encode_layer_chunks(
        &self,
        slab: &[f32],
        coding: &LayerCoding<'_>,
        words: &mut Vec<u32>,
    ) -> Vec<Vec<u8>> {
        let channels = self.profile.channels();
        let layout = GroupLayout::new(self.config.group_size, slab.len() / channels);
        let delta_encoding = self.config.delta_encoding;
        // Without delta encoding no row is an anchor.
        let head = if delta_encoding {
            &coding.anchor_tables
        } else {
            &coding.delta_tables
        };
        let mut chunks = Vec::with_capacity(layout.num_groups());
        quantize_layer(
            slab,
            channels,
            layout,
            delta_encoding,
            &coding.anchor_steps,
            &coding.delta_steps,
            |indices| {
                chunks.push(rans::encode_rows(
                    indices,
                    head,
                    &coding.delta_tables,
                    words,
                ))
            },
        );
        chunks
    }

    /// Encodes a KV cache (one context chunk) into a KV bitstream.
    ///
    /// Vectorwise scales are computed from the cache itself (LLM.int8
    /// style), rounded through the bf16 wire representation, and shipped in
    /// the stream header; only the symbol distributions come from the
    /// offline profile.
    pub fn encode(&self, cache: &KvCache) -> EncodedKv {
        assert_eq!(
            cache.channels(),
            self.profile.channels(),
            "channel mismatch"
        );
        assert_eq!(cache.layers(), self.profile.layers(), "layer mismatch");
        let n_layers = cache.layers();
        let wire_round = |scales: Vec<Vec<f32>>| -> Vec<Vec<f32>> {
            scales
                .into_iter()
                .map(|row| {
                    row.into_iter()
                        .map(|s| wire_to_scale(scale_to_wire(s)))
                        .collect()
                })
                .collect()
        };
        let (ka, kd) = crate::profile::single_cache_scales(cache, true, &self.config);
        let (va, vd) = crate::profile::single_cache_scales(cache, false, &self.config);
        let scales = [
            wire_round(ka),
            wire_round(kd),
            wire_round(va),
            wire_round(vd),
        ];
        let mut words = Vec::new();
        let mut encode_side = |is_k: bool, tensor: &Tensor| -> Vec<Vec<Vec<u8>>> {
            (0..n_layers)
                .map(|l| {
                    let coding = self.layer_coding(is_k, l, n_layers, &scales);
                    self.encode_layer_chunks(tensor.slab(l), &coding, &mut words)
                })
                .collect()
        };
        let k_chunks = encode_side(true, cache.k());
        let v_chunks = encode_side(false, cache.v());
        EncodedKv {
            layers: n_layers,
            tokens: cache.tokens(),
            channels: cache.channels(),
            group_size: self.config.group_size,
            delta_encoding: self.config.delta_encoding,
            k_chunks,
            v_chunks,
            scales,
        }
    }

    /// Convenience: encode + decode in one step, returning the degraded
    /// cache the LLM would consume plus the wire size.
    pub fn round_trip(&self, cache: &KvCache) -> (KvCache, u64) {
        let enc = self.encode(cache);
        let bytes = enc.total_bytes();
        // analyze: allow(no-lib-unwrap, "decodes the stream this call just encoded with the same profile; a failure is a codec bug, not input")
        let dec = self.try_decode(&enc).expect("own encoding decodes");
        (dec, bytes)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::container::CodecError;
    use crate::profile::CodecProfile;
    use cachegen_llm::{SimModelConfig, SimTransformer};

    pub(crate) fn setup() -> (SimTransformer, KvCache, KvCodec) {
        let m = SimTransformer::new(SimModelConfig::tiny(21));
        let ctx: Vec<usize> = (0..40).map(|i| (i * 17) % 64).collect();
        let cache = m.prefill(&ctx);
        let cfg = CodecConfig::default();
        let profile = CodecProfile::build(&cfg, &[&cache]);
        (m, cache, KvCodec::new(cfg, profile))
    }

    #[test]
    fn decode_matches_quantized_encode() {
        let (_, cache, codec) = setup();
        let enc = codec.encode(&cache);
        let dec1 = codec.try_decode(&enc).unwrap();
        let dec2 = codec.try_decode(&enc).unwrap();
        assert_eq!(dec1, dec2, "decode must be deterministic");
        // Re-encoding the decoded cache recomputes vectorwise scales from
        // the (slightly different) decoded values, so it is not a bit-exact
        // fixed point — but the second round's loss must not exceed the
        // first round's.
        let enc2 = codec.encode(&dec1);
        let dec3 = codec.try_decode(&enc2).unwrap();
        assert!(
            dec1.mse(&dec3) <= cache.mse(&dec1) + 1e-6,
            "second-round loss {} exceeds first-round loss {}",
            dec1.mse(&dec3),
            cache.mse(&dec1)
        );
    }

    #[test]
    fn reconstruction_error_bounded_by_bins() {
        let (_, cache, codec) = setup();
        let enc = codec.encode(&cache);
        let dec = codec.try_decode(&enc).unwrap();
        let n_layers = cache.layers();
        let group = codec.config().group_size;
        for l in 0..n_layers {
            let delta_bin = codec.config().bins.bin_for_layer(l, n_layers);
            for (is_k, orig) in [(true, cache.k()), (false, cache.v())] {
                let d_scales: &[f32] = if is_k {
                    &enc.scales[1][l]
                } else {
                    &enc.scales[3][l]
                };
                let a_scales: &[f32] = if is_k {
                    &enc.scales[0][l]
                } else {
                    &enc.scales[2][l]
                };
                let got = if is_k { dec.k() } else { dec.v() };
                for t in 0..cache.tokens() {
                    let is_anchor = t % group == 0;
                    for c in 0..cache.channels() {
                        let x = orig.get(&[l, t, c]);
                        let e = (x - got.get(&[l, t, c])).abs();
                        // Anchors: half the anchor step. Members: half the
                        // delta step (deltas reference the *reconstructed*
                        // anchor, so anchor error does not compound). Both
                        // get a clamp allowance for values whose symbol
                        // exceeds ±127 alphabet slots.
                        let step = if is_anchor {
                            ANCHOR_BIN * a_scales[c]
                        } else {
                            delta_bin * d_scales[c]
                        };
                        let clamp_excess = (x.abs() - 127.0 * step).max(0.0);
                        let bound = 0.5 * step + clamp_excess + 1e-4;
                        assert!(
                            e <= bound,
                            "layer {l} tok {t} ch {c} (anchor={is_anchor}): err {e} > bound {bound}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_decode_is_identical() {
        let (_, cache, codec) = setup();
        let enc = codec.encode(&cache);
        assert_eq!(
            codec.try_decode(&enc).unwrap(),
            codec.try_decode_parallel(&enc).unwrap()
        );
    }

    #[test]
    fn streams_are_chunked_per_layer_group() {
        let (_, cache, codec) = setup();
        let enc = codec.encode(&cache);
        // 40 tokens at group size 10 → 4 chunks per layer per side.
        assert_eq!(enc.num_groups(), 4);
        assert_eq!(enc.k_chunks.len(), cache.layers());
        assert!(enc.k_chunks.iter().all(|l| l.len() == 4));
        assert!(enc.v_chunks.iter().all(|l| l.len() == 4));
        assert_eq!(enc.num_chunks(), 2 * cache.layers() * 4);
        // Parallel decode fans out per chunk, so group count dominates the
        // work-item count whenever groups > layers.
        assert!(enc.num_chunks() > 2 * cache.layers());
    }

    #[test]
    fn chunks_decode_independently() {
        // Zeroing one chunk must corrupt only that chunk's (layer, group)
        // region — every other chunk still decodes to identical values.
        let (_, cache, codec) = setup();
        let enc = codec.encode(&cache);
        let clean = codec.try_decode(&enc).unwrap();
        let layout = enc.layout();
        let (start, end) = layout.group_range(1);
        let mut damaged = enc.clone();
        // Replace one chunk with a valid encoding of zeros: same symbol
        // count, decodes cleanly, but wrong values.
        let zero_cache = KvCache::from_tensors(
            Tensor::zeros(&[cache.layers(), cache.tokens(), cache.channels()]),
            Tensor::zeros(&[cache.layers(), cache.tokens(), cache.channels()]),
        );
        let coding = codec.layer_coding(true, 0, cache.layers(), &enc.scales);
        let replacement = codec
            .encode_layer_chunks(zero_cache.k().slab(0), &coding, &mut Vec::new())
            .remove(1);
        damaged.k_chunks[0][1] = replacement;
        let dec = codec.try_decode(&damaged).expect("all chunks well-formed");
        for l in 0..cache.layers() {
            for t in 0..cache.tokens() {
                for c in 0..cache.channels() {
                    let in_damaged_region = l == 0 && t >= start && t < end;
                    let same =
                        dec.k().get(&[l, t, c]).to_bits() == clean.k().get(&[l, t, c]).to_bits();
                    if !in_damaged_region {
                        assert!(same, "chunk damage leaked to layer {l} tok {t} ch {c}");
                    }
                    assert_eq!(
                        dec.v().get(&[l, t, c]).to_bits(),
                        clean.v().get(&[l, t, c]).to_bits(),
                        "V side must be untouched"
                    );
                }
            }
        }
    }

    #[test]
    fn truncated_chunk_is_reported_not_decoded_as_noise() {
        let (_, cache, codec) = setup();
        let enc = codec.encode(&cache);
        let mut damaged = enc.clone();
        let chunk = &mut damaged.k_chunks[1][2];
        chunk.truncate(chunk.len() / 2);
        let err = codec
            .try_decode(&damaged)
            .expect_err("must detect truncation");
        assert!(
            matches!(
                err,
                CodecError::TruncatedChunk {
                    is_k: true,
                    layer: 1,
                    group: 2,
                    ..
                } | CodecError::ChunkLengthMismatch {
                    is_k: true,
                    layer: 1,
                    group: 2,
                    ..
                }
            ),
            "unexpected error: {err}"
        );
        // The parallel decoder reports it too.
        assert!(codec.try_decode_parallel(&damaged).is_err());
    }

    #[test]
    fn trailing_garbage_in_chunk_is_reported() {
        let (_, cache, codec) = setup();
        let enc = codec.encode(&cache);
        let mut damaged = enc.clone();
        damaged.v_chunks[0][0].extend_from_slice(&[0xAA; 7]);
        let err = codec.try_decode(&damaged).expect_err("must detect slack");
        assert!(
            matches!(err, CodecError::ChunkLengthMismatch { is_k: false, .. }),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn missing_chunk_is_a_geometry_error() {
        let (_, cache, codec) = setup();
        let enc = codec.encode(&cache);
        let mut damaged = enc.clone();
        damaged.k_chunks[0].pop();
        assert!(matches!(
            codec.try_decode(&damaged),
            Err(CodecError::Geometry(_))
        ));
    }

    #[test]
    fn compresses_below_8bit_baseline() {
        let (_, cache, codec) = setup();
        let enc = codec.encode(&cache);
        let bits_per_elem = enc.total_bytes() as f64 * 8.0 / cache.num_elements() as f64;
        assert!(
            bits_per_elem < 8.0,
            "CacheGen should beat 8 bits/element, got {bits_per_elem:.2}"
        );
    }

    #[test]
    fn coarser_level_is_smaller() {
        let (_, cache, _) = setup();
        let base = CodecConfig::default();
        let sizes: Vec<u64> = [0.5f32, 1.0, 2.0, 4.0]
            .iter()
            .map(|&f| {
                let cfg = base.with_bin_factor(f);
                let profile = CodecProfile::build(&cfg, &[&cache]);
                KvCodec::new(cfg, profile).encode(&cache).total_bytes()
            })
            .collect();
        assert!(
            sizes.windows(2).all(|w| w[0] > w[1]),
            "sizes should fall as bins grow: {sizes:?}"
        );
    }

    #[test]
    fn coarser_level_is_lossier() {
        let (_, cache, _) = setup();
        let base = CodecConfig::default();
        let errs: Vec<f32> = [1.0f32, 4.0]
            .iter()
            .map(|&f| {
                let cfg = base.with_bin_factor(f);
                let profile = CodecProfile::build(&cfg, &[&cache]);
                let (dec, _) = KvCodec::new(cfg, profile).round_trip(&cache);
                cache.mse(&dec)
            })
            .collect();
        assert!(errs[1] > errs[0], "mse should grow with bins: {errs:?}");
    }

    #[test]
    fn container_round_trips() {
        let (_, cache, codec) = setup();
        let enc = codec.encode(&cache);
        let bytes = enc.to_bytes();
        assert_eq!(bytes.len() as u64, enc.total_bytes());
        let back = EncodedKv::from_bytes(&bytes).expect("parse");
        assert_eq!(back, enc);
    }

    #[test]
    fn container_rejects_garbage() {
        assert!(EncodedKv::from_bytes(b"nope").is_err());
        assert!(EncodedKv::from_bytes(b"CGKV").is_err());
        let (_, cache, codec) = setup();
        let mut bytes = codec.encode(&cache).to_bytes();
        bytes.truncate(bytes.len() / 2);
        assert!(EncodedKv::from_bytes(&bytes).is_err());
    }

    #[test]
    fn v4_chunk_carries_lane_state_header() {
        let (_, cache, codec) = setup();
        let v4 = codec.encode(&cache);
        for side in [&v4.k_chunks, &v4.v_chunks] {
            for chunk in side.iter().flatten() {
                assert!(
                    chunk.len() >= crate::rans::STATE_BYTES,
                    "every v4 chunk starts with the 32-byte lane-state flush"
                );
                assert_eq!((chunk.len() - crate::rans::STATE_BYTES) % 4, 0);
            }
        }
    }

    #[test]
    fn corrupt_v4_chunk_is_reported_not_decoded_as_noise() {
        let (_, cache, codec) = setup();
        let enc = codec.encode(&cache);
        // Flip a renorm-word bit (past the state header) in one chunk: the
        // length still matches, so only the lane-state check can catch it.
        let mut damaged = enc.clone();
        let chunk = &mut damaged.k_chunks[1][2];
        let at = crate::rans::STATE_BYTES + (chunk.len() - crate::rans::STATE_BYTES) / 2;
        chunk[at] ^= 0x10;
        let err = codec
            .try_decode(&damaged)
            .expect_err("must detect corruption");
        assert!(
            matches!(
                err,
                CodecError::CorruptChunk {
                    is_k: true,
                    layer: 1,
                    group: 2,
                } | CodecError::TruncatedChunk {
                    is_k: true,
                    layer: 1,
                    group: 2,
                    ..
                } | CodecError::ChunkLengthMismatch {
                    is_k: true,
                    layer: 1,
                    group: 2,
                    ..
                }
            ),
            "unexpected error: {err}"
        );
        assert!(codec.try_decode_parallel(&damaged).is_err());
    }

    #[test]
    fn container_rejects_old_wire_versions() {
        // 1 = pre-chunking monolithic streams, 2 = serial range coder,
        // 3 = rANS over the alias layout: same framing as v4, different
        // payload coding, so every foreign version byte must fail at the
        // gate and never reach a decoder.
        let (_, cache, codec) = setup();
        let valid = codec.encode(&cache).to_bytes();
        for old in (0..=u8::MAX).filter(|&v| v != 4) {
            let mut bytes = valid.clone();
            bytes[4] = old;
            let err = EncodedKv::from_bytes(&bytes).expect_err("old version unsupported");
            assert_eq!(err, format!("unsupported version {old}"));
        }
    }

    #[test]
    fn chunked_encoding_concats_to_whole() {
        // §5.3: chunks encoded independently, decoded, then copied into
        // one cache, reconstruct the whole context. Each chunk derives its own
        // vectorwise scales, so the merge is not bit-identical to whole-
        // cache encoding — but its loss must be of the same order.
        let (_, cache, codec) = setup();
        let whole = codec.round_trip(&cache).0;
        let g = codec.config().group_size; // 10; 40 tokens = 4 groups
        let c1 = cache.slice_tokens(0, 2 * g);
        let c2 = cache.slice_tokens(2 * g, cache.tokens());
        let d1 = codec.round_trip(&c1).0;
        let d2 = codec.round_trip(&c2).0;
        let mut merged = KvCache::zeros(cache.layers(), cache.tokens(), cache.channels());
        merged.copy_tokens(0, &d1, 0, d1.tokens());
        merged.copy_tokens(d1.tokens(), &d2, 0, d2.tokens());
        assert_eq!(merged.tokens(), cache.tokens());
        let whole_mse = cache.mse(&whole);
        let merged_mse = cache.mse(&merged);
        assert!(
            merged_mse <= 2.0 * whole_mse + 1e-6,
            "chunked loss {merged_mse} vs whole loss {whole_mse}"
        );
    }

    #[test]
    fn no_delta_ablation_round_trips() {
        let m = SimTransformer::new(SimModelConfig::tiny(33));
        let cache = m.prefill(&(0..25).collect::<Vec<_>>());
        let cfg = CodecConfig {
            delta_encoding: false,
            ..CodecConfig::default()
        };
        let profile = CodecProfile::build(&cfg, &[&cache]);
        let codec = KvCodec::new(cfg, profile);
        let (dec, bytes) = codec.round_trip(&cache);
        assert!(bytes > 0);
        // Still a valid lossy reconstruction.
        assert!(cache.mse(&dec) < 1.0);
        // And parallel decode agrees in the ablation arm too.
        let enc = codec.encode(&cache);
        assert_eq!(
            codec.try_decode(&enc).unwrap(),
            codec.try_decode_parallel(&enc).unwrap()
        );
    }
}
