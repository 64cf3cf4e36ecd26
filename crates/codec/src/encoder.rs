//! The end-to-end KV-cache encoder/decoder.
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
//! Decoding a chunk runs two stages per token row. The rANS stage
//! ([`rans::Decoder::decode_row`]) writes the row's alphabet indices into
//! a stack buffer: the anchor row through each table's two-level rank, a
//! delta row hot window first. The reconstruct stage
//! ([`crate::quantize::dequantize_row`]) turns them into values, `symbol
//! × step` and, for a delta row, the decoded anchor row's value plus
//! that. Those are the operations, in the order, of reconstructing each
//! symbol as it is decoded, so the two are bit-identical (a fused
//! reference in this module's tests holds the stages to it).
//!
//! Per-(layer, group) streams are the CPU stand-in for the paper's
//! per-token CUDA threads (§5.2, §7): [`KvCodec::try_decode_parallel`]
//! schedules `2 × layers × groups` work items across a bounded worker pool
//! sized by `std::thread::available_parallelism`, so parallelism scales
//! with context length, not just model depth. Deltas are taken against the
//! *reconstructed* (quantized) anchor, so anchor quantization error does
//! not leak into member tokens — total error per element is bounded by
//! half the applicable quantization step. The anchor of every group lives
//! in the group's own stream, so a chunk decodes with no state from any
//! other chunk (the property multiple-description loss robustness needs).

use crate::container::{scale_to_wire, wire_to_scale, CodecError, EncodedKv};
use crate::delta::GroupLayout;
use crate::profile::CodecProfile;
use crate::quantize::{channel_steps, dequantize_row, quantize_layer};
use crate::rans;
use crate::symbol_model::{FreqTable, ModelGranularity};
use cachegen_llm::KvCache;
use cachegen_quant::LayerGroupBins;
use cachegen_telemetry::{Recorder, NOOP};
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
    anchor_steps: Vec<f32>,
    delta_steps: Vec<f32>,
    anchor_tables: Vec<&'a FreqTable>,
    delta_tables: Vec<&'a FreqTable>,
}

/// Channels of a row decoded per piece: the size of stage one's stack
/// buffer of alphabet indices. Every row of the sim models fits one
/// piece; a multiple of [`rans::LANES`], so a piece boundary never splits
/// a lane block.
const ROW_PIECE: usize = 256;
const _: () = assert!(ROW_PIECE.is_multiple_of(rans::LANES));

/// Decodes one token row in two stages per piece: the rANS stage writes
/// the piece's alphabet indices into `indices`
/// ([`rans::Decoder::decode_row`], resolving as `kind` says), then
/// [`dequantize_row`] turns them into values — `symbol × step`, after
/// `anchor[c] +` for a delta row. Kept apart, the entropy loop carries no
/// float work between its dependent steps and the float work runs four
/// channels wide.
#[inline(always)]
fn decode_row(
    dec: &mut rans::Decoder<'_>,
    kind: SymKind,
    tables: &[&FreqTable],
    steps: &[f32],
    anchor: Option<&[f32]>,
    indices: &mut [u8; ROW_PIECE],
    row: &mut [f32],
) {
    for (at, out) in (0..).step_by(ROW_PIECE).zip(row.chunks_mut(ROW_PIECE)) {
        let piece = at..at + out.len();
        let indices = &mut indices[..out.len()];
        dec.decode_row(kind, &tables[piece.clone()], indices);
        dequantize_row(
            indices,
            &steps[piece.clone()],
            anchor.map(|a| &a[piece]),
            out,
        );
    }
}

/// Decodes every row of one chunk from `dec` into `out`: with delta
/// encoding, the anchor row under the anchor tables, then every later row
/// as a delta against it; without, every row as a delta against zero.
fn decode_rows(
    dec: &mut rans::Decoder<'_>,
    coding: &LayerCoding<'_>,
    delta_encoding: bool,
    channels: usize,
    out: &mut [f32],
) {
    let mut indices = [0u8; ROW_PIECE];
    let (anchor, rest) = if delta_encoding {
        let (anchor, rest) = out.split_at_mut(channels);
        let (tables, steps) = (&coding.anchor_tables, &coding.anchor_steps);
        decode_row(
            dec,
            SymKind::Anchor,
            tables,
            steps,
            None,
            &mut indices,
            anchor,
        );
        (Some(&*anchor), rest)
    } else {
        (None, out)
    };
    let (tables, steps) = (&coding.delta_tables, &coding.delta_steps);
    for row in rest.chunks_mut(channels) {
        decode_row(
            dec,
            SymKind::Delta,
            tables,
            steps,
            anchor,
            &mut indices,
            row,
        );
    }
}

/// Streams below this many KV elements (`2·layers·tokens·channels`)
/// decode inline even on the pooled entry points: opening a scope and
/// spawning its workers costs ~110 µs, more than it saves on a short
/// stream. Measured crossover (2 vCPU, 7B-shaped sim model, serial vs
/// pooled, p10 of 801 alternating calls): the engine's 30-token stream
/// chunk (23,040 elements) 168 vs 282 µs and 120 tokens (92,160) 743 vs
/// 869 µs — serial wins; 180 tokens (138,240) 1048 vs 995 µs — a tie;
/// 240 tokens (184,320) 1401 vs 1357 µs and a whole 480-token context
/// (368,640) 2725 vs 2179 µs — pooled wins.
const POOLED_DECODE_MIN_ELEMENTS: usize = 150_000;

/// One parallel-decode work item: an entropy chunk plus its disjoint slice
/// of the output tensor.
pub(crate) struct DecodeJob<'a> {
    pub(crate) coding: &'a LayerCoding<'a>,
    pub(crate) group: usize,
    group_tokens: usize,
    stream: &'a [u8],
    pub(crate) out: &'a mut [f32],
}

/// Splits both tensors' backing storage into per-(layer, group) output
/// slices and returns one job per chunk, K then V in (layer, group) order.
/// Group ranges tile the token axis in data order, so the split is a pure
/// partition. Geometry must have been checked.
pub(crate) fn decode_jobs<'a>(
    enc: &'a EncodedKv,
    codings: &'a [Vec<LayerCoding<'a>>; 2],
    k: &'a mut Tensor,
    v: &'a mut Tensor,
    layout: GroupLayout,
) -> Vec<DecodeJob<'a>> {
    let mut jobs = Vec::with_capacity(enc.num_chunks());
    let sides = [
        (k, &enc.k_chunks, &codings[0]),
        (v, &enc.v_chunks, &codings[1]),
    ];
    for (tensor, chunks, codings) in sides {
        let mut data = tensor.data_mut();
        for (layer_chunks, coding) in chunks.iter().zip(codings) {
            for (group, stream) in layer_chunks.iter().enumerate().take(layout.num_groups()) {
                let (start, end) = layout.group_range(group);
                let (head, tail) = data.split_at_mut((end - start) * enc.channels);
                data = tail;
                jobs.push(DecodeJob {
                    coding,
                    group,
                    group_tokens: end - start,
                    stream,
                    out: head,
                });
            }
        }
    }
    jobs
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

    /// Decodes one (layer, group) chunk into its output slice, verifying
    /// exact byte consumption against the chunk frame. Truncation
    /// surfaces as synthetic input, in-place corruption as lanes that
    /// fail to return to the normalization base, trailing slack as a
    /// length mismatch — a damaged chunk is always reported, never
    /// decoded as noise.
    pub(crate) fn decode_chunk(
        &self,
        coding: &LayerCoding<'_>,
        stream: &[u8],
        group: usize,
        group_tokens: usize,
        delta_encoding: bool,
        out: &mut [f32],
    ) -> Result<(), CodecError> {
        let channels = self.profile.channels();
        let (is_k, layer) = (coding.is_k, coding.layer);
        if out.len() != group_tokens * channels {
            return Err(CodecError::Geometry(format!(
                "chunk (layer {layer}, group {group}) of {group_tokens} tokens × {channels} \
                 channels was handed {} output elements",
                out.len()
            )));
        }
        let mut dec = rans::Decoder::new(stream);
        decode_rows(&mut dec, coding, delta_encoding, channels, out);
        let missing_bytes = dec.overrun_bytes();
        if missing_bytes > 0 {
            return Err(CodecError::TruncatedChunk {
                is_k,
                layer,
                group,
                missing_bytes,
            });
        }
        if !dec.finished() {
            return Err(CodecError::CorruptChunk { is_k, layer, group });
        }
        let consumed = dec.bytes_consumed();
        if consumed != stream.len() {
            return Err(CodecError::ChunkLengthMismatch {
                is_k,
                layer,
                group,
                consumed,
                framed: stream.len(),
            });
        }
        Ok(())
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

    /// Serial decode of a KV bitstream back into a (quantized) KV cache:
    /// reports truncated/corrupted chunks instead of decoding noise.
    pub fn try_decode(&self, enc: &EncodedKv) -> Result<KvCache, CodecError> {
        self.decode_impl(enc, false, &NOOP)
    }

    /// Decodes with per-(layer, group) chunk parallelism over a bounded
    /// worker pool (the CPU analogue of the paper's per-token GPU decode
    /// kernels); a stream too short to repay the pool decodes inline.
    /// Bit-identical to [`KvCodec::try_decode`].
    pub fn try_decode_parallel(&self, enc: &EncodedKv) -> Result<KvCache, CodecError> {
        self.decode_impl(enc, true, &NOOP)
    }

    /// [`KvCodec::try_decode_parallel`] with hot-path profiling:
    /// `cachegen.codec.*` counters plus a pool-occupancy histogram are
    /// reported to `recorder`. Bit-identical output; with a disabled
    /// recorder this *is* `try_decode_parallel`.
    pub fn try_decode_parallel_traced(
        &self,
        enc: &EncodedKv,
        recorder: &Recorder,
    ) -> Result<KvCache, CodecError> {
        self.decode_impl(enc, true, recorder)
    }

    pub(crate) fn check_geometry(
        &self,
        enc: &EncodedKv,
        layout: GroupLayout,
    ) -> Result<(), CodecError> {
        let err = |msg: String| Err(CodecError::Geometry(msg));
        if enc.channels != self.profile.channels() || enc.layers != self.profile.layers() {
            return err(format!(
                "stream is {}×{} (layers×channels) but the profile is {}×{}",
                enc.layers,
                enc.channels,
                self.profile.layers(),
                self.profile.channels()
            ));
        }
        let groups = layout.num_groups();
        for (side, chunks) in [("K", &enc.k_chunks), ("V", &enc.v_chunks)] {
            if chunks.len() != enc.layers {
                return err(format!(
                    "{side} chunk table has {} layers, expected {}",
                    chunks.len(),
                    enc.layers
                ));
            }
            for (l, layer_chunks) in chunks.iter().enumerate() {
                if layer_chunks.len() != groups {
                    return err(format!(
                        "{side} layer {l} has {} chunks, expected {groups}",
                        layer_chunks.len()
                    ));
                }
            }
        }
        for (i, set) in enc.scales.iter().enumerate() {
            if set.len() != enc.layers || set.iter().any(|row| row.len() != enc.channels) {
                return err(format!("scale set {i} does not match layers×channels"));
            }
        }
        Ok(())
    }

    fn decode_impl(
        &self,
        enc: &EncodedKv,
        parallel: bool,
        recorder: &Recorder,
    ) -> Result<KvCache, CodecError> {
        let (layers, tokens, channels) = (enc.layers, enc.tokens, enc.channels);
        let layout = GroupLayout::new(enc.group_size, tokens);
        self.check_geometry(enc, layout)?;
        let mut k = Tensor::zeros(&[layers, tokens, channels]);
        let mut v = Tensor::zeros(&[layers, tokens, channels]);
        let codings = self.layer_codings(enc);
        let jobs = decode_jobs(enc, &codings, &mut k, &mut v, layout);
        if recorder.is_enabled() {
            recorder.add("cachegen.codec.decode_calls", 1);
            recorder.add("cachegen.codec.decode_chunks", jobs.len() as u64);
        }
        if parallel {
            let workers = if 2 * layers * tokens * channels < POOLED_DECODE_MIN_ELEMENTS {
                1
            } else {
                crate::pool::bounded_workers(jobs.len())
            };
            crate::pool::run_pooled(
                jobs,
                workers,
                |_, mut job| self.decode_job(&mut job, enc.delta_encoding),
                |shape| shape.report(recorder),
            )?;
        } else {
            for mut job in jobs {
                self.decode_job(&mut job, enc.delta_encoding)?;
            }
        }
        Ok(KvCache::from_tensors(k, v))
    }

    /// Decodes one queued job into the output slice it owns.
    pub(crate) fn decode_job(
        &self,
        job: &mut DecodeJob<'_>,
        delta_encoding: bool,
    ) -> Result<(), CodecError> {
        self.decode_chunk(
            job.coding,
            job.stream,
            job.group,
            job.group_tokens,
            delta_encoding,
            job.out,
        )
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
mod tests {
    use super::*;
    use crate::profile::CodecProfile;
    use cachegen_llm::{SimModelConfig, SimTransformer};

    fn setup() -> (SimTransformer, KvCache, KvCodec) {
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
    fn mis_sized_output_slice_is_a_geometry_error() {
        let (_, cache, codec) = setup();
        let enc = codec.encode(&cache);
        let [k_codings, _] = codec.layer_codings(&enc);
        let mut out = vec![0.0f32; 9 * cache.channels()];
        let got = codec.decode_chunk(
            &k_codings[0],
            &enc.k_chunks[0][0],
            0,
            10,
            enc.delta_encoding,
            &mut out,
        );
        assert!(matches!(got, Err(CodecError::Geometry(_))), "got {got:?}");
    }

    #[test]
    fn chunked_encoding_concats_to_whole() {
        // §5.3: chunks encoded independently, decoded, then concatenated,
        // reconstruct the whole context. Each chunk derives its own
        // vectorwise scales, so the merge is not bit-identical to whole-
        // cache encoding — but its loss must be of the same order.
        let (_, cache, codec) = setup();
        let whole = codec.round_trip(&cache).0;
        let g = codec.config().group_size; // 10; 40 tokens = 4 groups
        let c1 = cache.slice_tokens(0, 2 * g);
        let c2 = cache.slice_tokens(2 * g, cache.tokens());
        let d1 = codec.round_trip(&c1).0;
        let d2 = codec.round_trip(&c2).0;
        let merged = KvCache::concat_tokens(&[d1, d2]);
        assert_eq!(merged.tokens(), cache.tokens());
        let whole_mse = cache.mse(&whole);
        let merged_mse = cache.mse(&merged);
        assert!(
            merged_mse <= 2.0 * whole_mse + 1e-6,
            "chunked loss {merged_mse} vs whole loss {whole_mse}"
        );
    }

    /// The row decode before it split into stages, kept as the reference
    /// the two-stage decode must equal bit for bit: every symbol is
    /// reconstructed as it is decoded, by `reconstruct(channel, symbol)`.
    fn fused_decode_row<F: Fn(usize, i32) -> f32>(
        dec: &mut rans::Decoder<'_>,
        tables: &[&FreqTable],
        row: &mut [f32],
        reconstruct: F,
    ) {
        let channels = row.len();
        let blocks = channels & !(rans::LANES - 1);
        let symbol = |index: usize| crate::index_to_symbol(index as u8);
        let mut c = 0;
        while c < blocks {
            let syms = dec.decode4([tables[c], tables[c + 1], tables[c + 2], tables[c + 3]]);
            row[c] = reconstruct(c, symbol(syms[0]));
            row[c + 1] = reconstruct(c + 1, symbol(syms[1]));
            row[c + 2] = reconstruct(c + 2, symbol(syms[2]));
            row[c + 3] = reconstruct(c + 3, symbol(syms[3]));
            c += rans::LANES;
        }
        while c < channels {
            let sym = symbol(dec.decode(c % rans::LANES, tables[c]));
            row[c] = reconstruct(c, sym);
            c += 1;
        }
    }

    /// `decode_rows` as it was, over [`fused_decode_row`].
    fn fused_decode_rows(
        dec: &mut rans::Decoder<'_>,
        coding: &LayerCoding<'_>,
        delta_encoding: bool,
        channels: usize,
        out: &mut [f32],
    ) {
        let delta_steps = &coding.delta_steps;
        if delta_encoding {
            let anchor_steps = &coding.anchor_steps;
            let (anchor_row, rest) = out.split_at_mut(channels);
            fused_decode_row(dec, &coding.anchor_tables, anchor_row, |c, sym| {
                sym as f32 * anchor_steps[c]
            });
            for row in rest.chunks_mut(channels) {
                fused_decode_row(dec, &coding.delta_tables, row, |c, sym| {
                    anchor_row[c] + sym as f32 * delta_steps[c]
                });
            }
        } else {
            for row in out.chunks_mut(channels) {
                fused_decode_row(dec, &coding.delta_tables, row, |c, sym| {
                    sym as f32 * delta_steps[c]
                });
            }
        }
    }

    /// A cache of `channels` channels whose values the profile in
    /// [`two_stage_decode_equals_the_fused_row_decode`] did not see, with
    /// outliers past the alphabet clamp on both sides.
    fn noisy_cache(seed: u64, tokens: usize, channels: usize) -> KvCache {
        use rand::Rng;
        let mut rng = cachegen_tensor::rng::seeded(seed);
        let mut side = || {
            let mut t = Tensor::zeros(&[2, tokens, channels]);
            for (i, v) in t.data_mut().iter_mut().enumerate() {
                let c = i % channels;
                *v = (rng.gen::<f32>() - 0.5) * (1.0 + (c % 5) as f32);
                if rng.gen::<u32>() % 89 == 0 {
                    *v = if rng.gen::<bool>() { 1.0e5 } else { -1.0e5 };
                }
            }
            t
        };
        let k = side();
        KvCache::from_tensors(k, side())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// The two-stage row decode (indices, then values) equals the
        /// fused one bit for bit, for lane tails of every length, rows
        /// wider than one lane block, and both ablation arms. The bins of
        /// the engine's finest level make every step a full-mantissa
        /// float, so `symbol × step` rounds and a changed operation order
        /// shows.
        #[test]
        fn two_stage_decode_equals_the_fused_row_decode(
            seed in 0u64..1_000,
            tokens in 1usize..33,
        ) {
            for channels in [1usize, 3, 4, 5, 64, 67] {
                for delta_encoding in [true, false] {
                    let base = CodecConfig { delta_encoding, ..CodecConfig::default() };
                    let cfg = base.with_bin_factor(0.3);
                    let profile = CodecProfile::build(&cfg, &[&noisy_cache(seed + 1, 24, channels)]);
                    let codec = KvCodec::new(cfg, profile);
                    let enc = codec.encode(&noisy_cache(seed, tokens, channels));
                    let staged = codec.try_decode(&enc).unwrap();
                    let mut k = Tensor::zeros(&[2, tokens, channels]);
                    let mut v = Tensor::zeros(&[2, tokens, channels]);
                    let codings = codec.layer_codings(&enc);
                    for job in decode_jobs(&enc, &codings, &mut k, &mut v, enc.layout()) {
                        let mut dec = rans::Decoder::new(job.stream);
                        fused_decode_rows(&mut dec, job.coding, delta_encoding, channels, job.out);
                        proptest::prop_assert!(dec.finished());
                    }
                    for (got, want) in [(staged.k(), &k), (staged.v(), &v)] {
                        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        proptest::prop_assert_eq!(bits(got), bits(want), "{} channels, delta {}", channels, delta_encoding);
                    }
                }
            }
        }
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
