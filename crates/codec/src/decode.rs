//! The decoder: KV bitstreams back into (quantized) KV caches.
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
//! per-token CUDA threads (§5.2, §7): a decode is one walk of `2 × layers
//! × groups` jobs, each an entropy chunk and its disjoint output rows, on
//! a bounded worker pool, so parallelism scales with context length.
//! [`KvCodec::decode_into`] places those rows at a token offset of a
//! cache the caller owns: a load decodes every stream chunk into one.

use crate::container::{CodecError, EncodedKv};
use crate::encoder::{KvCodec, LayerCoding, SymKind};
use crate::quantize::dequantize_row;
use crate::rans;
use crate::symbol_model::FreqTable;
use cachegen_llm::KvCache;
use cachegen_telemetry::{Recorder, NOOP};

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

/// One decode work item: an entropy chunk plus its disjoint slice of the
/// output tensor.
pub(crate) struct DecodeJob<'a> {
    pub(crate) coding: &'a LayerCoding<'a>,
    pub(crate) group: usize,
    group_tokens: usize,
    stream: &'a [u8],
    pub(crate) out: &'a mut [f32],
}

/// Splits `out`'s token rows `at..at + enc.tokens` into per-(layer, group)
/// output slices and returns one job per chunk, K then V in (layer, group)
/// order. Group ranges tile that token range in data order, so the split
/// is a pure partition and leaves every other row of `out` alone.
/// Geometry and placement must have been checked.
pub(crate) fn decode_jobs<'a>(
    enc: &'a EncodedKv,
    codings: &'a [Vec<LayerCoding<'a>>; 2],
    out: &'a mut KvCache,
    at: usize,
) -> Vec<DecodeJob<'a>> {
    let layout = enc.layout();
    let slab = (out.tokens() * enc.channels).max(1);
    let rows = at * enc.channels..(at + enc.tokens) * enc.channels;
    let (k, v) = out.data_mut();
    let mut jobs = Vec::with_capacity(enc.num_chunks());
    let sides = [
        (k, &enc.k_chunks, &codings[0]),
        (v, &enc.v_chunks, &codings[1]),
    ];
    for (side, chunks, codings) in sides {
        let layers = side.chunks_mut(slab).zip(chunks).zip(codings);
        for ((slab, layer_chunks), coding) in layers {
            let mut data = &mut slab[rows.clone()];
            for (group, stream) in layer_chunks.iter().enumerate() {
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
    /// Decodes one (layer, group) chunk into the output slice its job
    /// owns, verifying exact byte consumption against the chunk frame.
    /// Truncation surfaces as synthetic input, in-place corruption as
    /// lanes that fail to return to the normalization base, trailing
    /// slack as a length mismatch — a damaged chunk is always reported,
    /// never decoded as noise.
    pub(crate) fn decode_chunk(
        &self,
        job: &mut DecodeJob<'_>,
        delta_encoding: bool,
    ) -> Result<(), CodecError> {
        let (coding, stream, group_tokens) = (job.coding, job.stream, job.group_tokens);
        let (out, group) = (&mut *job.out, job.group);
        let channels = self.profile().channels();
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

    /// Serial decode of a KV bitstream back into a (quantized) KV cache:
    /// reports truncated/corrupted chunks instead of decoding noise.
    pub fn try_decode(&self, enc: &EncodedKv) -> Result<KvCache, CodecError> {
        self.decode_whole(enc, false)
    }

    /// Decodes with per-(layer, group) chunk parallelism over a bounded
    /// worker pool (the CPU analogue of the paper's per-token GPU decode
    /// kernels); a stream too short to repay the pool decodes inline.
    /// Bit-identical to [`KvCodec::try_decode`].
    pub fn try_decode_parallel(&self, enc: &EncodedKv) -> Result<KvCache, CodecError> {
        self.decode_whole(enc, true)
    }

    /// Decodes `enc` in place into token rows `at..at + enc.tokens` of
    /// `out` and no others, bit-identical to those rows of
    /// [`KvCodec::try_decode_parallel`]'s cache. `cachegen.codec.*`
    /// counters and the pool shape go to `recorder`.
    pub fn decode_into(
        &self,
        enc: &EncodedKv,
        out: &mut KvCache,
        at: usize,
        recorder: &Recorder,
    ) -> Result<(), CodecError> {
        self.decode_walk(enc, out, at, true, recorder)
    }

    fn decode_whole(&self, enc: &EncodedKv, pooled: bool) -> Result<KvCache, CodecError> {
        // Checked before a tensor is sized from the header.
        self.check_geometry(enc)?;
        let mut out = KvCache::zeros(enc.layers, enc.tokens, enc.channels);
        self.decode_walk(enc, &mut out, 0, pooled, &NOOP)
            .map(|()| out)
    }

    /// The one decode walk: one job per entropy chunk on
    /// [`run_pooled`](crate::pool::run_pooled), inline unless `pooled` and
    /// the stream holds at least [`POOLED_DECODE_MIN_ELEMENTS`].
    fn decode_walk(
        &self,
        enc: &EncodedKv,
        out: &mut KvCache,
        at: usize,
        pooled: bool,
        recorder: &Recorder,
    ) -> Result<(), CodecError> {
        self.check_geometry(enc)?;
        let end = at.saturating_add(enc.tokens);
        if end > out.tokens() || (out.layers(), out.channels()) != (enc.layers, enc.channels) {
            return Err(CodecError::Geometry(format!(
                "a {}-token stream does not fit at token {at} of a {:?} cache",
                enc.tokens,
                out.k().shape()
            )));
        }
        let codings = self.layer_codings(enc);
        let jobs = decode_jobs(enc, &codings, out, at);
        if recorder.is_enabled() {
            recorder.add("cachegen.codec.decode_calls", 1);
            recorder.add("cachegen.codec.decode_chunks", jobs.len() as u64);
        }
        let elements = 2 * enc.layers * enc.tokens * enc.channels;
        let pooled = pooled && elements >= POOLED_DECODE_MIN_ELEMENTS;
        let workers = if pooled {
            crate::pool::bounded_workers(jobs.len())
        } else {
            1
        };
        crate::pool::run_pooled(
            jobs,
            workers,
            |_, mut job| self.decode_chunk(&mut job, enc.delta_encoding),
            |shape| crate::pool::report_shape(shape, recorder),
        )
    }

    pub(crate) fn check_geometry(&self, enc: &EncodedKv) -> Result<(), CodecError> {
        let err = |msg: String| Err(CodecError::Geometry(msg));
        if enc.channels != self.profile().channels() || enc.layers != self.profile().layers() {
            return err(format!(
                "stream is {}×{} (layers×channels) but the profile is {}×{}",
                enc.layers,
                enc.channels,
                self.profile().layers(),
                self.profile().channels()
            ));
        }
        let groups = enc.num_groups();
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::tests::setup;
    use crate::encoder::CodecConfig;
    use crate::profile::CodecProfile;
    use cachegen_tensor::Tensor;

    #[test]
    fn mis_sized_output_slice_is_a_geometry_error() {
        let (_, cache, codec) = setup();
        let enc = codec.encode(&cache);
        let [k_codings, _] = codec.layer_codings(&enc);
        let mut out = vec![0.0f32; 9 * cache.channels()];
        let mut job = DecodeJob {
            coding: &k_codings[0],
            group: 0,
            group_tokens: 10,
            stream: &enc.k_chunks[0][0],
            out: &mut out,
        };
        let got = codec.decode_chunk(&mut job, enc.delta_encoding);
        assert!(matches!(got, Err(CodecError::Geometry(_))), "got {got:?}");
    }

    #[test]
    fn decode_into_writes_only_its_rows() {
        let (_, cache, codec) = setup();
        let enc = codec.encode(&cache.slice_tokens(10, 30));
        let mut want = cache.clone();
        want.copy_tokens(15, &codec.try_decode(&enc).unwrap(), 0, 20);
        let mut out = cache.clone();
        codec.decode_into(&enc, &mut out, 15, &NOOP).unwrap();
        assert_eq!(out, want);
        // A stream that does not fit where it is placed is refused.
        let mut wide = KvCache::zeros(cache.layers(), 40, cache.channels() + 1);
        for (out, at) in [(&mut out, 21), (&mut want, usize::MAX), (&mut wide, 0)] {
            let got = codec.decode_into(&enc, out, at, &NOOP);
            assert!(matches!(got, Err(CodecError::Geometry(_))), "got {got:?}");
        }
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
                    let mut fused = KvCache::zeros(2, tokens, channels);
                    let codings = codec.layer_codings(&enc);
                    for job in decode_jobs(&enc, &codings, &mut fused, 0) {
                        let mut dec = rans::Decoder::new(job.stream);
                        fused_decode_rows(&mut dec, job.coding, delta_encoding, channels, job.out);
                        proptest::prop_assert!(dec.finished());
                    }
                    for (got, want) in [(staged.k(), fused.k()), (staged.v(), fused.v())] {
                        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        proptest::prop_assert_eq!(bits(got), bits(want), "{} channels, delta {}", channels, delta_encoding);
                    }
                }
            }
        }
    }
}
