//! The wire container: one encoded cache chunk as a flat byte buffer.
//!
//! This module is the only place that knows the container layout (see the
//! crate docs for the byte-level table): [`EncodedKv`] and its
//! [`EncodedKv::to_bytes`] / [`EncodedKv::from_bytes`] pair, the LEB128
//! chunk-length varints, the bf16 scale representation, and the
//! [`CodecError`]s a decode can report. [`crate::encoder`] produces and
//! consumes `EncodedKv` values and never touches bytes.

use crate::delta::GroupLayout;
use std::fmt;

/// The container's version byte (offset 4): four-lane rANS chunk payloads
/// over the cumulative symbol layout ([`crate::rans`]). It is the only
/// version written and the only one [`EncodedKv::from_bytes`] accepts.
const WIRE_VERSION: u8 = 4;

/// A decode-time failure surfaced by [`crate::KvCodec::try_decode`] and
/// [`crate::KvCodec::try_decode_parallel`]. The pre-chunking decoder silently
/// produced garbage on truncated input; chunk framing makes every length
/// defect detectable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// A chunk's bytes ran out before all of its symbols were decoded.
    TruncatedChunk {
        /// K-side (true) or V-side chunk.
        is_k: bool,
        /// Transformer layer of the chunk.
        layer: usize,
        /// Token-group index of the chunk.
        group: usize,
        /// Synthetic zero bytes the decoder had to fabricate.
        missing_bytes: usize,
    },
    /// A chunk decoded its full symbol count but consumed a different
    /// number of bytes than its frame declared (trailing garbage or a
    /// corrupted length).
    ChunkLengthMismatch {
        /// K-side (true) or V-side chunk.
        is_k: bool,
        /// Transformer layer of the chunk.
        layer: usize,
        /// Token-group index of the chunk.
        group: usize,
        /// Bytes the decoder actually consumed.
        consumed: usize,
        /// Bytes the chunk frame declared.
        framed: usize,
    },
    /// A rANS chunk decoded its full symbol count with a matching
    /// length, but its interleaved coder lanes did not return to the
    /// rANS normalization base — the payload bytes were corrupted in
    /// place rather than truncated.
    CorruptChunk {
        /// K-side (true) or V-side chunk.
        is_k: bool,
        /// Transformer layer of the chunk.
        layer: usize,
        /// Token-group index of the chunk.
        group: usize,
    },
    /// The container's shape is inconsistent with its declared geometry
    /// (chunk table vs. layers/tokens/group size, scale table vs.
    /// layers/channels, or a chunk's output slice vs. its token count).
    Geometry(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let side = |k: &bool| if *k { "K" } else { "V" };
        match self {
            CodecError::TruncatedChunk {
                is_k,
                layer,
                group,
                missing_bytes,
            } => write!(
                f,
                "{} chunk (layer {layer}, group {group}) truncated: {missing_bytes} bytes missing",
                side(is_k)
            ),
            CodecError::ChunkLengthMismatch {
                is_k,
                layer,
                group,
                consumed,
                framed,
            } => write!(
                f,
                "{} chunk (layer {layer}, group {group}) length mismatch: consumed {consumed} of {framed} framed bytes",
                side(is_k)
            ),
            CodecError::CorruptChunk { is_k, layer, group } => write!(
                f,
                "{} chunk (layer {layer}, group {group}) corrupt: coder lanes did not return to the normalization base",
                side(is_k)
            ),
            CodecError::Geometry(msg) => write!(f, "inconsistent container geometry: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// An encoded KV cache (one context chunk at one encoding level): the KV
/// bitstream, split into independently decodable per-(layer, token-group)
/// entropy-coded chunks. See the crate docs for the wire layout.
#[derive(Clone, Debug, PartialEq)]
pub struct EncodedKv {
    /// Transformer layers covered.
    pub layers: usize,
    /// Tokens covered.
    pub tokens: usize,
    /// Channels per token per layer.
    pub channels: usize,
    /// Anchor group size used (also the chunking granularity).
    pub group_size: usize,
    /// Whether delta encoding was applied.
    pub delta_encoding: bool,
    /// Per-(layer, group) K chunks: `k_chunks[layer][group]` is one
    /// independently decodable [`crate::rans`] stream.
    pub k_chunks: Vec<Vec<Vec<u8>>>,
    /// Per-(layer, group) V chunks, same shape as `k_chunks`.
    pub v_chunks: Vec<Vec<Vec<u8>>>,
    /// Per-(layer, channel) scales shipped with the stream, `[kind][layer]
    /// [channel]` with kinds ordered K-anchor, K-delta, V-anchor, V-delta.
    /// Vectorwise quantization derives scales from the tensor itself
    /// (LLM.int8 style, §5.2), so they are per-context wire data — unlike
    /// the probability tables, which are profiled offline per model.
    pub scales: [Vec<Vec<f32>>; 4],
}

impl EncodedKv {
    /// Token-group geometry of this stream (groups are the chunk
    /// granularity).
    pub fn layout(&self) -> GroupLayout {
        GroupLayout::new(self.group_size, self.tokens)
    }

    /// Number of token groups (= entropy chunks per layer per side).
    pub fn num_groups(&self) -> usize {
        self.layout().num_groups()
    }

    /// Total number of independently decodable chunks (`2 × layers ×
    /// groups`) — the parallel decoder's work-item count.
    pub fn num_chunks(&self) -> usize {
        2 * self.layers * self.num_groups()
    }

    /// Wire size in bytes: payload, per-(layer, channel) scales at fp16,
    /// container framing (16-byte header and a varint length per chunk).
    pub fn total_bytes(&self) -> u64 {
        let framed: usize = self
            .k_chunks
            .iter()
            .chain(&self.v_chunks)
            .flatten()
            .map(|c| c.len() + varint_len(c.len()))
            .sum();
        let scale_count: usize = self.scales.iter().flatten().map(Vec::len).sum();
        (framed + 2 * scale_count + 16) as u64
    }

    /// Wire bytes of one per-(side, layer, group) entropy chunk: its
    /// payload plus the varint length frame. This is the packet size the
    /// loss-resilient transport ships the chunk at.
    pub fn chunk_wire_bytes(&self, is_k: bool, layer: usize, group: usize) -> u64 {
        let side = if is_k { &self.k_chunks } else { &self.v_chunks };
        let len = side[layer][group].len();
        (len + varint_len(len)) as u64
    }

    /// Container bytes not attributable to any entropy chunk (the 16-byte
    /// header plus the bf16 scale tables). The packet schedule folds this
    /// into its highest-priority packet so schedule totals match
    /// [`EncodedKv::total_bytes`].
    pub fn container_overhead_bytes(&self) -> u64 {
        let scale_count: usize = self.scales.iter().flatten().map(Vec::len).sum();
        (2 * scale_count + 16) as u64
    }

    /// Serialises to a flat byte buffer (the unit the network simulator
    /// transfers).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.total_bytes() as usize);
        out.extend_from_slice(b"CGKV");
        out.push(WIRE_VERSION);
        out.push(self.delta_encoding as u8);
        out.extend_from_slice(&(self.layers as u16).to_le_bytes());
        out.extend_from_slice(&(self.tokens as u32).to_le_bytes());
        out.extend_from_slice(&(self.channels as u16).to_le_bytes());
        out.extend_from_slice(&(self.group_size as u16).to_le_bytes());
        for set in &self.scales {
            for layer in set {
                for &s in layer {
                    out.extend_from_slice(&scale_to_wire(s).to_le_bytes());
                }
            }
        }
        for side in [&self.k_chunks, &self.v_chunks] {
            for layer in side {
                for chunk in layer {
                    push_varint(&mut out, chunk.len());
                    out.extend_from_slice(chunk);
                }
            }
        }
        out
    }

    /// Parses a buffer produced by [`EncodedKv::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], String> {
            let Some(end) = pos.checked_add(n).filter(|&end| end <= bytes.len()) else {
                return Err(format!("truncated at offset {pos}", pos = *pos));
            };
            let s = &bytes[*pos..end];
            *pos = end;
            Ok(s)
        };
        if take(&mut pos, 4)? != b"CGKV" {
            return Err("bad magic".into());
        }
        let version = take(&mut pos, 1)?[0];
        // Retired versions share v4's framing but not its payload coding
        // (v3's alias layout maps scaled values to other symbols), so a
        // foreign version must stop here and never reach the decoder.
        if version != WIRE_VERSION {
            return Err(format!("unsupported version {version}"));
        }
        // Fixed-width header fields, parsed without unwraps: `take_n`
        // yields an array of exactly N bytes or a typed truncation error.
        let take_n = |pos: &mut usize, n: &mut [u8]| -> Result<(), String> {
            n.copy_from_slice(take(pos, n.len())?);
            Ok(())
        };
        let mut u16b = [0u8; 2];
        let mut u32b = [0u8; 4];
        let delta_encoding = take(&mut pos, 1)?[0] != 0;
        take_n(&mut pos, &mut u16b)?;
        let layers = u16::from_le_bytes(u16b) as usize;
        take_n(&mut pos, &mut u32b)?;
        let tokens = u32::from_le_bytes(u32b) as usize;
        take_n(&mut pos, &mut u16b)?;
        let channels = u16::from_le_bytes(u16b) as usize;
        take_n(&mut pos, &mut u16b)?;
        let group_size = u16::from_le_bytes(u16b) as usize;
        if group_size == 0 {
            return Err("group size must be ≥ 1".into());
        }
        let mut scales: [Vec<Vec<f32>>; 4] = Default::default();
        for set in &mut scales {
            for _ in 0..layers {
                let raw = take(&mut pos, 2 * channels)?;
                let words = raw
                    .chunks_exact(2)
                    .map(|w| u16::from_le_bytes([w[0], w[1]]));
                set.push(words.map(wire_to_scale).collect());
            }
        }
        let groups = GroupLayout::new(group_size, tokens).num_groups();
        // Every chunk costs at least its one length byte: a table larger
        // than the bytes left is refused before anything is sized from it.
        let chunks = layers.saturating_mul(groups).saturating_mul(2);
        if chunks > bytes.len() - pos {
            return Err(format!(
                "{chunks} chunks cannot fit in the {} bytes left at offset {pos}",
                bytes.len() - pos
            ));
        }
        let mut sides: [Vec<Vec<Vec<u8>>>; 2] = Default::default();
        for side in &mut sides {
            for _ in 0..layers {
                let mut layer_chunks = Vec::with_capacity(groups);
                for _ in 0..groups {
                    let len = take_varint(bytes, &mut pos)?;
                    layer_chunks.push(take(&mut pos, len)?.to_vec());
                }
                side.push(layer_chunks);
            }
        }
        if pos != bytes.len() {
            return Err(format!("{} trailing bytes", bytes.len() - pos));
        }
        let [k_chunks, v_chunks] = sides;
        Ok(EncodedKv {
            layers,
            tokens,
            channels,
            group_size,
            delta_encoding,
            k_chunks,
            v_chunks,
            scales,
        })
    }
}

/// LEB128-encoded length of `n` on the wire (1 byte per 7 bits; chunk
/// payloads are typically well under 16 KiB, so lengths cost 1–2 bytes).
fn varint_len(n: usize) -> usize {
    let mut n = n;
    let mut len = 1;
    while n >= 0x80 {
        n >>= 7;
        len += 1;
    }
    len
}

fn push_varint(out: &mut Vec<u8>, mut n: usize) {
    while n >= 0x80 {
        out.push((n as u8 & 0x7F) | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

fn take_varint(bytes: &[u8], pos: &mut usize) -> Result<usize, String> {
    let mut n = 0usize;
    for shift in (0..).step_by(7) {
        if *pos >= bytes.len() {
            return Err(format!("truncated varint at offset {pos}", pos = *pos));
        }
        let b = bytes[*pos];
        let val = (b & 0x7F) as usize;
        // Reject any byte whose payload bits would be shifted out of the
        // word — an overlong varint must not silently wrap to a small
        // value.
        if shift >= usize::BITS as usize || (val << shift) >> shift != val {
            return Err(format!("oversized varint at offset {pos}", pos = *pos));
        }
        *pos += 1;
        n |= val << shift;
        if b & 0x80 == 0 {
            break;
        }
    }
    Ok(n)
}

/// Truncates an f32 scale to bf16 for the wire (upper 16 bits; ≤0.4%
/// relative error). The encoder quantizes *through* this representation so
/// the decoder reconstructs with identical steps.
pub fn scale_to_wire(s: f32) -> u16 {
    (s.to_bits() >> 16) as u16
}

/// Inverse of [`scale_to_wire`].
pub fn wire_to_scale(w: u16) -> f32 {
    f32::from_bits((w as u32) << 16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_boundaries() {
        for n in [0usize, 1, 0x7F, 0x80, 0x3FFF, 0x4000, 1 << 20, usize::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, n);
            assert_eq!(buf.len(), varint_len(n));
            let mut pos = 0;
            assert_eq!(take_varint(&buf, &mut pos), Ok(n));
            assert_eq!(pos, buf.len());
        }
        assert!(take_varint(&[0x80], &mut 0).is_err(), "truncated varint");
        assert!(
            take_varint(&[0xFF; 12], &mut 0).is_err(),
            "oversized varint"
        );
        // Overlong varint whose 10th byte carries bits past position 63
        // must be rejected, not silently wrapped to a small value.
        let mut overlong = vec![0x80u8; 9];
        overlong.push(0x02);
        assert!(
            take_varint(&overlong, &mut 0).is_err(),
            "wrapping varint must be rejected"
        );
    }
}
