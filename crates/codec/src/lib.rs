//! CacheGen's KV-cache codec: delta encoding + layer-wise quantization +
//! entropy coding (§5.2 of the paper).
//!
//! The pipeline, per context chunk:
//!
//! ```text
//!   KV cache ──► token groups (anchor + deltas) ──► bin quantization
//!            ──► integer symbols ──► entropy coding with per-(layer,
//!                channel) symbol distributions ──► per-(layer, group)
//!                chunked KV bitstream
//! ```
//!
//! * [`rans`] — *the* entropy stage: a four-lane interleaved rANS coder
//!   (independent u64 states round-robin over symbols, plain cumulative
//!   symbol layout). Lossless by construction, with exact consumed-byte
//!   accounting and a per-lane final-state check.
//! * [`symbol_model`] — the frequency-table type the coder reads (a
//!   ~1.2 KB cumulative table with an inline hot window, its 32-slot
//!   index and block pivots), at four context granularities (global /
//!   per-layer / per-channel / per-channel-layer) for the Figure 15
//!   ablation; the paper's choice is per-channel-layer.
//! * [`delta`] — anchor-group delta transform (group size 10, §5.2).
//! * [`profile`] — offline per-model profiling of scales and symbol
//!   distributions (one profile per LLM, reused across contexts, §5.2).
//! * [`quantize`] — the quantise stage: a layer slab to alphabet
//!   indices, group by group; what the encoder codes and the profile
//!   counts. Its inverse, a row of indices back to values, is the
//!   decoder's second stage.
//! * [`encoder`] — [`KvCodec`] and the encoder over [`KvCache`]s.
//! * [`decode`] — the decoder: one chunk-parallel walk over the bounded
//!   worker [`pool`] (stand-in for the paper's per-token CUDA threads),
//!   in place at a token offset ([`KvCodec::decode_into`]).
//! * [`container`] — the wire format: [`EncodedKv`], its byte
//!   serialisation, and the [`CodecError`]s a decode reports.
//! * [`repair`] — hole-aware decoding over a chunk arrival map.
//!
//! The only lossy stage is quantization: `decode(encode(kv))` equals the
//! quantized cache exactly, which the property tests in this crate verify.
//!
//! [`KvCache`]: cachegen_llm::KvCache
//!
//! # Wire format (version 4)
//!
//! [`EncodedKv::to_bytes`] lays one encoded cache chunk out as:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "CGKV"
//! 4       1     wire version (always 4; anything else is rejected)
//! 5       1     delta_encoding flag (0 or 1)
//! 6       2     layers            (u16 LE)
//! 8       4     tokens            (u32 LE)
//! 12      2     channels          (u16 LE)
//! 14      2     group_size        (u16 LE)
//! 16      …     scales: 4 sets (K-anchor, K-delta, V-anchor, V-delta),
//!               each layers×channels bf16 values (u16 LE each)
//! …       …     entropy chunks, K side then V side; within a side,
//!               layer-major then group-major:
//!                   varint  chunk byte length (LEB128, 1–2 bytes typical)
//!                   []u8    entropy-coded chunk payload
//! ```
//!
//! The number of chunks per layer is derived from `tokens` and
//! `group_size` (`ceil(tokens / group_size)` anchor groups, §5.2), so no
//! chunk count is stored. Every chunk is an independent entropy stream
//! covering exactly one (layer, token-group) of K or V — its anchor row is
//! in-stream, so a chunk decodes with no state from any other chunk. That
//! is what lets [`KvCodec::decode_into`] schedule `2 × layers × groups`
//! work items over a bounded pool, and what the loss-resilient
//! transport relies on (damaged chunks degrade only their own token
//! range; see [`CodecError`] for how length defects are reported).
//!
//! ## Version-4 chunk payloads (interleaved rANS, cumulative layout)
//!
//! A v4 chunk payload is one [`rans`] stream:
//!
//! ```text
//! offset  size  field
//! 0       32    state flush: rans::LANES (= 4) final encoder states,
//!               u64 LE each — the decoder's initial states
//! 32      4·w   renormalization words, u32 LE, in decode order
//! ```
//!
//! Symbols round-robin over the four lanes by channel (`lane = channel
//! mod `[`rans::LANES`]) and every row restarts at channel 0, so the
//! decoder's batched four-wide inner loop stays aligned. Within a lane,
//! symbol `s` of a table with cumulative start `c = cum[s]` and frequency
//! `f = cum[s+1] − c` (all tables total exactly 2²⁴) takes state `x` to
//! `(x / f) · 2²⁴ + c + x mod f`, emitting the low 32 bits of `x` first
//! whenever `x ≥ f · 2³⁹`; the decoder reads `x mod 2²⁴`, finds the `s`
//! whose `[c, c + f)` holds it, and inverts. Each lane's state must land
//! exactly back on the normalization base 2³¹ after the last symbol; that
//! per-lane final-state check — plus exact consumed-byte accounting
//! against the chunk frame — is what turns any truncation or corruption
//! into a reported [`CodecError`] instead of noise.
//!
//! ## Versions
//!
//! One version is written and read. [`EncodedKv::from_bytes`] rejects
//! every other value of byte 4 with a typed error, and an [`EncodedKv`]
//! carries no version field, so a foreign-version container cannot be
//! represented in memory. Nothing ever persisted an older stream (the KV
//! store is in-memory and re-encodes on start). CHANGES.md keeps the
//! throughput history the retired versions' bench rows used to show (raw
//! decode: WNC → range coder 8×, range coder → rANS 4.6×; whole-context
//! encode: alias → cumulative layout 3×).
//!
//! * **4** — what [`KvCodec::encode`] writes: [`rans`] chunk payloads
//!   over the cumulative symbol layout.
//! * **3** — retired: v4's framing over a Vose alias symbol layout, which
//!   lost on this codec's many-table traffic (see [`rans`]).
//! * **2** — retired: one serial range-coder stream per chunk, no state
//!   header; kept one release past v3 for a peer that never existed.
//! * **1** — retired: monolithic per-layer WNC arithmetic-coder streams,
//!   not independently decodable per chunk.
//!
//! ## Chunk arrival map and repair provenance
//!
//! Over a lossy transport each entropy chunk travels as its own packet,
//! and the receiver builds a [`ChunkArrivalMap`]: a `2 × layers × groups`
//! bitmap of which chunks arrived intact (a truncated or late packet is
//! marked lost — partial entropy streams are detectable but not
//! decodable). [`KvCodec::decode_with_repairs`] then upholds two
//! contracts:
//!
//! 1. **Any arrived subset decodes.** Chunks marked lost — and arrived
//!    chunks whose exact byte accounting exposes corruption — are filled
//!    by the chosen [`RepairPolicy`] (zero-fill, neighbor-anchor
//!    interpolation, or flagged for re-fetch) instead of failing the
//!    decode. Delivery *order* is irrelevant: the arrival map is a set,
//!    so reordered delivery decodes byte-identically to in-order.
//! 2. **Every repaired chunk is reported.** The result carries one
//!    [`ChunkRepair`] record per repaired chunk (its address, the
//!    [`repair::RepairCause`], and what filled it), so callers account
//!    repaired bytes as a quality penalty — nothing is silently decoded
//!    as noise.
//!
//! ## FEC parity packets and the recovery ladder
//!
//! With forward error correction enabled, the transport also emits `r ≥
//! 1` **parity packets** per parity group alongside the data packets:
//! systematic Reed–Solomon rows over GF(256) (`cachegen_net::RsCode`),
//! of which row 0 is the byte-wise XOR of the members. Parity is purely
//! a wire-level artifact — it never appears in the [`EncodedKv`]
//! container above, so stored bitstreams are unchanged and FEC off is
//! bit-identical to the plain transport. Layout per stream chunk:
//!
//! * The schedule's `n` data packets (priority order: early token groups,
//!   shallow layers, K before V) are striped into parity groups of at
//!   most `k` members with **interleaver stride `g = ceil(n / k)`**:
//!   packet `i` joins group `i mod g`, so a burst of up to `g · r`
//!   consecutive drops degrades into at most `r` losses per group. The
//!   shape is a streamer policy (`cachegen_streamer::FecOverhead`): a
//!   fixed `(k, r)`, a per-level `k` with the head half of the priority
//!   order protected denser, or a loss-adaptive `(k, r)` ladder.
//! * Each of a group's `r` parity packets is sized to the group's
//!   longest member (shorter members count as zero-padded). Parity 0
//!   rides the wire **immediately after its group's last data packet**;
//!   parity `t` rides `t` data slots later.
//!
//! The receive path then runs a three-rung recovery ladder:
//!
//! 1. **FEC** — a group that lost no more data packets than it kept
//!    parity packets is reconstructed byte-identically; each such chunk
//!    is marked recovered in the arrival map and decodes like an
//!    arrival, reported as [`repair::RepairCause::RecoveredByFec`]
//!    provenance with no quality penalty.
//! 2. **Repair** — groups with more losses than parity fall back to the
//!    [`RepairPolicy`] chain above (after whatever retransmit budget the
//!    streamer had).
//! 3. **Refetch** — under [`RepairPolicy::Refetch`] the remaining holes
//!    are re-requested after the first decode; TTFT keeps the first-pass
//!    finish and fidelity is restored when the re-fetch lands.

pub mod container;
pub mod decode;
pub mod delta;
pub mod encoder;
pub mod pool;
pub mod profile;
pub mod quantize;
pub mod rans;
pub mod repair;
pub mod symbol_model;

pub use container::{CodecError, EncodedKv};
pub use encoder::{CodecConfig, KvCodec};
pub use profile::CodecProfile;
pub use repair::{ChunkArrivalMap, ChunkRepair, RepairCause, RepairKind, RepairPolicy, RepairedKv};
pub use symbol_model::ModelGranularity;

/// Symbols are clamped into `[-SYMBOL_CLAMP, SYMBOL_CLAMP]` before entropy
/// coding so the alphabet is a fixed 256 entries. With std-normalised values
/// and bins ≥ 0.25 the clamp is ≥ 32σ out, so it essentially never binds;
/// when it does, the error is bounded by the clamped magnitude.
const SYMBOL_CLAMP: i32 = 127;

/// Alphabet size for the entropy coder (symbols −128..=127 → 0..=255).
pub const ALPHABET: usize = 256;

/// Maps a (possibly out-of-range) quantized symbol to an alphabet index.
pub fn symbol_to_index(s: i32) -> usize {
    (s.clamp(-(SYMBOL_CLAMP + 1), SYMBOL_CLAMP) + SYMBOL_CLAMP + 1) as usize
}

/// Inverse of [`symbol_to_index`]; total, since an alphabet index is a
/// byte.
pub fn index_to_symbol(i: u8) -> i32 {
    i32::from(i) - (SYMBOL_CLAMP + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_index_round_trip() {
        for s in -128..=127 {
            assert_eq!(index_to_symbol(symbol_to_index(s) as u8), s);
        }
        for i in 0..=u8::MAX {
            assert_eq!(symbol_to_index(index_to_symbol(i)), usize::from(i));
        }
    }

    #[test]
    fn out_of_range_symbols_clamp() {
        assert_eq!(index_to_symbol(symbol_to_index(1_000) as u8), 127);
        assert_eq!(index_to_symbol(symbol_to_index(-1_000) as u8), -128);
    }

    /// Tier-1 builds this crate optimised (the dev profile in the root
    /// `Cargo.toml`): optimising must not switch a check off.
    #[test]
    #[should_panic(expected = "attempt to add with overflow")]
    fn optimised_dev_build_keeps_its_checks() {
        assert!(
            std::hint::black_box(cfg!(debug_assertions)),
            "debug assertions are off"
        );
        let _ = std::hint::black_box(u8::MAX) + 1;
    }
}
