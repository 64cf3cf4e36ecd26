//! Four-lane interleaved rANS — the codec's entropy stage.
//!
//! A serial range coder decodes one symbol per dependent
//! divide/renormalize chain, so raw decode throughput is pinned to the
//! latency of a 64-bit division. This module is a *range asymmetric
//! numeral system* in the 64-bit/32-bit-word formulation instead:
//!
//! * **Four independent `u64` states** round-robin over the symbol
//!   sequence (`lane = position % LANES` is the caller's contract, the
//!   codec uses `channel % LANES`). Each lane's update chain is
//!   independent of the others, so a superscalar CPU overlaps four
//!   decodes where a range coder serializes one.
//! * **Division-free decode.** Frequency totals are exactly
//!   `2^TOTAL_BITS` ([`crate::symbol_model::MAX_TOTAL`]), so the state
//!   split is a mask/shift and the update is one multiply-add. The
//!   encoder's `x / f` is a division by a *table constant*, so for the
//!   symbols that carry the traffic — each table's fifteen-symbol hot
//!   window — it is one multiply-high by a reciprocal the table holds
//!   ([`FreqTable`]); only the rare symbols outside the window reach the
//!   hardware divider.
//! * **The plain cumulative symbol layout.** A symbol `s` with
//!   cumulative start `c` and frequency `f` owns the scaled values
//!   `[c, c + f)`: encoding is `x' = (x / f) << TOTAL_BITS + c + x % f`,
//!   decoding resolves `x mod 2^TOTAL_BITS` to its symbol through
//!   [`FreqTable`], then
//!   `x' = f · (x >> TOTAL_BITS) + (x mod 2^TOTAL_BITS) − c`. The encoder
//!   reads a symbol's start and frequency (and, in the hot window, its
//!   reciprocal) and needs no inverse search.
//! * **A resolve per row kind, chosen statically.** A delta row's tables
//!   are peaked, so its symbols resolve hot window first — an index slot
//!   and two compares for most values, the window's four-step rank for
//!   the rest, and the two-level rank out of line for the ~11% outside
//!   the window. An anchor row's tables are wide (8-bit precision) and
//!   most of their symbols miss the window, so a window-first resolve
//!   would branch on a coin flip; anchor rows take the branch-free
//!   two-level rank directly. [`Decoder::decode_row`] picks one per row
//!   through a `const` parameter, and the loop it instantiates carries no
//!   branch on the kind.
//! * **Symbols, not values.** The decoder writes alphabet indices, one
//!   byte each, and nothing else: the codec turns a row of them into
//!   values in a separate pass ([`crate::quantize::dequantize_row`]), so
//!   no float work sits between the dependent steps of a lane.
//! * **Single-step renormalization** in whole `u32` words. The state
//!   invariant `x ∈ [RANS_L, 2^63)` guarantees at most one word is
//!   emitted (encode) or refilled (decode) per symbol, and that the
//!   encoder's word sequence, reversed, is exactly the decoder's read
//!   sequence. Whether a symbol moves a word is near a coin flip, so both
//!   sides select instead of branching: the decoder's batched refill, and
//!   the encoder's store-always, keep-if-needed word.
//!
//! # Why the alias layout left (wire v3 → v4)
//!
//! Wire v3 resolved symbols through Vose alias tables: `2^TOTAL_BITS` of
//! mass packed into 256 two-symbol buckets, so a decode was two loads and
//! a compare. That is the fastest known resolve *on one hot table*. The
//! codec does not have one table: it keeps a distribution per (kind, K/V,
//! layer, channel) and a 640-symbol entropy chunk walks 128 of them
//! round-robin. At ~16 KB per alias table (buckets, per-symbol segment
//! lists and the encode-side inverse LUT) every resolve picked a random
//! line of a cold table and every encode chased six arrays; both were
//! cache-miss-bound and the model sets were ~150 MB resident. The
//! cumulative layout is ~1.2 KB per table with its hot lines inline, so a
//! level's whole model set stays L2-resident. The alias layout permutes
//! the symbol ↔ scaled-value mapping, so the change is a wire break:
//! v3 streams are rejected by version, never decoded (nothing persisted
//! them — the store is in-memory and re-encodes on start).
//!
//! rANS is last-in-first-out: the state arithmetic has to run over the
//! symbols *in reverse*. The codec's kernel (`encode_rows`) is handed a
//! token group's symbols already quantised into a buffer, so it simply
//! walks that buffer backwards — last row first, last channel first —
//! in a single pass, and every renormalization word lands directly at
//! its place in decode order. [`Encoder`] takes symbols one at a time in
//! forward order instead, buffers their spans, and replays them backwards
//! through the same state update with the hardware divide for every
//! quotient; it is the reference the kernel is tested against. A finished
//! stream is the four final lane states (32 bytes,
//! little-endian — the decoder's *initial* states) followed by the
//! renormalization words in decode order.
//!
//! Truncation and corruption are detectable without trusting the payload:
//! the decoder counts synthetic zero bytes past the end of input
//! ([`Decoder::overrun_bytes`]) and, because every
//! encoder lane starts at [`RANS_L`], a complete clean decode must return
//! every lane to exactly [`RANS_L`] — [`Decoder::finished`] is the
//! per-lane final-state check the v4 container verifies per chunk.

use crate::encoder::SymKind;
use crate::symbol_model::{FreqTable, SymbolCode, MAX_TOTAL, TOTAL_BITS};

/// Number of interleaved rANS states. Four matches the independent
/// execution ports of commodity cores; the wire format fixes it (a v4
/// stream always carries exactly four lane states).
pub const LANES: usize = 4;

/// Lower bound of the normalized state interval `[RANS_L, RANS_L · 2^32)`.
/// Chosen so renormalization moves whole `u32` words with at most one
/// word per symbol per side.
pub const RANS_L: u64 = 1 << 31;

/// Bytes of the per-stream state header: [`LANES`] little-endian `u64`
/// final states, read up-front by [`Decoder::new`].
pub const STATE_BYTES: usize = LANES * 8;

/// Low-`TOTAL_BITS` mask: the slice of state that addresses probability
/// mass.
const MASK: u32 = (MAX_TOTAL - 1) as u32;

/// The encode-side state update — the only one: `x` with one symbol coded
/// onto it, after at most one renormalization word. `words` is the part of
/// the word buffer not yet written, filled from its top down; what comes
/// back is the part still unwritten after this symbol.
///
/// The word is always stored and kept only when it was needed (whether a
/// symbol renormalizes is near a coin flip, like the decoder's refill),
/// and `x / f` is [`SymbolCode::quotient`]: a multiply-high for a hot
/// symbol. `x < 2^63` before the step; after the shift `x < RANS_L`, below
/// every `x_max` again, so one word is the most a symbol emits.
#[inline(always)]
fn put(x: u64, code: SymbolCode, words: &mut [u32]) -> (u64, &mut [u32]) {
    let f = u64::from(code.freq);
    let need = x >= f << (32 + 31 - TOTAL_BITS);
    let unwritten = words.len();
    words[unwritten - 1] = x as u32;
    let x = if need { x >> 32 } else { x };
    let q = code.quotient(x);
    (
        (q << TOTAL_BITS) + (x - q * f) + u64::from(code.start),
        &mut words[..unwritten - usize::from(need)],
    )
}

/// A finished stream: the [`STATE_BYTES`] header of final lane states,
/// then the renormalization words in decode order.
fn stream(states: [u64; LANES], words: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(STATE_BYTES + words.len() * 4);
    for s in states {
        out.extend_from_slice(&s.to_le_bytes());
    }
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

/// Entropy-codes whole rows of alphabet indices — the codec's encode
/// kernel. `indices` is row-major, one index per channel per row; row 0 is
/// coded under `head`'s per-channel tables and every later row under
/// `tail`'s, on lane `channel % LANES`. `words` is scratch, reused across
/// calls.
///
/// rANS is last-in-first-out, so the rows are walked **backwards** — last
/// row first, last channel first — and each word lands directly at its
/// place in decode order, filling `words` from the top down.
/// Byte-identical to buffering the same symbols forwards through
/// [`Encoder`].
///
/// The lane states live in an array indexed by `channel % LANES`, not in
/// four locals across a four-channel block as [`Decoder::decode4`] holds
/// them: an encode step has more live values than a decode step (start,
/// frequency, reciprocal, shift, the word cursor), and with four states
/// pinned as well the block form spilled more than the array costs
/// (`KvCodec::encode` of a 30-token stream chunk: 188 µs against 179 on
/// the 2-vCPU reference host).
pub(crate) fn encode_rows(
    indices: &[u8],
    head: &[&FreqTable],
    tail: &[&FreqTable],
    words: &mut Vec<u32>,
) -> Vec<u8> {
    let channels = head.len();
    assert!(
        channels > 0 && tail.len() == channels && indices.len().is_multiple_of(channels),
        "rows do not match the tables"
    );
    // One word per symbol at most; what an earlier call left is overwritten.
    if words.len() < indices.len() {
        words.resize(indices.len(), 0);
    }
    let mut unwritten = &mut words[..];
    let mut states = [RANS_L; LANES];
    for (r, row) in indices.chunks_exact(channels).enumerate().rev() {
        let tables = if r == 0 { head } else { tail };
        for (c, (&i, t)) in row.iter().zip(tables).enumerate().rev() {
            (states[c % LANES], unwritten) =
                put(states[c % LANES], t.code(usize::from(i)), unwritten);
        }
    }
    let first = unwritten.len();
    stream(states, &words[first..])
}

/// Forward-order four-lane rANS encoder: buffers each symbol's span as it
/// arrives and replays the buffer backwards through the same state update
/// as the codec's kernel — but from the spans alone, so every `x / f` is
/// the hardware divide. That makes it the reference the reverse,
/// reciprocal-multiplying kernel is tested against byte for byte, and the
/// entry point for a symbol sequence that is not rows of channels. The
/// decoder must be driven with the same `(lane, table)` sequence in the
/// same forward order.
#[derive(Default)]
pub struct Encoder {
    /// Per symbol: cumulative start (low `TOTAL_BITS`) with the lane above
    /// it, and the frequency.
    pending: Vec<(u32, u32)>,
}

impl Encoder {
    /// Creates a fresh encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffers one alphabet index on `lane` under the given table.
    #[inline]
    pub fn encode(&mut self, lane: usize, table: &FreqTable, index: usize) {
        assert!(lane < LANES, "lane out of range");
        let (start, freq) = table.span(index);
        self.pending
            .push((start | (lane as u32) << TOTAL_BITS, freq));
    }

    /// Runs the reverse-order rANS pass and returns the byte stream:
    /// a [`STATE_BYTES`] header of final lane states, then the
    /// renormalization words in decode order.
    pub fn finish(self) -> Vec<u8> {
        let mut states = [RANS_L; LANES];
        let mut words = vec![0u32; self.pending.len()];
        let mut unwritten = &mut words[..];
        for &(start_lane, freq) in self.pending.iter().rev() {
            let lane = (start_lane >> TOTAL_BITS) as usize;
            let code = SymbolCode::by_division(start_lane & MASK, freq);
            (states[lane], unwritten) = put(states[lane], code, unwritten);
        }
        let first = unwritten.len();
        stream(states, &words[first..])
    }
}

/// One decode step before renormalization: the symbol the state's low
/// bits address, and the state with that symbol removed. `HOT_FIRST`
/// picks the resolve: the table's hot window first (delta rows), or its
/// two-level rank alone (anchor rows).
#[inline(always)]
fn advance<const HOT_FIRST: bool>(table: &FreqTable, x: u64) -> (usize, u64) {
    let scaled = (x as u32) & MASK;
    let (sym, start, f) = if HOT_FIRST {
        table.resolve(scaled)
    } else {
        table.rank(scaled)
    };
    (
        sym,
        u64::from(f) * (x >> TOTAL_BITS) + u64::from(scaled - start),
    )
}

/// Four-lane rANS decoder with exact consumed-byte accounting.
pub struct Decoder<'a> {
    buf: &'a [u8],
    /// Bytes actually consumed from `buf`.
    pos: usize,
    /// Synthetic zero bytes yielded past the end of `buf`.
    synthetic: usize,
    states: [u64; LANES],
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over an encoded byte stream, reading the
    /// [`STATE_BYTES`] lane-state header immediately.
    pub fn new(buf: &'a [u8]) -> Self {
        let mut d = Decoder {
            buf,
            pos: 0,
            synthetic: 0,
            states: [0; LANES],
        };
        for lane in 0..LANES {
            let mut b = [0u8; 8];
            for byte in &mut b {
                *byte = d.next_byte();
            }
            d.states[lane] = u64::from_le_bytes(b);
        }
        d
    }

    #[inline]
    fn next_byte(&mut self) -> u8 {
        if self.pos < self.buf.len() {
            let b = self.buf[self.pos];
            self.pos += 1;
            b
        } else {
            self.synthetic += 1;
            0
        }
    }

    #[inline]
    fn next_word(&mut self) -> u32 {
        if self.pos + 4 <= self.buf.len() {
            let w = u32::from_le_bytes([
                self.buf[self.pos],
                self.buf[self.pos + 1],
                self.buf[self.pos + 2],
                self.buf[self.pos + 3],
            ]);
            self.pos += 4;
            w
        } else {
            let mut b = [0u8; 4];
            for byte in &mut b {
                *byte = self.next_byte();
            }
            u32::from_le_bytes(b)
        }
    }

    /// Decodes one alphabet index on `lane` under the given table,
    /// resolving hot window first.
    #[inline]
    pub fn decode(&mut self, lane: usize, table: &FreqTable) -> usize {
        self.decode_with::<true>(lane, table)
    }

    /// [`Decoder::decode`] through the resolve `HOT_FIRST` picks (see
    /// `advance`).
    #[inline(always)]
    fn decode_with<const HOT_FIRST: bool>(&mut self, lane: usize, table: &FreqTable) -> usize {
        let (sym, mut x) = advance::<HOT_FIRST>(table, self.states[lane]);
        if x < RANS_L {
            x = (x << 32) | u64::from(self.next_word());
        }
        self.states[lane] = x;
        sym
    }

    /// Decodes one symbol per lane, lanes `0..LANES` in order — the
    /// batched inner-loop form of four [`Decoder::decode`] calls, hot
    /// window first.
    #[inline(always)]
    pub fn decode4(&mut self, tables: [&FreqTable; LANES]) -> [usize; LANES] {
        self.decode4_with::<true>(tables)
    }

    /// Decodes one row of alphabet indices, `out[c]` under `tables[c]` on
    /// lane `c % LANES` (the codec's lane assignment) — stage one of the
    /// codec's row decode, which turns the indices into values in a
    /// separate pass. Full four-channel blocks go through the batched
    /// step, the tail one symbol at a time. `kind` picks the resolve once
    /// per row: an anchor row's wide tables go through the two-level rank
    /// alone, a delta row's peaked ones through the hot window first.
    ///
    /// Every table must have at most 256 symbols (the codec's alphabet):
    /// an index is written as a `u8`.
    ///
    /// # Panics
    ///
    /// If `tables` and `out` differ in length.
    #[inline(always)]
    pub fn decode_row(&mut self, kind: SymKind, tables: &[&FreqTable], out: &mut [u8]) {
        match kind {
            SymKind::Anchor => self.decode_row_with::<false>(tables, out),
            SymKind::Delta => self.decode_row_with::<true>(tables, out),
        }
    }

    #[inline(always)]
    fn decode_row_with<const HOT_FIRST: bool>(&mut self, tables: &[&FreqTable], out: &mut [u8]) {
        assert_eq!(tables.len(), out.len(), "one table per symbol");
        let mut blocks = tables.chunks_exact(LANES);
        let mut block_out = out.chunks_exact_mut(LANES);
        for (t, o) in (&mut blocks).zip(&mut block_out) {
            let syms = self.decode4_with::<HOT_FIRST>([t[0], t[1], t[2], t[3]]);
            for (o, s) in o.iter_mut().zip(syms) {
                *o = s as u8;
            }
        }
        let tail = blocks.remainder().iter().zip(block_out.into_remainder());
        for (lane, (t, o)) in tail.enumerate() {
            *o = self.decode_with::<HOT_FIRST>(lane, t) as u8;
        }
    }

    /// [`Decoder::decode4`] through the resolve `HOT_FIRST` picks. The
    /// four state updates are independent, so the CPU overlaps them;
    /// refills happen in lane order, matching the encoder's word order.
    ///
    /// `inline(always)`: with plain `#[inline]` the compiler emits this
    /// out of line, and the four lane states, the four table pointers and
    /// the result array then round-trip through memory every four symbols
    /// (whole-context load −8% with the call gone).
    #[inline(always)]
    fn decode4_with<const HOT_FIRST: bool>(
        &mut self,
        tables: [&FreqTable; LANES],
    ) -> [usize; LANES] {
        let [x0, x1, x2, x3] = self.states;
        let (s0, x0) = advance::<HOT_FIRST>(tables[0], x0);
        let (s1, x1) = advance::<HOT_FIRST>(tables[1], x1);
        let (s2, x2) = advance::<HOT_FIRST>(tables[2], x2);
        let (s3, x3) = advance::<HOT_FIRST>(tables[3], x3);
        let mut xs = [x0, x1, x2, x3];
        if let Some(ahead) = self.buf[self.pos..].first_chunk::<{ LANES * 4 }>() {
            // Whether a lane refills is near a coin flip per symbol, so
            // while every word the four lanes could take is in bounds,
            // select instead of branching.
            let word = |i: usize| {
                u32::from_le_bytes([
                    ahead[4 * i],
                    ahead[4 * i + 1],
                    ahead[4 * i + 2],
                    ahead[4 * i + 3],
                ])
            };
            let words = [word(0), word(1), word(2), word(3)];
            let mut taken = 0usize;
            for x in &mut xs {
                let refilled = (*x << 32) | u64::from(words[taken % LANES]);
                let need = *x < RANS_L;
                *x = if need { refilled } else { *x };
                taken += usize::from(need);
            }
            self.pos += 4 * taken;
        } else {
            for x in &mut xs {
                if *x < RANS_L {
                    *x = (*x << 32) | u64::from(self.next_word());
                }
            }
        }
        self.states = xs;
        [s0, s1, s2, s3]
    }

    /// Bytes actually consumed from the input buffer. For a well-formed
    /// stream decoded to completion this equals the stream's length.
    pub fn bytes_consumed(&self) -> usize {
        self.pos
    }

    /// Synthetic zero bytes handed out past the end of input — nonzero
    /// means the stream was truncated relative to the symbols requested.
    pub fn overrun_bytes(&self) -> usize {
        self.synthetic
    }

    /// Per-lane final-state check: a clean, complete decode returns every
    /// lane to exactly [`RANS_L`] (the encoder's initial state) with no
    /// synthetic input. False means the stream was corrupt or the caller
    /// drove the wrong `(lane, table)` sequence.
    pub fn finished(&self) -> bool {
        self.synthetic == 0 && self.states == [RANS_L; LANES]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol_model::FreqTable;
    use rand::Rng;

    fn table(counts: &[u32]) -> FreqTable {
        FreqTable::from_counts(counts)
    }

    /// Encode with `lane = i % LANES`, decode the same way, assert clean
    /// completion.
    fn round_trip(symbols: &[usize], table: &FreqTable) -> Vec<usize> {
        let mut enc = Encoder::new();
        for (i, &s) in symbols.iter().enumerate() {
            enc.encode(i % LANES, table, s);
        }
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        let out: Vec<usize> = (0..symbols.len())
            .map(|i| dec.decode(i % LANES, table))
            .collect();
        assert_eq!(dec.bytes_consumed(), bytes.len());
        assert_eq!(dec.overrun_bytes(), 0);
        assert!(dec.finished(), "lanes must flush back to RANS_L");
        out
    }

    #[test]
    fn round_trip_uniform_alphabet() {
        let table = table(&vec![1u32; 256]);
        let symbols: Vec<usize> = (0..1000).map(|i| (i * 31) % 256).collect();
        assert_eq!(round_trip(&symbols, &table), symbols);
    }

    #[test]
    fn round_trip_skewed_alphabet() {
        let table = table(&[1000, 10, 5, 1]);
        let symbols = vec![0, 0, 0, 1, 0, 2, 0, 0, 3, 0, 0, 0, 1, 0];
        assert_eq!(round_trip(&symbols, &table), symbols);
    }

    #[test]
    fn decode4_matches_scalar_decode() {
        let t0 = table(&[100, 1, 1, 1]);
        let t1 = table(&[1, 100, 1, 1]);
        let t2 = table(&[1, 1, 100, 1]);
        let t3 = table(&vec![1u32; 256]);
        let tables = [&t0, &t1, &t2, &t3];
        let symbols: Vec<usize> = (0..4000).map(|i| (i * 7) % 4).collect();
        let mut enc = Encoder::new();
        for (i, &s) in symbols.iter().enumerate() {
            enc.encode(i % LANES, tables[i % LANES], s);
        }
        let bytes = enc.finish();
        // Scalar route.
        let mut dec = Decoder::new(&bytes);
        let scalar: Vec<usize> = (0..symbols.len())
            .map(|i| dec.decode(i % LANES, tables[i % LANES]))
            .collect();
        assert!(dec.finished());
        // Batched route.
        let mut dec = Decoder::new(&bytes);
        let mut batched = Vec::with_capacity(symbols.len());
        for _ in 0..symbols.len() / LANES {
            batched.extend(dec.decode4([&t0, &t1, &t2, &t3]));
        }
        assert!(dec.finished());
        assert_eq!(scalar, symbols);
        assert_eq!(batched, symbols);
    }

    /// The forward `Encoder` over the same rows — every quotient the
    /// hardware's: the reference [`encode_rows`] must equal byte for byte.
    fn forward(indices: &[u8], head: &[&FreqTable], tail: &[&FreqTable]) -> Vec<u8> {
        let mut enc = Encoder::new();
        for (r, row) in indices.chunks(head.len()).enumerate() {
            let tables = if r == 0 { head } else { tail };
            for (c, &i) in row.iter().enumerate() {
                enc.encode(c % LANES, tables[c], usize::from(i));
            }
        }
        enc.finish()
    }

    #[test]
    fn reverse_kernel_matches_the_forward_encoder() {
        // Alphabets around the hot window's fifteen symbols (shorter,
        // exactly, one more) and the codec's 256, peaked and uniform; one
        // to nine channels, so every lane-tail length behind zero, one and
        // two full blocks; one to five rows. `words` is shared across all
        // of it, as the codec shares it across chunks.
        let mut rng = cachegen_tensor::rng::seeded(23);
        let mut words = Vec::new();
        for alpha in [1usize, 2, 14, 15, 16, 256] {
            let peaked = |mode: usize| -> FreqTable {
                let counts: Vec<u32> = (0..alpha)
                    .map(|i| 2_000_000u32 >> (2 * i.abs_diff(mode)).min(31))
                    .collect();
                table(&counts)
            };
            let pool = [
                FreqTable::uniform(alpha),
                peaked(0),
                peaked(alpha / 2),
                peaked(alpha - 1),
            ];
            for channels in 1..=9usize {
                for rows in 1..=5usize {
                    let pick = |rng: &mut rand::rngs::StdRng| -> Vec<&FreqTable> {
                        (0..channels)
                            .map(|_| &pool[rng.gen::<usize>() % pool.len()])
                            .collect()
                    };
                    let (head, tail) = (pick(&mut rng), pick(&mut rng));
                    let indices: Vec<u8> = (0..rows * channels)
                        .map(|_| (rng.gen::<usize>() % alpha) as u8)
                        .collect();
                    let bytes = encode_rows(&indices, &head, &tail, &mut words);
                    assert_eq!(
                        bytes,
                        forward(&indices, &head, &tail),
                        "alphabet {alpha}, {rows} rows × {channels} channels"
                    );
                    let mut dec = Decoder::new(&bytes);
                    for (r, row) in indices.chunks(channels).enumerate() {
                        let tables = if r == 0 { &head } else { &tail };
                        for (c, &i) in row.iter().enumerate() {
                            assert_eq!(dec.decode(c % LANES, tables[c]), usize::from(i));
                        }
                    }
                    assert!(dec.finished() && dec.bytes_consumed() == bytes.len());
                    // Whole rows, through either resolve.
                    for kind in [SymKind::Anchor, SymKind::Delta] {
                        let mut dec = Decoder::new(&bytes);
                        let mut out = vec![0u8; channels];
                        for (r, row) in indices.chunks(channels).enumerate() {
                            dec.decode_row(kind, if r == 0 { &head } else { &tail }, &mut out);
                            assert_eq!(out, row, "{kind:?} row {r}");
                        }
                        assert!(dec.finished() && dec.bytes_consumed() == bytes.len());
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "symbol outside the alphabet")]
    fn reverse_kernel_rejects_an_index_past_a_short_alphabet() {
        // Index 3 of a three-symbol table is inside the hot window's
        // fifteen slots but names no symbol.
        let t = table(&[5, 1, 2]);
        encode_rows(&[0, 3], &[&t, &t], &[&t, &t], &mut Vec::new());
    }

    #[test]
    fn per_symbol_context_switching() {
        let t0 = table(&[10, 1, 1, 1]);
        let t1 = table(&[1, 1, 1, 10]);
        let symbols: Vec<usize> = (0..500).map(|i| if i % 2 == 0 { 0 } else { 3 }).collect();
        let mut enc = Encoder::new();
        for (i, &s) in symbols.iter().enumerate() {
            enc.encode(i % LANES, if i % 2 == 0 { &t0 } else { &t1 }, s);
        }
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        for (i, &s) in symbols.iter().enumerate() {
            assert_eq!(dec.decode(i % LANES, if i % 2 == 0 { &t0 } else { &t1 }), s);
        }
        assert!(dec.finished());
    }

    #[test]
    fn skewed_distribution_compresses_below_fixed_width() {
        let table = table(&[970, 10, 10, 10]);
        let mut rng = cachegen_tensor::rng::seeded(11);
        let symbols: Vec<usize> = (0..10_000)
            .map(|_| {
                let r: f32 = rng.gen();
                if r < 0.97 {
                    0
                } else {
                    1 + (rng.gen::<u32>() % 3) as usize
                }
            })
            .collect();
        let mut enc = Encoder::new();
        for (i, &s) in symbols.iter().enumerate() {
            enc.encode(i % LANES, &table, s);
        }
        let bytes = enc.finish();
        let payload_bits = (bytes.len() - STATE_BYTES) as f64 * 8.0;
        let bits_per_symbol = payload_bits / symbols.len() as f64;
        assert!(
            bits_per_symbol < 0.5,
            "expected <0.5 bits/symbol, got {bits_per_symbol:.3}"
        );
        let mut dec = Decoder::new(&bytes);
        for (i, &s) in symbols.iter().enumerate() {
            assert_eq!(dec.decode(i % LANES, &table), s);
        }
        assert!(dec.finished());
    }

    #[test]
    fn empty_stream_is_state_header_only() {
        let enc = Encoder::new();
        let bytes = enc.finish();
        assert_eq!(bytes.len(), STATE_BYTES);
        let dec = Decoder::new(&bytes);
        assert!(dec.finished());
        assert_eq!(dec.bytes_consumed(), STATE_BYTES);
    }

    #[test]
    fn random_streams_round_trip() {
        let mut rng = cachegen_tensor::rng::seeded(99);
        for trial in 0..40 {
            let alpha = 2 + (trial % 16);
            let counts: Vec<u32> = (0..alpha).map(|_| 1 + rng.gen::<u32>() % 100).collect();
            let table = table(&counts);
            let n = 1 + (rng.gen::<usize>() % 2000);
            let symbols: Vec<usize> = (0..n).map(|_| rng.gen::<usize>() % alpha).collect();
            assert_eq!(round_trip(&symbols, &table), symbols, "trial {trial}");
        }
    }

    #[test]
    fn near_max_total_tables_round_trip() {
        let counts: Vec<u32> = (0..256)
            .map(|i| if i % 2 == 0 { u32::MAX / 64 } else { 0 })
            .collect();
        let table = table(&counts);
        let symbols: Vec<usize> = (0..4_000).map(|i| (i * 2) % 256).collect();
        assert_eq!(round_trip(&symbols, &table), symbols);
    }

    #[test]
    fn any_truncation_is_observable() {
        let table = table(&vec![1u32; 256]);
        let symbols: Vec<usize> = (0..2_000).map(|i| (i * 131) % 256).collect();
        let mut enc = Encoder::new();
        for (i, &s) in symbols.iter().enumerate() {
            enc.encode(i % LANES, &table, s);
        }
        let bytes = enc.finish();
        // The decoder follows the clean read path until the first missing
        // byte, so every proper prefix ends in synthetic input.
        for cut in [
            0,
            1,
            STATE_BYTES - 1,
            STATE_BYTES,
            bytes.len() / 2,
            bytes.len() - 1,
        ] {
            let mut dec = Decoder::new(&bytes[..cut]);
            for i in 0..symbols.len() {
                dec.decode(i % LANES, &table);
            }
            assert!(
                dec.overrun_bytes() > 0,
                "truncation to {cut} bytes must be observable"
            );
            assert!(!dec.finished());
            assert_eq!(dec.bytes_consumed(), cut);
        }
    }

    #[test]
    fn corrupt_words_fail_the_final_state_check() {
        let table = table(&[500, 30, 9, 2, 1]);
        let symbols: Vec<usize> = (0..3_000).map(|i| (i * i) % 5).collect();
        let mut enc = Encoder::new();
        for (i, &s) in symbols.iter().enumerate() {
            enc.encode(i % LANES, &table, s);
        }
        let bytes = enc.finish();
        let mut rng = cachegen_tensor::rng::seeded(7);
        for _ in 0..20 {
            let mut damaged = bytes.clone();
            let at = rng.gen::<usize>() % damaged.len();
            damaged[at] ^= 1 << (rng.gen::<u32>() % 8);
            let mut dec = Decoder::new(&damaged);
            for i in 0..symbols.len() {
                dec.decode(i % LANES, &table);
            }
            let clean_length = dec.overrun_bytes() == 0 && dec.bytes_consumed() == damaged.len();
            assert!(
                !(clean_length && dec.finished()),
                "corruption at byte {at} slipped every check"
            );
        }
    }

    #[test]
    fn compression_is_close_to_the_shannon_bound() {
        // Coding efficiency against the table's own ideal code length,
        // Σ −log₂(f / 2²⁴): within 2% plus the fixed state header.
        let freq = FreqTable::from_counts(&[900, 50, 25, 12, 6, 3, 2, 1]);
        let mut rng = cachegen_tensor::rng::seeded(5);
        let symbols: Vec<usize> = (0..20_000)
            .map(|_| (rng.gen::<u32>() % 8) as usize)
            .collect();
        let mut enc = Encoder::new();
        let mut shannon_bits = 0.0f64;
        for (i, &s) in symbols.iter().enumerate() {
            enc.encode(i % LANES, &freq, s);
            let (lo, hi) = freq.range(s);
            shannon_bits -= ((hi - lo) as f64 / MAX_TOTAL as f64).log2();
        }
        let rans_len = enc.finish().len() as f64;
        let shannon_len = shannon_bits / 8.0;
        assert!(
            rans_len < shannon_len * 1.02 + STATE_BYTES as f64,
            "rANS stream {rans_len}B vs Shannon bound {shannon_len:.0}B"
        );
    }
}
