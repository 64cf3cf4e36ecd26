//! Static symbol-frequency models for the arithmetic coder.
//!
//! §5.2: "our KV encoder offline profiles a separate probability distribution
//! for each channel-layer combination of delta tensors and another for anchor
//! tensors produced by an LLM, and uses the same distributions for all KV
//! caches produced by the same LLM." §7.5 reports that channel-layer grouping
//! shrinks bitstreams by up to 53% versus one global distribution — the
//! [`ModelGranularity`] enum exposes the intermediate strategies so the
//! Figure 15 ablation can be regenerated.

use crate::ALPHABET;

/// Every table's total frequency mass, exactly: `2^TOTAL_BITS`. A fixed
/// power-of-two total turns the rANS decoder's split of a state into
/// quotient and probability-mass slot into a shift and a mask
/// ([`crate::rans`]).
pub const TOTAL_BITS: u32 = 24;

/// `1 << TOTAL_BITS` — the exact total of every [`FreqTable`].
pub const MAX_TOTAL: u64 = 1 << TOTAL_BITS;

/// Boundaries per rank step: sixteen `u32`s are one cache line, and a
/// fixed sixteen are searched in four compare-and-add steps with no
/// data-dependent branch.
const LINE: usize = 16;

/// Largest alphabet the two-level rank covers (`LINE` blocks of `LINE`
/// symbols); wider alphabets binary-search the cumulative array.
const RANKED: usize = LINE * LINE;

/// Symbols the hot window covers: `LINE` boundaries enclose `LINE - 1`.
const HOT_SYMBOLS: usize = LINE - 1;

/// Slices of the hot window's index: its span in this many equal
/// power-of-two slices.
const BUCKETS: usize = 32;

/// An index entry whose slice straddles more than three window symbols:
/// the slice is resolved by [`rank16`].
const WIDE: u8 = u8::MAX;

/// The hot window's index: the shift that cuts `[hot[0], hot[15])` into
/// [`BUCKETS`] equal slices (the smallest that fits), and per slice the
/// window rank `k ≤ 13` of its first value when every value of the slice
/// has rank `k`, `k + 1` or `k + 2`, else [`WIDE`].
///
/// One merge pass: the ranks of a slice's first and last value only move
/// forward as the slices do.
fn hot_index(hot: &[u32; LINE]) -> (u8, [u8; BUCKETS]) {
    let span = hot[LINE - 1] - hot[0];
    let over = (span - 1) >> BUCKETS.ilog2();
    let shift = u32::BITS - over.leading_zeros();
    let mut index = [WIDE; BUCKETS];
    // Offsets from hot[0]: `offset[k]` is where window rank k begins.
    let offset = hot.map(|h| h - hot[0]);
    let (mut first_rank, mut last_rank) = (0, 0);
    for (j, entry) in (0u32..).zip(&mut index) {
        let first = j << shift;
        if first >= span {
            break;
        }
        let last = (first + ((1 << shift) - 1)).min(span - 1);
        while offset[first_rank + 1] <= first {
            first_rank += 1;
        }
        last_rank = last_rank.max(first_rank);
        while offset[last_rank + 1] <= last {
            last_rank += 1;
        }
        if last_rank - first_rank <= 2 {
            *entry = first_rank.min(LINE - 3) as u8;
        }
    }
    (shift as u8, index)
}

/// How many of a line's ascending boundaries are `≤ v`, given that the
/// last one is not (every caller passes a line whose sixteenth entry
/// bounds `v` from above, so it is never read). A fixed-depth binary
/// search: on the baseline x86-64 target it compiles to four
/// `cmp`/`setbe`/`lea` steps, a fraction of the instructions of a
/// sixteen-wide SSE2 compare-and-count (which has no `popcnt` to finish
/// with there) and measurably faster on whole-context decode.
#[inline(always)]
fn rank16(bounds: &[u32; LINE], v: u32) -> usize {
    let mut k = 0usize;
    k += 8 * usize::from(bounds[k + 7] <= v);
    k += 4 * usize::from(bounds[k + 3] <= v);
    k += 2 * usize::from(bounds[k + 1] <= v);
    k + usize::from(bounds[k] <= v)
}

/// A cumulative frequency table over a fixed alphabet, with total mass
/// exactly [`MAX_TOTAL`] — the table type the rANS coder reads.
///
/// Frequencies are stored as a `u32` cumulative array `cum[0..=n]` with
/// `cum[i+1] > cum[i]` guaranteed (every symbol gets at least one count —
/// Laplace smoothing — so unseen symbols remain encodable). Decoding
/// inverts a scaled code value to its symbol without scanning, through one
/// of two resolves, each touching at most three cache lines:
///
/// * the **hot window** (`FreqTable::resolve`, delta rows) — the sixteen
///   boundaries around the heaviest fifteen consecutive symbols (the
///   first such run on ties), held inline in the table's first cache
///   line. A peaked distribution (every delta table; ~89% of all symbols
///   of a context) resolves there, and the same line yields the symbol's
///   start and frequency. A 32-slot `u8` index over the window's span
///   `[hot[0], hot[15])`, in equal slices of `2^shift` values (the
///   smallest `shift` that fits the span), names for most slices a rank
///   within two of every value in it, so two compares finish the
///   resolve; a slice that straddles more symbols falls back to a
///   four-step rank of the whole window;
/// * the **two-level rank** ([`FreqTable::find`], anchor rows and
///   whatever misses the window) — sixteen inline block pivots pick one of
///   sixteen 16-symbol blocks of `cum`, and a second rank inside the
///   block picks the symbol. Alphabets beyond 256 binary-search `cum`.
///
/// Three lines, 192 bytes: the window, the pivots, and one line holding
/// the window's first symbol and the alphabet size (`u16` each), the
/// index's shift, the boxed `cum`, the boxed encode-side reciprocals and
/// the 32-slot index. A model set is an array of tables and decode walks
/// it at whatever stride a table has, so the index took the slack of the
/// third line rather than a fourth.
///
/// Encoding (`FreqTable::code`) reads a symbol's start and frequency —
/// from the hot window when the symbol is in it, else `cum[s]` and
/// `cum[s+1]` — and, **for the hot window only**, a precomputed 64-bit
/// reciprocal and shift that turn the rANS step's `x / f` into one
/// multiply-high (`HotReciprocals`, boxed: the table itself stays the
/// three lines decode walks).
///
/// The whole table is ~1.4 KB with its heap parts, so a level's full
/// per-(layer, channel) model set stays cache-resident while an entropy
/// chunk walks it round-robin.
#[derive(Clone, Debug, PartialEq, Eq)]
#[repr(C, align(64))]
pub struct FreqTable {
    /// `cum[hot_base + i]` for `i in 0..16`, clamped to `cum[n]` past the
    /// end of a short alphabet.
    hot: [u32; LINE],
    /// `pivots[j] = cum[16 · (j + 1)]` (clamped likewise): block `j`
    /// ends where pivot `j` begins.
    pivots: [u32; LINE],
    /// First symbol of the hot window.
    hot_base: u16,
    /// Alphabet size `n`.
    len: u16,
    /// Slice `j` of the hot window's index holds the values `hot[0] + (j
    /// << shift) ..` (see `hot_index`).
    shift: u8,
    /// `cum[0..=n]`, padded with the total to a whole number of lines
    /// past index 0 so every block slice is a full sixteen entries.
    cum: Box<[u32]>,
    /// Encode-side only, and behind a pointer so that it is.
    reciprocals: Box<HotReciprocals>,
    /// The hot window's index (see `hot_index`).
    buckets: [u8; BUCKETS],
}

/// The encode-side part of a [`FreqTable`]: for each symbol of its hot
/// window, the 64-bit reciprocal and shift that turn the rANS step's
/// `x / f` into one multiply-high.
///
/// Only the window: fifteen reciprocals are 136 bytes, a reciprocal for
/// every symbol would be 2–4 KB per table and lose to cold-table misses
/// the way the alias layout did (the codec walks 128 of 7,680 tables per
/// entropy chunk), so the ~11% of symbols outside the window keep the
/// hardware divide. And out of line: held inline, these bytes took a
/// table from 192 to 320 and whole-context *decode* got 1.4% slower
/// (`load_clean`, 5 of 6 alternating pairs; +0.8% with decode's lines
/// moved together) — a model set is an array of tables, and decode walks
/// it at whatever stride a table has. Behind the box a table is still
/// the three lines it was, at ~3% of an encode call.
#[derive(Clone, Debug, PartialEq, Eq)]
struct HotReciprocals {
    /// `ceil(log2 f)` of hot symbol `i`'s frequency `f`; see `rcp`.
    shift: [u8; HOT_SYMBOLS],
    /// `ceil(2^(63 + shift) / f)` of hot symbol `i`'s frequency, so that
    /// `x / f == mulhi(2x, rcp) >> shift` for every `x < 2^63`
    /// (`SymbolCode::quotient`). A valid reciprocal is at least `2^63`;
    /// zero marks a slot past the end of an alphabet shorter than the
    /// window, where there is no symbol and `f` is 0.
    rcp: [u64; HOT_SYMBOLS],
}

impl HotReciprocals {
    /// The reciprocals of a hot window, given its sixteen boundaries.
    fn of(hot: &[u32; LINE]) -> Self {
        let codes: [Option<SymbolCode>; HOT_SYMBOLS] = std::array::from_fn(|i| {
            let f = hot[i + 1] - hot[i];
            (f > 0).then(|| SymbolCode::with_reciprocal(hot[i], f))
        });
        HotReciprocals {
            shift: codes.map(|c| c.map_or(0, |c| c.shift as u8)),
            rcp: codes.map(|c| c.map_or(0, |c| c.rcp)),
        }
    }
}

/// What the rANS encode step needs of one symbol: its slice `[start,
/// start + freq)` of the probability mass and, when the table holds one,
/// the reciprocal that replaces the division by `freq`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SymbolCode {
    pub(crate) start: u32,
    /// `1..=2^TOTAL_BITS`.
    pub(crate) freq: u32,
    /// Zero: none held, divide.
    rcp: u64,
    shift: u32,
}

impl SymbolCode {
    /// The code of a symbol of frequency `freq` at `start` with no
    /// reciprocal: [`SymbolCode::quotient`] divides in hardware.
    pub(crate) fn by_division(start: u32, freq: u32) -> Self {
        SymbolCode {
            start,
            freq,
            rcp: 0,
            shift: 0,
        }
    }

    /// The code of a symbol of frequency `freq` at `start`, reciprocal
    /// included. Alverson's round-up reciprocal: with `s = ceil(log2 f)`
    /// and `m = ceil(2^(63+s) / f)`, the error `m·f − 2^(63+s)` is below
    /// `f ≤ 2^s`, so `floor(x·m / 2^(63+s))` is `floor(x / f)` for every
    /// `x < 2^63` — and a rANS state is below `2^63` when it is divided.
    /// `m` is in `[2^63, 2^64)`; doubling `x` instead of halving the
    /// shift lets `f = 1` (`s = 0`, `m = 2^63`) through the same formula.
    fn with_reciprocal(start: u32, freq: u32) -> Self {
        assert!(
            freq >= 1 && u64::from(freq) <= MAX_TOTAL,
            "frequency out of range"
        );
        let shift = u32::BITS - (freq - 1).leading_zeros();
        let f = u128::from(freq);
        let rcp = (1u128 << (63 + shift)).div_ceil(f);
        SymbolCode {
            start,
            freq,
            rcp: rcp as u64,
            shift,
        }
    }

    /// `x / freq` for a rANS state `x < 2^63`: one multiply-high when the
    /// table held a reciprocal for this symbol, the hardware divide when
    /// not.
    #[inline(always)]
    pub(crate) fn quotient(self, x: u64) -> u64 {
        debug_assert!(x < 1 << 63);
        let q = if self.rcp != 0 {
            ((u128::from(x << 1) * u128::from(self.rcp)) >> 64) as u64 >> self.shift
        } else {
            x / u64::from(self.freq)
        };
        debug_assert_eq!(q, x / u64::from(self.freq));
        q
    }
}

impl FreqTable {
    /// Builds a table from raw per-symbol counts.
    ///
    /// Observed counts are weighted 64× against a +1 Laplace floor so that
    /// unseen symbols stay encodable without flattening the distribution
    /// (a 1:1 floor over a 256-symbol alphabet would dominate small
    /// profiles and destroy the compression gain). The weighted counts are
    /// then renormalized **exactly** to a total of [`MAX_TOTAL`]: one
    /// count is reserved per symbol, the rest of the budget is split
    /// proportionally with floor division, and the remainder goes to the
    /// most frequent symbol (minimal relative distortion). The old
    /// proportional downscale applied `.max(1)` after scaling, so the
    /// rescaled total could overshoot the precision bound and skew symbol
    /// probabilities for large profiles; the exact renormalization cannot.
    pub fn from_counts(counts: &[u32]) -> Self {
        assert!(!counts.is_empty(), "empty alphabet");
        assert!(
            counts.len() <= u16::MAX as usize && (counts.len() as u64) < MAX_TOTAL,
            "alphabet larger than the precision budget"
        );
        const DATA_WEIGHT: u64 = 64;
        let n = counts.len();
        let raw_total: u64 = counts.iter().map(|&c| u64::from(c) * DATA_WEIGHT + 1).sum();
        let budget = MAX_TOTAL - n as u64;
        let mut cum = Vec::with_capacity(n.next_multiple_of(LINE) + 1);
        cum.push(0u32);
        let mut acc = 0u64;
        let mut largest = (0usize, 0u64);
        for (i, &c) in counts.iter().enumerate() {
            let weighted = u64::from(c) * DATA_WEIGHT + 1;
            // weighted ≤ 2³⁸ and budget < 2²⁴, so the product fits u64.
            let share = 1 + weighted * budget / raw_total;
            if share > largest.1 {
                largest = (i, share);
            }
            acc += share;
            cum.push(acc as u32);
        }
        // Floor rounding leaves ≤ n spare counts; hand them to the most
        // frequent symbol so the total is exactly MAX_TOTAL.
        let leftover = (MAX_TOTAL - acc) as u32;
        for c in &mut cum[largest.0 + 1..] {
            *c += leftover;
        }
        assert_eq!(
            u64::from(cum[n]),
            MAX_TOTAL,
            "renormalized total must land exactly on the coder precision budget"
        );
        cum.resize(n.next_multiple_of(LINE) + 1, MAX_TOTAL as u32);
        let at = |i: usize| cum[i.min(n)];
        // The heaviest run of HOT_SYMBOLS consecutive symbols (first on
        // ties); an alphabet that short is covered whole.
        let hot_base = (0..=n.saturating_sub(HOT_SYMBOLS))
            .max_by_key(|&b| (at(b + HOT_SYMBOLS) - cum[b], std::cmp::Reverse(b)))
            .unwrap_or(0);
        let hot = std::array::from_fn(|i| at(hot_base + i));
        let (shift, buckets) = hot_index(&hot);
        FreqTable {
            hot,
            pivots: std::array::from_fn(|j| at(LINE * (j + 1))),
            hot_base: hot_base as u16,
            len: n as u16,
            shift,
            cum: cum.into_boxed_slice(),
            reciprocals: Box::new(HotReciprocals::of(&hot)),
            buckets,
        }
    }

    /// Uniform table over `n` symbols.
    pub fn uniform(n: usize) -> Self {
        FreqTable::from_counts(&vec![1u32; n])
    }

    /// Alphabet size.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the alphabet is empty (never true for constructed tables).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total frequency mass.
    pub fn total(&self) -> u64 {
        MAX_TOTAL
    }

    /// Cumulative range `[lo, hi)` of a symbol index.
    pub fn range(&self, index: usize) -> (u64, u64) {
        let (start, freq) = self.span(index);
        (u64::from(start), u64::from(start) + u64::from(freq))
    }

    /// `(start, frequency)` of a symbol index: two adjacent words of
    /// `cum`.
    #[inline]
    pub(crate) fn span(&self, index: usize) -> (u32, u32) {
        assert!(index < self.len(), "symbol outside the alphabet");
        (self.cum[index], self.cum[index + 1] - self.cum[index])
    }

    /// What the rANS encoder reads of a table for one symbol index. A hot
    /// symbol comes with its reciprocal; every other index — cold, or past
    /// the end of an alphabet shorter than the window, whose slots hold no
    /// reciprocal — goes through [`FreqTable::span`] and its alphabet
    /// assert.
    #[inline(always)]
    pub(crate) fn code(&self, index: usize) -> SymbolCode {
        let k = index.wrapping_sub(usize::from(self.hot_base));
        if k < HOT_SYMBOLS && self.reciprocals.rcp[k] != 0 {
            return SymbolCode {
                start: self.hot[k],
                freq: self.hot[k + 1] - self.hot[k],
                rcp: self.reciprocals.rcp[k],
                shift: u32::from(self.reciprocals.shift[k]),
            };
        }
        let (start, freq) = self.span(index);
        SymbolCode::by_division(start, freq)
    }

    /// Finds the symbol whose cumulative range contains `scaled`, through
    /// the two-level rank (the resolve anchor rows decode with).
    ///
    /// # Panics
    ///
    /// If `scaled` is not below [`MAX_TOTAL`].
    pub fn find(&self, scaled: u64) -> usize {
        assert!(scaled < MAX_TOTAL, "scaled value outside the table's mass");
        self.rank(scaled as u32).0
    }

    /// Resolves a scaled code value to `(symbol, start, frequency)`, hot
    /// window first — the per-symbol path of a delta row, whose peaked
    /// tables resolve there ~89% of the time.
    ///
    /// In the window, the index slice of `scaled` names a rank `k` and two
    /// compares against `hot[k + 1]` and `hot[k + 2]` finish; a
    /// [`WIDE`] slice ranks the whole window. Outside it, the two-level
    /// rank runs out of line: kept inline, its instructions crowd the hot
    /// path of every symbol for the ~11% that need them.
    #[inline(always)]
    pub(crate) fn resolve(&self, scaled: u32) -> (usize, u32, u32) {
        let hot = &self.hot;
        let offset = scaled.wrapping_sub(hot[0]);
        if offset < hot[LINE - 1] - hot[0] {
            // hot[0] ≤ scaled < hot[15]: the rank is in 0..=14, and an
            // index entry is at most 13 (`hot_index`), so the masks below
            // only spare the bounds checks.
            let k = match self.buckets[(offset >> self.shift) as usize % BUCKETS] {
                WIDE => rank16(hot, scaled) - 1,
                k => {
                    let k = usize::from(k);
                    k + usize::from(hot[(k + 1) % LINE] <= scaled)
                        + usize::from(hot[(k + 2) % LINE] <= scaled)
                }
            };
            let (start, end) = (hot[k % LINE], hot[(k + 1) % LINE]);
            return (usize::from(self.hot_base) + k, start, end - start);
        }
        self.rank_cold(scaled)
    }

    /// [`FreqTable::rank`] out of line, for the values a delta row's hot
    /// window misses.
    #[cold]
    #[inline(never)]
    fn rank_cold(&self, scaled: u32) -> (usize, u32, u32) {
        self.rank(scaled)
    }

    /// Resolves a scaled code value to `(symbol, start, frequency)` through
    /// the two-level rank alone — the per-symbol path of an anchor row.
    /// Anchor tables are wide (8-bit precision), so more than half their
    /// symbols would miss the hot window and a window-first resolve would
    /// branch on a coin flip; this path has no data-dependent branch.
    #[inline(always)]
    pub(crate) fn rank(&self, scaled: u32) -> (usize, u32, u32) {
        let n = self.len();
        let s = if n <= RANKED {
            // Pivots and block entries at or past `cum[n]` equal the
            // total, which no scaled value reaches, so padding never
            // counts and `s < n`; the last pivot is `cum[n]` itself and a
            // block's last entry is the pivot that selected it.
            let lo = LINE * rank16(&self.pivots, scaled);
            match self.cum[lo + 1..].first_chunk::<LINE>() {
                Some(block) => lo + rank16(block, scaled),
                None => unreachable!("cum is padded to whole blocks"),
            }
        } else {
            self.cum[1..n].partition_point(|&c| c <= scaled)
        };
        (s, self.cum[s], self.cum[s + 1] - self.cum[s])
    }
}

/// How symbol distributions are grouped when profiling (Figure 15 ablation;
/// the paper's design is [`ModelGranularity::PerChannelLayer`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelGranularity {
    /// One distribution for the whole model (the strawman of §7.5).
    Global,
    /// One distribution per layer.
    PerLayer,
    /// One distribution per channel (shared across layers).
    PerChannel,
    /// One distribution per (layer, channel) pair — CacheGen's choice.
    PerChannelLayer,
}

/// A set of frequency tables indexed by (layer, channel) at a chosen
/// granularity.
#[derive(Clone, Debug)]
pub struct SymbolModelSet {
    granularity: ModelGranularity,
    layers: usize,
    channels: usize,
    tables: Vec<FreqTable>,
}

/// Symbol occurrence counts at a chosen granularity — what profiling
/// accumulates, row of alphabet indices by row, and then turns into a
/// [`SymbolModelSet`].
pub(crate) struct SymbolCounts {
    granularity: ModelGranularity,
    layers: usize,
    channels: usize,
    counts: Vec<[u32; ALPHABET]>,
}

impl SymbolCounts {
    pub(crate) fn new(granularity: ModelGranularity, layers: usize, channels: usize) -> Self {
        let ntables = match granularity {
            ModelGranularity::Global => 1,
            ModelGranularity::PerLayer => layers,
            ModelGranularity::PerChannel => channels,
            ModelGranularity::PerChannelLayer => layers * channels,
        };
        SymbolCounts {
            granularity,
            layers,
            channels,
            counts: vec![[0u32; ALPHABET]; ntables],
        }
    }

    /// Counts one occurrence of alphabet index `index` at (layer, channel).
    pub(crate) fn record(&mut self, layer: usize, channel: usize, index: u8) {
        let t = table_index(self.granularity, self.layers, self.channels, layer, channel);
        let count = &mut self.counts[t][usize::from(index)];
        *count = count.saturating_add(1);
    }

    /// Counts whole rows of one layer: index `i` of `rows` belongs to
    /// channel `i % channels`.
    pub(crate) fn record_rows(&mut self, layer: usize, rows: &[u8]) {
        for row in rows.chunks(self.channels) {
            for (channel, &index) in row.iter().enumerate() {
                self.record(layer, channel, index);
            }
        }
    }

    /// One [`FreqTable`] per count table.
    pub(crate) fn into_models(self) -> SymbolModelSet {
        SymbolModelSet {
            granularity: self.granularity,
            layers: self.layers,
            channels: self.channels,
            tables: self
                .counts
                .iter()
                .map(|c| FreqTable::from_counts(c))
                .collect(),
        }
    }
}

impl SymbolModelSet {
    /// The table to use for a given (layer, channel).
    pub fn table(&self, layer: usize, channel: usize) -> &FreqTable {
        &self.tables[table_index(self.granularity, self.layers, self.channels, layer, channel)]
    }

    /// All per-channel tables of one layer, resolved once. Hot symbol loops
    /// index this slice directly instead of re-deriving the granularity
    /// routing per symbol.
    pub fn layer_tables(&self, layer: usize) -> Vec<&FreqTable> {
        (0..self.channels).map(|c| self.table(layer, c)).collect()
    }

    /// The profiling granularity.
    pub fn granularity(&self) -> ModelGranularity {
        self.granularity
    }
}

fn table_index(
    g: ModelGranularity,
    _layers: usize,
    channels: usize,
    layer: usize,
    channel: usize,
) -> usize {
    match g {
        ModelGranularity::Global => 0,
        ModelGranularity::PerLayer => layer,
        ModelGranularity::PerChannel => channel,
        ModelGranularity::PerChannelLayer => layer * channels + channel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol_to_index;

    #[test]
    fn cumulative_ranges_partition_total() {
        // Counts weight 64× with a +1 floor ([3,0,5] → [193, 1, 321]),
        // then renormalize exactly onto the 2²⁴ budget: ranges tile
        // [0, MAX_TOTAL) with proportions preserved to floor rounding.
        let t = FreqTable::from_counts(&[3, 0, 5]);
        assert_eq!(t.total(), MAX_TOTAL);
        assert_eq!(t.range(0).0, 0);
        for i in 1..t.len() {
            assert_eq!(t.range(i).0, t.range(i - 1).1, "ranges must tile");
        }
        assert_eq!(t.range(t.len() - 1).1, MAX_TOTAL);
        let width = |i: usize| {
            let (lo, hi) = t.range(i);
            (hi - lo) as f64
        };
        // Proportions ≈ 193 : 1 : 321 of the total mass.
        let total = MAX_TOTAL as f64;
        assert!((width(0) / total - 193.0 / 515.0).abs() < 1e-3);
        assert!((width(1) / total - 1.0 / 515.0).abs() < 1e-3);
        assert!((width(2) / total - 321.0 / 515.0).abs() < 1e-3);
    }

    #[test]
    fn large_profiles_renormalize_exactly_to_budget() {
        // Regression: the old proportional downscale applied `.max(1)`
        // after scaling, so alphabets with many unseen symbols could
        // overshoot MAX_TOTAL. The exact renormalization cannot.
        let counts: Vec<u32> = (0..ALPHABET)
            .map(|i| if i % 2 == 0 { u32::MAX / 64 } else { 0 })
            .collect();
        let t = FreqTable::from_counts(&counts);
        assert_eq!(
            t.total(),
            MAX_TOTAL,
            "renormalization must land exactly on the budget"
        );
        for i in 0..t.len() {
            let (lo, hi) = t.range(i);
            assert!(hi > lo, "symbol {i} lost its count");
        }
        // Probability mass still reflects the skew: seen symbols dwarf
        // unseen ones.
        let (lo0, hi0) = t.range(0);
        let (lo1, hi1) = t.range(1);
        assert!((hi0 - lo0) > 1000 * (hi1 - lo1));
    }

    /// A model set counted from `observe`'s `(layer, channel, symbol)`
    /// calls.
    fn build_set(
        granularity: ModelGranularity,
        layers: usize,
        channels: usize,
        observe: impl FnOnce(&mut dyn FnMut(usize, usize, i32)),
    ) -> SymbolModelSet {
        let mut counts = SymbolCounts::new(granularity, layers, channels);
        observe(&mut |l, c, sym| counts.record(l, c, symbol_to_index(sym) as u8));
        counts.into_models()
    }

    #[test]
    fn layer_tables_match_per_channel_lookup() {
        let set = build_set(ModelGranularity::PerChannelLayer, 3, 5, |rec| {
            for l in 0..3 {
                for c in 0..5 {
                    rec(l, c, (l * 5 + c) as i32);
                }
            }
        });
        for l in 0..3 {
            let tables = set.layer_tables(l);
            assert_eq!(tables.len(), 5);
            for (c, t) in tables.iter().enumerate() {
                assert_eq!(*t, set.table(l, c));
            }
        }
    }

    #[test]
    fn hot_index_names_a_rank_within_two_of_its_whole_slice() {
        let peaked = |n: usize, mode: usize, decay: u32| -> FreqTable {
            let counts: Vec<u32> = (0..n)
                .map(|i| 1_000_000u32 >> (decay * i.abs_diff(mode) as u32).min(31))
                .collect();
            FreqTable::from_counts(&counts)
        };
        let tables = [
            FreqTable::from_counts(&[2, 3, 1, 10]),
            FreqTable::from_counts(&[1_000_000, 0, 0, 1, 7, 0, 900]),
            FreqTable::from_counts(&[1]),
            FreqTable::uniform(14),
            FreqTable::uniform(15),
            FreqTable::uniform(16),
            FreqTable::uniform(256),
            peaked(256, 128, 1),
            peaked(256, 0, 1),
            peaked(256, 255, 2),
            peaked(40, 20, 3),
        ];
        for t in &tables {
            let span = t.hot[LINE - 1] - t.hot[0];
            let fits = |shift: u32| (span - 1) >> shift < BUCKETS as u32;
            let shift = u32::from(t.shift);
            assert!(
                fits(shift) && (shift == 0 || !fits(shift - 1)),
                "smallest shift"
            );
            // The window rank of `hot[0] + offset`, and what both resolves
            // say about it.
            let rank = |offset: u32| rank16(&t.hot, t.hot[0] + offset) - 1;
            for (j, &entry) in (0u32..).zip(&t.buckets) {
                let first = j << shift;
                if first >= span {
                    assert_eq!(entry, WIDE, "slice {j} is past the window");
                    continue;
                }
                let last = (first + ((1 << shift) - 1)).min(span - 1);
                let (lo, hi) = (rank(first), rank(last));
                if entry == WIDE {
                    assert!(hi - lo > 2, "slice {j}: ranks {lo}..={hi} fit two compares");
                } else {
                    let k = usize::from(entry);
                    assert!(
                        k <= LINE - 3 && k <= lo && hi <= k + 2,
                        "slice {j}: {k} vs {lo}..={hi}"
                    );
                }
                for offset in [first.wrapping_sub(1), first, last, last + 1] {
                    let v = t.hot[0].wrapping_add(offset);
                    if u64::from(v) < MAX_TOTAL {
                        assert_eq!(t.resolve(v), t.rank(v), "value {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn find_inverts_range() {
        // Boundaries are where the bucket LUT can go wrong; probe each
        // symbol's first/last/middle values plus the bucket edges.
        let tables = [
            FreqTable::from_counts(&[2, 3, 1, 10]),
            FreqTable::from_counts(&[1_000_000, 0, 0, 1, 7, 0, 900]),
            FreqTable::uniform(256),
            FreqTable::from_counts(&[1]),
        ];
        for t in &tables {
            for i in 0..t.len() {
                let (lo, hi) = t.range(i);
                for s in [lo, (lo + hi) / 2, hi - 1] {
                    assert_eq!(t.find(s), i);
                }
            }
            for b in 0..1u64 << 10 {
                let v = b << (TOTAL_BITS - 10);
                let i = t.find(v);
                let (lo, hi) = t.range(i);
                assert!(lo <= v && v < hi, "bucket edge {v} mapped to {i}");
            }
        }
    }

    // What the reciprocal tests here and in the profile's module read a
    // code through.
    impl SymbolCode {
        pub(crate) fn has_reciprocal(self) -> bool {
            self.rcp != 0
        }

        /// The states the rANS encoder can divide by this code's `f`, at
        /// the ends of the range and either side of a multiple of `f`:
        /// `[RANS_L, f · 2³⁹)` after renormalization (the reciprocal is
        /// exact up to `2⁶³`), and `x / f` steps exactly at `k · f`.
        pub(crate) fn quotient_probes(self) -> Vec<u64> {
            let f = u64::from(self.freq);
            let x_max = f << (63 - TOTAL_BITS);
            let mut xs = vec![1 << 31, x_max - 1, (1 << 63) - 1];
            for k in [1, 2, 3, (1 << 31) / f + 1, 1 << 20, (1 << 39) - 1, 1 << 39] {
                xs.extend([k * f - 1, k * f, k * f + 1]);
            }
            xs.retain(|&x| x < 1 << 63);
            xs
        }
    }

    #[test]
    fn a_table_is_the_three_lines_decode_walks() {
        // Hot window, pivots, and one line of scalars, boxes and the hot
        // window's index: the encode-side reciprocals must stay behind
        // their box (see `HotReciprocals`).
        assert_eq!(std::mem::size_of::<FreqTable>(), 3 * 64);
        assert_eq!(std::mem::align_of::<FreqTable>(), 64);
    }

    #[test]
    fn multiply_high_quotient_is_the_division() {
        let mut freqs = vec![1u32, 2, 3, (1 << 24) - 255, (1 << 24) - 1, 1 << 24];
        for k in 1..24 {
            freqs.extend([(1 << k) - 1, 1 << k, (1 << k) + 1]);
        }
        for f in freqs {
            let code = SymbolCode::with_reciprocal(7, f);
            assert!(
                code.rcp >= 1 << 63,
                "f = {f}: a valid reciprocal has its top bit set"
            );
            assert!(f <= 1 << code.shift && (code.shift == 0 || f > 1 << (code.shift - 1)));
            for x in code.quotient_probes() {
                assert_eq!(code.quotient(x), x / u64::from(f), "f = {f}, x = {x}");
            }
        }
        // The two ends of the issue's list by name: f = 1 is the formula's
        // s = 0, m = 2⁶³ case, not a special one, and f = 2²⁴ is the whole
        // mass of a one-symbol table.
        let one = SymbolCode::with_reciprocal(0, 1);
        assert_eq!((one.rcp, one.shift), (1 << 63, 0));
        let only = FreqTable::from_counts(&[9]).code(0);
        assert_eq!((only.freq, only.rcp, only.shift), (1 << 24, 1 << 63, 24));
    }

    #[test]
    fn hot_window_codes_agree_with_span_and_padding_holds_no_reciprocal() {
        for t in [
            FreqTable::from_counts(&[2, 3, 1, 10]),
            FreqTable::from_counts(&[1_000_000, 0, 0, 1, 7, 0, 900]),
            FreqTable::uniform(14),
            FreqTable::uniform(15),
            FreqTable::uniform(16),
            FreqTable::uniform(256),
            FreqTable::from_counts(&[1]),
        ] {
            let hot = t.hot_base as usize..(t.hot_base as usize + HOT_SYMBOLS).min(t.len());
            for i in 0..t.len() {
                let code = t.code(i);
                assert_eq!((code.start, code.freq), t.span(i), "symbol {i}");
                assert_eq!(
                    code.has_reciprocal(),
                    hot.contains(&i),
                    "symbol {i} of {}",
                    t.len()
                );
            }
            // Slots past a short alphabet have frequency 0: no reciprocal,
            // so `code` falls through to `span`'s assert.
            for k in hot.len()..HOT_SYMBOLS {
                let (rcp, shift) = (t.reciprocals.rcp[k], t.reciprocals.shift[k]);
                assert_eq!((rcp, shift), (0, 0), "slot {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "symbol outside the alphabet")]
    fn code_past_a_short_alphabet_panics_like_span() {
        FreqTable::uniform(14).code(14);
    }

    // Entropy diagnostics: what the tests below (and the profile's) read
    // the built tables through.
    impl FreqTable {
        /// Empirical entropy of the table's distribution, bits/symbol.
        fn entropy_bits(&self) -> f64 {
            let total = self.total() as f64;
            (0..self.len())
                .map(|i| {
                    let (_, f) = self.span(i);
                    let p = f64::from(f) / total;
                    if p > 0.0 {
                        -p * p.log2()
                    } else {
                        0.0
                    }
                })
                .sum()
        }
    }

    impl SymbolModelSet {
        /// Mean entropy across tables, bits/symbol (weighted equally).
        pub(crate) fn mean_entropy_bits(&self) -> f64 {
            self.tables.iter().map(|t| t.entropy_bits()).sum::<f64>() / self.tables.len() as f64
        }
    }

    #[test]
    fn uniform_entropy() {
        let t = FreqTable::uniform(8);
        assert!((t.entropy_bits() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn skew_lowers_entropy() {
        let skewed = FreqTable::from_counts(&[100, 1, 1, 1]);
        let uniform = FreqTable::uniform(4);
        assert!(skewed.entropy_bits() < uniform.entropy_bits());
    }

    #[test]
    fn model_set_granularities() {
        let build = |g| {
            build_set(g, 3, 4, |rec| {
                for l in 0..3 {
                    for c in 0..4 {
                        // Symbol depends on layer only.
                        rec(l, c, l as i32);
                    }
                }
            })
        };
        assert_eq!(build(ModelGranularity::Global).tables.len(), 1);
        assert_eq!(build(ModelGranularity::PerLayer).tables.len(), 3);
        assert_eq!(build(ModelGranularity::PerChannel).tables.len(), 4);
        assert_eq!(build(ModelGranularity::PerChannelLayer).tables.len(), 12);
    }

    #[test]
    fn finer_granularity_never_increases_entropy() {
        // Symbols correlate with the layer, so per-layer tables are sharper.
        let observe = |rec: &mut dyn FnMut(usize, usize, i32)| {
            for rep in 0..50 {
                for l in 0..4usize {
                    for c in 0..4usize {
                        let sym = (l as i32) * 2 + ((rep + c) % 2) as i32;
                        rec(l, c, sym);
                    }
                }
            }
        };
        let global = build_set(ModelGranularity::Global, 4, 4, observe);
        let per_layer = build_set(ModelGranularity::PerLayer, 4, 4, observe);
        assert!(per_layer.mean_entropy_bits() < global.mean_entropy_bits());
    }

    #[test]
    fn table_lookup_routes_correctly() {
        let set = build_set(ModelGranularity::PerChannelLayer, 2, 2, |rec| {
            rec(0, 0, -5);
            rec(1, 1, 5);
        });
        // Table (0,0) saw symbol −5 once (weighted 64× + 1 floor = 65 of
        // a raw mass of 320); table (1,0) never did (floor only, 1/256).
        // After exact renormalization onto the 2²⁴ budget the proportions
        // survive.
        let idx_neg = symbol_to_index(-5);
        let width = |t: &FreqTable, i: usize| {
            let (lo, hi) = t.range(i);
            hi - lo
        };
        let seen = width(set.table(0, 0), idx_neg);
        let unseen = width(set.table(1, 0), idx_neg);
        assert!(
            seen > 50 * unseen,
            "seen symbol ({seen}) must dwarf unseen ({unseen})"
        );
        assert!(unseen >= 1, "unseen symbols stay encodable");
    }
}
