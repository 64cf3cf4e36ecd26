//! Quantization schemes for KV caches.
//!
//! Two families, matching the paper:
//!
//! * [`UniformQuantizer`] — the **baseline**: per-channel min–max uniform
//!   quantization at a fixed bit width (3/4/8 bits), as used by FlexGen-style
//!   systems (§7.1 "Default quantization"). It keeps the tensor form.
//! * [`BinQuantizer`] + [`LayerGroupBins`] — **CacheGen's** quantizer: a
//!   fixed *bin size* applied to channel-normalised values (vectorwise, after
//!   LLM.int8), with the bin growing across the three layer groups
//!   (defaults 0.5 / 1.0 / 1.5, §C.2) because shallow layers are more
//!   sensitive to loss (Insight 2). Anchor tokens are quantized at 8 bits
//!   regardless (§5.2).
//!
//! Bin quantization maps floats to unbounded integer symbols, which the
//! arithmetic coder (in `cachegen-codec`) then entropy-codes; dequantization
//! is `symbol × bin × scale`. The quantizer is the *only* lossy stage in the
//! CacheGen pipeline.

use cachegen_llm::KvCache;
use cachegen_tensor::Tensor;

mod layer_groups;
pub use layer_groups::LayerGroupBins;

/// Per-channel min–max uniform quantizer (the paper's baseline).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UniformQuantizer {
    /// Bit width (1..=16).
    pub bits: u8,
}

impl UniformQuantizer {
    /// Creates a quantizer with the given bit width.
    pub fn new(bits: u8) -> Self {
        assert!((1..=16).contains(&bits), "bits must be in 1..=16");
        UniformQuantizer { bits }
    }

    /// Number of quantization levels.
    pub fn levels(&self) -> u32 {
        1u32 << self.bits
    }

    /// Quantizes and immediately dequantizes one channel's values (lossy
    /// round trip). `values` are all elements of a single channel.
    fn round_trip_slice(&self, values: &mut [f32]) {
        if values.is_empty() {
            return;
        }
        let min = values.iter().cloned().fold(f32::INFINITY, f32::min);
        let max = values.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        if max <= min {
            return; // constant channel: representable exactly by the offset
        }
        let steps = (self.levels() - 1) as f32;
        let scale = (max - min) / steps;
        for v in values {
            let q = ((*v - min) / scale).round().clamp(0.0, steps);
            *v = min + q * scale;
        }
    }

    /// Applies the lossy round trip to every `(layer, channel)` vector of a
    /// KV cache, returning the degraded cache the LLM would consume.
    pub fn round_trip_cache(&self, cache: &KvCache) -> KvCache {
        let (layers, tokens, channels) = (cache.layers(), cache.tokens(), cache.channels());
        let mut k = cache.k().clone();
        let mut v = cache.v().clone();
        for tensor in [&mut k, &mut v] {
            for l in 0..layers {
                let slab = tensor.slab_mut(l);
                let mut col = vec![0.0f32; tokens];
                for c in 0..channels {
                    for t in 0..tokens {
                        col[t] = slab[t * channels + c];
                    }
                    self.round_trip_slice(&mut col);
                    for t in 0..tokens {
                        slab[t * channels + c] = col[t];
                    }
                }
            }
        }
        KvCache::from_tensors(k, v)
    }

    /// Transmission size of a uniformly-quantized cache: `bits` per element
    /// plus two fp16 scale parameters per `(layer, channel)` vector. The
    /// baseline ships tensors, not bitstreams, so this is its wire size.
    pub fn wire_bytes(&self, cache: &KvCache) -> u64 {
        let elems = cache.num_elements() as u64;
        let vectors = 2 * (cache.layers() * cache.channels()) as u64;
        (elems * self.bits as u64).div_ceil(8) + vectors * 4
    }
}

/// Fixed-bin quantizer used on CacheGen's delta/anchor tensors.
///
/// Values are first normalised by a per-vector `scale` (profiled std or
/// max-abs), then mapped to `round(x / (scale · bin))`. Larger bins mean
/// coarser symbols: fewer distinct values, lower entropy, smaller
/// bitstreams, more loss.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BinQuantizer {
    /// Quantization bin width in units of the vector scale.
    pub bin: f32,
}

impl BinQuantizer {
    /// Creates a bin quantizer. `bin` must be positive.
    pub fn new(bin: f32) -> Self {
        assert!(bin > 0.0 && bin.is_finite(), "bin must be positive");
        BinQuantizer { bin }
    }

    /// Quantizes a slice into integer symbols given a vector scale.
    pub fn quantize(&self, values: &[f32], scale: f32) -> Vec<i32> {
        let step = self.step(scale);
        values
            .iter()
            .map(|&v| away_from_zero(v / step) as i32)
            .collect()
    }

    /// Dequantizes symbols back to floats.
    pub fn dequantize(&self, symbols: &[i32], scale: f32) -> Vec<f32> {
        let step = self.step(scale);
        symbols.iter().map(|&s| s as f32 * step).collect()
    }

    /// The absolute quantization step for a given vector scale.
    pub fn step(&self, scale: f32) -> f32 {
        let s = if scale > 0.0 && scale.is_finite() {
            scale
        } else {
            1.0
        };
        s * self.bin
    }

    /// Maximum absolute reconstruction error for a given scale.
    pub fn max_error(&self, scale: f32) -> f32 {
        self.step(scale) * 0.5
    }
}

/// `v` moved just under half a unit away from zero, so that truncating it
/// (what an `as` integer cast does) rounds `v` to nearest, ties away from
/// zero. 0.49999997 is the largest `f32` below one half: a tie `n + 0.5`
/// still sums to `n + 1` after the addition rounds, and nothing below a tie
/// reaches it. From 2²³ up every `f32` is an integer and the addend is
/// under half an ulp, so the sum is `v`; NaN and ±∞ pass through to the
/// cast, which saturates.
#[inline]
fn away_from_zero(v: f32) -> f32 {
    v + 0.499_999_97_f32.copysign(v)
}

/// `v` rounded to nearest, ties away from zero, saturated to `i8`: what
/// `(v.round() as i64).clamp(-128, 127)` computes (NaN → 0, ±∞ → the
/// ends), without the libm `roundf` call and without an `as` integer
/// cast. A saturating cast is four compare-and-branch sequences per
/// vector on the baseline x86-64 target, which is what kept the encode
/// walk — one rounding per KV element — scalar; every step here is a
/// lane-wise SSE2 operation, so a loop over a row vectorises.
///
/// The magnitude is `|v| + 0.49999997`, capped at 128 (a compare
/// NaN fails, so NaN becomes 0). Adding 2²³, where an `f32`'s ulp is 1,
/// rounds it to an integer; one compare takes back the step up when that
/// rounding went up, which makes it a truncation. The signed, clamped
/// integer is then read out of the mantissa of a second 2²³-based sum.
#[inline]
pub fn round_half_away_i8(v: f32) -> i8 {
    const ULP_ONE: f32 = 8_388_608.0;
    let a = v.abs() + 0.499_999_97;
    let a = if a > 0.0 { a } else { 0.0 };
    let a = if a < 128.0 { a } else { 128.0 };
    let r = (a + ULP_ONE) - ULP_ONE;
    let t = r - if r > a { 1.0 } else { 0.0 };
    let s = t.copysign(v);
    let s = if s < 127.0 { s } else { 127.0 };
    // s + 128 ∈ 0..=255 sits in the low mantissa byte; the xor re-centres.
    ((s + (ULP_ONE + 128.0)).to_bits() as u8 ^ 0x80) as i8
}

/// Computes the per-`(layer, channel)` scale (population std, floored to a
/// minimum) for a rank-3 `[layers, tokens, channels]` tensor. CacheGen
/// profiles these offline per model (§5.2); the floor keeps near-constant
/// channels from producing huge symbols.
pub fn channel_scales(t: &Tensor, floor: f32) -> Vec<Vec<f32>> {
    assert_eq!(t.shape().len(), 3);
    let (layers, tokens, channels) = (t.shape()[0], t.shape()[1], t.shape()[2]);
    let mut out = Vec::with_capacity(layers);
    for l in 0..layers {
        let slab = t.slab(l);
        let mut per_chan = vec![0.0f32; channels];
        for (c, scale) in per_chan.iter_mut().enumerate() {
            let mut sum = 0.0f64;
            let mut sumsq = 0.0f64;
            for t_ in 0..tokens {
                let v = slab[t_ * channels + c] as f64;
                sum += v;
                sumsq += v * v;
            }
            let n = tokens.max(1) as f64;
            let mean = sum / n;
            let var = (sumsq / n - mean * mean).max(0.0);
            *scale = (var.sqrt() as f32).max(floor);
        }
        out.push(per_chan);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachegen_llm::{SimModelConfig, SimTransformer};

    /// Every `f32` in the given bit-pattern range, both signs, against
    /// libm rounding — the `i32` cast `BinQuantizer::quantize` makes and
    /// the cast-free `i8` form the codec's quantise loop runs.
    fn assert_rounds_like_libm(bits: impl Iterator<Item = u32>) {
        for b in bits {
            for v in [f32::from_bits(b), -f32::from_bits(b)] {
                assert_eq!(
                    away_from_zero(v) as i32,
                    v.round() as i32,
                    "{v:e} ({b:#x}) as i32"
                );
                assert_eq!(
                    i64::from(round_half_away_i8(v)),
                    (v.round() as i64).clamp(-128, 127),
                    "{v:e} ({b:#x}) as i8"
                );
            }
        }
    }

    #[test]
    fn libm_free_rounding_matches_round_at_the_boundaries() {
        // A window of bit patterns either side of every tie n + 0.5 up to
        // 300 (past the i8 saturation points on both sides), of zero and
        // the subnormals, of the 2²² / 2²³ / 2²⁴ ulp changes and of the
        // i32 / i64 saturation points; then NaN and ±∞.
        let ties = (0..300).map(|n| n as f32 + 0.5);
        let edges = [
            0.0f32,
            f32::MIN_POSITIVE,
            1.0,
            127.0,
            128.0,
            4_194_304.0,
            8_388_608.0,
            16_777_216.0,
            2_147_483_648.0,
            9.223_372e18,
            f32::MAX,
        ];
        for centre in ties.chain(edges) {
            let b = centre.to_bits();
            assert_rounds_like_libm(b.saturating_sub(64)..=b.saturating_add(64).min(0x7F7F_FFFF));
        }
        for v in [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert_eq!(away_from_zero(v) as i32, v.round() as i32);
            assert_eq!(
                i64::from(round_half_away_i8(v)),
                (v.round() as i64).clamp(-128, 127)
            );
        }
        // Every NaN payload is a zero, not whatever its mantissa holds.
        for payload in [1u32, 0x7F, 0x80, 0x3F_FFFF, 0x40_0001, 0x7F_FFFF] {
            for sign in [0u32, 1 << 31] {
                let nan = f32::from_bits(sign | 0x7F80_0000 | payload);
                assert!(nan.is_nan());
                assert_eq!(round_half_away_i8(nan), 0);
            }
        }
        let q = BinQuantizer::new(0.5);
        assert_eq!(
            q.quantize(&[0.24, 0.25, -0.25, 0.75, -1e30, f32::NAN], 1.0),
            vec![0, 1, -1, 2, i32::MIN, 0]
        );
    }

    /// The exhaustive sweep behind the boundary test: all 2.27 × 10⁹
    /// `f32` with |v| < 300, both signs. ~10 s in release;
    /// `cargo test --release -p cachegen-quant -- --ignored`.
    #[test]
    #[ignore = "exhaustive: 2.27e9 values"]
    fn libm_free_rounding_matches_round_exhaustively_below_300() {
        assert_rounds_like_libm(0..300.0f32.to_bits());
    }

    #[test]
    fn uniform_error_bounded_by_step() {
        let mut vals: Vec<f32> = (0..100).map(|i| (i as f32) * 0.37 - 18.0).collect();
        let orig = vals.clone();
        let q = UniformQuantizer::new(8);
        q.round_trip_slice(&mut vals);
        let range = 0.37 * 99.0;
        let step = range / 255.0;
        for (a, b) in vals.iter().zip(&orig) {
            assert!((a - b).abs() <= step / 2.0 + 1e-5);
        }
    }

    #[test]
    fn uniform_more_bits_less_error() {
        let make = || -> Vec<f32> { (0..256).map(|i| ((i * 37) % 101) as f32 * 0.1).collect() };
        let orig = make();
        let mut err = Vec::new();
        for bits in [3u8, 4, 8] {
            let mut v = make();
            UniformQuantizer::new(bits).round_trip_slice(&mut v);
            let e: f32 = v
                .iter()
                .zip(&orig)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f32::max);
            err.push(e);
        }
        assert!(err[0] > err[1] && err[1] > err[2], "errors {err:?}");
    }

    #[test]
    fn uniform_constant_channel_is_exact() {
        let mut vals = vec![3.25f32; 16];
        UniformQuantizer::new(3).round_trip_slice(&mut vals);
        assert!(vals.iter().all(|&v| v == 3.25));
    }

    #[test]
    fn uniform_cache_round_trip_error_small_at_8bit() {
        let m = SimTransformer::new(SimModelConfig::tiny(3));
        let cache = m.prefill(&(0..20).collect::<Vec<_>>());
        let rt = UniformQuantizer::new(8).round_trip_cache(&cache);
        // 8-bit is "nearly lossless" in the paper; error should be tiny
        // relative to value magnitudes.
        let worst = cache.max_abs_diff(&rt);
        assert!(worst < 0.05, "worst-case error {worst}");
        let rt3 = UniformQuantizer::new(3).round_trip_cache(&cache);
        assert!(cache.max_abs_diff(&rt3) > worst);
    }

    #[test]
    fn wire_bytes_scales_with_bits() {
        let cache = KvCache::zeros(2, 100, 8);
        let b8 = UniformQuantizer::new(8).wire_bytes(&cache);
        let b4 = UniformQuantizer::new(4).wire_bytes(&cache);
        assert!(b8 > b4);
        // 3200 elements: payload 3200 vs 1600 bytes + 128 bytes scales.
        assert_eq!(b8, 3200 + 128);
        assert_eq!(b4, 1600 + 128);
    }

    #[test]
    fn bin_quantizer_round_trip_error() {
        let q = BinQuantizer::new(0.5);
        let vals: Vec<f32> = (0..50).map(|i| (i as f32) * 0.21 - 5.0).collect();
        let scale = 2.0;
        let syms = q.quantize(&vals, scale);
        let back = q.dequantize(&syms, scale);
        for (a, b) in vals.iter().zip(&back) {
            assert!((a - b).abs() <= q.max_error(scale) + 1e-6);
        }
    }

    #[test]
    fn bigger_bin_fewer_symbols() {
        let vals: Vec<f32> = (0..1000)
            .map(|i| ((i * 7919) % 997) as f32 * 0.01)
            .collect();
        let distinct = |bin: f32| -> usize {
            let syms = BinQuantizer::new(bin).quantize(&vals, 1.0);
            let mut s = syms.clone();
            s.sort_unstable();
            s.dedup();
            s.len()
        };
        assert!(distinct(0.5) > distinct(1.0));
        assert!(distinct(1.0) > distinct(1.5));
    }

    #[test]
    fn degenerate_scale_falls_back() {
        let q = BinQuantizer::new(1.0);
        let syms = q.quantize(&[1.0, 2.0], 0.0);
        let back = q.dequantize(&syms, 0.0);
        assert!(back.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn channel_scales_shape_and_floor() {
        let m = SimTransformer::new(SimModelConfig::tiny(5));
        let cache = m.prefill(&(0..12).collect::<Vec<_>>());
        let scales = channel_scales(cache.k(), 1e-3);
        assert_eq!(scales.len(), cache.layers());
        assert_eq!(scales[0].len(), cache.channels());
        assert!(scales.iter().flatten().all(|&s| s >= 1e-3));
    }
}
