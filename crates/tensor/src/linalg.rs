//! Linear-algebra primitives for the functional transformer simulator.
//!
//! **Summation order is the contract.** Every output element of
//! [`matvec_t`] is `Iterator::sum::<f32>` over its products: a fold from
//! `-0.0`, one `f32` multiply then one `f32` add per term, terms in
//! ascending input index — so results are defined to the bit, not to a
//! tolerance, and every digest downstream (KV containers, golden traces)
//! is a function of it. The kernel is fast because *independent outputs*
//! run side by side (the weights are held input-major, so the inner loop
//! is an axpy across outputs that vectorises), never because one output's
//! sum is split, reassociated or fused: partial sums, FMA contraction and
//! `-C target-cpu` all change bits and are out. `tests::reference` keeps
//! the one-`dot`-per-output form the kernels are checked against.

/// In-place numerically-stable softmax over a slice.
pub fn softmax_inplace(xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    let max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in xs.iter_mut() {
            *x /= sum;
        }
    }
}

/// RMS normalisation (as used by Llama-family models): scales `x` so its
/// root-mean-square is 1, then multiplies element-wise by `weight`, into
/// `out`.
pub fn rms_norm(x: &[f32], weight: &[f32], eps: f32, out: &mut [f32]) {
    debug_assert_eq!(x.len(), weight.len());
    debug_assert_eq!(x.len(), out.len());
    let ms: f32 = x.iter().map(|v| v * v).sum::<f32>() / x.len() as f32;
    let scale = 1.0 / (ms + eps).sqrt();
    for ((o, &v), &w) in out.iter_mut().zip(x).zip(weight) {
        *o = v * scale * w;
    }
}

/// SiLU (swish) activation: `x * sigmoid(x)`.
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// `y += x` element-wise.
pub fn add_inplace(y: &mut [f32], x: &[f32]) {
    debug_assert_eq!(y.len(), x.len());
    for (a, b) in y.iter_mut().zip(x) {
        *a += b;
    }
}

/// `out[r] = seed + Σ_j m[j · stride + r] · x[j]`, `j` ascending, for the
/// first `B` outputs, whose running sums live in registers across the whole
/// `j` loop; returns `B`. With `SKIP_ZERO`, a term whose `x[j]` is zero is
/// left out of the sum rather than added as `±0`.
fn accumulate_block<const B: usize, const SKIP_ZERO: bool>(
    m: &[f32],
    stride: usize,
    x: &[f32],
    seed: f32,
    out: &mut [f32],
) -> usize {
    let mut acc = [seed; B];
    for (row, &xj) in m.chunks(stride).zip(x) {
        if SKIP_ZERO && xj == 0.0 {
            continue;
        }
        for (a, &w) in acc.iter_mut().zip(&row[..B]) {
            *a += w * xj;
        }
    }
    out[..B].copy_from_slice(&acc);
    B
}

/// The one kernel: every output's sum is [`accumulate_block`]'s, and the
/// outputs are covered by the widest blocks that fit (32 floats is eight
/// SSE registers of independent sums per pass over `x`).
fn accumulate<const SKIP_ZERO: bool>(
    m: &[f32],
    stride: usize,
    x: &[f32],
    seed: f32,
    out: &mut [f32],
) {
    let n = out.len();
    assert!(n <= stride, "{n} outputs exceed the row stride {stride}");
    assert!(
        x.is_empty() || m.len() >= (x.len() - 1) * stride + n,
        "matrix too short for {} inputs of {n} outputs",
        x.len()
    );
    let mut r = 0;
    while r < n {
        let (m, out) = (&m[r..], &mut out[r..]);
        r += match out.len() {
            32.. => accumulate_block::<32, SKIP_ZERO>(m, stride, x, seed, out),
            16.. => accumulate_block::<16, SKIP_ZERO>(m, stride, x, seed, out),
            4.. => accumulate_block::<4, SKIP_ZERO>(m, stride, x, seed, out),
            _ => accumulate_block::<1, SKIP_ZERO>(m, stride, x, seed, out),
        };
    }
}

/// Matrix–vector product over an input-major (transposed) matrix:
/// `out[r] = Σ_j wt[j · stride + r] · x[j]`, each sum in the module's
/// order. Row `j` of `wt` holds input `j`'s weight for every output; only
/// its first `out.len()` entries are read, so `stride` may exceed the
/// output count (a K cache with room to grow).
///
/// The same call is a weight matrix applied to an activation, the tied
/// embedding applied to a hidden state, and one query head scored against
/// every cached position of a channel-major K.
pub fn matvec_t(wt: &[f32], stride: usize, x: &[f32], out: &mut [f32]) {
    accumulate::<false>(wt, stride, x, -0.0, out);
}

/// Weighted sum of rows, `out[c] = Σ_t weights[t] · rows[t · stride + c]`:
/// per output a running sum from `+0.0` over `t` ascending in which a
/// zero weight contributes no term (so a row that attention ignores cannot
/// leak a non-finite value). Attention's output over a token-major V.
pub fn weighted_row_sum(rows: &[f32], stride: usize, weights: &[f32], out: &mut [f32]) {
    accumulate::<true>(rows, stride, weights, 0.0, out);
}

/// The rotary frequencies `θ^(−2i/d)` of a `head_dim`-wide head, one per
/// channel pair `(2i, 2i+1)`. They depend on the model only.
pub fn rope_freqs(head_dim: usize, theta: f32) -> Vec<f32> {
    (0..head_dim / 2)
        .map(|i| theta.powf(-2.0 * i as f32 / head_dim as f32))
        .collect()
}

/// `(sin, cos)` of the angle `pos · freq` for each of `freqs`: the rotation
/// every head, layer and Q/K vector at token position `pos` shares.
pub fn rope_sin_cos(freqs: &[f32], pos: usize, out: &mut [(f32, f32)]) {
    debug_assert_eq!(freqs.len(), out.len());
    for (o, &freq) in out.iter_mut().zip(freqs) {
        *o = (pos as f32 * freq).sin_cos();
    }
}

/// Applies rotary position embedding (RoPE) in place to every
/// `head_dim`-wide head of `x`: channel pair `(2i, 2i+1)` is rotated by
/// the angle whose `sin_cos[i]` came from [`rope_sin_cos`]. This is the
/// position encoding used by the Llama/Mistral models the paper evaluates.
pub fn rope_rotate(x: &mut [f32], head_dim: usize, sin_cos: &[(f32, f32)]) {
    debug_assert_eq!(sin_cos.len(), head_dim / 2);
    for head in x.chunks_exact_mut(head_dim) {
        for (pair, &(sin, cos)) in head.chunks_exact_mut(2).zip(sin_cos) {
            let (a, b) = (pair[0], pair[1]);
            pair[0] = a * cos - b * sin;
            pair[1] = a * sin + b * cos;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{normal_vec, seeded};
    use crate::Tensor;

    /// The definitions the kernels must equal bit for bit: one strictly
    /// ordered `dot` per output over a row-major matrix, and RoPE with its
    /// frequencies and angles recomputed on every call.
    mod reference {
        pub fn dot(a: &[f32], b: &[f32]) -> f32 {
            assert_eq!(a.len(), b.len());
            a.iter().zip(b).map(|(x, y)| x * y).sum()
        }

        pub fn matvec(w: &[f32], cols: usize, x: &[f32]) -> Vec<f32> {
            w.chunks_exact(cols).map(|row| dot(row, x)).collect()
        }

        /// Attention's output loop as it was written per head: a zero
        /// weight skips its row.
        pub fn weighted_row_sum(
            rows: &[f32],
            stride: usize,
            weights: &[f32],
            width: usize,
        ) -> Vec<f32> {
            let mut out = vec![0.0f32; width];
            for (t, &s) in weights.iter().enumerate() {
                if s == 0.0 {
                    continue;
                }
                for (o, &v) in out.iter_mut().zip(&rows[t * stride..][..width]) {
                    *o += s * v;
                }
            }
            out
        }

        pub fn rope_inplace(x: &mut [f32], pos: usize, theta: f32) {
            let d = x.len();
            for i in 0..d / 2 {
                let freq = theta.powf(-2.0 * i as f32 / d as f32);
                let (sin, cos) = (pos as f32 * freq).sin_cos();
                let (a, b) = (x[2 * i], x[2 * i + 1]);
                x[2 * i] = a * cos - b * sin;
                x[2 * i + 1] = a * sin + b * cos;
            }
        }
    }

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// `w` is row-major `[rows, cols]`; returns it input-major.
    fn transpose(w: &[f32], cols: usize) -> Vec<f32> {
        Tensor::from_vec(&[w.len() / cols, cols], w.to_vec())
            .transposed()
            .data()
            .to_vec()
    }

    /// [`matvec_t`] over the transpose of row-major `w` against one
    /// reference `dot` per row.
    fn assert_matches_reference(w: &[f32], cols: usize, x: &[f32], what: &str) {
        let rows = w.len() / cols;
        let want = reference::matvec(w, cols, x);
        let mut got = vec![f32::NAN; rows];
        matvec_t(&transpose(w, cols), rows, x, &mut got);
        assert_eq!(bits(&got), bits(&want), "{what}: {rows}x{cols}");
    }

    const ROWS: [usize; 8] = [1, 3, 7, 8, 9, 64, 172, 216];
    const COLS: [usize; 4] = [1, 16, 64, 172];

    #[test]
    fn matvec_t_is_bit_identical_to_dot_per_row_on_random_inputs() {
        let mut rng = seeded(11);
        for rows in ROWS {
            for cols in COLS {
                let w = normal_vec(&mut rng, rows * cols, 0.0, 1.0);
                let x = normal_vec(&mut rng, cols, 0.0, 1.0);
                assert_matches_reference(&w, cols, &x, "random");
            }
        }
    }

    #[test]
    fn matvec_t_is_bit_identical_on_adversarial_inputs() {
        let mut rng = seeded(12);
        for rows in ROWS {
            for cols in COLS {
                let x = normal_vec(&mut rng, cols, 0.0, 1.0);
                // Every product is -0.0, so every sum is -0.0 only if the
                // fold starts from -0.0 as `Iterator::sum` does: a toolchain
                // that changes the seed fails here, not in a golden digest.
                let neg_zero: Vec<f32> = x.iter().map(|&v| -0.0 * v.signum()).collect();
                let w: Vec<f32> = neg_zero.repeat(rows);
                let ones: Vec<f32> = x.iter().map(|v| v.signum()).collect();
                assert_matches_reference(&w, cols, &ones, "all products -0.0");
                let mut out = vec![1.0; rows];
                matvec_t(&transpose(&w, cols), rows, &ones, &mut out);
                assert!(out.iter().all(|o| o.to_bits() == (-0.0f32).to_bits()));

                // Non-finite rows among ordinary ones.
                let mut w = normal_vec(&mut rng, rows * cols, 0.0, 1.0);
                for (r, poison) in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN]
                    .into_iter()
                    .enumerate()
                {
                    if r < rows {
                        w[r * cols + (r * 5) % cols] = poison;
                    }
                }
                assert_matches_reference(&w, cols, &x, "inf/nan rows");

                // Subnormal products and sums.
                let tiny: Vec<f32> = normal_vec(&mut rng, rows * cols, 0.0, 1.0)
                    .iter()
                    .map(|v| v * 1e-30)
                    .collect();
                let small: Vec<f32> = x.iter().map(|v| v * 1e-9).collect();
                assert_matches_reference(&tiny, cols, &small, "subnormals");
            }
        }
    }

    #[test]
    fn matvec_t_keeps_the_order_a_cancellation_depends_on() {
        // (1e8 + 1) - 1e8 is 0 in f32, (1e8 - 1e8) + 1 is 1: the value
        // names the order the terms were added in.
        let x = [1.0f32; 3];
        for rows in ROWS {
            let mut w = Vec::new();
            for r in 0..rows {
                w.extend_from_slice(if r % 2 == 0 {
                    &[1e8f32, 1.0, -1e8]
                } else {
                    &[1e8f32, -1e8, 1.0]
                });
            }
            assert_matches_reference(&w, 3, &x, "cancellation");
            let mut out = vec![f32::NAN; rows];
            matvec_t(&transpose(&w, 3), rows, &x, &mut out);
            for (r, o) in out.iter().enumerate() {
                assert_eq!(*o, (r % 2) as f32);
            }
        }
    }

    #[test]
    fn matvec_t_scores_a_query_against_a_strided_channel_major_cache() {
        // The attention use: `positions` cached rows of a `head_dim`-wide K
        // head, held channel-major with capacity `stride` > positions.
        let mut rng = seeded(13);
        let (head_dim, stride) = (16, 12);
        let kt = normal_vec(&mut rng, head_dim * stride, 0.0, 1.0);
        let q = normal_vec(&mut rng, head_dim, 0.0, 1.0);
        for positions in 1..=9 {
            let mut got = vec![f32::NAN; positions];
            // The last channel's row may stop at the last position.
            let used = &kt[..(head_dim - 1) * stride + positions];
            matvec_t(used, stride, &q, &mut got);
            for (t, g) in got.iter().enumerate() {
                let k_row: Vec<f32> = (0..head_dim).map(|c| kt[c * stride + t]).collect();
                assert_eq!(g.to_bits(), reference::dot(&q, &k_row).to_bits());
            }
        }
    }

    #[test]
    fn weighted_row_sum_is_bit_identical_to_the_per_head_loop() {
        // One head's slice of a token-major V: `width` channels at some
        // offset into `stride`-wide rows, every block width and remainder.
        let mut rng = seeded(15);
        let stride = 40;
        for width in [1usize, 3, 4, 8, 12, 16, 17, 32, 37] {
            for tokens in [1usize, 2, 9, 64] {
                let mut v = normal_vec(&mut rng, tokens * stride, 0.0, 1.0);
                let mut weights: Vec<f32> = normal_vec(&mut rng, tokens, 0.0, 1.0)
                    .iter()
                    .map(|w| w.abs())
                    .collect();
                // A token attention ignores must not leak its row, even a
                // non-finite one; a -0.0 product must not flip the +0.0 seed.
                weights[tokens / 2] = 0.0;
                v[(tokens / 2) * stride + 3] = f32::NAN;
                v[(tokens / 2) * stride + 4] = f32::INFINITY;
                v[5] = -0.0;
                let rows = &v[3..(tokens - 1) * stride + 3 + width];
                let want = reference::weighted_row_sum(rows, stride, &weights, width);
                let mut got = vec![f32::NAN; width];
                weighted_row_sum(rows, stride, &weights, &mut got);
                assert_eq!(bits(&got), bits(&want), "{tokens} rows of {width}");
                assert!(got.iter().all(|g| g.is_finite()));
            }
        }
        let mut out = [f32::NAN; 2];
        weighted_row_sum(&[-0.0, -0.0], 2, &[1.0], &mut out);
        assert_eq!(bits(&out), bits(&[0.0, 0.0]));
    }

    #[test]
    #[should_panic(expected = "matrix too short")]
    fn matvec_t_rejects_a_short_matrix() {
        matvec_t(&[0.0; 7], 4, &[1.0, 1.0], &mut [0.0; 4]);
    }

    #[test]
    fn hoisted_rope_is_bit_identical_to_per_call_rope() {
        let mut rng = seeded(14);
        for head_dim in [2usize, 8, 12, 16, 7] {
            for theta in [10_000.0f32, 500_000.0] {
                let freqs = rope_freqs(head_dim, theta);
                let mut sin_cos = vec![(0.0, 0.0); head_dim / 2];
                for pos in [0usize, 1, 17, 479, 9_400] {
                    let x = normal_vec(&mut rng, 3 * head_dim, 0.0, 1.0);
                    let mut want = x.clone();
                    for head in want.chunks_exact_mut(head_dim) {
                        reference::rope_inplace(head, pos, theta);
                    }
                    let mut got = x;
                    rope_sin_cos(&freqs, pos, &mut sin_cos);
                    rope_rotate(&mut got, head_dim, &sin_cos);
                    assert_eq!(bits(&got), bits(&want), "d={head_dim} pos={pos}");
                }
            }
        }
    }

    /// Returns softmax of a slice as a new vector.
    fn softmax(xs: &[f32]) -> Vec<f32> {
        let mut out = xs.to_vec();
        softmax_inplace(&mut out);
        out
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let s = softmax(&[1.0, 2.0, 3.0]);
        assert!(approx(s.iter().sum::<f32>(), 1.0));
        assert!(s[2] > s[1] && s[1] > s[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[101.0, 102.0, 103.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!(approx(*x, *y));
        }
    }

    #[test]
    fn softmax_handles_extremes() {
        let s = softmax(&[1000.0, 0.0]);
        assert!(s[0] > 0.999 && s[1] < 1e-3);
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn rms_norm_unit_rms() {
        let mut out = [0.0; 4];
        rms_norm(&[2.0, 2.0, 2.0, 2.0], &[1.0; 4], 1e-6, &mut out);
        let rms: f32 = (out.iter().map(|v| v * v).sum::<f32>() / 4.0).sqrt();
        assert!(approx(rms, 1.0));
    }

    fn rope(x: &mut [f32], pos: usize) {
        let mut sin_cos = vec![(0.0, 0.0); x.len() / 2];
        rope_sin_cos(&rope_freqs(x.len(), 10_000.0), pos, &mut sin_cos);
        rope_rotate(x, x.len(), &sin_cos);
    }

    #[test]
    fn rope_preserves_norm() {
        let mut x = vec![1.0, 2.0, 3.0, 4.0];
        let before: f32 = x.iter().map(|v| v * v).sum();
        rope(&mut x, 17);
        let after: f32 = x.iter().map(|v| v * v).sum();
        assert!(approx(before, after));
    }

    #[test]
    fn rope_position_zero_is_identity() {
        let mut x = vec![0.5, -1.0, 2.0, 0.25];
        let orig = x.clone();
        rope(&mut x, 0);
        for (a, b) in x.iter().zip(&orig) {
            assert!(approx(*a, *b));
        }
    }

    /// A second, differently-ordered reference for small exact cases:
    /// `C = A × B` for row-major rank-2 tensors, `[m,k] × [k,n] -> [m,n]`.
    fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(a.shape().len(), 2, "matmul: A must be rank-2");
        assert_eq!(b.shape().len(), 2, "matmul: B must be rank-2");
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let (k2, n) = (b.shape()[0], b.shape()[1]);
        assert_eq!(k, k2, "matmul: inner dims differ ({k} vs {k2})");
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            let arow = a.row(i);
            let orow = out.row_mut(i);
            for (p, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = b.row(p);
                for (j, &bv) in brow.iter().enumerate() {
                    orow[j] += av * bv;
                }
            }
        }
        out
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let id = Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(matmul(&a, &id), a);
        assert_eq!(matmul(&id, &a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(&[3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matvec_matches_matmul() {
        let w = Tensor::from_vec(&[2, 3], vec![1.0, 0.0, -1.0, 2.0, 1.0, 0.5]);
        let x = Tensor::from_vec(&[3, 1], vec![1.0, 2.0, 3.0]);
        let mut y = [0.0; 2];
        matvec_t(w.transposed().data(), 2, x.data(), &mut y);
        assert_eq!(y, [-2.0, 5.5]);
        assert_eq!(y, matmul(&w, &x).data());
    }

    #[test]
    fn silu_signs() {
        assert!(silu(2.0) > 0.0);
        assert!(silu(-2.0) < 0.0);
        assert!(approx(silu(0.0), 0.0));
    }
}
