//! Linear-algebra primitives for the functional transformer simulator.
//!
//! These are straightforward scalar implementations; the simulator models are
//! intentionally small (≤ tens of layers, ≤ a few hundred channels), so naive
//! loops are more than fast enough and keep the code auditable.

use crate::Tensor;

/// Dot product of two equal-length slices.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

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
/// root-mean-square is 1, then multiplies element-wise by `weight`.
pub fn rms_norm(x: &[f32], weight: &[f32], eps: f32) -> Vec<f32> {
    debug_assert_eq!(x.len(), weight.len());
    let ms: f32 = x.iter().map(|v| v * v).sum::<f32>() / x.len() as f32;
    let scale = 1.0 / (ms + eps).sqrt();
    x.iter().zip(weight).map(|(&v, &w)| v * scale * w).collect()
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

/// Matrix–vector product `W x` for a `[rows, cols]` weight tensor.
pub fn matvec(w: &Tensor, x: &[f32]) -> Vec<f32> {
    assert_eq!(w.shape().len(), 2, "matvec: W must be rank-2");
    let (rows, cols) = (w.shape()[0], w.shape()[1]);
    assert_eq!(cols, x.len(), "matvec: dim mismatch");
    (0..rows).map(|r| dot(w.row(r), x)).collect()
}

/// Applies rotary position embedding (RoPE) in place to a head-sized vector
/// at token position `pos`. Pairs of channels `(2i, 2i+1)` are rotated by an
/// angle `pos · θ^(−2i/d)`; this is the position encoding used by the
/// Llama/Mistral models the paper evaluates.
pub fn rope_inplace(x: &mut [f32], pos: usize, theta: f32) {
    let d = x.len();
    let half = d / 2;
    for i in 0..half {
        let freq = theta.powf(-2.0 * i as f32 / d as f32);
        let angle = pos as f32 * freq;
        let (sin, cos) = angle.sin_cos();
        let (a, b) = (x[2 * i], x[2 * i + 1]);
        x[2 * i] = a * cos - b * sin;
        x[2 * i + 1] = a * sin + b * cos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    /// The reference [`matvec`] is checked against: `C = A × B` for row-major rank-2 tensors: `[m,k] × [k,n] -> [m,n]`.
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

    /// Returns softmax of a slice as a new vector.
    fn softmax(xs: &[f32]) -> Vec<f32> {
        let mut out = xs.to_vec();
        softmax_inplace(&mut out);
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
        let w = vec![1.0; 4];
        let out = rms_norm(&[2.0, 2.0, 2.0, 2.0], &w, 1e-6);
        let rms: f32 = (out.iter().map(|v| v * v).sum::<f32>() / 4.0).sqrt();
        assert!(approx(rms, 1.0));
    }

    #[test]
    fn rope_preserves_norm() {
        let mut x = vec![1.0, 2.0, 3.0, 4.0];
        let before: f32 = x.iter().map(|v| v * v).sum();
        rope_inplace(&mut x, 17, 10_000.0);
        let after: f32 = x.iter().map(|v| v * v).sum();
        assert!(approx(before, after));
    }

    #[test]
    fn rope_position_zero_is_identity() {
        let mut x = vec![0.5, -1.0, 2.0, 0.25];
        let orig = x.clone();
        rope_inplace(&mut x, 0, 10_000.0);
        for (a, b) in x.iter().zip(&orig) {
            assert!(approx(*a, *b));
        }
    }

    #[test]
    fn matvec_matches_matmul() {
        let w = Tensor::from_vec(&[2, 3], vec![1.0, 0.0, -1.0, 2.0, 1.0, 0.5]);
        let x = vec![1.0, 2.0, 3.0];
        let y = matvec(&w, &x);
        assert!(approx(y[0], -2.0));
        assert!(approx(y[1], 5.5));
    }

    #[test]
    fn silu_signs() {
        assert!(silu(2.0) > 0.0);
        assert!(silu(-2.0) < 0.0);
        assert!(approx(silu(0.0), 0.0));
    }
}
