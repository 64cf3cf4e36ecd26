//! Dense row-major `f32` tensors with explicit shapes.
//!
//! [`Tensor`] is deliberately small: the transformer simulator only needs
//! 1-D/2-D/3-D views, element-wise maps, and slicing along the leading axis.

use std::fmt;

/// A dense, row-major tensor of `f32` values.
///
/// The shape is dynamic (a `Vec<usize>`), matching how KV caches are handled
/// in the paper: `[layers, tokens, channels]` for each of K and V. All
/// indexing is bounds-checked in debug builds; shape mismatches panic with a
/// descriptive message (these are programming errors, not runtime
/// conditions).
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}, len={})", self.shape, self.data.len())
    }
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor from existing data. Panics if `data.len()` does not
    /// match the product of `shape`.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let expect: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            expect,
            "Tensor::from_vec: data length {} does not match shape {:?} (= {})",
            data.len(),
            shape,
            expect
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat backing storage.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat backing storage.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns the flat offset of a multi-dimensional index.
    fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(
            index.len(),
            self.shape.len(),
            "index rank {} != tensor rank {}",
            index.len(),
            self.shape.len()
        );
        let mut off = 0;
        for (i, (&ix, &dim)) in index.iter().zip(&self.shape).enumerate() {
            debug_assert!(
                ix < dim,
                "index {ix} out of bounds for axis {i} (dim {dim})"
            );
            off = off * dim + ix;
        }
        off
    }

    /// Element access by multi-dimensional index.
    pub fn get(&self, index: &[usize]) -> f32 {
        self.data[self.offset(index)]
    }

    /// Mutable element access by multi-dimensional index.
    pub fn get_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.offset(index);
        &mut self.data[off]
    }

    /// Borrow row `i` of a rank-2 tensor as a slice.
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.shape.len(), 2, "row() requires a rank-2 tensor");
        let cols = self.shape[1];
        &self.data[i * cols..(i + 1) * cols]
    }

    /// Mutably borrow row `i` of a rank-2 tensor.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert_eq!(self.shape.len(), 2, "row_mut() requires a rank-2 tensor");
        let cols = self.shape[1];
        &mut self.data[i * cols..(i + 1) * cols]
    }

    /// Slice of the flat storage covering index `i` of the leading axis
    /// (works for any rank ≥ 1). For a `[L, T, C]` tensor this is the
    /// `T × C` block of layer `i`.
    pub fn slab(&self, i: usize) -> &[f32] {
        assert!(!self.shape.is_empty());
        let stride: usize = self.shape[1..].iter().product();
        &self.data[i * stride..(i + 1) * stride]
    }

    /// Mutable version of [`Tensor::slab`].
    pub fn slab_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(!self.shape.is_empty());
        let stride: usize = self.shape[1..].iter().product();
        &mut self.data[i * stride..(i + 1) * stride]
    }

    /// The `[cols, rows]` transpose of a rank-2 `[rows, cols]` tensor.
    pub fn transposed(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transposed() requires rank 2");
        let (rows, cols) = (self.shape[0], self.shape[1]);
        let mut out = Tensor::zeros(&[cols, rows]);
        for r in 0..rows {
            for c in 0..cols {
                out.data[c * rows + r] = self.data[r * cols + c];
            }
        }
        out
    }

    /// Returns a new tensor with `f` applied to every element.
    pub fn map<F: FnMut(f32) -> f32>(&self, mut f: F) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Maximum absolute element difference between two same-shaped tensors.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "max_abs_diff: shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Mean squared error against another same-shaped tensor.
    pub fn mse(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "mse: shape mismatch");
        if self.data.is_empty() {
            return 0.0;
        }
        let sum: f32 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum();
        sum / self.data.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_len() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_round_trips() {
        let data: Vec<f32> = (0..6).map(|i| i as f32).collect();
        let t = Tensor::from_vec(&[2, 3], data.clone());
        assert_eq!(t.data(), data);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_shape() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0; 5]);
    }

    #[test]
    fn indexing_is_row_major() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|i| i as f32).collect());
        assert_eq!(t.get(&[0, 0]), 0.0);
        assert_eq!(t.get(&[0, 2]), 2.0);
        assert_eq!(t.get(&[1, 0]), 3.0);
        assert_eq!(t.get(&[1, 2]), 5.0);
    }

    #[test]
    fn rows_and_slabs() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|i| i as f32).collect());
        assert_eq!(t.row(1), &[3.0, 4.0, 5.0]);
        let t3 = Tensor::from_vec(&[2, 2, 2], (0..8).map(|i| i as f32).collect());
        assert_eq!(t3.slab(1), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn transposed_swaps_axes() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|i| i as f32).collect());
        let tt = t.transposed();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.data(), &[0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
        assert_eq!(tt.transposed(), t);
    }

    #[test]
    fn map_and_sub() {
        let a = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        let b = a.map(|v| v * 2.0);
        assert_eq!(b.data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn error_metrics() {
        let a = Tensor::from_vec(&[2], vec![0.0, 1.0]);
        let b = Tensor::from_vec(&[2], vec![0.5, 1.0]);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-6);
        assert!((a.mse(&b) - 0.125).abs() < 1e-6);
    }

    #[test]
    fn get_mut_writes_through() {
        let mut t = Tensor::zeros(&[2, 2]);
        *t.get_mut(&[1, 1]) = 7.0;
        assert_eq!(t.get(&[1, 1]), 7.0);
        assert_eq!(t.data()[3], 7.0);
    }
}
