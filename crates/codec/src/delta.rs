//! Change-based (delta) encoding: token groups and anchor deltas.
//!
//! §5.2: the context is split into groups of `group_size` contiguous tokens
//! (default 10). The first token of each group is the **anchor**, compressed
//! independently; every other token stores its delta with respect to the
//! anchor. Referencing one anchor per group (rather than chaining
//! consecutive deltas) lets all tokens of a group be encoded/decoded in
//! parallel — the property the paper's CUDA decoder exploits.
//!
//! This module provides the group geometry and the consecutive-token
//! deltas Figure 3 plots; anchors and deltas are quantised together in
//! [`crate::quantize`] and entropy-coded in [`crate::encoder`].

use cachegen_tensor::Tensor;

/// Default token-group size from §5.2.
pub const DEFAULT_GROUP_SIZE: usize = 10;

/// Geometry of anchor groups over a token axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupLayout {
    /// Tokens per group.
    pub group_size: usize,
    /// Total tokens.
    pub tokens: usize,
}

impl GroupLayout {
    /// Creates a layout; `group_size` must be ≥ 1.
    pub fn new(group_size: usize, tokens: usize) -> Self {
        assert!(group_size >= 1, "group size must be ≥ 1");
        GroupLayout { group_size, tokens }
    }

    /// Number of groups (the last may be short).
    pub fn num_groups(&self) -> usize {
        self.tokens.div_ceil(self.group_size)
    }

    /// Token range `[start, end)` of group `g`.
    pub fn group_range(&self, g: usize) -> (usize, usize) {
        let start = g * self.group_size;
        let end = (start + self.group_size).min(self.tokens);
        assert!(start < self.tokens, "group {g} out of range");
        (start, end)
    }

    /// Iterates `(anchor_token, member_tokens_after_anchor)` per group.
    pub fn groups(&self) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> + '_ {
        (0..self.num_groups()).map(move |g| {
            let (start, end) = self.group_range(g);
            (start, start + 1..end)
        })
    }
}

/// Deltas between every pair of *consecutive* tokens within the same layer
/// and channel — the quantity Figure 3 plots against the raw distribution to
/// demonstrate token-wise locality (Insight 1).
pub fn consecutive_deltas(t: &Tensor) -> Vec<f32> {
    assert_eq!(t.shape().len(), 3, "expected [layers, tokens, channels]");
    let (layers, tokens, channels) = (t.shape()[0], t.shape()[1], t.shape()[2]);
    if tokens < 2 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(layers * (tokens - 1) * channels);
    for l in 0..layers {
        let slab = t.slab(l);
        for tok in 1..tokens {
            for c in 0..channels {
                out.push(slab[tok * channels + c] - slab[(tok - 1) * channels + c]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_counts() {
        let l = GroupLayout::new(10, 25);
        assert_eq!(l.num_groups(), 3);
        assert_eq!(l.group_range(2), (20, 25));
    }

    #[test]
    fn layout_exact_multiple() {
        let l = GroupLayout::new(5, 20);
        assert_eq!(l.num_groups(), 4);
        assert_eq!(l.group_range(3), (15, 20));
    }

    #[test]
    fn consecutive_deltas_of_linear_ramp_are_constant() {
        // Values increase by 2 per token in every channel.
        let (layers, tokens, channels) = (2, 6, 3);
        let mut t = Tensor::zeros(&[layers, tokens, channels]);
        for l in 0..layers {
            for tok in 0..tokens {
                for c in 0..channels {
                    *t.get_mut(&[l, tok, c]) = (tok as f32) * 2.0 + (c as f32);
                }
            }
        }
        let d = consecutive_deltas(&t);
        assert_eq!(d.len(), layers * (tokens - 1) * channels);
        assert!(d.iter().all(|&x| (x - 2.0).abs() < 1e-6));
    }

    #[test]
    fn per_layer_deltas_subset_of_all() {
        let t = Tensor::from_vec(&[2, 3, 1], vec![0.0, 1.0, 3.0, 10.0, 10.5, 12.0]);
        let all = consecutive_deltas(&t);
        let layer = |l| consecutive_deltas(&Tensor::from_vec(&[1, 3, 1], t.slab(l).to_vec()));
        let (l0, l1) = (layer(0), layer(1));
        assert_eq!(all, [l0.clone(), l1.clone()].concat());
        assert_eq!(l0, vec![1.0, 2.0]);
        assert_eq!(l1, vec![0.5, 1.5]);
    }
}
