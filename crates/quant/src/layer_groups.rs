//! Layer-group partitioning and per-group quantization bins.
//!
//! §5.2: "we split the transformer layers into three layer groups, the first
//! 1/3, the middle 1/3, and the last 1/3, and apply different quantization
//! bin sizes on the delta tensors at each layer group; the bin grows from
//! earlier to later groups". §C.2 gives the default bins 0.5 / 1.0 / 1.5.
//!
//! Encoding *levels* for streaming adaptation (§5.3) are produced by scaling
//! the whole bin vector: higher levels use smaller bins (better quality,
//! bigger bitstreams).

/// Per-layer-group quantization bin sizes for CacheGen's delta tensors.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerGroupBins {
    bins: Vec<f32>,
}

impl LayerGroupBins {
    /// The paper's default: three groups with bins 0.5, 1.0, 1.5 (§C.2).
    pub fn paper_default() -> Self {
        LayerGroupBins {
            bins: vec![0.5, 1.0, 1.5],
        }
    }

    /// Custom bins; must be non-empty, positive, and non-decreasing (deeper
    /// layers are never quantized *finer* than shallower ones — Insight 2).
    pub fn new(bins: Vec<f32>) -> Self {
        assert!(!bins.is_empty(), "need at least one layer group");
        assert!(
            bins.iter().all(|&b| b > 0.0 && b.is_finite()),
            "bins must be positive"
        );
        assert!(
            bins.windows(2).all(|w| w[0] <= w[1]),
            "bins must be non-decreasing with depth"
        );
        LayerGroupBins { bins }
    }

    /// A single uniform group (the "no layer-wise quantization" ablation arm
    /// of Figure 15).
    pub fn uniform(bin: f32) -> Self {
        LayerGroupBins { bins: vec![bin] }
    }

    /// `n` layer groups with bins spaced evenly over the paper's span
    /// (0.5 at the shallowest group to 1.5 at the deepest): the group-count
    /// ablation axis of the Figure 15 harness. `evenly(3)` reproduces
    /// [`LayerGroupBins::paper_default`] exactly; `evenly(1)` is the
    /// uniform midpoint (1.0).
    pub fn evenly(n: usize) -> Self {
        Self::evenly_spanning(n, 0.5, 1.5)
    }

    /// `n` groups spaced evenly over `[first, last]` (`first <= last`,
    /// both positive). With `n == 1` the single bin is the midpoint.
    fn evenly_spanning(n: usize, first: f32, last: f32) -> Self {
        assert!(n >= 1, "need at least one layer group");
        assert!(
            first > 0.0 && first <= last && last.is_finite(),
            "need 0 < first <= last"
        );
        if n == 1 {
            return Self::uniform((first + last) / 2.0);
        }
        let step = (last - first) / (n - 1) as f32;
        Self::new((0..n).map(|i| first + step * i as f32).collect())
    }

    /// Number of layer groups.
    pub fn num_groups(&self) -> usize {
        self.bins.len()
    }

    /// The raw bin vector.
    pub fn bins(&self) -> &[f32] {
        &self.bins
    }

    /// Which group a layer belongs to, for a model with `n_layers` layers.
    /// Layers are split into `num_groups` equal contiguous runs (the last
    /// group absorbs any remainder).
    pub fn group_of(&self, layer: usize, n_layers: usize) -> usize {
        assert!(layer < n_layers, "layer {layer} out of {n_layers}");
        let g = self.bins.len();
        ((layer * g) / n_layers).min(g - 1)
    }

    /// The bin size to use for a given layer.
    pub fn bin_for_layer(&self, layer: usize, n_layers: usize) -> f32 {
        self.bins[self.group_of(layer, n_layers)]
    }

    /// Scales every bin by `factor`, producing a different encoding level.
    /// `factor > 1` = coarser (smaller bitstream, lower quality).
    pub fn scaled(&self, factor: f32) -> Self {
        assert!(factor > 0.0 && factor.is_finite());
        LayerGroupBins {
            bins: self.bins.iter().map(|b| b * factor).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let b = LayerGroupBins::paper_default();
        assert_eq!(b.bins(), &[0.5, 1.0, 1.5]);
    }

    #[test]
    fn groups_partition_layers_evenly() {
        let b = LayerGroupBins::paper_default();
        // 12 layers / 3 groups => 4 layers each.
        let groups: Vec<usize> = (0..12).map(|l| b.group_of(l, 12)).collect();
        assert_eq!(groups, vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn uneven_layer_counts_still_cover_all_groups() {
        let b = LayerGroupBins::paper_default();
        let groups: Vec<usize> = (0..8).map(|l| b.group_of(l, 8)).collect();
        assert_eq!(*groups.first().unwrap(), 0);
        assert_eq!(*groups.last().unwrap(), 2);
        assert!(groups.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn bins_grow_with_depth() {
        let b = LayerGroupBins::paper_default();
        let n = 9;
        let mut last = 0.0;
        for l in 0..n {
            let bin = b.bin_for_layer(l, n);
            assert!(bin >= last);
            last = bin;
        }
        assert_eq!(b.bin_for_layer(0, n), 0.5);
        assert_eq!(b.bin_for_layer(n - 1, n), 1.5);
    }

    #[test]
    fn evenly_matches_paper_default_at_three() {
        assert_eq!(
            LayerGroupBins::evenly(3).bins(),
            LayerGroupBins::paper_default().bins()
        );
        assert_eq!(LayerGroupBins::evenly(1).bins(), &[1.0]);
        let five = LayerGroupBins::evenly(5);
        assert_eq!(five.num_groups(), 5);
        assert_eq!(five.bins(), &[0.5, 0.75, 1.0, 1.25, 1.5]);
        // Arbitrary N keeps the non-decreasing invariant and the span.
        for n in 1..10 {
            let b = LayerGroupBins::evenly(n);
            assert_eq!(b.num_groups(), n);
            assert!(b.bins().windows(2).all(|w| w[0] <= w[1]));
            assert!(*b.bins().first().unwrap() >= 0.5 - 1e-6);
            assert!(*b.bins().last().unwrap() <= 1.5 + 1e-6);
        }
    }

    #[test]
    fn scaling_levels() {
        let b = LayerGroupBins::paper_default();
        let coarse = b.scaled(2.0);
        assert_eq!(coarse.bins(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_bins_rejected() {
        let _ = LayerGroupBins::new(vec![1.0, 0.5]);
    }

    #[test]
    fn single_group_always_zero() {
        let b = LayerGroupBins::uniform(1.0);
        for l in 0..5 {
            assert_eq!(b.group_of(l, 5), 0);
        }
    }
}
