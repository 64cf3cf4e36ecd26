//! Statistics used to reproduce the paper's distributional insights.
//!
//! §5.1 of the paper rests on three empirical observations about KV caches:
//! token-wise locality (Figure 3: deltas concentrate near zero), layer-wise
//! loss sensitivity (Figure 4), and information gain from grouping values by
//! channel/layer (Figure 5: entropy in bits per element). The estimators here
//! feed those figures and the arithmetic coder's symbol models.

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f32>() / xs.len() as f32
}

/// Population variance; `0.0` for an empty slice.
pub fn variance(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&v| (v - m) * (v - m)).sum::<f32>() / xs.len() as f32
}

/// Population standard deviation.
pub fn std_dev(xs: &[f32]) -> f32 {
    variance(xs).sqrt()
}

/// Linear-interpolated quantile, `q ∈ [0, 1]`. Sorts a copy under the
/// IEEE total order (NaNs sort last, deterministically).
pub fn quantile(xs: &[f32], q: f32) -> f32 {
    assert!((0.0..=1.0).contains(&q), "quantile q must be in [0,1]");
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f32::total_cmp);
    let pos = q * (sorted.len() - 1) as f32;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f32;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Shannon entropy (bits per element) of a sequence of discrete symbols.
fn symbol_entropy(symbols: &[i32]) -> f64 {
    if symbols.is_empty() {
        return 0.0;
    }
    let mut counts = std::collections::HashMap::new();
    for &s in symbols {
        *counts.entry(s).or_insert(0u64) += 1;
    }
    let n = symbols.len() as f64;
    counts
        .values()
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

/// Entropy (bits per element) of continuous values after uniform
/// quantization with the given bin width. This is how Figure 5 measures the
/// information content of KV values under different grouping strategies.
pub fn quantized_entropy(values: &[f32], bin: f32) -> f64 {
    assert!(bin > 0.0, "bin width must be positive");
    let symbols: Vec<i32> = values.iter().map(|&v| (v / bin).round() as i32).collect();
    symbol_entropy(&symbols)
}

/// Mean entropy when `values` are partitioned into `groups[i]`-indexed
/// groups and each group gets its own symbol distribution. Reproduces the
/// Figure 5 measurement: entropy conditioned on the grouping variable,
/// weighted by group size.
pub fn grouped_entropy(values: &[f32], groups: &[usize], bin: f32) -> f64 {
    assert_eq!(values.len(), groups.len());
    if values.is_empty() {
        return 0.0;
    }
    let ngroups = groups.iter().max().map_or(0, |&g| g + 1);
    let mut buckets: Vec<Vec<f32>> = vec![Vec::new(); ngroups];
    for (&v, &g) in values.iter().zip(groups) {
        buckets[g].push(v);
    }
    let n = values.len() as f64;
    buckets
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| quantized_entropy(b, bin) * b.len() as f64 / n)
        .sum()
}

/// Histogram with `bins` equal-width buckets over `[lo, hi]`; values outside
/// the range are clamped into the edge buckets.
pub fn histogram(xs: &[f32], lo: f32, hi: f32, bins: usize) -> Vec<u64> {
    assert!(bins > 0 && hi > lo);
    let mut counts = vec![0u64; bins];
    let width = (hi - lo) / bins as f32;
    for &x in xs {
        let mut b = ((x - lo) / width).floor() as i64;
        b = b.clamp(0, bins as i64 - 1);
        counts[b as usize] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-6);
        assert!((variance(&xs) - 1.25).abs() < 1e-6);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
    }

    #[test]
    fn quantiles() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert!((quantile(&xs, 0.0) - 1.0).abs() < 1e-6);
        assert!((quantile(&xs, 1.0) - 4.0).abs() < 1e-6);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-6);
    }

    #[test]
    fn entropy_of_constant_is_zero() {
        assert_eq!(symbol_entropy(&[5, 5, 5, 5]), 0.0);
    }

    #[test]
    fn entropy_of_uniform_symbols() {
        // 4 equiprobable symbols => 2 bits.
        let syms: Vec<i32> = (0..4000).map(|i| i % 4).collect();
        assert!((symbol_entropy(&syms) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn grouping_by_informative_variable_reduces_entropy() {
        // Two groups with disjoint value ranges: conditioning on the group
        // removes one bit of uncertainty.
        let mut values = Vec::new();
        let mut groups = Vec::new();
        for i in 0..1000 {
            values.push((i % 2) as f32); // symbols {0, 1} within group 0
            groups.push(0);
            values.push(10.0 + (i % 2) as f32); // symbols {10, 11} within group 1
            groups.push(1);
        }
        let ungrouped = quantized_entropy(&values, 1.0);
        let grouped = grouped_entropy(&values, &groups, 1.0);
        assert!(
            grouped < ungrouped - 0.9,
            "grouped {grouped} should be ≈1 bit below ungrouped {ungrouped}"
        );
    }

    #[test]
    fn grouping_by_uninformative_variable_keeps_entropy() {
        let values: Vec<f32> = (0..2000).map(|i| (i % 4) as f32).collect();
        // Group flips every 4 values, so each group sees all 4 symbols
        // equally often — the grouping carries no information.
        let groups: Vec<usize> = (0..2000).map(|i| (i / 4) % 2).collect();
        let ungrouped = quantized_entropy(&values, 1.0);
        let grouped = grouped_entropy(&values, &groups, 1.0);
        assert!((grouped - ungrouped).abs() < 0.01);
    }

    #[test]
    fn histogram_counts_everything() {
        let xs = [-10.0, 0.1, 0.5, 0.9, 10.0];
        let h = histogram(&xs, 0.0, 1.0, 2);
        assert_eq!(h.iter().sum::<u64>(), 5);
        assert_eq!(h[0], 2); // -10 clamped + 0.1
        assert_eq!(h[1], 3); // 0.5, 0.9, 10 clamped
    }
}
