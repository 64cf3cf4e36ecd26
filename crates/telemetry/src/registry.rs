//! A deterministic counter / gauge / histogram registry.
//!
//! Metric names follow the `cachegen.<crate>.<metric>` convention
//! (e.g. `cachegen.streamer.bytes_sent`). Everything is keyed through
//! `BTreeMap`s so snapshots iterate in one stable order — the
//! workspace's no-hash-iter gate applies to this crate.

use std::collections::BTreeMap;

/// Number of sub-buckets per power-of-two octave (top 3 mantissa bits).
const SUB_BUCKETS_PER_OCTAVE: u64 = 8;

/// A log-bucketed histogram over positive finite `f64` samples.
///
/// Buckets are derived from the sample's IEEE-754 exponent plus its top
/// three mantissa bits — 8 sub-buckets per octave, ≤ ~9% relative bucket
/// width — so bucketing is exact integer arithmetic: no `log`/`pow`
/// calls, identical on every platform. Exact `min`/`max`/`sum`/`count`
/// are tracked alongside for means and range reporting.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// Bucket key → sample count. Key is `exp << 3 | top-3 mantissa bits`.
    buckets: BTreeMap<u64, u64>,
    /// Total number of recorded samples (including zero / non-finite ones).
    count: u64,
    /// Exact sum of all recorded samples.
    sum: f64,
    /// Smallest recorded sample.
    min: f64,
    /// Largest recorded sample.
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: BTreeMap::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket key for a strictly positive finite sample.
    fn key(v: f64) -> u64 {
        let bits = v.to_bits();
        let exp = (bits >> 52) & 0x7ff;
        let mantissa_top = (bits >> 49) & 0x7;
        exp * SUB_BUCKETS_PER_OCTAVE + mantissa_top
    }

    /// Lower bound of the bucket with the given key (inclusive).
    fn bucket_low(key: u64) -> f64 {
        let exp = key / SUB_BUCKETS_PER_OCTAVE;
        let mantissa_top = key % SUB_BUCKETS_PER_OCTAVE;
        f64::from_bits((exp << 52) | (mantissa_top << 49))
    }

    /// Upper bound of the bucket with the given key (exclusive).
    fn bucket_high(key: u64) -> f64 {
        Self::bucket_low(key + 1)
    }

    /// Records one sample. Non-positive or non-finite samples count
    /// toward `count`/`min`/`max`/`sum` but land in the zero bucket.
    pub fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        let key = if v.is_finite() && v > 0.0 {
            Self::key(v)
        } else {
            0
        };
        *self.buckets.entry(key).or_insert(0) += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest recorded sample, if any.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, if any.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded samples, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.sum / self.count as f64)
    }

    /// Nearest-rank quantile estimate from the bucket boundaries.
    ///
    /// Walks buckets in ascending order until the cumulative count
    /// reaches `ceil(p/100 · count)` and reports the midpoint of the
    /// bucket that crossed it, clamped to the exact observed
    /// `min`/`max` so single-bucket histograms stay exact.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (&key, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                if key == 0 {
                    return Some(self.min.max(0.0).min(self.max));
                }
                let mid = 0.5 * (Self::bucket_low(key) + Self::bucket_high(key));
                return Some(mid.max(self.min).min(self.max));
            }
        }
        Some(self.max)
    }
}

/// The workspace metrics registry: counters, gauges, and histograms.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter (created at zero on first use).
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records one histogram sample under `name`.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Current value of a counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Current value of a gauge, if present.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_bounds_bracket_samples() {
        for v in [1e-6, 0.013, 0.5, 1.0, 1.5, 7.25, 1000.0, 3.9e8] {
            let key = Histogram::key(v);
            assert!(Histogram::bucket_low(key) <= v, "low <= {v}");
            assert!(v < Histogram::bucket_high(key), "{v} < high");
        }
    }

    #[test]
    fn histogram_bucket_relative_width_is_tight() {
        for v in [0.001, 0.02, 0.4, 3.0, 100.0] {
            let key = Histogram::key(v);
            let (lo, hi) = (Histogram::bucket_low(key), Histogram::bucket_high(key));
            assert!(hi / lo <= 1.0 + 1.0 / 8.0 + 1e-12, "≤ 12.5% wide at {v}");
        }
    }

    #[test]
    fn histogram_quantiles_track_percentiles() {
        let mut h = Histogram::new();
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64 / 10.0).collect();
        for &s in &samples {
            h.observe(s);
        }
        let p50 = h.quantile(50.0).unwrap();
        let p99 = h.quantile(99.0).unwrap();
        assert!((p50 - 50.0).abs() / 50.0 < 0.10, "p50 ≈ 50, got {p50}");
        assert!((p99 - 99.0).abs() / 99.0 < 0.10, "p99 ≈ 99, got {p99}");
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), Some(0.1));
        assert_eq!(h.max(), Some(100.0));
    }

    #[test]
    fn histogram_single_sample_is_exact() {
        let mut h = Histogram::new();
        h.observe(0.042);
        assert_eq!(h.quantile(50.0), Some(0.042));
        assert_eq!(h.quantile(99.0), Some(0.042));
        assert_eq!(h.mean(), Some(0.042));
    }

    #[test]
    fn histogram_handles_zero_and_negative() {
        let mut h = Histogram::new();
        h.observe(0.0);
        h.observe(-1.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(-1.0));
        let q = h.quantile(50.0).unwrap();
        assert!((-1.0..=0.0).contains(&q));
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut r = MetricsRegistry::new();
        r.add("cachegen.net.wire_bytes", 10);
        r.add("cachegen.net.wire_bytes", 5);
        r.gauge("cachegen.serving.shed_rate", 0.25);
        r.observe("cachegen.serving.ttft_ms", 120.0);
        assert_eq!(r.counter("cachegen.net.wire_bytes"), Some(15));
        assert_eq!(r.gauge_value("cachegen.serving.shed_rate"), Some(0.25));
        assert_eq!(r.histogram("cachegen.serving.ttft_ms").unwrap().count(), 1);
        assert_eq!(r.counter("missing"), None);
    }
}
