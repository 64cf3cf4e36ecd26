//! Order statistics and the N-sample micro helper.
//!
//! The vendored criterion stand-in takes one timing per bench function;
//! every "micro" row of the ledger instead goes through [`sample`]:
//! N timed calls, reported as median with MAD and quartiles, inputs and
//! results passed through `black_box`, plus a check that the measured
//! time grows with the amount of work (so a call the optimiser deleted
//! cannot report a fantastic rate).

use std::hint::black_box;
use std::time::Instant;

/// Linear-interpolated percentile (`p` in 0..=100) of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Ascending copy of `values` (which must hold no NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("sample holds no NaN"));
    v
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values), 50.0)
}

/// Median, spread and size of one sample.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Number of values.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
}

impl Summary {
    /// Summarises an unsorted sample.
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        let median = percentile_sorted(&s, 50.0);
        let deviations: Vec<f64> = s.iter().map(|v| (v - median).abs()).collect();
        Summary {
            n: s.len(),
            median,
            q1: percentile_sorted(&s, 25.0),
            q3: percentile_sorted(&s, 75.0),
            mad: self::median(&deviations),
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// One micro measurement: seconds per call of the timed function.
#[derive(Clone, Copy, Debug)]
pub struct Micro {
    /// Seconds per single call, over `n` samples.
    pub secs: Summary,
    /// Median time of four back-to-back calls over the median time of
    /// one. A real workload gives about 4; a call the compiler removed
    /// gives about 1.
    pub scaling: f64,
}

impl Micro {
    /// `units` of work per call → units per second at the median.
    pub fn rate(&self, units: f64) -> f64 {
        units / self.secs.median
    }
}

/// Times `f(input)` `n` times. `f` should take at least a few tens of
/// microseconds so the clock's own cost stays negligible.
pub fn sample<I: ?Sized, T>(n: usize, input: &I, mut f: impl FnMut(&I) -> T) -> Micro {
    assert!(n >= 3, "a median needs at least three samples");
    let mut timed = |calls: usize| {
        let start = Instant::now();
        for _ in 0..calls {
            black_box(f(black_box(input)));
        }
        start.elapsed().as_secs_f64()
    };
    timed(1); // warm caches and lazy tables
    let single: Vec<f64> = (0..n).map(|_| timed(1)).collect();
    let fourfold: Vec<f64> = (0..n.div_ceil(3)).map(|_| timed(4)).collect();
    let secs = Summary::of(&single);
    Micro {
        secs,
        scaling: median(&fourfold) / secs.median,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(percentile_sorted(&s, 50.0), 3.0);
        assert_eq!(percentile_sorted(&s, 100.0), 5.0);
        assert_eq!(percentile_sorted(&s, 62.5), 3.5);
    }

    #[test]
    fn summary_reports_spread() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.median, s.q1, s.q3, s.mad), (5, 3.0, 2.0, 4.0, 1.0));
        assert!((s.iqr_share() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn sample_sees_work_scale() {
        let data: Vec<u64> = (0..200_000).collect();
        let m = sample(9, &data[..], |d| {
            d.iter().fold(0u64, |a, &x| a ^ x.rotate_left(7))
        });
        assert_eq!(m.secs.n, 9);
        assert!(m.scaling >= 2.0, "scaling {}", m.scaling);
    }
}
