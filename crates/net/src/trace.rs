//! Piecewise-constant bandwidth traces.
//!
//! A trace maps virtual time to available bandwidth (bits/second). Transfer
//! completion times are computed by integrating the rate from the start
//! time until the requested byte count is consumed — exactly how the
//! paper's Figure 7 walks a 1 GB KV stream through a 2 → 0.2 → 1 Gbps
//! bandwidth drop.

use rand::Rng;

/// One gigabit per second, in bits/second.
pub const GBPS: f64 = 1e9;

/// A piecewise-constant bandwidth trace. Segments are `(start_time,
/// bits_per_sec)`, sorted by start time; the last segment extends forever.
#[derive(Clone, Debug, PartialEq)]
pub struct BandwidthTrace {
    segments: Vec<(f64, f64)>,
}

impl BandwidthTrace {
    /// Constant bandwidth forever.
    pub fn constant(bits_per_sec: f64) -> Self {
        assert!(bits_per_sec > 0.0, "bandwidth must be positive");
        BandwidthTrace {
            segments: vec![(0.0, bits_per_sec)],
        }
    }

    /// A trace from explicit `(start_time, bits_per_sec)` segments. The
    /// first segment must start at 0 and times must be strictly increasing.
    pub fn from_segments(segments: Vec<(f64, f64)>) -> Self {
        assert!(!segments.is_empty(), "trace needs at least one segment");
        assert_eq!(segments[0].0, 0.0, "first segment must start at t=0");
        for w in segments.windows(2) {
            assert!(w[0].0 < w[1].0, "segment times must increase");
        }
        assert!(
            segments.iter().all(|&(_, r)| r > 0.0),
            "rates must be positive"
        );
        BandwidthTrace { segments }
    }

    /// The Figure 7 demonstration trace: 2 Gbps for 2 s, a drop to
    /// 0.2 Gbps until t = 4 s, then 1 Gbps.
    pub fn figure7() -> Self {
        BandwidthTrace::from_segments(vec![
            (0.0, 2.0 * GBPS),
            (2.0, 0.2 * GBPS),
            (4.0, 1.0 * GBPS),
        ])
    }

    /// Random trace in the style of §7.4: bandwidth re-sampled uniformly in
    /// `[lo, hi]` every `period` seconds, for `n` periods (then the last
    /// value holds).
    pub fn random_uniform<R: Rng>(
        rng: &mut R,
        lo_bps: f64,
        hi_bps: f64,
        period: f64,
        n: usize,
    ) -> Self {
        assert!(lo_bps > 0.0 && hi_bps >= lo_bps && period > 0.0 && n >= 1);
        let segments = (0..n)
            .map(|i| {
                let r: f64 = rng.gen();
                (i as f64 * period, lo_bps + r * (hi_bps - lo_bps))
            })
            .collect();
        BandwidthTrace::from_segments(segments)
    }

    /// Seconds needed to transfer `bytes` starting at time `start`
    /// (integrates the rate across segment boundaries).
    pub fn transfer_seconds(&self, bytes: u64, start: f64) -> f64 {
        assert!(start >= 0.0);
        if bytes == 0 {
            return 0.0;
        }
        let mut remaining_bits = bytes as f64 * 8.0;
        let mut t = start;
        let mut idx = self.segments.partition_point(|&(s, _)| s <= t) - 1;
        loop {
            let rate = self.segments[idx].1;
            let seg_end = self
                .segments
                .get(idx + 1)
                .map(|&(s, _)| s)
                .unwrap_or(f64::INFINITY);
            let dur = seg_end - t;
            let capacity = rate * dur;
            if remaining_bits <= capacity {
                return t + remaining_bits / rate - start;
            }
            remaining_bits -= capacity;
            t = seg_end;
            idx += 1;
        }
    }

    /// Bytes transferable in `[start, start + duration)`.
    pub fn bytes_transferable(&self, start: f64, duration: f64) -> u64 {
        assert!(start >= 0.0 && duration >= 0.0);
        if duration == 0.0 {
            return 0;
        }
        let end = start + duration;
        let mut bits = 0.0f64;
        let mut t = start;
        let mut idx = self.segments.partition_point(|&(s, _)| s <= t) - 1;
        while t < end {
            let rate = self.segments[idx].1;
            let seg_end = self
                .segments
                .get(idx + 1)
                .map(|&(s, _)| s)
                .unwrap_or(f64::INFINITY);
            let stop = seg_end.min(end);
            bits += rate * (stop - t);
            t = stop;
            idx += 1;
        }
        (bits / 8.0).floor() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachegen_tensor::rng::seeded;

    impl BandwidthTrace {
        /// Bandwidth available at time `t` (bits/second).
        fn bandwidth_at(&self, t: f64) -> f64 {
            assert!(t >= 0.0, "time must be non-negative");
            // partition_point gives the first segment starting after t.
            let idx = self.segments.partition_point(|&(s, _)| s <= t);
            self.segments[idx - 1].1
        }
    }

    #[test]
    fn constant_trace_lookup() {
        let t = BandwidthTrace::constant(GBPS);
        assert_eq!(t.bandwidth_at(0.0), GBPS);
        assert_eq!(t.bandwidth_at(1e6), GBPS);
    }

    #[test]
    fn segment_lookup() {
        let t = BandwidthTrace::figure7();
        assert_eq!(t.bandwidth_at(0.0), 2.0 * GBPS);
        assert_eq!(t.bandwidth_at(1.999), 2.0 * GBPS);
        assert_eq!(t.bandwidth_at(2.0), 0.2 * GBPS);
        assert_eq!(t.bandwidth_at(3.5), 0.2 * GBPS);
        assert_eq!(t.bandwidth_at(4.0), 1.0 * GBPS);
        assert_eq!(t.bandwidth_at(100.0), 1.0 * GBPS);
    }

    #[test]
    fn constant_transfer_time() {
        let t = BandwidthTrace::constant(8e9); // 1 GB/s
        assert!((t.transfer_seconds(1_000_000_000, 0.0) - 1.0).abs() < 1e-9);
        assert!((t.transfer_seconds(500_000_000, 7.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn figure7_scenario_misses_slo_without_adaptation() {
        // §5.3: a 1 GB KV stream at a fixed encoding level takes ~7 s on the
        // Figure 7 trace (SLO was 4 s with steady 2 Gbps).
        let t = BandwidthTrace::figure7();
        let dur = t.transfer_seconds(1_000_000_000, 0.0);
        // 2s × 2Gbps = 4Gbit; 2s × 0.2 = 0.4 Gbit; remaining 3.6 Gbit at
        // 1 Gbps = 3.6 s ⇒ total 7.6 s.
        assert!((dur - 7.6).abs() < 1e-6, "got {dur}");
    }

    #[test]
    fn transfer_spanning_boundary() {
        let t = BandwidthTrace::from_segments(vec![(0.0, 8.0), (1.0, 16.0)]);
        // 3 bytes = 24 bits: 8 bits in first second, 16 bits in the next.
        assert!((t.transfer_seconds(3, 0.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_bytes_zero_time() {
        let t = BandwidthTrace::figure7();
        assert_eq!(t.transfer_seconds(0, 3.0), 0.0);
    }

    #[test]
    fn bytes_transferable_inverts_transfer_time() {
        let t = BandwidthTrace::figure7();
        for &bytes in &[1_000u64, 1_000_000, 1_000_000_000] {
            for &start in &[0.0, 1.5, 3.9] {
                let dur = t.transfer_seconds(bytes, start);
                let got = t.bytes_transferable(start, dur);
                assert!(
                    (got as i64 - bytes as i64).abs() <= 1,
                    "bytes {bytes} start {start}: got {got}"
                );
            }
        }
    }

    #[test]
    fn random_trace_is_deterministic_and_in_range() {
        let a = BandwidthTrace::random_uniform(&mut seeded(5), 0.1 * GBPS, 10.0 * GBPS, 0.5, 20);
        let b = BandwidthTrace::random_uniform(&mut seeded(5), 0.1 * GBPS, 10.0 * GBPS, 0.5, 20);
        assert_eq!(a, b);
        for i in 0..20 {
            let bw = a.bandwidth_at(i as f64 * 0.5 + 0.01);
            assert!((0.1 * GBPS..=10.0 * GBPS).contains(&bw));
        }
    }

    #[test]
    #[should_panic(expected = "must start at t=0")]
    fn rejects_late_first_segment() {
        let _ = BandwidthTrace::from_segments(vec![(1.0, GBPS)]);
    }
}
