//! Deterministic network simulation for KV-cache streaming.
//!
//! The paper streams KV bitstreams over links whose bandwidth varies during
//! a transfer (§5.3, Figure 7) and evaluates from 0.4 to 400 Gbps
//! (Figure 11) plus randomly-sampled traces (Figure 13). This crate models
//! that substrate as *virtual-time* discrete events — no sockets, no sleeps
//! — so a full SLO sweep runs in milliseconds and every run is reproducible:
//!
//! * [`BandwidthTrace`] — piecewise-constant available bandwidth over time,
//!   with constructors for constant rates, the Figure 7 demo trace, and
//!   seeded random traces (0.1–10 Gbps per chunk, §7.4).
//! * [`Link`] — a trace plus propagation delay and the one fault model:
//!   seeded per-packet fault injection (drop/reorder/duplicate/truncate of
//!   individually addressed chunk packets — the loss-resilient transport
//!   substrate). Opaque transfers are always exact; a slow link is a
//!   slower trace.
//! * [`packet`] — packet batch delivery records ([`PacketFaults`],
//!   [`Link::send_packets`]) consumed by the streamer's chunk schedule and
//!   the codec's repair policies, including burst drops (consecutive
//!   packets lost together).
//! * [`fec`] — systematic forward error correction: striped parity
//!   groups ([`FecGroups`]) carrying `r ≥ 1` repair packets each.
//! * [`rs`] — the one erasure code: GF(256) ([`gf256`]) Cauchy
//!   Reed–Solomon ([`RsCode`]) recovering any `r` losses per group, whose
//!   first parity row is plain XOR.
//! * [`ThroughputEstimator`] — the streamer's bandwidth estimate: the
//!   measured throughput of the previous chunk (§5.3), optionally smoothed.
//! * [`LossEstimator`] — the matching packet-loss estimate (EWMA over
//!   per-chunk delivery outcomes) that drives loss-rate-adaptive (k, r)
//!   parity selection in the streamer.

pub mod fec;
pub mod gf256;
pub mod link;
pub mod packet;
pub mod rs;
pub mod trace;

pub use fec::FecGroups;
pub use link::{Link, LinkStats, TransferResult};
pub use packet::{PacketBatchResult, PacketDelivery, PacketFaults, PacketStatus};
pub use rs::{FecError, RsCode};
pub use trace::BandwidthTrace;

/// The streamer's bandwidth estimator (§5.3): "CacheGen estimates the
/// bandwidth by measuring the throughput of the previous chunk. It assumes
/// this throughput will remain constant for the remaining chunks."
#[derive(Clone, Debug)]
pub struct ThroughputEstimator {
    /// Exponential smoothing factor: 1.0 = use only the last sample
    /// (the paper's behaviour), smaller values average history.
    alpha: f64,
    estimate: Option<f64>,
}

impl ThroughputEstimator {
    /// Paper-default estimator (last sample wins).
    pub fn new() -> Self {
        ThroughputEstimator {
            alpha: 1.0,
            estimate: None,
        }
    }

    /// Records a completed transfer.
    pub fn observe(&mut self, bytes: u64, seconds: f64) {
        if seconds <= 0.0 {
            return;
        }
        let sample = bytes as f64 * 8.0 / seconds; // bits per second
        self.estimate = Some(match self.estimate {
            None => sample,
            Some(prev) => self.alpha * sample + (1.0 - self.alpha) * prev,
        });
    }

    /// Current estimate in bits/second, if any transfer has been observed.
    pub fn bits_per_sec(&self) -> Option<f64> {
        self.estimate
    }

    /// Seeds the estimator with prior knowledge (the paper uses prior
    /// throughput knowledge for the first chunk when available, §5.3).
    pub fn seed(&mut self, bits_per_sec: f64) {
        self.estimate = Some(bits_per_sec);
    }
}

impl Default for ThroughputEstimator {
    fn default() -> Self {
        Self::new()
    }
}

/// Packet-loss estimator mirroring [`ThroughputEstimator`]: an EWMA over
/// per-chunk delivery outcomes (`lost / total` data packets on the
/// channel, *before* FEC recovery — recovery hides losses from the
/// application, not from the estimator). The streamer feeds each chunk's
/// outcome in and asks for the current estimate before scheduling the
/// next chunk, so parity depth adapts one chunk behind the channel —
/// the same one-chunk feedback lag the paper's bandwidth estimator
/// accepts (§5.3).
///
/// The estimate is exposed in integer **per-mille** (`0..=1000`) so the
/// adaptive FEC policy thresholds stay exactly comparable (`Eq`-derivable
/// configs, no float compares in the decision path).
#[derive(Clone, Debug)]
pub struct LossEstimator {
    /// Exponential smoothing factor: 1.0 = use only the last chunk.
    alpha: f64,
    estimate: Option<f64>,
}

impl LossEstimator {
    /// Default estimator: `alpha = 0.5` — bursty channels move the
    /// estimate fast, one clean chunk doesn't erase the history.
    pub fn new() -> Self {
        Self::with_alpha(0.5)
    }

    /// EWMA estimator with smoothing factor `alpha ∈ (0, 1]`.
    fn with_alpha(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0);
        LossEstimator {
            alpha,
            estimate: None,
        }
    }

    /// Records one chunk's channel outcome: `lost` of `total` data
    /// packets failed to arrive on the first round (pre-FEC-recovery).
    pub fn observe(&mut self, lost: usize, total: usize) {
        if total == 0 {
            return;
        }
        let sample = lost as f64 / total as f64;
        self.estimate = Some(match self.estimate {
            None => sample,
            Some(prev) => self.alpha * sample + (1.0 - self.alpha) * prev,
        });
    }

    /// Current loss estimate in per-mille (`0..=1000`), if any chunk has
    /// been observed. Rounds half-up so a 2% channel reads as `20`.
    pub fn loss_permille(&self) -> Option<u32> {
        self.estimate
            .map(|e| (e.clamp(0.0, 1.0) * 1000.0).round() as u32)
    }

    /// Seeds the estimator with prior channel knowledge.
    pub fn seed(&mut self, loss_fraction: f64) {
        self.estimate = Some(loss_fraction.clamp(0.0, 1.0));
    }
}

impl Default for LossEstimator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_starts_empty() {
        assert!(ThroughputEstimator::new().bits_per_sec().is_none());
    }

    #[test]
    fn last_sample_estimator() {
        let mut e = ThroughputEstimator::new();
        e.observe(1_000_000, 1.0); // 8 Mbps
        assert!((e.bits_per_sec().unwrap() - 8e6).abs() < 1.0);
        e.observe(1_000_000, 2.0); // 4 Mbps replaces it
        assert!((e.bits_per_sec().unwrap() - 4e6).abs() < 1.0);
    }

    #[test]
    fn ewma_smooths() {
        let mut e = ThroughputEstimator {
            alpha: 0.5,
            estimate: None,
        };
        e.observe(1_000_000, 1.0); // 8 Mbps
        e.observe(1_000_000, 2.0); // sample 4 Mbps → estimate 6 Mbps
        assert!((e.bits_per_sec().unwrap() - 6e6).abs() < 1.0);
    }

    #[test]
    fn zero_duration_ignored() {
        let mut e = ThroughputEstimator::new();
        e.observe(100, 0.0);
        assert!(e.bits_per_sec().is_none());
    }

    #[test]
    fn seeding() {
        let mut e = ThroughputEstimator::new();
        e.seed(2e9);
        assert_eq!(e.bits_per_sec(), Some(2e9));
    }

    #[test]
    fn loss_estimator_starts_empty_and_tracks_permille() {
        let mut e = LossEstimator::new();
        assert_eq!(e.loss_permille(), None);
        e.observe(2, 10); // 20%
        assert_eq!(e.loss_permille(), Some(200));
        e.observe(0, 10); // EWMA 0.5: 10%
        assert_eq!(e.loss_permille(), Some(100));
    }

    #[test]
    fn loss_estimator_ignores_empty_chunks_and_clamps_seed() {
        let mut e = LossEstimator::new();
        e.observe(0, 0);
        assert_eq!(e.loss_permille(), None);
        e.seed(2.0);
        assert_eq!(e.loss_permille(), Some(1000));
    }
}
