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
//!   slower trace. [`Link::resend`] is the one resend rule (streamer
//!   retransmits, the read path's Refetch pass, serving re-fetches):
//!   rounds gated on the receiver's NACK (last arrival plus one
//!   propagation delay), highest priority first, under a packet budget.
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
//!   measured throughput of the previous chunk (§5.3).
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
pub use link::{Link, LinkStats, Resent, TransferResult};
pub use packet::{PacketBatchResult, PacketDelivery, PacketFaults, PacketStatus};
pub use rs::{FecError, RsCode};
pub use trace::BandwidthTrace;

/// The streamer's bandwidth estimator (§5.3): "CacheGen estimates the
/// bandwidth by measuring the throughput of the previous chunk. It assumes
/// this throughput will remain constant for the remaining chunks." The
/// estimate is the last sample, unsmoothed.
#[derive(Clone, Debug, Default)]
pub struct ThroughputEstimator {
    estimate: Option<f64>,
}

impl ThroughputEstimator {
    /// An estimator with no sample yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed transfer; its throughput replaces the estimate.
    pub fn observe(&mut self, bytes: u64, seconds: f64) {
        if seconds <= 0.0 {
            return;
        }
        self.estimate = Some(bytes as f64 * 8.0 / seconds); // bits per second
    }

    /// Current estimate in bits/second, if any transfer has been observed.
    pub fn bits_per_sec(&self) -> Option<f64> {
        self.estimate
    }
}

/// Weight of the newest chunk in [`LossEstimator`]'s EWMA: bursty
/// channels move the estimate fast, one clean chunk does not erase the
/// history.
const LOSS_ALPHA: f64 = 0.5;

/// Packet-loss estimator mirroring [`ThroughputEstimator`]: an EWMA (each
/// chunk weighted 0.5 against the history) over per-chunk delivery
/// outcomes (`lost / total` data packets on the channel, *before* FEC
/// recovery — recovery hides losses from the application, not from the
/// estimator). The streamer feeds each chunk's outcome in and asks for the
/// current estimate before scheduling the next chunk, so parity depth
/// adapts one chunk behind the channel — the same one-chunk feedback lag
/// the paper's bandwidth estimator accepts (§5.3).
///
/// The estimate is exposed in integer **per-mille** (`0..=1000`) so the
/// adaptive FEC policy thresholds stay exactly comparable (`Eq`-derivable
/// configs, no float compares in the decision path).
#[derive(Clone, Debug, Default)]
pub struct LossEstimator {
    estimate: Option<f64>,
}

impl LossEstimator {
    /// An estimator with no chunk observed yet.
    pub fn new() -> Self {
        Self::default()
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
            Some(prev) => LOSS_ALPHA * sample + (1.0 - LOSS_ALPHA) * prev,
        });
    }

    /// Current loss estimate in per-mille (`0..=1000`), if any chunk has
    /// been observed. Rounds half-up so a 2% channel reads as `20`.
    pub fn loss_permille(&self) -> Option<u32> {
        self.estimate
            .map(|e| (e.clamp(0.0, 1.0) * 1000.0).round() as u32)
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
    fn zero_duration_ignored() {
        let mut e = ThroughputEstimator::new();
        e.observe(100, 0.0);
        assert!(e.bits_per_sec().is_none());
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
    fn loss_estimator_ignores_empty_chunks() {
        let mut e = LossEstimator::new();
        e.observe(0, 0);
        assert_eq!(e.loss_permille(), None);
    }
}
