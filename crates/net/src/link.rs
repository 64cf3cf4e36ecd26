//! A network link: bandwidth trace + propagation delay + fault injection.
//!
//! The link is what the KV streamer actually sends chunks over. It has one
//! fault model, **per-packet faults** ([`Link::with_packet_faults`]):
//! individually addressed chunk packets are dropped / reordered /
//! duplicated / truncated by [`Link::send_packets`], and the caller models
//! recovery explicitly (FEC, retransmit budget, repair policies). An
//! opaque [`Link::send`] is always exact — a link that is merely *slow*
//! is a slower [`BandwidthTrace`], not a fault. Fault draws are seeded and
//! deterministic.

use crate::packet::{PacketBatchResult, PacketDelivery, PacketFaults, PacketStatus};
use crate::trace::BandwidthTrace;
use cachegen_tensor::rng::seeded;
use rand::rngs::StdRng;
use rand::Rng;

/// Outcome of one transfer over a [`Link`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransferResult {
    /// Virtual time the transfer started.
    pub start: f64,
    /// Virtual time the last byte arrived.
    pub finish: f64,
    /// Bytes delivered.
    pub bytes: u64,
}

impl TransferResult {
    /// Transfer duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.finish - self.start
    }

    /// Measured goodput in bits/second (what the streamer's estimator sees).
    pub fn throughput_bps(&self) -> f64 {
        if self.seconds() <= 0.0 {
            f64::INFINITY
        } else {
            self.bytes as f64 * 8.0 / self.seconds()
        }
    }
}

/// Cumulative transport counters a [`Link`] keeps as it is used.
///
/// The serving layer drains these into the telemetry registry
/// (`cachegen.net.*`) after a run; [`Link::reset_stats`] zeroes them so
/// repeated simulations over one link start from a clean slate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Opaque [`Link::send`] transfers completed.
    pub transfers: u64,
    /// [`Link::send_packets`] batches completed.
    pub packet_batches: u64,
    /// Bytes that occupied the wire (including duplicates).
    pub wire_bytes: u64,
    /// Payload bytes delivered intact.
    pub delivered_bytes: u64,
    /// Individually addressed packets transmitted.
    pub packets_sent: u64,
    /// Packets the fault injector dropped.
    pub packets_dropped: u64,
    /// Packets that arrived truncated.
    pub packets_truncated: u64,
}

/// What a [`Link::resend`] did.
#[derive(Clone, Debug, PartialEq)]
pub struct Resent<T> {
    /// The packets that never arrived, in the order the budget gave up
    /// on them (round by round, each round's in priority order).
    pub missing: Vec<T>,
    /// Packets put on the wire: the budget spent.
    pub packets: usize,
    /// Payload bytes that arrived complete.
    pub delivered_bytes: u64,
    /// Virtual time the wire went idle (`wire_free` if nothing was sent).
    pub wire_free: f64,
    /// Latest arrival of any round or of the caller's (`last_arrival`,
    /// else `wire_free`).
    pub finish: f64,
}

/// A simulated link.
#[derive(Debug)]
pub struct Link {
    trace: BandwidthTrace,
    /// One-way propagation delay added to every transfer, seconds.
    propagation: f64,
    /// Per-packet fault injection for [`Link::send_packets`] (`None` =
    /// a clean link).
    faults: Option<PacketFaults>,
    rng: StdRng,
    stats: LinkStats,
}

impl Link {
    /// A clean link over a trace with a given propagation delay.
    pub fn new(trace: BandwidthTrace, propagation: f64) -> Self {
        assert!(propagation >= 0.0);
        Link {
            trace,
            propagation,
            faults: None,
            rng: seeded(0),
            stats: LinkStats::default(),
        }
    }

    /// Cumulative transport counters since construction or the last
    /// [`Link::reset_stats`].
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Zeroes the cumulative transport counters.
    pub fn reset_stats(&mut self) {
        self.stats = LinkStats::default();
    }

    /// Per-packet fault injection for [`Link::send_packets`], drawn from
    /// an RNG seeded with `seed`.
    pub fn with_packet_faults(mut self, faults: PacketFaults, seed: u64) -> Self {
        faults.validate();
        self.faults = Some(faults);
        self.rng = seeded(seed);
        self
    }

    /// Whether the link injects per-packet faults (drop/reorder/duplicate/
    /// truncate) — the mode [`Link::send_packets`] models precisely.
    pub fn is_packet_mode(&self) -> bool {
        self.faults.is_some()
    }

    /// The underlying bandwidth trace.
    pub fn trace(&self) -> &BandwidthTrace {
        &self.trace
    }

    /// One-way propagation delay.
    pub fn propagation(&self) -> f64 {
        self.propagation
    }

    /// Sends `bytes` as one opaque transfer starting at virtual time
    /// `start`; returns the completion record. The transfer is exact on
    /// every link: packet loss is charged through [`Link::send_packets`]
    /// and explicit retransmissions, never through an implicit derating
    /// of opaque sends.
    pub fn send(&mut self, bytes: u64, start: f64) -> TransferResult {
        let dur = self.trace.transfer_seconds(bytes, start) + self.propagation;
        self.stats.transfers += 1;
        self.stats.wire_bytes += bytes;
        self.stats.delivered_bytes += bytes;
        TransferResult {
            start,
            finish: start + dur,
            bytes,
        }
    }

    /// Transmits a batch of individually addressed packets serially over
    /// the trace, starting at `start`. Each packet occupies the wire for
    /// its payload's transfer time; the link's [`PacketFaults`] (if any)
    /// are then applied per packet: drop and truncate spend wire time but
    /// damage the delivery, duplicate costs a second transmission, and
    /// reorder delays a packet's arrival by up to the whole batch's wire
    /// span so it lands after later packets. Deterministic per seed.
    pub fn send_packets(&mut self, sizes: &[u64], start: f64) -> PacketBatchResult {
        let faults = self.faults.unwrap_or_else(PacketFaults::none);
        let mut t = start;
        let mut wire_bytes = 0u64;
        let mut delivered_bytes = 0u64;
        // First pass: wire occupancy + fault draws (arrival jitter needs
        // the total span, so reorder delays are assigned in a second pass).
        struct Draw {
            bytes: u64,
            status: PacketStatus,
            wire_done: f64,
            reorder_u: Option<f64>,
        }
        let mut draws: Vec<Draw> = Vec::with_capacity(sizes.len());
        // Drop bursts span packets: once one starts, the next `burst_len
        // - 1` packets of the batch are dropped without further draws.
        let mut burst_left = 0usize;
        for &bytes in sizes {
            let mut copies = 1u32;
            if faults.duplicate > 0.0 && self.rng.gen::<f64>() < faults.duplicate {
                copies = 2;
            }
            for _ in 0..copies {
                t += self.trace.transfer_seconds(bytes, t);
                wire_bytes += bytes;
            }
            let in_burst = if burst_left > 0 {
                burst_left -= 1;
                true
            } else if faults.burst_start > 0.0 && self.rng.gen::<f64>() < faults.burst_start {
                burst_left = faults.burst_len - 1;
                true
            } else {
                false
            };
            let status = if in_burst || (faults.loss > 0.0 && self.rng.gen::<f64>() < faults.loss) {
                PacketStatus::Dropped
            } else if faults.truncate > 0.0 && self.rng.gen::<f64>() < faults.truncate {
                // A mid-packet cut: 25–75% of the payload arrives.
                let frac = 0.25 + 0.5 * self.rng.gen::<f64>();
                PacketStatus::Truncated {
                    delivered: ((bytes as f64 * frac) as u64).min(bytes.saturating_sub(1)),
                }
            } else {
                delivered_bytes += bytes;
                PacketStatus::Delivered
            };
            let reorder_u = (faults.reorder > 0.0 && self.rng.gen::<f64>() < faults.reorder)
                .then(|| self.rng.gen::<f64>());
            draws.push(Draw {
                bytes,
                status,
                wire_done: t,
                reorder_u,
            });
        }
        let wire_finish = t;
        let span = (wire_finish - start).max(0.0);
        let mut last_arrival = start;
        let deliveries: Vec<PacketDelivery> = draws
            .into_iter()
            .enumerate()
            .map(|(index, d)| {
                let mut arrival = d.wire_done + self.propagation;
                if let Some(u) = d.reorder_u {
                    arrival += u * span;
                }
                if !matches!(d.status, PacketStatus::Dropped) {
                    last_arrival = last_arrival.max(arrival);
                }
                PacketDelivery {
                    index,
                    bytes: d.bytes,
                    status: d.status,
                    arrival,
                }
            })
            .collect();
        self.stats.packet_batches += 1;
        self.stats.wire_bytes += wire_bytes;
        self.stats.delivered_bytes += delivered_bytes;
        self.stats.packets_sent += sizes.len() as u64;
        for d in &deliveries {
            match d.status {
                PacketStatus::Dropped => self.stats.packets_dropped += 1,
                PacketStatus::Truncated { .. } => self.stats.packets_truncated += 1,
                PacketStatus::Delivered => {}
            }
        }
        PacketBatchResult {
            deliveries,
            start,
            wire_finish,
            last_arrival: last_arrival.max(wire_finish + self.propagation),
            delivered_bytes,
            wire_bytes,
        }
    }

    /// Resends `pending` (failed packets, highest priority first,
    /// `size(p)` bytes each) in rounds of [`Link::send_packets`] until all
    /// arrive or `budget` packets are spent (`usize::MAX` = unbounded);
    /// a round sends what the budget still covers and gives up on the
    /// rest. A round starts at `max(wire idle, last arrival +
    /// propagation)`: the wire is idle from `wire_free` on, and the
    /// receiver's NACK for the round that lost the packets (it ended at
    /// `last_arrival`; `None` for a fresh request) must be back.
    pub fn resend<T: Copy>(
        &mut self,
        mut pending: Vec<T>,
        size: impl Fn(T) -> u64,
        wire_free: f64,
        mut last_arrival: Option<f64>,
        mut budget: usize,
    ) -> Resent<T> {
        let mut out = Resent {
            missing: Vec::new(),
            packets: 0,
            delivered_bytes: 0,
            wire_free,
            finish: last_arrival.unwrap_or(wire_free),
        };
        while !pending.is_empty() && budget > 0 {
            let send = pending.len().min(budget);
            out.missing.extend(pending.drain(send..));
            budget -= send;
            out.packets += send;
            let nack = last_arrival.map_or(out.wire_free, |t| t + self.propagation);
            let sizes: Vec<u64> = pending.iter().map(|&p| size(p)).collect();
            let res = self.send_packets(&sizes, out.wire_free.max(nack));
            out.wire_free = res.wire_finish;
            out.finish = out.finish.max(res.last_arrival);
            out.delivered_bytes += res.delivered_bytes;
            last_arrival = Some(res.last_arrival);
            pending = res.failed().iter().map(|&i| pending[i]).collect();
        }
        // Moved, not copied, when nothing was given up earlier: a zero
        // budget allocates nothing.
        if out.missing.is_empty() {
            out.missing = pending;
        } else {
            out.missing.extend(pending);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::GBPS;

    #[test]
    fn clean_link_matches_trace() {
        let mut link = Link::new(BandwidthTrace::constant(8e9), 0.0);
        let r = link.send(1_000_000_000, 0.0);
        assert!((r.seconds() - 1.0).abs() < 1e-9);
        assert!((r.throughput_bps() - 8e9).abs() < 1.0);
    }

    #[test]
    fn propagation_adds_latency() {
        let mut link = Link::new(BandwidthTrace::constant(8e9), 0.05);
        let r = link.send(8_000_000, 1.0); // 8 MB = 64 Mbit → 8 ms
        assert!((r.seconds() - 0.058).abs() < 1e-9);
        assert_eq!(r.start, 1.0);
    }

    #[test]
    fn measured_throughput_feeds_estimator() {
        let mut link = Link::new(BandwidthTrace::figure7(), 0.0);
        // A chunk sent entirely inside the 0.2 Gbps valley measures 0.2 Gbps.
        let r = link.send(25_000_000, 2.0); // 0.2 Gbit at 0.2 Gbps = 1 s
        let mut est = crate::ThroughputEstimator::new();
        est.observe(r.bytes, r.seconds());
        assert!((est.bits_per_sec().unwrap() - 0.2 * GBPS).abs() / GBPS < 1e-6);
    }

    #[test]
    fn packet_mode_send_does_not_derate() {
        // A caller that retransmits explicitly must not also pay an
        // implicit 1/(1-loss) derating on opaque sends.
        let clean = Link::new(BandwidthTrace::constant(GBPS), 0.0).send(10_000_000, 0.0);
        let r = Link::new(BandwidthTrace::constant(GBPS), 0.0)
            .with_packet_faults(PacketFaults::loss(0.4), 5)
            .send(10_000_000, 0.0);
        assert_eq!(r.seconds(), clean.seconds());
    }

    #[test]
    fn clean_packet_batch_delivers_everything_in_order() {
        let mut link = Link::new(BandwidthTrace::constant(8e9), 0.01);
        let sizes = [1_000_000u64, 2_000_000, 500_000];
        let r = link.send_packets(&sizes, 1.0);
        assert!(r.all_delivered());
        assert_eq!(r.delivered_bytes, 3_500_000);
        assert_eq!(r.wire_bytes, 3_500_000);
        // 3.5 MB = 28 Mbit at 8 Gbps = 3.5 ms on the wire.
        assert!((r.wire_finish - 1.0035).abs() < 1e-9);
        assert!((r.last_arrival - 1.0135).abs() < 1e-9);
        let arrivals: Vec<f64> = r.deliveries.iter().map(|d| d.arrival).collect();
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn packet_loss_is_deterministic_and_spends_wire_time() {
        let run = || {
            let mut link = Link::new(BandwidthTrace::constant(GBPS), 0.0)
                .with_packet_faults(PacketFaults::loss(0.3), 11);
            link.send_packets(&vec![100_000u64; 50], 0.0)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must reproduce the same faults");
        let lost = a.failed().len();
        assert!((5..30).contains(&lost), "30% of 50 ≈ 15, got {lost}");
        // Dropped packets still occupied the wire.
        assert_eq!(a.wire_bytes, 5_000_000);
        assert!(a.delivered_bytes < 5_000_000);
        let clean =
            Link::new(BandwidthTrace::constant(GBPS), 0.0).send_packets(&vec![100_000u64; 50], 0.0);
        assert!((a.wire_finish - clean.wire_finish).abs() < 1e-9);
    }

    #[test]
    fn reorder_shuffles_arrivals_without_losing_payload() {
        let mut link = Link::new(BandwidthTrace::constant(GBPS), 0.0).with_packet_faults(
            PacketFaults {
                reorder: 0.5,
                ..PacketFaults::none()
            },
            13,
        );
        let r = link.send_packets(&vec![100_000u64; 40], 0.0);
        assert!(r.all_delivered(), "reorder must not drop payload");
        let arrivals: Vec<f64> = r.deliveries.iter().map(|d| d.arrival).collect();
        assert!(
            arrivals.windows(2).any(|w| w[0] > w[1]),
            "at 50% reorder some packet must land out of order"
        );
        assert!(r.last_arrival >= r.wire_finish);
    }

    #[test]
    fn truncation_delivers_a_strict_prefix() {
        let mut link = Link::new(BandwidthTrace::constant(GBPS), 0.0).with_packet_faults(
            PacketFaults {
                truncate: 0.9,
                ..PacketFaults::none()
            },
            17,
        );
        let r = link.send_packets(&[10_000u64; 20], 0.0);
        let truncated: Vec<_> = r
            .deliveries
            .iter()
            .filter_map(|d| match d.status {
                PacketStatus::Truncated { delivered } => Some(delivered),
                _ => None,
            })
            .collect();
        assert!(!truncated.is_empty());
        assert!(truncated.iter().all(|&d| d > 0 && d < 10_000));
    }

    #[test]
    fn burst_drops_consecutive_packets() {
        let mut link = Link::new(BandwidthTrace::constant(GBPS), 0.0)
            .with_packet_faults(PacketFaults::burst(0.05, 4), 23);
        let r = link.send_packets(&vec![10_000u64; 60], 0.0);
        let dropped: Vec<usize> = r.failed();
        assert!(!dropped.is_empty(), "5% burst starts over 60 packets");
        // Drops come in runs of (up to) 4 consecutive indices: every
        // dropped packet is adjacent to another unless it ends a burst
        // cut short by the batch boundary.
        let mut runs = Vec::new();
        let mut run = 1usize;
        for w in dropped.windows(2) {
            if w[1] == w[0] + 1 {
                run += 1;
            } else {
                runs.push(run);
                run = 1;
            }
        }
        runs.push(run);
        assert!(
            runs.iter().any(|&r| r >= 4),
            "bursts of 4 must appear: runs {runs:?}"
        );
        // Same seed reproduces the same bursts.
        let mut link2 = Link::new(BandwidthTrace::constant(GBPS), 0.0)
            .with_packet_faults(PacketFaults::burst(0.05, 4), 23);
        assert_eq!(link2.send_packets(&vec![10_000u64; 60], 0.0), r);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut link = Link::new(BandwidthTrace::constant(GBPS), 0.0)
            .with_packet_faults(PacketFaults::loss(0.3), 11);
        let r = link.send_packets(&vec![100_000u64; 50], 0.0);
        let s = link.stats();
        assert_eq!(s.packet_batches, 1);
        assert_eq!(s.packets_sent, 50);
        assert_eq!(s.packets_dropped as usize, r.failed().len());
        assert_eq!(s.wire_bytes, r.wire_bytes);
        assert_eq!(s.delivered_bytes, r.delivered_bytes);
        link.reset_stats();
        assert_eq!(link.stats(), LinkStats::default());

        let mut opaque = Link::new(BandwidthTrace::constant(GBPS), 0.0);
        opaque.send(1_000, 0.0);
        opaque.send(2_000, 1.0);
        let s = opaque.stats();
        assert_eq!(s.transfers, 2);
        assert_eq!(s.wire_bytes, 3_000);
        assert_eq!(s.delivered_bytes, 3_000);
    }

    #[test]
    fn zero_budget_sends_nothing_and_keeps_the_wire_clock() {
        let mut link = Link::new(BandwidthTrace::constant(GBPS), 0.01)
            .with_packet_faults(PacketFaults::loss(0.5), 1);
        // The caller's round left the wire at 1.2 and its last packet
        // landed at 1.5; a resend would have waited for 1.5 + 0.01.
        let r = link.resend(vec![3usize, 1, 4], |_| 1_000, 1.2, Some(1.5), 0);
        let untouched = Resent {
            missing: vec![3, 1, 4],
            packets: 0,
            delivered_bytes: 0,
            wire_free: 1.2,
            finish: 1.5,
        };
        assert_eq!(r, untouched);
        assert_eq!(link.stats(), LinkStats::default());
    }

    #[test]
    fn a_short_budget_resends_the_first_failures_and_gives_up_in_order() {
        let size = |i: usize| 1_000 * (i as u64 + 1);
        // Clean link: the budget alone decides what goes out.
        let mut link = Link::new(BandwidthTrace::constant(GBPS), 0.01);
        let r = link.resend((0..5).collect(), size, 0.0, None, 2);
        assert_eq!(r.missing, vec![2, 3, 4]);
        assert_eq!(r.packets, 2);
        assert_eq!(r.delivered_bytes, size(0) + size(1));
        assert_eq!(link.stats().packets_sent, 2);
        // Lossy link: the first round's leftovers come first, then each
        // later round's failures, each run in priority order.
        let mut link = Link::new(BandwidthTrace::constant(GBPS), 0.01)
            .with_packet_faults(PacketFaults::loss(0.5), 7);
        let r = link.resend((0..8).collect(), size, 0.0, None, 6);
        assert_eq!(r.packets, 6);
        assert_eq!(r.missing[..2], [6, 7]);
        assert!(r.missing[2..].iter().all(|&i| i < 6), "{:?}", r.missing);
        assert!(r.missing.len() > 2, "seeded 50% loss fails some resend");
        let delivered: u64 = (0..8).filter(|i| !r.missing.contains(i)).map(size).sum();
        assert_eq!(r.delivered_bytes, delivered);
    }

    #[test]
    fn each_round_waits_for_the_previous_rounds_nack() {
        // One packet, resent until it lands: every round is wire time
        // plus one propagation delay to arrive, and the next round starts
        // one more propagation delay later (the NACK's trip back).
        let (prop, bytes) = (0.01, 125_000u64);
        let tx = bytes as f64 * 8.0 / GBPS;
        let mut most_rounds = 0;
        for seed in 0..16 {
            let mut link = Link::new(BandwidthTrace::constant(GBPS), prop)
                .with_packet_faults(PacketFaults::loss(0.6), seed);
            let r = link.resend(vec![bytes], |b| b, 1.0, Some(0.995), usize::MAX);
            assert!(r.missing.is_empty());
            most_rounds = most_rounds.max(r.packets);
            // The first round waits for the caller's round's NACK too.
            let first = 0.995 + prop;
            let rounds = r.packets as f64;
            let want = first + rounds * (tx + prop) + (rounds - 1.0) * prop;
            assert!(
                (r.finish - want).abs() < 1e-9,
                "seed {seed}: {} vs {want}",
                r.finish
            );
            assert!((r.wire_free - (want - prop)).abs() < 1e-9, "seed {seed}");
        }
        assert!(most_rounds >= 3, "seeded 60% loss drops some packet twice");
    }

    #[test]
    fn unbounded_resend_equals_a_hand_driven_loop() {
        let faults = PacketFaults {
            loss: 0.3,
            reorder: 0.2,
            duplicate: 0.1,
            truncate: 0.1,
            ..PacketFaults::none()
        };
        let lossy =
            || Link::new(BandwidthTrace::constant(GBPS), 0.02).with_packet_faults(faults, 29);
        let size = |i: usize| 2_000 + 300 * i as u64;
        let mut link = lossy();
        let r = link.resend((0..20).collect(), size, 0.5, None, usize::MAX);

        let mut hand = lossy();
        let mut pending: Vec<usize> = (0..20).collect();
        let (mut t, mut finish, mut sent, mut delivered) = (0.5f64, 0.5f64, 0, 0);
        let mut nack: Option<f64> = None;
        let mut rounds = 0;
        while !pending.is_empty() {
            let start = nack.map_or(t, |a| t.max(a + hand.propagation()));
            let sizes: Vec<u64> = pending.iter().map(|&i| size(i)).collect();
            let res = hand.send_packets(&sizes, start);
            sent += pending.len();
            delivered += res.delivered_bytes;
            t = res.wire_finish;
            finish = finish.max(res.last_arrival);
            nack = Some(res.last_arrival);
            pending = res.failed().iter().map(|&i| pending[i]).collect();
            rounds += 1;
        }
        assert!(rounds >= 3, "the seeded link fails some resends too");
        let want = Resent {
            missing: Vec::new(),
            packets: sent,
            delivered_bytes: delivered,
            wire_free: t,
            finish,
        };
        assert_eq!(r, want);
        assert_eq!(link.stats(), hand.stats());
    }

    #[test]
    fn duplicates_cost_wire_bytes_only() {
        let mut link = Link::new(BandwidthTrace::constant(GBPS), 0.0).with_packet_faults(
            PacketFaults {
                duplicate: 0.5,
                ..PacketFaults::none()
            },
            19,
        );
        let r = link.send_packets(&vec![50_000u64; 30], 0.0);
        assert!(r.all_delivered());
        assert_eq!(r.delivered_bytes, 1_500_000, "payload counted once");
        assert!(r.wire_bytes > 1_500_000, "duplicates occupy the wire");
    }
}
