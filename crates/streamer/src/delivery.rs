//! Packetized delivery of one chunk schedule on a per-packet-fault link:
//! the FEC and retransmit rungs of the recovery ladder, the latter through
//! the one resend rule, [`Link::resend`]. What is still missing goes to
//! the codec's repair policies.

use crate::schedule::{ChunkSchedule, PacketId, WirePacket};
use cachegen_net::{FecGroups, Link};

/// Result of delivering one chunk's packet schedule over a lossy link.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScheduleDelivery {
    /// Virtual time the chunk's data was in hand (last surviving arrival).
    pub finish: f64,
    /// Virtual time the wire went idle (next transfer may start).
    pub wire_free: f64,
    /// Packets (and their per-request bytes) still missing after FEC
    /// recovery and the retransmit budget.
    pub lost: Vec<(PacketId, u64)>,
    /// Packets parity recovered byte-identically (no retransmission,
    /// no repair).
    pub fec_recovered: Vec<(PacketId, u64)>,
    /// Per-request parity payload bytes put on the wire.
    pub parity_bytes: u64,
    /// Retransmissions spent.
    pub retransmits: u32,
    /// Data packets sent on the first round — the denominator of the
    /// channel-loss observation the adaptive FEC policy consumes.
    pub channel_data_packets: usize,
    /// Data packets the channel dropped on the first round, *before* FEC
    /// recovery (recovery hides losses from the application, not from
    /// the loss estimator).
    pub channel_data_losses: usize,
    /// Data payload bytes that arrived complete (batch-scaled, parity
    /// excluded — the elapsed time still covers the parity
    /// transmissions, so the throughput estimator measures effective
    /// *data* goodput and level predictions price the overhead in).
    pub delivered_bytes: u64,
}

/// Delivers one chunk schedule packet by packet: send the whole wire
/// order (data in priority order, each FEC group's parity staggered
/// after its last member), recover every parity group that lost no more
/// data packets than it kept parity packets ([`cachegen_net::rs`] proves
/// it byte-identical and order-free), then resend what FEC could not
/// rebuild through [`Link::resend`] while `budget` lasts. The priority
/// order sends and repairs the early token groups first; with `fec =
/// None` the delivery is bit-identical to the pre-FEC transport.
pub fn deliver_schedule(
    sched: &ChunkSchedule,
    link: &mut Link,
    start: f64,
    batch: u64,
    budget: usize,
    fec: Option<&FecGroups>,
) -> ScheduleDelivery {
    // Round 0: the full wire order, parity included.
    let wire = sched.wire_packets(fec);
    let sizes: Vec<u64> = wire.iter().map(|p| p.bytes() * batch).collect();
    let res = link.send_packets(&sizes, start);

    // Per parity group, parity packets kept minus data packets lost. No
    // grouping (FEC off) leaves every failure unprotected.
    let group_of = |i: usize| fec.and_then(|f| f.group_of(i));
    let mut spare = vec![0isize; fec.map_or(0, FecGroups::num_groups)];
    let mut failed = Vec::new();
    let (mut parity_bytes, mut delivered_bytes) = (0, 0);
    for (slot, d) in wire.iter().zip(&res.deliveries) {
        let arrived = d.status.is_delivered();
        match *slot {
            WirePacket::Data { bytes, .. } if arrived => delivered_bytes += bytes * batch,
            WirePacket::Data { index, .. } => {
                failed.push(index);
                if let Some(g) = group_of(index) {
                    spare[g] -= 1;
                }
            }
            WirePacket::Parity { group, bytes, .. } => {
                parity_bytes += bytes;
                spare[group] += isize::from(arrived);
            }
        }
    }

    // FEC recovery, *before* any retransmission: a group whose surviving
    // parity covers its losses is reconstructed at the receiver — no
    // NACK, no budget. The rest go on to the retransmit rounds.
    let recovered = |&i: &usize| group_of(i).is_some_and(|g| spare[g] >= 0);
    let entry = |&i: &usize| sched.entry(i);
    let mut fec_recovered: Vec<_> = failed.iter().filter(|i| recovered(i)).map(entry).collect();
    fec_recovered.sort_unstable_by_key(|&(id, _)| id);
    let pending = failed.iter().filter(|i| !recovered(i)).map(entry).collect();

    // Retransmit rounds, each a NACK round trip after the last: only data
    // is resent (parity is fire-and-forget).
    let resent = link.resend(
        pending,
        |(_, bytes)| bytes * batch,
        res.wire_finish,
        Some(res.last_arrival),
        budget,
    );
    ScheduleDelivery {
        finish: resent.finish,
        wire_free: resent.wire_free,
        lost: resent.missing,
        fec_recovered,
        parity_bytes,
        retransmits: resent.packets as u32,
        channel_data_packets: sched.len(),
        channel_data_losses: failed.len(),
        delivered_bytes: delivered_bytes + resent.delivered_bytes,
    }
}
