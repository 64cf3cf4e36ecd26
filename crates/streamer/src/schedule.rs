//! The per-chunk packet schedule: which entropy chunks a stream chunk
//! ships, in what priority order, at what byte sizes.
//!
//! The codec splits every stream chunk into independently decodable
//! per-(layer, token-group) entropy chunks (§5.2). The transport
//! sends each as its own packet, so a damaged or late packet degrades only
//! its own token range. The schedule fixes two contracts:
//!
//! * **Anchor-group alignment** — every packet covers exactly one
//!   (side, layer, group) entropy chunk, so boundaries always fall on
//!   anchor-group multiples and any delivered subset decodes.
//! * **Priority order** — packets are sent early-token-groups first (then
//!   shallow layers first, K before V), so the context's head — which the
//!   first generated tokens attend to hardest — lands, and is repaired,
//!   first.
//!
//! With forward error correction enabled ([`FecOverhead`]), the schedule
//! additionally emits `r ≥ 1` **parity packets** per striped parity group
//! ([`cachegen_net::FecGroups`]): parity rides right after its group's
//! last data packet and before the next group's tail, so a group becomes
//! recoverable the moment enough of its members plus parity have landed.
//! Repair packet 0 is the XOR row; repair packets `1..r` are the further
//! Reed–Solomon rows, staggered one data slot apart so that a group's
//! copies are separated by at least one data packet wherever the
//! schedule has slots left — at the schedule's tail the stagger clamps
//! and copies can share the last slot (see
//! [`ChunkSchedule::wire_packets`] for the exact guarantee).
//! [`FecOverhead::Adaptive`] re-picks `(k, r)` before every chunk from
//! the streamer's loss estimate.

use cachegen_net::FecGroups;

/// One rung of the loss-adaptive FEC policy: the `(k, r)` parity shape
/// used while the estimated channel loss stays at or below
/// `max_loss_permille`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FecRung {
    /// Upper loss bound (inclusive) this rung covers, in per-mille —
    /// integer so the policy stays `Eq`-comparable with no float compares.
    pub max_loss_permille: u32,
    /// Parity group size: each group covers at most `k` data packets.
    pub k: usize,
    /// Repair packets per group: any `r` losses per group are recoverable.
    pub r: usize,
}

/// Loss-rate-adaptive parity ladder: rungs sorted by ascending
/// `max_loss_permille`, the first rung whose bound covers the current
/// loss estimate wins. With no estimate yet (first chunk of a stream)
/// the *last* (most protective) rung is used — mis-guessing low on a
/// lossy channel costs a retransmit round trip on the head chunk, which
/// is exactly the TTFT the ladder exists to protect; mis-guessing high
/// on a clean channel costs one chunk of extra parity bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdaptiveFec {
    rungs: Vec<FecRung>,
}

impl AdaptiveFec {
    /// Builds a ladder from rungs sorted ascending by
    /// `max_loss_permille`; the last rung must cover `1000` (total loss)
    /// so every estimate maps to a shape.
    pub fn new(rungs: Vec<FecRung>) -> Self {
        assert!(!rungs.is_empty(), "adaptive FEC needs at least one rung");
        assert!(
            rungs
                .windows(2)
                .all(|w| w[0].max_loss_permille < w[1].max_loss_permille),
            "rungs must be sorted ascending by max_loss_permille"
        );
        let last = rungs[rungs.len() - 1];
        assert!(
            last.max_loss_permille >= 1000,
            "last rung must cover 1000 per-mille"
        );
        assert!(rungs.iter().all(|r| r.k >= 1 && r.r >= 1));
        AdaptiveFec { rungs }
    }

    /// The workspace default ladder: near-lossless channels pay ~7%
    /// single-XOR parity, mild loss densifies the stripe, and past ~8%
    /// estimated loss the ladder switches to RS `r = 2` so double hits
    /// per group stay recoverable without a retransmit round trip.
    pub fn paper_default() -> Self {
        AdaptiveFec::new(vec![
            FecRung {
                max_loss_permille: 20,
                k: 14,
                r: 1,
            },
            FecRung {
                max_loss_permille: 80,
                k: 10,
                r: 1,
            },
            FecRung {
                max_loss_permille: 1000,
                k: 12,
                r: 2,
            },
        ])
    }

    /// The `(k, r)` for a loss estimate (`None` = no estimate yet →
    /// most protective rung).
    pub fn params(&self, loss_permille: Option<u32>) -> (usize, usize) {
        let rung = match loss_permille {
            None => self.rungs[self.rungs.len() - 1],
            Some(loss) => *self
                .rungs
                .iter()
                .find(|r| loss <= r.max_loss_permille)
                .unwrap_or(&self.rungs[self.rungs.len() - 1]),
        };
        (rung.k, rung.r)
    }

    /// The ladder's rungs, ascending by loss bound.
    pub fn rungs(&self) -> &[FecRung] {
        &self.rungs
    }
}

/// Per-level forward-error-correction overhead: how many data packets
/// each parity packet covers (`k`), and how many repair packets each
/// group carries (`r`). Smaller `k` = denser parity = more recoverable
/// losses = more bandwidth overhead (≈ `r/k`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FecOverhead {
    /// No parity packets (`k = ∞`): the wire output is bit-identical to
    /// the plain packetized transport.
    Off,
    /// `k` per encoding level, finest first (the last entry is reused for
    /// deeper levels). Within each schedule the head half of the priority
    /// order — early token groups, shallow layers, the container-bearing
    /// head packet — is protected at the denser `ceil(k / 2)` with one
    /// XOR parity per group ([`FecGroups::striped_sized_rs`], tiered): the
    /// packets the first generated tokens attend to hardest carry the
    /// most redundancy.
    PerLevel(Vec<usize>),
    /// Fixed multi-erasure Reed–Solomon parity: `r` repair packets per
    /// group of at most `k` data packets, striped uniformly. Any `r`
    /// losses per group (data or parity) are recoverable; `r = 1` is one
    /// XOR parity per group (the RS code's first parity row *is* the XOR
    /// row).
    Rs {
        /// Parity group size.
        k: usize,
        /// Repair packets per group.
        r: usize,
    },
    /// Loss-rate-adaptive `(k, r)`: the streamer's [`cachegen_net::
    /// LossEstimator`] picks the rung before each chunk's schedule is
    /// built, so parity density follows the channel one chunk behind —
    /// the same feedback lag the paper's bandwidth estimator accepts.
    Adaptive(AdaptiveFec),
}

impl FecOverhead {
    /// The workspace default: modest overhead (~8–14% parity bytes) that
    /// recovers the majority of i.i.d. losses at 5–10% and converts
    /// bursts up to the interleaver stride into recoverable
    /// single-per-group losses. Finer levels (bigger streams, more
    /// packets) get denser parity.
    pub fn paper_default() -> Self {
        FecOverhead::PerLevel(vec![8, 10, 12, 12, 14])
    }

    /// The loss-adaptive default ([`AdaptiveFec::paper_default`]): the
    /// frontier configuration for channels past ~10% loss, holding the
    /// 20%-loss TTFT within the repair ladder at ≤ 20% parity overhead.
    pub fn adaptive_default() -> Self {
        FecOverhead::Adaptive(AdaptiveFec::paper_default())
    }

    /// The `(k, r)` parity shape at one encoding level under the given
    /// loss estimate (`None` estimate = first chunk / no data yet).
    /// Returns `None` when FEC is off. Only [`FecOverhead::Adaptive`]
    /// consults the estimate; fixed policies ignore it.
    pub fn params_for(&self, level: usize, loss_permille: Option<u32>) -> Option<(usize, usize)> {
        match self {
            FecOverhead::Off => None,
            FecOverhead::PerLevel(ks) => {
                assert!(!ks.is_empty(), "PerLevel needs at least one k");
                Some((ks[level.min(ks.len() - 1)], 1))
            }
            FecOverhead::Rs { k, r } => Some((*k, *r)),
            FecOverhead::Adaptive(ladder) => Some(ladder.params(loss_permille)),
        }
    }

    /// The parity grouping for a schedule with the given data packet
    /// sizes at one level (`None` = FEC off), with no loss estimate —
    /// see [`FecOverhead::groups_for_with_loss`].
    pub fn groups_for(&self, level: usize, sizes: &[u64]) -> Option<FecGroups> {
        self.groups_for_with_loss(level, sizes, None)
    }

    /// The parity grouping for a schedule with the given data packet
    /// sizes at one level under the given loss estimate (`None` = FEC
    /// off). Size outliers — e.g. the container-bearing head packet,
    /// whose parity would cost as much as resending it — are left
    /// unprotected and rely on the retransmit/repair/refetch rungs
    /// ([`FecGroups::striped_sized_rs`]). The RS and adaptive policies
    /// stripe flat; [`FecOverhead::PerLevel`] protects the head half
    /// denser. Single-packet schedules (the
    /// whole-chunk fallback for analytic plans) get no parity for the
    /// same reason outliers don't: their parity would be a full copy,
    /// blowing the overhead envelope.
    pub fn groups_for_with_loss(
        &self,
        level: usize,
        sizes: &[u64],
        loss_permille: Option<u32>,
    ) -> Option<FecGroups> {
        let (k, r) = self.params_for(level, loss_permille)?;
        if sizes.len() < 2 {
            return None;
        }
        let tiered = matches!(self, FecOverhead::PerLevel(_));
        Some(FecGroups::striped_sized_rs(sizes, k, r, tiered))
    }
}

/// One packet in a schedule's wire (send) order, parity included.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WirePacket {
    /// A data packet: schedule entry `index` carrying entropy chunk `id`.
    Data {
        /// Index into the schedule's priority-ordered entries.
        index: usize,
        /// The entropy chunk the packet carries.
        id: PacketId,
        /// Payload bytes.
        bytes: u64,
    },
    /// Parity packet `index` of FEC group `group` (sized to the group's
    /// longest member). Index 0 is the XOR row; indices `1..r` are the
    /// additional Reed–Solomon repair rows.
    Parity {
        /// The parity group this packet protects.
        group: usize,
        /// Which of the group's `r` repair packets this is.
        index: usize,
        /// Payload bytes.
        bytes: u64,
    },
}

impl WirePacket {
    /// Payload bytes of the packet.
    pub fn bytes(&self) -> u64 {
        match *self {
            WirePacket::Data { bytes, .. } | WirePacket::Parity { bytes, .. } => bytes,
        }
    }
}

/// Address of one packet: which entropy chunk of the stream chunk it
/// carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId {
    /// Token-group index within the stream chunk.
    pub group: usize,
    /// Transformer layer.
    pub layer: usize,
    /// K-side (true) or V-side.
    pub is_k: bool,
}

impl PacketId {
    /// Priority key: early groups, then shallow layers, then K before V.
    fn priority(&self) -> (usize, usize, u8) {
        (self.group, self.layer, u8::from(!self.is_k))
    }
}

/// The priority-ordered packet schedule of one stream chunk at one
/// encoding level.
#[derive(Clone, Debug, PartialEq)]
pub struct ChunkSchedule {
    /// `(id, payload bytes)` in send order.
    entries: Vec<(PacketId, u64)>,
}

impl ChunkSchedule {
    /// Builds a schedule from unordered entries, sorting them into
    /// priority order (early groups / shallow layers / K first). Every
    /// entry must be a distinct chunk address.
    pub fn priority_ordered(mut entries: Vec<(PacketId, u64)>) -> Self {
        assert!(!entries.is_empty(), "schedule needs at least one packet");
        entries.sort_by_key(|(id, _)| id.priority());
        assert!(
            entries.windows(2).all(|w| w[0].0 != w[1].0),
            "duplicate packet address in schedule"
        );
        ChunkSchedule { entries }
    }

    /// A degenerate one-packet schedule covering the whole stream chunk —
    /// the fallback for analytically built plans that carry no per-chunk
    /// packet geometry (loss then means whole-chunk loss).
    pub fn single(bytes: u64) -> Self {
        ChunkSchedule {
            entries: vec![(
                PacketId {
                    group: 0,
                    layer: 0,
                    is_k: true,
                },
                bytes,
            )],
        }
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the schedule is empty (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total payload bytes across packets.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|(_, b)| b).sum()
    }

    /// The `(address, bytes)` of packet `i` in send order.
    pub fn entry(&self, i: usize) -> (PacketId, u64) {
        self.entries[i]
    }

    /// All entries in send (priority) order.
    pub fn entries(&self) -> &[(PacketId, u64)] {
        &self.entries
    }

    /// Payload sizes in send order (the shape [`cachegen_net::Link::
    /// send_packets`] consumes).
    pub fn packet_sizes(&self) -> Vec<u64> {
        self.entries.iter().map(|&(_, b)| b).collect()
    }

    /// The schedule's wire (send) order with FEC parity interleaved: data
    /// packets stay in priority order, and each group's parity packet 0
    /// is inserted immediately after the group's *last* data member —
    /// after the data of its group, before the next group's tail — so a
    /// group is recoverable as soon as its stripe has passed. Additional
    /// repair packets (`r > 1`) are staggered: parity `t` of a group is
    /// anchored `t` data slots after parity 0 (clamped to the last
    /// slot), and the parities sharing a slot are ordered by `(repair
    /// index, group)`. What that guarantees: two of a group's copies
    /// anchored on distinct slots are separated by at least one data
    /// packet; only the clamp can put two of them on one slot — the
    /// last — and there they are adjacent exactly when no other group's
    /// parity sorts between them (n = 7, k = 3, r = 2 ends `… P(g0, 0),
    /// P(g0, 1), P(g2, 1)`). With `fec = None` this is exactly the data
    /// entries (bit-identical to the pre-FEC transport).
    pub fn wire_packets(&self, fec: Option<&FecGroups>) -> Vec<WirePacket> {
        let data = |i: usize| {
            let (id, bytes) = self.entries[i];
            WirePacket::Data {
                index: i,
                id,
                bytes,
            }
        };
        let Some(fec) = fec else {
            return (0..self.entries.len()).map(data).collect();
        };
        assert_eq!(
            fec.num_packets(),
            self.entries.len(),
            "FEC grouping must cover the schedule"
        );
        let sizes = self.packet_sizes();
        let parity_sizes = fec.parity_sizes(&sizes);
        // Anchor parity t of group g after data slot last_member(g) + t;
        // at a shared slot, emit all index-0 parities before index-1 etc.
        let n = self.entries.len();
        let mut parity_after: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for g in 0..fec.num_groups() {
            if let Some(&last) = fec.members(g).last() {
                for t in 0..fec.repairs_of(g) {
                    parity_after[(last + t).min(n - 1)].push((t, g));
                }
            }
        }
        let mut out = Vec::with_capacity(n + fec.num_parity_packets());
        for (i, slot) in parity_after.iter_mut().enumerate() {
            out.push(data(i));
            slot.sort_unstable();
            for &(t, g) in slot.iter() {
                out.push(WirePacket::Parity {
                    group: g,
                    index: t,
                    bytes: parity_sizes[g],
                });
            }
        }
        out
    }

    /// Shrinks the schedule's total to `target` bytes by trimming packets
    /// from the lowest-priority end (used when a plan's monotone-size
    /// clamp nudges a level's byte count below the raw encoded total).
    /// Every packet keeps at least one byte.
    pub fn shrink_to(&mut self, target: u64) {
        let mut excess = self.total_bytes().saturating_sub(target);
        for (_, bytes) in self.entries.iter_mut().rev() {
            if excess == 0 {
                break;
            }
            let cut = excess.min(bytes.saturating_sub(1));
            *bytes -= cut;
            excess -= cut;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(group: usize, layer: usize, is_k: bool) -> PacketId {
        PacketId { group, layer, is_k }
    }

    #[test]
    fn priority_is_group_then_layer_then_k_first() {
        let sched = ChunkSchedule::priority_ordered(vec![
            (id(1, 0, true), 10),
            (id(0, 1, false), 20),
            (id(0, 0, false), 30),
            (id(0, 0, true), 40),
            (id(0, 1, true), 50),
        ]);
        let order: Vec<PacketId> = sched.entries().iter().map(|&(i, _)| i).collect();
        assert_eq!(
            order,
            vec![
                id(0, 0, true),
                id(0, 0, false),
                id(0, 1, true),
                id(0, 1, false),
                id(1, 0, true),
            ]
        );
        assert_eq!(sched.total_bytes(), 150);
        assert_eq!(sched.packet_sizes(), vec![40, 30, 50, 20, 10]);
    }

    #[test]
    #[should_panic(expected = "duplicate packet address")]
    fn duplicate_addresses_rejected() {
        let _ = ChunkSchedule::priority_ordered(vec![(id(0, 0, true), 1), (id(0, 0, true), 2)]);
    }

    #[test]
    fn single_packet_fallback() {
        let s = ChunkSchedule::single(999);
        assert_eq!(s.len(), 1);
        assert_eq!(s.total_bytes(), 999);
    }

    #[test]
    fn wire_packets_without_fec_are_the_data_entries() {
        let s = ChunkSchedule::priority_ordered(vec![
            (id(0, 0, true), 10),
            (id(0, 0, false), 20),
            (id(1, 0, true), 30),
        ]);
        let wire = s.wire_packets(None);
        assert_eq!(wire.len(), 3);
        assert!(wire.iter().all(|p| matches!(p, WirePacket::Data { .. })));
        assert_eq!(wire.iter().map(WirePacket::bytes).sum::<u64>(), 60);
    }

    #[test]
    fn parity_rides_after_its_groups_last_member() {
        let entries: Vec<(PacketId, u64)> =
            (0..6).map(|g| (id(g, 0, true), 100 + g as u64)).collect();
        let s = ChunkSchedule::priority_ordered(entries);
        // k=3 over 6 packets → stride 2: groups {0,2,4} and {1,3,5}.
        let fec = cachegen_net::FecGroups::striped_rs(6, 3, 1);
        let wire = s.wire_packets(Some(&fec));
        assert_eq!(wire.len(), 8);
        // Group 0's last member is data index 4; group 1's is index 5.
        assert_eq!(
            wire[5],
            WirePacket::Parity {
                group: 0,
                index: 0,
                bytes: 104
            },
            "parity 0 directly after its last member"
        );
        assert_eq!(
            wire[7],
            WirePacket::Parity {
                group: 1,
                index: 0,
                bytes: 105
            }
        );
        // Parity is sized to the longest member of its group.
        assert_eq!(fec.parity_sizes(&s.packet_sizes()), vec![104, 105]);
    }

    #[test]
    fn multi_parity_wire_staggers_same_group_repairs() {
        let entries: Vec<(PacketId, u64)> = (0..6).map(|g| (id(g, 0, true), 100)).collect();
        let s = ChunkSchedule::priority_ordered(entries);
        // k=3, r=2 over 6 packets → stride 2: groups {0,2,4}, {1,3,5},
        // two repair packets each.
        let fec = cachegen_net::FecGroups::striped_rs(6, 3, 2);
        let wire = s.wire_packets(Some(&fec));
        assert_eq!(wire.len(), 10);
        // No group's two repair packets travel back-to-back.
        for w in wire.windows(2) {
            if let (WirePacket::Parity { group: a, .. }, WirePacket::Parity { group: b, .. }) =
                (w[0], w[1])
            {
                assert_ne!(a, b, "same-group parities adjacent on the wire");
            }
        }
        // All parity emitted, each group exactly r times, index 0 first.
        for g in 0..2 {
            let idxs: Vec<usize> = wire
                .iter()
                .filter_map(|w| match *w {
                    WirePacket::Parity { group, index, .. } if group == g => Some(index),
                    _ => None,
                })
                .collect();
            assert_eq!(idxs, vec![0, 1], "group {g}");
        }
    }

    #[test]
    fn same_group_parities_are_adjacent_only_on_the_clamped_tail() {
        let wire_of = |n: usize, k: usize, r: usize| {
            let entries = (0..n).map(|g| (id(g, 0, true), 100)).collect();
            let fec = cachegen_net::FecGroups::striped_rs(n, k, r);
            ChunkSchedule::priority_ordered(entries).wire_packets(Some(&fec))
        };
        // The `(repair index, group)` keys of the parities on the last slot.
        let tail_of = |wire: &[WirePacket]| -> Vec<(usize, usize)> {
            let from_the_end = wire.iter().rev().map_while(|w| match *w {
                WirePacket::Parity { group, index, .. } => Some((index, group)),
                WirePacket::Data { .. } => None,
            });
            let mut tail: Vec<_> = from_the_end.collect();
            tail.reverse();
            tail
        };
        for n in 1..=40 {
            for k in 1..=8 {
                for r in 1..=3 {
                    let wire = wire_of(n, k, r);
                    let case = format!("n={n} k={k} r={r}");
                    // Copies with no data packet between them share a
                    // slot, and only the last slot may hold two.
                    let mut data_seen = 0;
                    let mut copy_at = vec![None; n.div_ceil(k)];
                    for w in &wire {
                        match *w {
                            WirePacket::Data { .. } => data_seen += 1,
                            WirePacket::Parity { group, .. } => {
                                if copy_at[group].replace(data_seen) == Some(data_seen) {
                                    assert_eq!(data_seen, n, "{case}: group {group}");
                                }
                            }
                        }
                    }
                    // There, lowest repair index first across groups.
                    let tail = tail_of(&wire);
                    assert!(tail.windows(2).all(|w| w[0] < w[1]), "{case}: {tail:?}");
                }
            }
        }
        // The pinned tail: both of group 0's copies clamp onto slot 6 and
        // nothing sorts between (0, g0) and (1, g0).
        assert_eq!(tail_of(&wire_of(7, 3, 2)), vec![(0, 0), (1, 0), (1, 2)]);
    }

    #[test]
    fn adaptive_fec_picks_rungs_by_loss_estimate() {
        let ladder = AdaptiveFec::paper_default();
        let fec = FecOverhead::Adaptive(ladder.clone());
        // No estimate yet → most protective rung.
        assert_eq!(fec.params_for(0, None), Some((12, 2)));
        // Clean channel → lightest rung; mild loss → denser XOR stripe;
        // heavy loss → RS r = 2.
        assert_eq!(fec.params_for(0, Some(0)), Some((14, 1)));
        assert_eq!(fec.params_for(0, Some(50)), Some((10, 1)));
        assert_eq!(fec.params_for(0, Some(200)), Some((12, 2)));
        assert_eq!(fec.params_for(0, Some(1000)), Some((12, 2)));
        // Fixed policies ignore the estimate.
        assert_eq!(
            FecOverhead::Rs { k: 9, r: 3 }.params_for(0, Some(0)),
            Some((9, 3))
        );
        assert_eq!(
            FecOverhead::Rs { k: 5, r: 1 }.params_for(2, Some(900)),
            Some((5, 1))
        );
        // Grouping honours (k, r).
        let g = fec.groups_for_with_loss(0, &[100; 24], Some(500)).unwrap();
        assert_eq!(g.num_groups(), 2);
        assert!((0..2).all(|j| g.repairs_of(j) == 2));
    }

    #[test]
    #[should_panic(expected = "sorted ascending")]
    fn adaptive_rungs_must_be_sorted() {
        let _ = AdaptiveFec::new(vec![
            FecRung {
                max_loss_permille: 100,
                k: 10,
                r: 1,
            },
            FecRung {
                max_loss_permille: 50,
                k: 8,
                r: 2,
            },
        ]);
    }

    #[test]
    fn fec_overhead_selects_k_per_level() {
        let fec = FecOverhead::PerLevel(vec![4, 8]);
        assert_eq!(fec.params_for(0, None).map(|(k, _)| k), Some(4));
        assert_eq!(fec.params_for(1, None).map(|(k, _)| k), Some(8));
        assert_eq!(
            fec.params_for(9, None).map(|(k, _)| k),
            Some(8),
            "last entry reused"
        );
        assert_eq!(FecOverhead::Off.params_for(0, None).map(|(k, _)| k), None);
        assert!(FecOverhead::Off.groups_for(0, &[100; 10]).is_none());
        let g = FecOverhead::Rs { k: 5, r: 1 }
            .groups_for(3, &[100; 10])
            .unwrap();
        assert_eq!(g.num_groups(), 2);
    }

    #[test]
    fn shrink_trims_low_priority_packets_first() {
        let mut s = ChunkSchedule::priority_ordered(vec![
            (id(0, 0, true), 100),
            (id(1, 0, true), 100),
            (id(2, 0, true), 100),
        ]);
        s.shrink_to(210);
        assert_eq!(s.total_bytes(), 210);
        assert_eq!(s.entry(0).1, 100, "head packet untouched");
        assert_eq!(s.entry(2).1, 10, "tail packet trimmed first");
        // Shrinking below len() bottoms out at one byte per packet.
        s.shrink_to(0);
        assert_eq!(s.total_bytes(), 3);
    }
}
