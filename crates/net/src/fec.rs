//! Systematic forward error correction over packet batches: which data
//! packets share a parity group ([`FecGroups`]). The parity bytes
//! themselves are [`crate::rs::RsCode`]'s.
//!
//! The loss-resilient transport ships every entropy chunk as its own
//! packet; the repair policies and refetch recover holes *reactively*.
//! This module is the proactive half: the sender stripes the data packets
//! of one schedule into **parity groups** of at most `k` members and
//! emits `r ≥ 1` parity packets per group — the rows of the
//! column-normalized Cauchy Reed–Solomon code of [`crate::rs`], whose row
//! 0 is the byte-wise XOR of the members — so any `r` losses per group
//! (data or parity) are recovered byte-identically and order-free, no
//! NACK round trip, no retransmission (the redundancy-at-the-sender
//! argument of MDC fronthaul coding, PAPERS.md).
//!
//! Properties that make the scheme useful on real loss patterns:
//!
//! * **Collision-minimal striped interleaving** — group membership is
//!   assigned round-robin with stride `g = ceil(n / k)` (member `i` joins
//!   group `i mod g`). Among any `g + 1` consecutive protected packets
//!   two must share a group (pigeonhole), so *no* deterministic
//!   feedback-free interleaver can space same-group members further than
//!   `g` apart — mod-`g` striping achieves exactly that spacing
//!   uniformly, which is the "minimal collision" property of CRT protocol
//!   sequences (PAPERS.md) specialized to one schedule. The provable
//!   burst-coverage bound follows: a burst of `w` consecutive protected
//!   packets puts at most `ceil(w / g)` losses in any one group, so any
//!   **burst ≤ stride·r degrades into ≤ r losses per group** — exactly
//!   what `r` parity packets recover. Property-tested in
//!   `tests/fec_properties.rs`.
//! * **Size-outlier exclusion** — parity must be as long as its group's
//!   *longest* member, so one oversized packet (the container-bearing
//!   head packet is ~10× the median at small scale) would blow the parity
//!   budget of its whole group. Packets larger than `OUTLIER_FACTOR`×
//!   the schedule's (lower) median are therefore left unprotected
//!   ([`FecGroups::group_of`] returns `None`) and rely on the
//!   retransmit/repair/refetch rungs instead; everyone else gets parity
//!   at ≈ `r/k` overhead.
//! * **Systematic coding** — data packets travel unmodified; parity is
//!   additional. FEC off is therefore bit-identical to the plain
//!   transport, and `r = 1` is plain XOR parity.
//!
//! Recovery is order-independent: the receiver dedups packets by index
//! (the transport already does — duplicates are delivered once) and
//! solves per byte position. Groups losing more data packets than they
//! have surviving parity packets are *not* recoverable here; those fall
//! back to the repair/refetch ladder. Edge cases (a survivor longer than
//! parity, parity widths that disagree) are typed
//! [`crate::rs::FecError`]s, not silent zero-padding.

/// Packets larger than this multiple of the schedule's median size are
/// excluded from parity protection (see the module docs). At real scale
/// only the container-bearing head packet (~10× the median) trips this;
/// at toy scale the container amortizes enough to stay protected.
const OUTLIER_FACTOR: u64 = 4;

/// Assignment of `n` data packets to striped parity groups, each carrying
/// `r ≥ 1` repair (parity) packets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FecGroups {
    /// `assignment[i]` = parity group of data packet `i` (`None` =
    /// unprotected size outlier).
    assignment: Vec<Option<usize>>,
    /// `groups[j]` = member data-packet indices of group `j`, ascending.
    groups: Vec<Vec<usize>>,
    /// `repairs[j]` = number of parity packets emitted for group `j`.
    repairs: Vec<usize>,
}

impl FecGroups {
    /// Stripes `n` equally-trusted data packets into groups of at most
    /// `k` members each: `g = ceil(n / k)` groups, packet `i` → group
    /// `i % g`, `r` Reed–Solomon parity packets per group, so any burst
    /// of up to `g·r` consecutive packets degrades into ≤ `r` losses per
    /// group — all recoverable.
    pub fn striped_rs(n: usize, k: usize, r: usize) -> Self {
        assert!(n >= 1, "need at least one data packet");
        Self::build(&(0..n).collect::<Vec<_>>(), n, k, r, false)
    }

    /// Striping over a sized schedule with outlier exclusion: packets
    /// larger than `OUTLIER_FACTOR`× the median size stay unprotected
    /// (their parity would cost as much as resending them); the rest are
    /// striped with `r` parity packets per group. With `tiered` set, the
    /// *head* half of the protected sequence (the schedule's
    /// highest-priority packets — early token groups, shallow layers) is
    /// striped at the denser `ceil(k / 2)`, the tail at `k`.
    pub fn striped_sized_rs(sizes: &[u64], k: usize, r: usize, tiered: bool) -> Self {
        assert!(!sizes.is_empty(), "need at least one data packet");
        // Lower median: on even-length schedules `s[len / 2]` is the
        // *upper* median, which inflated the outlier threshold and
        // silently protected packets the docs promise are excluded.
        let median = {
            let mut s = sizes.to_vec();
            s.sort_unstable();
            s[(s.len() - 1) / 2]
        };
        let protected: Vec<usize> = (0..sizes.len())
            .filter(|&i| sizes[i] <= median.saturating_mul(OUTLIER_FACTOR))
            .collect();
        Self::build(&protected, sizes.len(), k, r, tiered)
    }

    /// Builds the grouping over the `protected` member indices (ascending
    /// positions within the original `n`-packet sequence).
    fn build(protected: &[usize], n: usize, k: usize, r: usize, tiered: bool) -> Self {
        assert!(k >= 1, "parity group size must be >= 1");
        assert!(r >= 1, "repair count must be >= 1");
        assert!(k + r <= 256, "group + parity exceeds the GF(256) field");
        let mut assignment: Vec<Option<usize>> = vec![None; n];
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut stripe = |members: &[usize], k: usize| {
            if members.is_empty() {
                return;
            }
            // `k >= 1` makes `g <= members.len()`, so each residue class
            // `0..g` below receives a member: no group is ever empty.
            let g = members.len().div_ceil(k);
            let base = groups.len();
            groups.extend(std::iter::repeat_with(Vec::new).take(g));
            for (pos, &i) in members.iter().enumerate() {
                assignment[i] = Some(base + pos % g);
                groups[base + pos % g].push(i);
            }
        };
        if tiered && protected.len() >= 2 {
            let head = protected.len() / 2;
            stripe(&protected[..head], k.div_ceil(2));
            stripe(&protected[head..], k);
        } else {
            stripe(protected, k);
        }
        // Every group gets the same repair depth, capped so tiny groups
        // never carry more parity than members (r extra equations beyond
        // the member count recover nothing additional).
        let repairs = groups.iter().map(|m| r.min(m.len())).collect();
        FecGroups {
            assignment,
            groups,
            repairs,
        }
    }

    /// Number of data packets covered (protected or not).
    pub fn num_packets(&self) -> usize {
        self.assignment.len()
    }

    /// Number of parity groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Total parity packets emitted across all groups (`Σ repairs`).
    pub fn num_parity_packets(&self) -> usize {
        self.repairs.iter().sum()
    }

    /// The parity group of data packet `i` (`None` = unprotected).
    pub fn group_of(&self, i: usize) -> Option<usize> {
        self.assignment[i]
    }

    /// Member data-packet indices of group `j`, ascending.
    pub fn members(&self, j: usize) -> &[usize] {
        &self.groups[j]
    }

    /// Number of repair (parity) packets group `j` carries. Any `≤
    /// repairs_of(j)` losses among the group's members and parity packets
    /// are recoverable.
    pub fn repairs_of(&self, j: usize) -> usize {
        self.repairs[j]
    }

    /// Wire size of *each* parity packet of each group given the data
    /// packet sizes: parity must cover the longest member, so every one
    /// of group `j`'s `repairs_of(j)` parity packets is the group's max
    /// member size.
    pub fn parity_sizes(&self, data_sizes: &[u64]) -> Vec<u64> {
        assert_eq!(data_sizes.len(), self.num_packets(), "size/packet mismatch");
        self.groups
            .iter()
            .map(|m| m.iter().map(|&i| data_sizes[i]).max().unwrap_or(0))
            .collect()
    }

    /// Total parity bytes for the given data packet sizes, across all
    /// `repairs_of(j)` parity packets of every group.
    pub fn parity_bytes(&self, data_sizes: &[u64]) -> u64 {
        self.parity_sizes(data_sizes)
            .iter()
            .zip(self.repairs.iter())
            .map(|(&size, &r)| size * r as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striping_bounds_group_size_and_spreads_bursts() {
        let fec = FecGroups::striped_rs(10, 4, 1);
        assert_eq!(fec.num_groups(), 3); // ceil(10/4)
        for j in 0..fec.num_groups() {
            assert!(fec.members(j).len() <= 4);
            assert_eq!(fec.repairs_of(j), 1);
        }
        // Any 3 consecutive packets land in 3 distinct groups.
        for start in 0..8 {
            let gs: Vec<_> = (start..start + 3)
                .map(|i| fec.group_of(i).unwrap())
                .collect();
            assert!(gs[0] != gs[1] && gs[1] != gs[2] && gs[0] != gs[2]);
        }
    }

    #[test]
    fn multi_parity_striping_counts_repairs() {
        let fec = FecGroups::striped_rs(10, 4, 2);
        assert_eq!(fec.num_groups(), 3);
        assert!((0..3).all(|j| fec.repairs_of(j) == 2));
        assert_eq!(fec.num_parity_packets(), 6);
        // Parity bytes pay r × the per-group max size.
        let sizes = [10u64; 10];
        assert_eq!(fec.parity_bytes(&sizes), 60);
        // Tiny groups never carry more parity than members.
        let tiny = FecGroups::striped_rs(2, 1, 3);
        assert!((0..tiny.num_groups()).all(|j| tiny.repairs_of(j) == 1));
    }

    #[test]
    fn tiered_striping_protects_the_head_denser() {
        let fec = FecGroups::striped_sized_rs(&[100; 20], 8, 1, true);
        // Head 10 packets at k=4 → 3 groups; tail 10 at k=8 → 2 groups.
        assert_eq!(fec.num_groups(), 5);
        assert!((0..10).all(|i| fec.group_of(i).unwrap() < 3));
        assert!((10..20).all(|i| fec.group_of(i).unwrap() >= 3));
        // Head groups are smaller (denser parity) than tail groups.
        assert!((0..3).all(|j| fec.members(j).len() <= 4));
        assert!((3..5).all(|j| fec.members(j).len() <= 8));
    }

    #[test]
    fn size_outliers_are_left_unprotected() {
        // A container-heavy head packet (10× the median) plus 9 regular
        // packets: the head is excluded, everyone else striped.
        let mut sizes = vec![3000u64];
        sizes.extend(std::iter::repeat_n(300u64, 9));
        let fec = FecGroups::striped_sized_rs(&sizes, 4, 1, true);
        assert_eq!(fec.group_of(0), None, "outlier unprotected");
        assert!((1..10).all(|i| fec.group_of(i).is_some()));
        // Parity never pays the outlier's bytes.
        assert!(fec.parity_sizes(&sizes).iter().all(|&p| p == 300));
        // Uniform sizes: nothing excluded.
        let uniform = FecGroups::striped_sized_rs(&[250u64; 8], 4, 1, false);
        assert!((0..8).all(|i| uniform.group_of(i).is_some()));
    }

    #[test]
    fn outlier_threshold_uses_the_lower_median() {
        // Even length: sizes sorted = [100, 100, 500, 500]. The lower
        // median is 100, so the 500 B packets (5× median) are outliers.
        // The old upper-median code took 500 and protected everything.
        let even = [500u64, 100, 500, 100];
        let fec = FecGroups::striped_sized_rs(&even, 2, 1, false);
        assert_eq!(fec.group_of(0), None);
        assert_eq!(fec.group_of(2), None);
        assert!(fec.group_of(1).is_some() && fec.group_of(3).is_some());
        // Odd length: the true median (middle element) is unambiguous
        // and unchanged by the fix.
        let odd = [100u64, 100, 100, 500, 500];
        let fec = FecGroups::striped_sized_rs(&odd, 2, 1, false);
        assert!((0..3).all(|i| fec.group_of(i).is_some()));
        assert_eq!(fec.group_of(3), None);
        assert_eq!(fec.group_of(4), None);
    }

    #[test]
    fn every_protected_packet_is_in_exactly_one_group() {
        for (n, k, tiered) in [(1, 1, false), (7, 3, false), (23, 5, true), (2, 9, true)] {
            let fec = if tiered {
                FecGroups::striped_sized_rs(&vec![100; n], k, 1, true)
            } else {
                FecGroups::striped_rs(n, k, 1)
            };
            let mut seen = vec![false; n];
            for j in 0..fec.num_groups() {
                assert!(!fec.members(j).is_empty(), "group {j} empty");
                for &i in fec.members(j) {
                    assert!(!seen[i], "packet {i} in two groups");
                    seen[i] = true;
                    assert_eq!(fec.group_of(i), Some(j));
                }
            }
            assert!(seen.iter().all(|&s| s), "every packet grouped");
        }
    }

    #[test]
    fn parity_sizes_cover_the_longest_member() {
        let fec = FecGroups::striped_rs(4, 2, 1); // stride 2: {0,2}, {1,3}
        let sizes = [10u64, 500, 30, 7];
        assert_eq!(fec.parity_sizes(&sizes), vec![30, 500]);
        assert_eq!(fec.parity_bytes(&sizes), 530);
    }

    #[test]
    #[should_panic(expected = "group size must be >= 1")]
    fn zero_k_rejected() {
        let _ = FecGroups::striped_rs(4, 0, 1);
    }

    #[test]
    #[should_panic(expected = "repair count must be >= 1")]
    fn zero_r_rejected() {
        let _ = FecGroups::striped_rs(4, 2, 0);
    }
}
