//! Property and acceptance tests for the FEC subsystem (the GF(256)
//! Reed–Solomon erasure code and its striped parity groups):
//!
//! (a) any *single* loss per striped parity group is recovered
//!     byte-identically at `r = 1`, and any ≤ r losses per group under
//!     deeper parity;
//! (a') GF(256) field axioms (associativity, commutativity,
//!     distributivity, mul/inv round trip) and the r = 1 ≡ XOR pinning:
//!     single-parity RS is plain XOR parity, bit for bit, against the
//!     independent reference below;
//! (a‴) `RsCode::{parity, recover}` against an independent reference
//!     Reed–Solomon (documented coefficient formula, schoolbook
//!     multiply, per-byte elimination — no shared table or kernel) on
//!     every loss pattern, and lying sizes into `recover`: a typed
//!     error or exact recovery, never a panic or an oversized payload;
//! (a'') the interleaver burst-coverage bound: a burst of ≤ stride·r
//!     consecutive protected packets never exceeds r losses in any
//!     group — every burst that short is FEC-recoverable by
//!     construction;
//! (b) recovery is order-free: reorder/duplicate link faults leave the
//!     end-to-end result deterministic;
//! (c) backward compatibility: FEC off (`k = ∞`) delivers bit-identically
//!     to the pre-FEC transport — same packets, same fault draws, same
//!     timeline, same losses — and FEC on equals the same hand-driven
//!     oracle with its recovery rung in front of the retransmit rounds;
//! (d) the 10%-loss acceptance headline: with the default `fec_overhead`
//!     and the FEC→repair→refetch ladder, `load_stored` ends with
//!     `repaired_fraction == 0` on ≥95% of contexts, loss-induced TTFT
//!     inflation ≤1.05× the (same-config) lossless pace, parity overhead
//!     ≤15%, and zero retransmit budget consumed.

use cachegen::{load_stored, CacheGenEngine, EngineConfig, FecOverhead, LoadParams, RepairPolicy};
use cachegen_llm::SimModelConfig;
use cachegen_net::{gf256, BandwidthTrace, FecError, FecGroups, Link, PacketFaults, RsCode};
use cachegen_streamer::{
    deliver_schedule, AdaptPolicy, ChunkPlan, ChunkSchedule, PacketId, WirePacket,
};
use cachegen_telemetry::NOOP;
use cachegen_workloads::{workload_rng, Dataset};
use proptest::prelude::*;
use rand::Rng;

/// Reference single-parity code, independent of `RsCode`: the byte-wise
/// XOR of all member payloads, each zero-padded to the longest.
fn xor_parity(payloads: &[&[u8]]) -> Vec<u8> {
    let len = payloads.iter().map(|p| p.len()).max().unwrap_or(0);
    let mut parity = vec![0u8; len];
    for p in payloads {
        for (slot, &b) in parity.iter_mut().zip(p.iter()) {
            *slot ^= b;
        }
    }
    parity
}

/// Reference single-loss recovery: the parity XOR-ed with every surviving
/// member, truncated to the lost packet's length.
fn xor_recover(survivors: &[&[u8]], parity: &[u8], lost_len: usize) -> Vec<u8> {
    let mut out = xor_parity(&[survivors, &[parity]].concat());
    out.truncate(lost_len);
    out
}

// ---------------------------------------------------------------------
// (a): single loss per striped group at r = 1.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every striped grouping recovers any one loss per group end to
    /// end: parity built from the group members, one member dropped per
    /// group, single-parity RS puts the exact bytes back.
    #[test]
    fn striped_groups_recover_one_loss_each(
        seed in 0u64..10_000,
        n in 2usize..40,
        k in 1usize..9,
    ) {
        let mut rng = cachegen_tensor::rng::seeded(seed);
        let payloads: Vec<Vec<u8>> = (0..n)
            .map(|_| (0..10 + rng.gen::<usize>() % 30).map(|_| rng.gen::<u8>()).collect())
            .collect();
        let fec = FecGroups::striped_rs(n, k, 1);
        for g in 0..fec.num_groups() {
            let members = fec.members(g);
            let refs: Vec<&[u8]> = members.iter().map(|&i| payloads[i].as_slice()).collect();
            let code = RsCode::new(members.len(), 1).unwrap();
            let parity = code.parity(&refs);
            let lost_pos = seed as usize % members.len();
            let shards: Vec<Option<&[u8]>> = refs
                .iter()
                .enumerate()
                .map(|(p, x)| (p != lost_pos).then_some(*x))
                .collect();
            let want = &payloads[members[lost_pos]];
            let got = code.recover(&shards, &[Some(&parity[0])]).unwrap();
            prop_assert_eq!(got.len(), 1);
            prop_assert_eq!(got[0].0, lost_pos);
            prop_assert_eq!(&got[0].1[..want.len()], &want[..]);
        }
    }
}

// ---------------------------------------------------------------------
// (a'): GF(256) field axioms, RS multi-erasure recovery, r = 1 ≡ XOR.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// GF(256) field axioms on arbitrary triples: commutativity,
    /// associativity, distributivity over XOR-addition, and the
    /// mul/inv/div round trips the Cauchy construction relies on.
    #[test]
    fn gf256_field_axioms(a in 0u16..256, b in 0u16..256, c in 0u16..256) {
        let (a, b, c) = (a as u8, b as u8, c as u8);
        prop_assert_eq!(gf256::mul(a, b), gf256::mul(b, a));
        prop_assert_eq!(
            gf256::mul(gf256::mul(a, b), c),
            gf256::mul(a, gf256::mul(b, c))
        );
        // Distributivity: a·(b ⊕ c) = a·b ⊕ a·c (addition is XOR).
        prop_assert_eq!(
            gf256::mul(a, b ^ c),
            gf256::mul(a, b) ^ gf256::mul(a, c)
        );
        if a != 0 {
            prop_assert_eq!(gf256::mul(a, gf256::inv(a)), 1);
            if b != 0 {
                // div round trip: (a / b) · b = a.
                prop_assert_eq!(gf256::mul(gf256::div(a, b), b), a);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any ≤ r losses per group — data and parity packets alike, chosen
    /// adversarially by the loss mask — recover byte-identically under
    /// RS parity, whatever the member sizes.
    #[test]
    fn rs_recovers_any_r_losses_byte_identically(
        seed in 0u64..10_000,
        sizes in proptest::collection::vec(0usize..60, 2..10),
        r in 1usize..4,
        mask in 0u32..u32::MAX,
    ) {
        let mut rng = cachegen_tensor::rng::seeded(seed);
        let payloads: Vec<Vec<u8>> = sizes
            .iter()
            .map(|&n| (0..n).map(|_| rng.gen::<u8>()).collect())
            .collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let m = refs.len();
        let code = RsCode::new(m, r).unwrap();
        let parity = code.parity(&refs);
        // Keep only the first r set bits of the mask: ≤ r total losses.
        let mut budget = r;
        let lost: Vec<bool> = (0..m + r)
            .map(|i| {
                let hit = mask & (1 << (i % 32)) != 0 && budget > 0;
                if hit { budget -= 1; }
                hit
            })
            .collect();
        let shards: Vec<Option<&[u8]>> =
            (0..m).map(|i| (!lost[i]).then_some(refs[i])).collect();
        let pshards: Vec<Option<&[u8]>> = (0..r)
            .map(|j| (!lost[m + j]).then_some(parity[j].as_slice()))
            .collect();
        let recovered = code.recover(&shards, &pshards).unwrap();
        let lost_data: Vec<usize> = (0..m).filter(|&i| lost[i]).collect();
        prop_assert_eq!(recovered.len(), lost_data.len());
        for (i, payload) in recovered {
            prop_assert!(lost[i]);
            prop_assert_eq!(&payload[..refs[i].len()], refs[i], "symbol {}", i);
            prop_assert!(payload[refs[i].len()..].iter().all(|&b| b == 0));
        }
    }

    /// r = 1 ≡ XOR at the byte level: the single-parity RS payload is
    /// bit-identical to the reference `xor_parity`, and its single-loss
    /// recovery is bit-identical to the reference `xor_recover`.
    #[test]
    fn rs_r1_is_bit_identical_to_xor(
        seed in 0u64..10_000,
        sizes in proptest::collection::vec(0usize..60, 2..10),
        lost in 0usize..10,
    ) {
        let mut rng = cachegen_tensor::rng::seeded(seed);
        let payloads: Vec<Vec<u8>> = sizes
            .iter()
            .map(|&n| (0..n).map(|_| rng.gen::<u8>()).collect())
            .collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let code = RsCode::new(refs.len(), 1).unwrap();
        let parity = code.parity(&refs);
        prop_assert_eq!(&parity[0], &xor_parity(&refs));
        let lost = lost % refs.len();
        let shards: Vec<Option<&[u8]>> =
            (0..refs.len()).map(|i| (i != lost).then_some(refs[i])).collect();
        let rs_got = code.recover(&shards, &[Some(&parity[0])]).unwrap();
        let survivors: Vec<&[u8]> = (0..refs.len())
            .filter(|&i| i != lost)
            .map(|i| refs[i])
            .collect();
        let xor_got = xor_recover(&survivors, &parity[0], parity[0].len());
        prop_assert_eq!(rs_got.len(), 1);
        prop_assert_eq!(rs_got[0].0, lost);
        prop_assert_eq!(&rs_got[0].1, &xor_got);
    }

    /// The interleaver burst-coverage bound: striping with stride
    /// `g = ceil(n / k)` puts at most `ceil(w / g)` of any `w`
    /// consecutive protected packets in one group, so a burst of up to
    /// `stride·r` packets never exceeds `r` losses per group — every
    /// such burst is FEC-recoverable by construction.
    #[test]
    fn striped_burst_coverage_bound(
        n in 2usize..80,
        k in 1usize..12,
        r in 1usize..4,
        burst_start in 0usize..80,
    ) {
        let fec = FecGroups::striped_rs(n, k, r);
        let g = fec.num_groups();
        let burst_len = (g * r).min(n);
        let start = burst_start % n;
        let mut lost_per_group = vec![0usize; g];
        for i in start..(start + burst_len).min(n) {
            if let Some(grp) = fec.group_of(i) {
                lost_per_group[grp] += 1;
            }
        }
        for (grp, &lost) in lost_per_group.iter().enumerate() {
            prop_assert!(
                lost <= fec.repairs_of(grp),
                "burst [{}, {}) puts {} losses in group {} (r = {})",
                start, start + burst_len, lost, grp, fec.repairs_of(grp)
            );
        }
    }
}

// ---------------------------------------------------------------------
// (a‴): independent reference RS, and lying sizes into `recover`.
// ---------------------------------------------------------------------

/// Schoolbook shift-and-reduce multiply modulo x⁸ + x⁴ + x³ + x² + 1.
fn ref_mul(a: u8, b: u8) -> u8 {
    let (mut a, mut acc) = (u16::from(a), 0u16);
    for bit in 0..8 {
        if b & (1 << bit) != 0 {
            acc ^= a;
        }
        a <<= 1;
        if a & 0x100 != 0 {
            a ^= 0x11D;
        }
    }
    acc as u8
}

/// Division through a brute-force inverse table, searched once.
fn ref_div(a: u8, b: u8) -> u8 {
    static INV: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    let inv = INV.get_or_init(|| {
        (0..=255u8)
            .map(|b| (0..=255u8).find(|&x| ref_mul(b, x) == 1).unwrap_or(0))
            .collect()
    });
    assert_ne!(b, 0, "division by zero");
    ref_mul(a, inv[b as usize])
}

/// The documented coefficient matrix: `c[j][i] = (x₀⊕yᵢ)/(xⱼ⊕yᵢ)` with
/// `yᵢ = i`, `xⱼ = m + j`.
fn ref_rows(m: usize, r: usize) -> Vec<Vec<u8>> {
    let c = |j: usize, i: usize| ref_div((m ^ i) as u8, ((m + j) ^ i) as u8);
    (0..r).map(|j| (0..m).map(|i| c(j, i)).collect()).collect()
}

/// Reference parity, one byte at a time over zero-padded members.
fn ref_parity(rows: &[Vec<u8>], data: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let width = data.iter().map(Vec::len).max().unwrap_or(0);
    let byte = |p: &Vec<u8>, b: usize| p.get(b).copied().unwrap_or(0);
    rows.iter()
        .map(|row| {
            (0..width)
                .map(|b| {
                    let terms = row.iter().zip(data).map(|(&c, p)| ref_mul(c, byte(p, b)));
                    terms.fold(0, |acc, t| acc ^ t)
                })
                .collect()
        })
        .collect()
}

/// Reference recovery: for every byte position on its own, Gaussian
/// elimination of the `s × s` system the first `s` surviving parity rows
/// give. Returns the lost data symbols at full parity width.
fn ref_recover(
    rows: &[Vec<u8>],
    data: &[Option<&[u8]>],
    parity: &[Option<&[u8]>],
) -> Vec<(usize, Vec<u8>)> {
    let lost: Vec<usize> = (0..data.len()).filter(|&i| data[i].is_none()).collect();
    let alive: Vec<usize> = (0..parity.len()).filter(|&j| parity[j].is_some()).collect();
    let s = lost.len();
    let width = alive.first().map_or(0, |&j| parity[j].unwrap().len());
    let mut out: Vec<(usize, Vec<u8>)> = lost.iter().map(|&i| (i, vec![0; width])).collect();
    for b in 0..width {
        // Augmented rows [A | syndrome byte].
        let mut sys: Vec<Vec<u8>> = alive[..s]
            .iter()
            .map(|&j| {
                let known = data.iter().enumerate().filter_map(|(i, d)| {
                    Some(ref_mul(
                        rows[j][i],
                        d.as_ref()?.get(b).copied().unwrap_or(0),
                    ))
                });
                let syndrome = known.fold(parity[j].unwrap()[b], |acc, t| acc ^ t);
                lost.iter().map(|&i| rows[j][i]).chain([syndrome]).collect()
            })
            .collect();
        for col in 0..s {
            let pivot = (col..s).find(|&t| sys[t][col] != 0).expect("MDS");
            sys.swap(col, pivot);
            let p = sys[col][col];
            sys[col].iter_mut().for_each(|x| *x = ref_div(*x, p));
            let pivot_row = sys[col].clone();
            for t in (0..s).filter(|&t| t != col) {
                let f = sys[t][col];
                for (x, &p) in sys[t].iter_mut().zip(&pivot_row) {
                    *x ^= ref_mul(f, p);
                }
            }
        }
        for (u, (_, payload)) in out.iter_mut().enumerate() {
            payload[b] = sys[u][s];
        }
    }
    out
}

/// `RsCode` equals the reference on parity and on every pattern of ≤ r
/// lost symbols (data and parity alike), for group sizes up to 16 and
/// member lengths spread over 0..=300, extremes included.
#[test]
fn rs_matches_the_independent_reference_on_every_loss_pattern() {
    for (m, r) in [
        (1, 1),
        (1, 4),
        (2, 2),
        (3, 3),
        (5, 4),
        (8, 4),
        (12, 2),
        (16, 3),
    ] {
        let mut rng = cachegen_tensor::rng::seeded((m * 10 + r) as u64);
        let data: Vec<Vec<u8>> = (0..m)
            .map(|i| {
                let len = match i {
                    1 => 0,
                    2 => 300,
                    _ => rng.gen::<usize>() % 301,
                };
                (0..len).map(|_| rng.gen::<u8>()).collect()
            })
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let rows = ref_rows(m, r);
        let code = RsCode::new(m, r).unwrap();
        let parity = code.parity(&refs);
        assert_eq!(parity, ref_parity(&rows, &data), "parity, RS({m},{r})");

        for mask in 1u32..(1 << (m + r)) {
            if mask.count_ones() as usize > r {
                continue;
            }
            let kept = |bit: usize| mask & (1 << bit) == 0;
            let shards: Vec<Option<&[u8]>> = (0..m).map(|i| kept(i).then_some(refs[i])).collect();
            let pshards: Vec<Option<&[u8]>> = (0..r)
                .map(|j| kept(m + j).then_some(parity[j].as_slice()))
                .collect();
            let got = code.recover(&shards, &pshards).unwrap();
            assert_eq!(
                got,
                ref_recover(&rows, &shards, &pshards),
                "RS({m},{r}), mask {mask:#b}"
            );
            for (i, payload) in &got {
                assert_eq!(payload[..data[*i].len()], data[*i][..]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Sizes that lie: data and parity lengths chosen independently of
    /// each other (survivors longer than parity, parity widths that
    /// disagree, empty members, all-empty groups, too little parity).
    /// `recover` answers exactly as its contract says — the first
    /// violated check as a typed error, otherwise one payload per loss
    /// at the parity width — and never panics.
    #[test]
    fn recover_with_lying_sizes_is_a_typed_error_or_bounded(
        data_lens in proptest::collection::vec(0usize..40, 1..9),
        parity_lens in proptest::collection::vec(0usize..40, 1..5),
        mask in 0u32..(1 << 13),
        same_width in 0usize..3,
    ) {
        let (m, r) = (data_lens.len(), parity_lens.len());
        // Two in three cases: all parity one width, so the later checks
        // and the success path are reached too.
        let parity_lens: Vec<usize> = parity_lens
            .iter()
            .map(|&n| if same_width > 0 { parity_lens[0] } else { n })
            .collect();
        let bytes: Vec<u8> = (0..40u32).map(|i| (i * 37 + 11) as u8).collect();
        let data: Vec<Option<&[u8]>> = (0..m)
            .map(|i| (mask & (1 << i) == 0).then_some(&bytes[..data_lens[i]]))
            .collect();
        let parity: Vec<Option<&[u8]>> = (0..r)
            .map(|j| (mask & (1 << (9 + j)) == 0).then_some(&bytes[..parity_lens[j]]))
            .collect();
        let lost = data.iter().filter(|d| d.is_none()).count();
        let alive: Vec<usize> = parity.iter().flatten().map(|p| p.len()).collect();
        let want_err = if lost == 0 {
            None
        } else if alive.len() < lost {
            Some(FecError::NotEnoughParity { lost, parity: alive.len() })
        } else if let Some(&got) = alive.iter().find(|&&w| w != alive[0]) {
            Some(FecError::ParityWidthMismatch { expected: alive[0], got })
        } else {
            data.iter().flatten().find(|d| d.len() > alive[0]).map(|d| {
                FecError::SurvivorExceedsParity { len: d.len(), parity_len: alive[0] }
            })
        };
        match (RsCode::new(m, r).unwrap().recover(&data, &parity), want_err) {
            (Err(got), Some(want)) => prop_assert_eq!(got, want),
            (Ok(out), None) => {
                prop_assert_eq!(out.len(), lost);
                for (i, payload) in out {
                    prop_assert!(data[i].is_none());
                    prop_assert_eq!(payload.len(), alive[0]);
                }
            }
            (got, want) => prop_assert!(false, "got {:?}, want error {:?}", got, want),
        }
    }
}

/// The degenerate honest sizes: zero-length members beside full ones,
/// and a group whose members are all empty (parity width 0).
#[test]
fn empty_members_and_all_empty_groups_recover_exactly() {
    let code = RsCode::new(3, 2).unwrap();
    for members in [[&b""[..], b"abc", b""], [b"", b"", b""]] {
        let parity = code.parity(&members);
        let got = code
            .recover(
                &[None, Some(members[1]), None],
                &[Some(&parity[0]), Some(&parity[1])],
            )
            .unwrap();
        let width = parity[0].len();
        assert_eq!(got, vec![(0, vec![0; width]), (2, vec![0; width])]);
    }
}

// ---------------------------------------------------------------------
// (c): FEC off is bit-identical to the pre-FEC transport; FEC on equals
// the same oracle with its recovery rung.
// ---------------------------------------------------------------------

/// What the hand-driven delivery below observed.
struct Replay {
    finish: f64,
    wire_free: f64,
    lost: Vec<(PacketId, u64)>,
    fec_recovered: Vec<(PacketId, u64)>,
    parity_bytes: u64,
    retransmits: u32,
    delivered_bytes: u64,
}

/// The PR 4 delivery loop, reimplemented verbatim as the compatibility
/// oracle: send the schedule, NACK-gated retransmit rounds while the
/// budget lasts, report the rest lost. With `fec` on, the first round
/// sends the wire order (parity after its group), and a group that lost
/// no more data packets than it kept parity packets is recovered before
/// the remaining failures enter the same rounds. Parity is never resent,
/// and only data payload counts as delivered.
fn pre_fec_delivery(
    sched: &ChunkSchedule,
    link: &mut Link,
    start: f64,
    batch: u64,
    mut budget: usize,
    fec: Option<&FecGroups>,
) -> Replay {
    let wire = sched.wire_packets(fec);
    let parity_bytes = wire
        .iter()
        .filter(|p| matches!(p, WirePacket::Parity { .. }))
        .map(WirePacket::bytes)
        .sum();
    let mut pending: Vec<WirePacket> = wire;
    let mut wire_t = start;
    let mut finish = start;
    let mut lost = Vec::new();
    let mut fec_recovered = Vec::new();
    let mut retransmits = 0u32;
    let mut delivered_bytes = 0u64;
    let mut first_round = true;
    let entry = |p: &WirePacket| match *p {
        WirePacket::Data { id, bytes, .. } => (id, bytes),
        WirePacket::Parity { .. } => unreachable!("parity is never resent"),
    };
    loop {
        let sizes: Vec<u64> = pending.iter().map(|p| p.bytes() * batch).collect();
        let res = link.send_packets(&sizes, wire_t);
        wire_t = res.wire_finish;
        finish = finish.max(res.last_arrival);
        let mut failed = Vec::new();
        let mut parity_kept = vec![0usize; fec.map_or(0, FecGroups::num_groups)];
        for (p, d) in pending.iter().zip(&res.deliveries) {
            match (*p, d.status.is_delivered()) {
                (WirePacket::Data { bytes, .. }, true) => delivered_bytes += bytes * batch,
                (WirePacket::Data { .. }, false) => failed.push(d.index),
                (WirePacket::Parity { group, .. }, true) => parity_kept[group] += 1,
                (WirePacket::Parity { .. }, false) => {}
            }
        }
        if std::mem::take(&mut first_round) {
            if let Some(fec) = fec {
                let data_index = |i: usize| match pending[i] {
                    WirePacket::Data { index, .. } => index,
                    WirePacket::Parity { .. } => unreachable!("only data fails here"),
                };
                let group = |i: usize| fec.group_of(data_index(i));
                let lost_in = |g: usize| failed.iter().filter(|&&i| group(i) == Some(g)).count();
                let fits = |i: usize| group(i).is_some_and(|g| lost_in(g) <= parity_kept[g]);
                let (recovered, rest): (Vec<usize>, Vec<usize>) =
                    failed.iter().partition(|&&i| fits(i));
                fec_recovered.extend(recovered.iter().map(|&i| entry(&pending[i])));
                fec_recovered.sort_by_key(|&(id, _)| id);
                failed = rest;
            }
        }
        if failed.is_empty() {
            break;
        }
        if budget == 0 {
            lost.extend(failed.iter().map(|&i| entry(&pending[i])));
            break;
        }
        let nack_at = res.last_arrival + link.propagation();
        let resend = failed.len().min(budget);
        lost.extend(failed[resend..].iter().map(|&i| entry(&pending[i])));
        pending = failed[..resend].iter().map(|&i| pending[i]).collect();
        budget -= resend;
        retransmits += resend as u32;
        wire_t = wire_t.max(nack_at);
    }
    Replay {
        finish,
        wire_free: wire_t,
        lost,
        fec_recovered,
        parity_bytes,
        retransmits,
        delivered_bytes,
    }
}

/// A schedule of `n` packets with uneven sizes, and a link with every
/// per-packet fault at the given percentages.
fn replay_case(
    seed: u64,
    n: usize,
    [loss, reorder, dup, trunc]: [usize; 4],
) -> (ChunkSchedule, impl Fn() -> Link) {
    let entries: Vec<(PacketId, u64)> = (0..n)
        .map(|i| {
            (
                PacketId {
                    group: i / 4,
                    layer: i % 4,
                    is_k: i % 2 == 0,
                },
                500 + 37 * i as u64,
            )
        })
        .collect();
    let faults = PacketFaults {
        loss: loss as f64 / 100.0,
        reorder: reorder as f64 / 100.0,
        duplicate: dup as f64 / 100.0,
        truncate: trunc as f64 / 100.0,
        ..PacketFaults::none()
    };
    let link =
        move || Link::new(BandwidthTrace::constant(1e7), 0.01).with_packet_faults(faults, seed);
    (ChunkSchedule::priority_ordered(entries), link)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `k = ∞` (FEC off) is bit-identical to the pre-FEC transport on
    /// arbitrary schedules, faults, and budgets: same losses, same
    /// retransmissions, same timeline, same delivered bytes.
    #[test]
    fn fec_off_is_bit_identical_to_the_pre_fec_transport(
        seed in 0u64..100_000,
        n in 1usize..24,
        budget in 0usize..4,
        loss_pct in 0usize..40,
        reorder_pct in 0usize..30,
        dup_pct in 0usize..20,
        trunc_pct in 0usize..20,
    ) {
        let faults = [loss_pct, reorder_pct, dup_pct, trunc_pct];
        let (sched, mk_link) = replay_case(seed, n, faults);
        let d = deliver_schedule(&sched, &mut mk_link(), 1.5, 2, budget, None);
        let want = pre_fec_delivery(&sched, &mut mk_link(), 1.5, 2, budget, None);
        prop_assert_eq!(d.finish, want.finish);
        prop_assert_eq!(d.wire_free, want.wire_free);
        prop_assert_eq!(&d.lost, &want.lost);
        prop_assert_eq!(d.retransmits, want.retransmits);
        prop_assert_eq!(d.delivered_bytes, want.delivered_bytes);
        prop_assert_eq!(d.parity_bytes, 0);
        prop_assert!(d.fec_recovered.is_empty());
    }

    /// With FEC on, delivery still equals the hand-driven oracle: every
    /// group that lost no more data packets than it kept surviving parity
    /// is recovered, the rest enter the same NACK-gated budget rounds,
    /// and the parity overhead is what the wire order carried. `k = 0`
    /// stands for FEC off.
    #[test]
    fn fec_on_delivery_matches_the_hand_driven_oracle(
        seed in 0u64..100_000,
        n in 1usize..24,
        k in 0usize..7,
        r in 1usize..4,
        budget in 0usize..4,
        loss_pct in 0usize..40,
        reorder_pct in 0usize..30,
        dup_pct in 0usize..20,
        trunc_pct in 0usize..20,
    ) {
        let faults = [loss_pct, reorder_pct, dup_pct, trunc_pct];
        let (sched, mk_link) = replay_case(seed, n, faults);
        let fec = (k > 0).then(|| FecGroups::striped_rs(n, k, r));
        let d = deliver_schedule(&sched, &mut mk_link(), 1.5, 2, budget, fec.as_ref());
        let want = pre_fec_delivery(&sched, &mut mk_link(), 1.5, 2, budget, fec.as_ref());
        prop_assert_eq!(d.finish, want.finish);
        prop_assert_eq!(d.wire_free, want.wire_free);
        prop_assert_eq!(&d.lost, &want.lost);
        prop_assert_eq!(&d.fec_recovered, &want.fec_recovered);
        prop_assert_eq!(d.parity_bytes, want.parity_bytes);
        prop_assert_eq!(d.retransmits, want.retransmits);
        prop_assert_eq!(d.delivered_bytes, want.delivered_bytes);
    }
}

// ---------------------------------------------------------------------
// (b, end to end) + (d): ladder acceptance at 10% i.i.d. loss.
// ---------------------------------------------------------------------

const BW_BPS: f64 = 1.0e6;
const PROPAGATION: f64 = 0.1;
/// Id the scenario's context is stored under (once; every run loads it).
const ID: u64 = 1;

fn scenario() -> (CacheGenEngine, cachegen_llm::KvCache, ChunkPlan) {
    let mut rng = workload_rng(900);
    let profile = Dataset::LongChat.generate(&mut rng, 512, 90).tokens;
    let engine = CacheGenEngine::build(
        SimModelConfig::llama7b_sim(42),
        EngineConfig::default(),
        &[profile],
    );
    let ctx = Dataset::LongChat.generate(&mut rng, 512, 90).tokens;
    let reference = engine.calculate_kv(&ctx);
    let plan = engine.store_prefilled(ID, &ctx, &reference);
    (engine, reference, plan)
}

fn run_ladder(
    engine: &CacheGenEngine,
    plan: &ChunkPlan,
    loss: f64,
    seed: u64,
    fec: FecOverhead,
) -> cachegen::LoadOutcome {
    let mut link = Link::new(BandwidthTrace::constant(BW_BPS), PROPAGATION)
        .with_packet_faults(PacketFaults::loss(loss), seed);
    let params = LoadParams {
        policy: AdaptPolicy::FixedLevel(2),
        prior_throughput_bps: Some(BW_BPS),
        repair: RepairPolicy::Refetch,
        retransmit_budget: 0,
        fec_overhead: fec,
        ..LoadParams::default()
    };
    load_stored(engine, ID, plan, &mut link, &params, &NOOP).expect("stored context loads")
}

/// The acceptance headline: at 10% seeded i.i.d. packet loss with the
/// default `fec_overhead` and the FEC→repair→refetch ladder,
/// `load_stored` finishes with `repaired_fraction == 0` on ≥95% of
/// contexts, loss-induced TTFT inflation stays ≤1.05× the same-config
/// lossless pace, measured parity overhead stays ≤15%, and the
/// retransmit budget is never consumed.
#[test]
fn fec_ladder_acceptance_at_ten_percent_loss() {
    let (engine, _, plan) = scenario();
    let fec = FecOverhead::paper_default();
    let lossless = run_ladder(&engine, &plan, 0.0, 0, fec.clone());
    let lossless_ttft = lossless.stream.finish;
    assert!(lossless.parity_bytes > 0, "parity rides clean links too");

    let seeds: Vec<u64> = (0..10).map(|i| 1000 + 17 * i).collect();
    let mut clean_contexts = 0usize;
    let mut total_recovered = 0usize;
    let mut total_repaired_at_ttft = 0usize;
    for &seed in &seeds {
        let out = run_ladder(&engine, &plan, 0.10, seed, fec.clone());
        // TTFT: no NACK stalls — within 1.05× of the same-config
        // lossless pace (drops still spend wire time, so it can also be
        // marginally *faster* when a tail packet drops).
        assert!(
            out.stream.finish <= 1.05 * lossless_ttft,
            "seed {seed}: TTFT {} vs lossless {lossless_ttft}",
            out.stream.finish
        );
        // Bandwidth overhead: parity bytes over data bytes.
        let overhead = out.parity_bytes as f64 / out.stream.bytes_sent as f64;
        assert!(overhead <= 0.15, "seed {seed}: overhead {overhead}");
        // The FEC rung never touches the retransmit budget.
        assert_eq!(out.stream.retransmits(), 0);
        // The refetch rung restored whatever FEC could not recover: the
        // final cache holds zero policy-reconstructed bytes.
        if out.repaired_fraction == 0.0 {
            clean_contexts += 1;
        }
        total_recovered += out.fec_recovered.len();
        total_repaired_at_ttft += out.repairs.len();
        // And the restored cache is bit-exact vs the lossless ladder.
        assert_eq!(out.cache, lossless.cache, "seed {seed}");
    }
    assert!(
        clean_contexts as f64 >= 0.95 * seeds.len() as f64,
        "{clean_contexts}/{} contexts ended clean",
        seeds.len()
    );
    assert!(
        total_recovered > 0,
        "10% loss across {} seeds must exercise parity recovery",
        seeds.len()
    );
    // FEC is the first rung for a reason: it absorbs a meaningful share
    // of the losses before repair/refetch sees them.
    assert!(
        total_recovered * 2 >= total_repaired_at_ttft,
        "parity should absorb a meaningful share: {total_recovered} recovered vs {total_repaired_at_ttft} repaired"
    );
}

/// End-to-end determinism under reorder + duplicate faults: the same
/// seed reproduces the identical cache, FEC provenance, and timeline;
/// recovery does not depend on arrival order.
#[test]
fn fec_recovery_is_deterministic_under_reorder_and_duplicate() {
    let (engine, _, plan) = scenario();
    let run = |seed: u64| {
        let faults = PacketFaults {
            loss: 0.08,
            reorder: 0.5,
            duplicate: 0.25,
            ..PacketFaults::none()
        };
        let mut link = Link::new(BandwidthTrace::constant(BW_BPS), PROPAGATION)
            .with_packet_faults(faults, seed);
        let params = LoadParams {
            policy: AdaptPolicy::FixedLevel(2),
            prior_throughput_bps: Some(BW_BPS),
            repair: RepairPolicy::AnchorInterpolate,
            retransmit_budget: 0,
            fec_overhead: FecOverhead::paper_default(),
            ..LoadParams::default()
        };
        load_stored(&engine, ID, &plan, &mut link, &params, &NOOP).expect("stored context loads")
    };
    let a = run(5);
    let b = run(5);
    assert_eq!(a.cache, b.cache);
    assert_eq!(a.fec_recovered, b.fec_recovered);
    assert_eq!(a.repairs, b.repairs);
    assert_eq!(a.stream.chunks, b.stream.chunks);
    assert!(
        a.fec_recovered.iter().any(|(_, r)| {
            r.cause == cachegen_codec::RepairCause::RecoveredByFec
                && r.kind == cachegen_codec::RepairKind::Intact
        }) || a.stream.fec_recovered_packets() == 0,
        "recovered chunks carry RecoveredByFec/Intact provenance"
    );
    // A different seed draws a different fault pattern (non-vacuous).
    let c = run(6);
    assert_ne!(a.stream.chunks, c.stream.chunks);
}

/// Regression for the byte-weighting bugfix: `repaired_fraction` weighs
/// each hole by its packet's byte length (the head packet carries the
/// container and is ~10× a median packet), not by chunk count.
#[test]
fn repaired_fraction_is_byte_weighted() {
    let (engine, reference, plan) = scenario();
    // No FEC, zero-fill, 10% loss: holes stay in the final cache.
    let mut link = Link::new(BandwidthTrace::constant(BW_BPS), PROPAGATION)
        .with_packet_faults(PacketFaults::loss(0.10), 2024);
    let params = LoadParams {
        policy: AdaptPolicy::FixedLevel(2),
        prior_throughput_bps: Some(BW_BPS),
        repair: RepairPolicy::ZeroFill,
        retransmit_budget: 0,
        fec_overhead: FecOverhead::Off,
        ..LoadParams::default()
    };
    let out =
        load_stored(&engine, ID, &plan, &mut link, &params, &NOOP).expect("stored context loads");
    assert!(!out.repairs.is_empty(), "seeded 10% loss leaves holes");
    // Expected value, recomputed from the stream outcome: lost payload
    // bytes over the KV payload bytes actually streamed.
    let lost_bytes: u64 = out.stream.chunks.iter().map(|c| c.lost_bytes()).sum();
    let data_bytes: u64 = out.stream.bytes_sent;
    let expect = lost_bytes as f64 / data_bytes as f64;
    assert!(
        (out.repaired_fraction - expect).abs() < 1e-12,
        "byte-weighted fraction {} != expected {expect}",
        out.repaired_fraction
    );
    // And it differs from the old per-chunk counting whenever packet
    // sizes are uneven. The old formula divided repair count by the
    // total entropy-chunk count (2 × layers × groups per stream chunk) —
    // reconstruct it and check the two disagree here, because the
    // container-bearing head packet is ~10× a median packet.
    let enc = engine.encode_at_level(&reference, 2);
    let chunks_per_stream_chunk = 2 * enc.layers * 3; // 30-token chunks → 3 anchor groups
    let count_based =
        out.repairs.len() as f64 / (out.stream.chunks.len() * chunks_per_stream_chunk) as f64;
    assert!(
        (out.repaired_fraction - count_based).abs() > 1e-6,
        "byte weighting must diverge from chunk counting: {} vs {count_based}",
        out.repaired_fraction
    );
    // A lost head packet (group 0, layer 0, K) carries the container
    // (header + scale tables) on top of its entropy chunk, so its byte
    // weight strictly exceeds the uniform per-packet weight.
    let head = PacketId {
        group: 0,
        layer: 0,
        is_k: true,
    };
    for c in &out.stream.chunks {
        if let Some(&(_, head_bytes)) = c.lost.iter().find(|&&(id, _)| id == head) {
            let uniform = c.bytes / (chunks_per_stream_chunk as u64);
            assert!(
                head_bytes > 2 * uniform,
                "head packet weight {head_bytes} must dwarf the uniform share {uniform}"
            );
        }
    }
}
