//! Property tests for the codec's repair policies (the loss-resilience
//! contracts):
//!
//! (a) *any* subset of delivered chunks decodes without panic under every
//!     policy, with one provenance record per hole;
//! (b) `AnchorInterpolate`'s reconstruction error is bounded by the
//!     neighbor-row distance (the repaired value is a convex combination
//!     of the two boundary rows);
//! (c) delivery order is irrelevant: reordered delivery decodes
//!     byte-identically to in-order delivery.

use cachegen::{load_stored, CacheGenEngine, EngineConfig, LoadParams, RepairPolicy};
use cachegen_codec::{ChunkArrivalMap, RepairKind};
use cachegen_llm::SimModelConfig;
use cachegen_net::{BandwidthTrace, Link, PacketFaults};
use cachegen_telemetry::NOOP;
use proptest::prelude::*;

fn engine() -> CacheGenEngine {
    let profile: Vec<usize> = (0..60).map(|i| (i * 7) % 64).collect();
    CacheGenEngine::build(
        SimModelConfig::tiny(42),
        EngineConfig::default(),
        &[profile],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) Any arrival subset decodes totally, under every policy, with
    /// exact provenance.
    #[test]
    fn any_delivered_subset_decodes_without_panic(
        seed in 0u64..300,
        lost_mask in proptest::collection::vec(0usize..2, 10..17),
        policy_pick in 0usize..3,
    ) {
        let e = engine();
        let mut rng = cachegen_tensor::rng::seeded(seed);
        use rand::Rng;
        let ctx: Vec<usize> = (0..40).map(|_| rng.gen::<usize>() % 64).collect();
        let cache = e.calculate_kv(&ctx);
        let enc = e.encode_at_level(&cache, 1);
        let (layers, groups) = (enc.layers, enc.num_groups());
        let mut arrivals = ChunkArrivalMap::full(layers, groups);
        let mut expected_lost = 0usize;
        for (i, &lost) in lost_mask.iter().enumerate() {
            if lost == 1 {
                let side = i % 2 == 0;
                let layer = (i / 2) % layers;
                let group = (i / (2 * layers)) % groups;
                if !arrivals.is_lost(side, layer, group) {
                    arrivals.mark_lost(side, layer, group);
                    expected_lost += 1;
                }
            }
        }
        let policy = [
            RepairPolicy::ZeroFill,
            RepairPolicy::AnchorInterpolate,
            RepairPolicy::Refetch,
        ][policy_pick];
        let out = e
            .decode_with_repairs_at_level(&enc, 1, &arrivals, policy)
            .expect("any subset must decode");
        prop_assert_eq!(out.repairs.len(), expected_lost);
        prop_assert_eq!(out.cache.tokens(), cache.tokens());
        prop_assert!(out.cache.k().data().iter().all(|x| x.is_finite()));
        prop_assert!(out.cache.v().data().iter().all(|x| x.is_finite()));
        if expected_lost == 0 {
            prop_assert_eq!(&out.cache, &e.try_decode_at_level(&enc, 1).unwrap());
        }
    }

    /// (b) Interpolated repair error is bounded by the worse neighbor-row
    /// distance: the reconstruction is a convex combination of the left
    /// neighbor's last row and the right neighbor's anchor row.
    #[test]
    fn interpolation_error_bounded_by_neighbor_distance(
        seed in 0u64..300,
        lost_groups_raw in proptest::collection::vec(0usize..4, 1..3),
    ) {
        let e = engine();
        let mut rng = cachegen_tensor::rng::seeded(seed);
        use rand::Rng;
        let ctx: Vec<usize> = (0..40).map(|_| rng.gen::<usize>() % 64).collect();
        let cache = e.calculate_kv(&ctx);
        let enc = e.encode_at_level(&cache, 0);
        let clean = e.try_decode_at_level(&enc, 0).unwrap();
        let layout = enc.layout();
        let lost_groups: std::collections::BTreeSet<usize> =
            lost_groups_raw.into_iter().collect();
        let mut arrivals = ChunkArrivalMap::full(enc.layers, enc.num_groups());
        for &g in &lost_groups {
            arrivals.mark_lost(true, 0, g);
        }
        let out = e
            .decode_with_repairs_at_level(&enc, 0, &arrivals, RepairPolicy::AnchorInterpolate)
            .unwrap();
        for r in &out.repairs {
            let RepairKind::Interpolated { left, right } = &r.kind else {
                // A fully lost layer degenerates to zero-fill; bound
                // trivially holds against the zero row.
                continue;
            };
            // Boundary rows the repair interpolated between.
            let l_tok = left.map(|g| layout.group_range(g).1 - 1);
            let r_tok = right.map(|g| layout.group_range(g).0);
            let (start, end) = layout.group_range(r.group);
            for t in start..end {
                for c in 0..cache.channels() {
                    let got = out.cache.k().get(&[r.layer, t, c]);
                    let x = clean.k().get(&[r.layer, t, c]);
                    let dl = l_tok.map(|lt| (clean.k().get(&[r.layer, lt, c]) - x).abs());
                    let dr = r_tok.map(|rt| (clean.k().get(&[r.layer, rt, c]) - x).abs());
                    let bound = dl.unwrap_or(0.0).max(dr.unwrap_or(0.0));
                    prop_assert!(
                        (got - x).abs() <= bound + 1e-5,
                        "layer {} tok {t} ch {c}: err {} > neighbor distance {}",
                        r.layer, (got - x).abs(), bound
                    );
                }
            }
        }
    }

    /// (c) Arrival order is irrelevant: the same delivered set decodes
    /// byte-identically regardless of the order holes were recorded, and
    /// a reorder-only link (nothing lost) is byte-identical to a clean
    /// link end to end.
    #[test]
    fn reordered_delivery_is_byte_identical(
        seed in 0u64..300,
        order in proptest::collection::vec(0usize..16, 4..10),
    ) {
        let e = engine();
        let mut rng = cachegen_tensor::rng::seeded(seed);
        use rand::Rng;
        let ctx: Vec<usize> = (0..40).map(|_| rng.gen::<usize>() % 64).collect();
        let cache = e.calculate_kv(&ctx);
        let enc = e.encode_at_level(&cache, 1);
        let (layers, groups) = (enc.layers, enc.num_groups());
        // Record the same loss set in two different orders.
        let addr = |i: usize| (i.is_multiple_of(2), (i / 2) % layers, (i / (2 * layers)) % groups);
        let mut fwd = ChunkArrivalMap::full(layers, groups);
        for &i in &order {
            let (s, l, g) = addr(i);
            fwd.mark_lost(s, l, g);
        }
        let mut rev = ChunkArrivalMap::full(layers, groups);
        for &i in order.iter().rev() {
            let (s, l, g) = addr(i);
            rev.mark_lost(s, l, g);
        }
        prop_assert_eq!(&fwd, &rev);
        let a = e
            .decode_with_repairs_at_level(&enc, 1, &fwd, RepairPolicy::AnchorInterpolate)
            .unwrap();
        let b = e
            .decode_with_repairs_at_level(&enc, 1, &rev, RepairPolicy::AnchorInterpolate)
            .unwrap();
        prop_assert_eq!(a.cache.k().data(), b.cache.k().data());
        prop_assert_eq!(a.cache.v().data(), b.cache.v().data());
        prop_assert_eq!(a.repairs, b.repairs);
    }
}

/// End-to-end flavour of (c): a link that only *reorders* (no loss)
/// yields the bit-exact clean-link cache.
#[test]
fn reorder_only_link_is_lossless_end_to_end() {
    let e = engine();
    let ctx: Vec<usize> = (0..60).map(|i| (i * 11) % 64).collect();
    let plan = e.store_kv(1, &ctx);
    let load = |link: &mut Link| {
        load_stored(&e, 1, &plan, link, &LoadParams::default(), &NOOP)
            .expect("stored context loads")
    };
    let clean = load(&mut Link::new(BandwidthTrace::constant(1e9), 0.01));
    for seed in [1u64, 7, 23] {
        let mut link = Link::new(BandwidthTrace::constant(1e9), 0.01).with_packet_faults(
            PacketFaults {
                reorder: 0.6,
                ..PacketFaults::none()
            },
            seed,
        );
        let out = load(&mut link);
        assert_eq!(out.cache, clean.cache, "seed {seed}");
        assert!(out.repairs.is_empty(), "reorder alone loses nothing");
    }
}
