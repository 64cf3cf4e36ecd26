//! Property-based tests on the workspace's core invariants.

use cachegen_codec::delta::GroupLayout;
use cachegen_codec::encoder::SymKind;
use cachegen_codec::rans::{Decoder, Encoder, LANES};
use cachegen_codec::symbol_model::FreqTable;
use cachegen_codec::{CodecConfig, CodecProfile, EncodedKv, KvCodec};
use cachegen_llm::{KvCache, SimModelConfig, SimTransformer};
use cachegen_net::trace::BandwidthTrace;
use cachegen_quant::BinQuantizer;
use cachegen_tensor::Tensor;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The entropy coder is lossless for any symbol stream under any
    /// frequency table, consumes its stream exactly (no synthetic
    /// past-end reads, no slack) and returns every lane to its base.
    #[test]
    fn entropy_coder_round_trips_any_stream(
        counts in proptest::collection::vec(0u32..500, 2..32),
        seed in 0u64..1_000,
        len in 1usize..600,
    ) {
        let table = FreqTable::from_counts(&counts);
        let alpha = counts.len();
        let mut rng = cachegen_tensor::rng::seeded(seed);
        use rand::Rng;
        let symbols: Vec<usize> = (0..len).map(|_| rng.gen::<usize>() % alpha).collect();
        let mut enc = Encoder::new();
        for (i, &s) in symbols.iter().enumerate() {
            enc.encode(i % LANES, &table, s);
        }
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        for (i, &s) in symbols.iter().enumerate() {
            prop_assert_eq!(dec.decode(i % LANES, &table), s);
        }
        prop_assert_eq!(dec.bytes_consumed(), bytes.len());
        prop_assert_eq!(dec.overrun_bytes(), 0);
        prop_assert!(dec.finished());
    }

    /// For any geometry, `groups()` visits every token exactly once with
    /// each group's anchor first, and its g-th item spans exactly
    /// `group_range(g)` over `num_groups()` groups. Group size 1 makes
    /// every token an anchor with no members.
    #[test]
    fn groups_cover_all_tokens_once(
        tokens in 1usize..80,
        group in 1usize..20,
    ) {
        let layout = GroupLayout::new(group, tokens);
        let mut seen = vec![false; tokens];
        let mut count = 0;
        for (g, (anchor, members)) in layout.groups().enumerate() {
            let (start, end) = layout.group_range(g);
            prop_assert_eq!(anchor, start);
            prop_assert_eq!(members.clone(), start + 1..end);
            for t in std::iter::once(anchor).chain(members) {
                prop_assert!(!seen[t], "token {} visited twice", t);
                seen[t] = true;
            }
            count += 1;
        }
        prop_assert_eq!(count, layout.num_groups());
        prop_assert!(seen.iter().all(|&s| s), "a token was never visited");
    }

    /// Bin quantization error is bounded by half a step for in-range
    /// values.
    #[test]
    fn bin_quantizer_error_bound(
        bin in 0.05f32..4.0,
        scale in 0.01f32..10.0,
        values in proptest::collection::vec(-50.0f32..50.0, 1..200),
    ) {
        let q = BinQuantizer::new(bin);
        let syms = q.quantize(&values, scale);
        let back = q.dequantize(&syms, scale);
        for (v, b) in values.iter().zip(&back) {
            prop_assert!((v - b).abs() <= q.max_error(scale) + 1e-4);
        }
    }

    /// Bandwidth-trace transfer time inverts bytes_transferable for any
    /// piecewise trace.
    #[test]
    fn trace_transfer_inversion(
        rates in proptest::collection::vec(1e3f64..1e9, 1..8),
        bytes in 1u64..100_000_000,
        start in 0.0f64..20.0,
    ) {
        let segments: Vec<(f64, f64)> = rates
            .iter()
            .enumerate()
            .map(|(i, &r)| (i as f64 * 1.5, r))
            .collect();
        let trace = BandwidthTrace::from_segments(segments);
        let dur = trace.transfer_seconds(bytes, start);
        prop_assert!(dur.is_finite() && dur >= 0.0);
        let got = trace.bytes_transferable(start, dur);
        // Integer floor on bytes: allow ±1.
        prop_assert!((got as i128 - bytes as i128).abs() <= 1,
            "bytes {} -> dur {} -> {}", bytes, dur, got);
    }

    /// The bitstream container parses back exactly for arbitrary stream
    /// payloads and dimensions.
    #[test]
    fn container_round_trips(
        layers in 1usize..6,
        tokens in 1usize..100,
        channels in 1usize..32,
        group in 1usize..20,
        seed in 0u64..1000,
    ) {
        let mut rng = cachegen_tensor::rng::seeded(seed);
        use rand::Rng;
        let groups = tokens.div_ceil(group);
        let mut mk_chunks = || -> Vec<Vec<Vec<u8>>> {
            (0..layers)
                .map(|_| {
                    (0..groups)
                        .map(|_| {
                            let n = rng.gen::<usize>() % 200;
                            (0..n).map(|_| rng.gen::<u8>()).collect()
                        })
                        .collect()
                })
                .collect()
        };
        let k_chunks = mk_chunks();
        let v_chunks = mk_chunks();
        // Scales must be exactly representable on the bf16 wire.
        let mut mk_scales = || -> Vec<Vec<f32>> {
            (0..layers)
                .map(|_| {
                    (0..channels)
                        .map(|_| {
                            // Exponent bits in [0x30, 0x6F]: always finite,
                            // positive, and exactly bf16-representable.
                            cachegen_codec::container::wire_to_scale(
                                0x3000 + (rng.gen::<u16>() % 0x4000),
                            )
                        })
                        .collect()
                })
                .collect()
        };
        let scales = [mk_scales(), mk_scales(), mk_scales(), mk_scales()];
        let enc = EncodedKv {
            layers,
            tokens,
            channels,
            group_size: group,
            // Chunk payloads here are random bytes (the container layer
            // never inspects them).
            delta_encoding: seed % 2 == 0,
            k_chunks,
            v_chunks,
            scales,
        };
        let bytes = enc.to_bytes();
        prop_assert_eq!(bytes.len() as u64, enc.total_bytes());
        let back = EncodedKv::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, enc);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Reference equality for the encoder's reverse single-pass kernel:
    /// every entropy chunk `KvCodec::encode` writes is byte for byte what
    /// the forward-order `rans::Encoder` writes for the same symbols under
    /// the same tables — for one to nine channels (every lane-tail length
    /// behind zero, one and two four-wide blocks), short last groups, a
    /// profile from another sample, and both ablation arms.
    #[test]
    fn codec_chunks_equal_the_forward_encoder(
        seed in 0u64..1_000,
        layers in 1usize..3,
        tokens in 1usize..26,
        channels in 1usize..10,
        group_size in 1usize..12,
        arm in 0u8..2,
    ) {
        let delta_encoding = arm == 0;
        let mut rng = cachegen_tensor::rng::seeded(seed);
        let n = layers * tokens * channels;
        let mut cache = || {
            let mut side = || Tensor::from_vec(
                &[layers, tokens, channels],
                cachegen_tensor::rng::normal_vec(&mut rng, n, 0.0, 2.0),
            );
            let k = side();
            KvCache::from_tensors(k, side())
        };
        let (sample, cache) = (cache(), cache());
        let cfg = CodecConfig { group_size, delta_encoding, ..CodecConfig::default() };
        let codec = KvCodec::new(cfg.clone(), CodecProfile::build(&cfg, &[&sample]));
        let enc = codec.encode(&cache);
        let layout = GroupLayout::new(group_size, tokens);
        for (is_k, side) in [(true, &enc.k_chunks), (false, &enc.v_chunks)] {
            for (layer, chunks) in side.iter().enumerate() {
                let tail = codec.profile().layer_tables(SymKind::Delta, is_k, layer);
                let head = if delta_encoding {
                    codec.profile().layer_tables(SymKind::Anchor, is_k, layer)
                } else {
                    tail.clone()
                };
                for (group, chunk) in chunks.iter().enumerate() {
                    let (start, end) = layout.group_range(group);
                    let mut dec = Decoder::new(chunk);
                    let mut forward = Encoder::new();
                    for row in 0..end - start {
                        let tables = if row == 0 { &head } else { &tail };
                        for (c, table) in tables.iter().enumerate() {
                            let symbol = dec.decode(c % LANES, table);
                            forward.encode(c % LANES, table, symbol);
                        }
                    }
                    prop_assert!(dec.finished() && dec.bytes_consumed() == chunk.len());
                    prop_assert_eq!(
                        &forward.finish(), chunk,
                        "side K={} layer {} group {}", is_k, layer, group
                    );
                }
            }
        }
    }
}

proptest! {
    // The codec round-trip test prefially runs the transformer, so fewer
    // cases keep the suite fast.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any context on the tiny model, decode(encode(kv)) reconstructs
    /// within quantization bounds and decode is deterministic + parallel-
    /// safe.
    #[test]
    fn codec_round_trip_any_context(
        seed in 0u64..500,
        len in 12usize..60,
    ) {
        let model = SimTransformer::new(SimModelConfig::tiny(7));
        let mut rng = cachegen_tensor::rng::seeded(seed);
        use rand::Rng;
        let ctx: Vec<usize> = (0..len).map(|_| rng.gen::<usize>() % 64).collect();
        let cache = model.prefill(&ctx);
        let cfg = CodecConfig::default();
        let profile = CodecProfile::build(&cfg, &[&cache]);
        let codec = KvCodec::new(cfg, profile);
        let enc = codec.encode(&cache);
        let dec1 = codec.try_decode(&enc).unwrap();
        let dec2 = codec.try_decode_parallel(&enc).unwrap();
        prop_assert_eq!(&dec1, &dec2);
        // Lossy only through quantization: bounded reconstruction error.
        prop_assert!(cache.mse(&dec1) < 1.0, "mse {}", cache.mse(&dec1));
        // Serialized form survives the wire.
        let back = EncodedKv::from_bytes(&enc.to_bytes()).unwrap();
        prop_assert_eq!(codec.try_decode(&back).unwrap(), dec1);
    }

    /// Chunk-independent encoding: slicing at any group-aligned boundary
    /// and concatenating decoded chunks equals decoding the whole.
    #[test]
    fn chunked_encoding_is_boundary_invariant(
        seed in 0u64..200,
        groups_in_first in 1usize..3,
    ) {
        let model = SimTransformer::new(SimModelConfig::tiny(13));
        let mut rng = cachegen_tensor::rng::seeded(seed);
        use rand::Rng;
        let len = 40; // 4 groups of 10
        let ctx: Vec<usize> = (0..len).map(|_| rng.gen::<usize>() % 64).collect();
        let cache = model.prefill(&ctx);
        let cfg = CodecConfig::default();
        let profile = CodecProfile::build(&cfg, &[&cache]);
        let codec = KvCodec::new(cfg, profile);
        let whole = codec.try_decode(&codec.encode(&cache)).unwrap();
        let cut = groups_in_first * 10;
        let a = codec.try_decode(&codec.encode(&cache.slice_tokens(0, cut))).unwrap();
        let b = codec.try_decode(&codec.encode(&cache.slice_tokens(cut, len))).unwrap();
        let merged = KvCache::concat_tokens(&[a, b]);
        // Per-chunk vectorwise scales differ from whole-cache scales, so
        // require same-order loss rather than bit-identity.
        let whole_mse = cache.mse(&whole) as f64;
        let merged_mse = cache.mse(&merged) as f64;
        prop_assert!(
            merged_mse <= 2.5 * whole_mse + 1e-6,
            "chunked loss {} vs whole loss {}", merged_mse, whole_mse
        );
    }
}
