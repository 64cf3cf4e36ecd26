//! Workspace smoke test for the codec's core invariant.
//!
//! `crates/codec/src/lib.rs` states: *the only lossy stage is quantization —
//! `decode(encode(kv))` equals the quantized cache exactly.* These tests
//! assert that literally: the expected quantized cache is reconstructed
//! independently from public pieces (group layout, bin quantizers, the
//! wire-rounded scales shipped in the stream) and compared bit-for-bit
//! against what the decoder produces, proving the arithmetic-coding stage
//! is lossless end to end.

use cachegen_codec::delta::GroupLayout;
use cachegen_codec::{index_to_symbol, symbol_to_index, CodecConfig, EncodedKv, KvCodec};
use cachegen_codec::{profile::CodecProfile, rans};
use cachegen_llm::{KvCache, SimModelConfig, SimTransformer};
use cachegen_quant::BinQuantizer;
use cachegen_tensor::Tensor;
use proptest::prelude::*;

/// Reference quantizer: mirrors the encoder's quantize-reconstruct walk
/// (anchor rows, then anchor-relative deltas) using only public APIs and
/// the scales actually shipped in `enc`, with no entropy coding involved.
fn quantized_reference(cache: &KvCache, cfg: &CodecConfig, enc: &EncodedKv) -> KvCache {
    let (layers, tokens, channels) = (cache.layers(), cache.tokens(), cache.channels());
    let layout = GroupLayout::new(enc.group_size, tokens);
    let clamp = |s: f32| index_to_symbol(symbol_to_index(s.round() as i32) as u8) as f32;
    let mut out_k = Tensor::zeros(&[layers, tokens, channels]);
    let mut out_v = Tensor::zeros(&[layers, tokens, channels]);
    for (is_k, src, dst) in [
        (true, cache.k(), &mut out_k),
        (false, cache.v(), &mut out_v),
    ] {
        let (anchor_scales, delta_scales) = if is_k {
            (&enc.scales[0], &enc.scales[1])
        } else {
            (&enc.scales[2], &enc.scales[3])
        };
        for l in 0..layers {
            let anchor_q = BinQuantizer::new(cfg.anchor_bin);
            let delta_q = BinQuantizer::new(cfg.bins.bin_for_layer(l, layers));
            let slab = src.slab(l);
            let out = dst.slab_mut(l);
            for (anchor, members) in layout.groups() {
                let mut recon_anchor = vec![0.0f32; channels];
                for (c, r) in recon_anchor.iter_mut().enumerate() {
                    let step = anchor_q.step(anchor_scales[l][c]);
                    *r = clamp(slab[anchor * channels + c] / step) * step;
                    out[anchor * channels + c] = *r;
                }
                for t in members {
                    for c in 0..channels {
                        let step = delta_q.step(delta_scales[l][c]);
                        let d = slab[t * channels + c] - recon_anchor[c];
                        out[t * channels + c] = recon_anchor[c] + clamp(d / step) * step;
                    }
                }
            }
        }
    }
    KvCache::from_tensors(out_k, out_v)
}

/// Bitwise equality, with a diagnostic on the first mismatch.
fn assert_bit_identical(got: &KvCache, want: &KvCache) {
    assert_eq!(got.layers(), want.layers());
    assert_eq!(got.tokens(), want.tokens());
    assert_eq!(got.channels(), want.channels());
    for (name, a, b) in [("K", got.k(), want.k()), ("V", got.v(), want.v())] {
        for (i, (x, y)) in a.data().iter().zip(b.data().iter()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{name}[{i}]: decoded {x} != quantized reference {y}"
            );
        }
    }
}

#[test]
fn decode_of_encode_equals_quantized_cache_exactly() {
    let model = SimTransformer::new(SimModelConfig::tiny(3));
    let ctx: Vec<usize> = (0..47).map(|i| (i * 11 + 2) % 64).collect();
    let cache = model.prefill(&ctx);
    let cfg = CodecConfig::default();
    let profile = CodecProfile::build(&cfg, &[&cache]);
    let codec = KvCodec::new(cfg.clone(), profile);
    let enc = codec.encode(&cache);
    let dec = codec.try_decode(&enc).unwrap();
    assert_bit_identical(&dec, &quantized_reference(&cache, &cfg, &enc));
    // Parallel decode is bit-identical too, and the wire container is
    // transparent.
    assert_bit_identical(&codec.try_decode_parallel(&enc).unwrap(), &dec);
    let wired = EncodedKv::from_bytes(&enc.to_bytes()).expect("container parses");
    assert_bit_identical(&codec.try_decode(&wired).unwrap(), &dec);
}

/// A raw entropy-coder sanity check at the workspace level: the entropy
/// stage on its own is lossless (so any codec loss must come from
/// quantization), and it consumes its stream exactly.
#[test]
fn entropy_stage_is_lossless() {
    let table = cachegen_codec::symbol_model::FreqTable::from_counts(&[5, 1, 90, 4, 400, 7]);
    let symbols: Vec<usize> = (0..5_000).map(|i| (i * i + i / 3) % 6).collect();
    let mut enc = rans::Encoder::new();
    for (i, &s) in symbols.iter().enumerate() {
        enc.encode(i % rans::LANES, &table, s);
    }
    let bytes = enc.finish();
    let mut dec = rans::Decoder::new(&bytes);
    for (i, &s) in symbols.iter().enumerate() {
        assert_eq!(dec.decode(i % rans::LANES, &table), s);
    }
    assert_eq!(dec.bytes_consumed(), bytes.len());
    assert_eq!(dec.overrun_bytes(), 0);
    assert!(dec.finished());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Truncating any entropy chunk of a valid stream is *reported* — the
    /// decoder must never silently emit noise past end-of-stream. (The
    /// pre-chunking decoder did exactly that: its bit reader yielded
    /// synthetic zeros forever.)
    #[test]
    fn truncated_chunks_are_reported_not_decoded(
        seed in 0u64..10_000,
        cut_num in 1usize..8, // fraction of the chunk kept: cut_num/8
        pick in 0usize..1_000,
    ) {
        let mut rng = cachegen_tensor::rng::seeded(seed);
        let (layers, tokens, channels) = (2usize, 25usize, 6usize);
        let n = layers * tokens * channels;
        let mk = |rng: &mut _| {
            Tensor::from_vec(
                &[layers, tokens, channels],
                cachegen_tensor::rng::normal_vec(rng, n, 0.0, 2.0),
            )
        };
        let cache = KvCache::from_tensors(mk(&mut rng), mk(&mut rng));
        let cfg = CodecConfig::default();
        let profile = CodecProfile::build(&cfg, &[&cache]);
        let codec = KvCodec::new(cfg, profile);
        let mut enc = codec.encode(&cache);
        // Pick a chunk and truncate it (keep at least one byte missing).
        let groups = enc.num_groups();
        let layer = pick % layers;
        let group = (pick / layers) % groups;
        let side_k = pick % 2 == 0;
        let chunk = if side_k {
            &mut enc.k_chunks[layer][group]
        } else {
            &mut enc.v_chunks[layer][group]
        };
        let keep = (chunk.len() * cut_num / 8).min(chunk.len() - 1);
        chunk.truncate(keep);
        prop_assert!(codec.try_decode(&enc).is_err(), "truncation must be reported");
        prop_assert!(codec.try_decode_parallel(&enc).is_err());
    }

    /// The exact-quantization invariant holds for arbitrary random small
    /// caches (not just transformer-produced ones), across geometries and
    /// group sizes.
    #[test]
    fn random_small_caches_round_trip_exactly(
        layers in 1usize..4,
        tokens in 1usize..40,
        channels in 1usize..10,
        group in 1usize..14,
        seed in 0u64..10_000,
    ) {
        let mut rng = cachegen_tensor::rng::seeded(seed);
        let n = layers * tokens * channels;
        let mk = |rng: &mut _| {
            Tensor::from_vec(
                &[layers, tokens, channels],
                cachegen_tensor::rng::normal_vec(rng, n, 0.0, 2.5),
            )
        };
        let cache = KvCache::from_tensors(mk(&mut rng), mk(&mut rng));
        let cfg = CodecConfig {
            group_size: group,
            ..CodecConfig::default()
        };
        let profile = CodecProfile::build(&cfg, &[&cache]);
        let codec = KvCodec::new(cfg.clone(), profile);
        let enc = codec.encode(&cache);
        let dec = codec.try_decode(&enc).unwrap();
        assert_bit_identical(&dec, &quantized_reference(&cache, &cfg, &enc));
        assert_bit_identical(&codec.try_decode_parallel(&enc).unwrap(), &dec);
        // And the loss that remains is exactly the bounded quantization
        // loss: anchors err at most half an anchor step; other tokens at
        // most half a delta step, because their delta is taken against the
        // *reconstructed* anchor, whose own error therefore cancels. The
        // only escape is the ±127-step symbol clamp.
        let layout = GroupLayout::new(enc.group_size, tokens);
        let clamp_binds = |quantized: f32| !(-128.0..=127.0).contains(&quantized);
        for (is_k, src, got) in [(true, cache.k(), dec.k()), (false, cache.v(), dec.v())] {
            let (anchor_scales, delta_scales) = if is_k {
                (&enc.scales[0], &enc.scales[1])
            } else {
                (&enc.scales[2], &enc.scales[3])
            };
            for l in 0..layers {
                let anchor_q = BinQuantizer::new(cfg.anchor_bin);
                let delta_q = BinQuantizer::new(cfg.bins.bin_for_layer(l, layers));
                for (anchor, members) in layout.groups() {
                    for c in 0..channels {
                        let (sv, gv) = (src.slab(l), got.slab(l));
                        let step = anchor_q.step(anchor_scales[l][c]);
                        let err = (sv[anchor * channels + c] - gv[anchor * channels + c]).abs();
                        prop_assert!(
                            err <= step * 0.5 + 1e-4
                                || clamp_binds((sv[anchor * channels + c] / step).round()),
                            "anchor err {err} > half-step {}", step * 0.5
                        );
                        for t in members.clone() {
                            let step = delta_q.step(delta_scales[l][c]);
                            let d = sv[t * channels + c] - gv[anchor * channels + c];
                            let err = (sv[t * channels + c] - gv[t * channels + c]).abs();
                            prop_assert!(
                                err <= step * 0.5 + 1e-4 || clamp_binds((d / step).round()),
                                "delta err {err} > half-step {}", step * 0.5
                            );
                        }
                    }
                }
            }
        }
    }
}
