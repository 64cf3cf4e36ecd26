//! Tests pinning the wire-v4 (interleaved rANS over the cumulative
//! layout) contract: the optimised coder against an independent
//! reference rANS, serial == parallel == wire-round-trip bit-exactness,
//! per-lane truncation/corruption/slack detection with typed errors,
//! chunk-local damage containment, and rejection of the retired wires.

use cachegen_codec::container::wire_to_scale;
use cachegen_codec::delta::{GroupLayout, DEFAULT_GROUP_SIZE};
use cachegen_codec::encoder::SymKind;
use cachegen_codec::rans::{self, LANES, RANS_L, STATE_BYTES};
use cachegen_codec::repair::{ChunkArrivalMap, RepairCause, RepairPolicy};
use cachegen_codec::symbol_model::{FreqTable, MAX_TOTAL, TOTAL_BITS};
use cachegen_codec::{CodecConfig, CodecError, CodecProfile, EncodedKv, KvCodec};
use cachegen_llm::{KvCache, SimModelConfig, SimTransformer};
use cachegen_tensor::Tensor;
use proptest::prelude::*;
use rand::Rng;

/// Reference rANS: the textbook recurrences over a plain cumulative
/// array, symbol lookup by linear scan. Shares nothing with
/// `cachegen_codec::rans` or `FreqTable`'s search structures except the
/// wire constants.
mod reference {
    use super::{LANES, MAX_TOTAL, RANS_L, STATE_BYTES, TOTAL_BITS};

    pub fn encode(cum: &[u64], symbols: &[usize]) -> Vec<u8> {
        let mut states = [RANS_L; LANES];
        let mut words = Vec::new();
        for (i, &s) in symbols.iter().enumerate().rev() {
            let (start, freq) = (cum[s], cum[s + 1] - cum[s]);
            let mut x = states[i % LANES];
            if x >= freq << (63 - TOTAL_BITS) {
                words.push(x as u32);
                x >>= 32;
            }
            states[i % LANES] = ((x / freq) << TOTAL_BITS) + x % freq + start;
        }
        let mut out: Vec<u8> = states.iter().flat_map(|s| s.to_le_bytes()).collect();
        out.extend(words.iter().rev().flat_map(|w| w.to_le_bytes()));
        out
    }

    /// `None` unless the stream is exactly consumed and every lane lands
    /// back on `RANS_L`.
    pub fn decode(cum: &[u64], bytes: &[u8], count: usize) -> Option<Vec<usize>> {
        let u64_at = |at: usize| Some(u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?));
        let mut states = [u64_at(0)?, u64_at(8)?, u64_at(16)?, u64_at(24)?];
        let mut pos = STATE_BYTES;
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let x = states[i % LANES];
            let scaled = x % MAX_TOTAL;
            let s = (0..cum.len() - 1).find(|&s| scaled < cum[s + 1])?;
            let mut x = (cum[s + 1] - cum[s]) * (x >> TOTAL_BITS) + scaled - cum[s];
            if x < RANS_L {
                let word = u32::from_le_bytes(bytes.get(pos..pos + 4)?.try_into().ok()?);
                x = (x << 32) | u64::from(word);
                pos += 4;
            }
            states[i % LANES] = x;
            out.push(s);
        }
        (pos == bytes.len() && states == [RANS_L; LANES]).then_some(out)
    }
}

/// The counts the differential test profiles each alphabet with.
fn distributions(n: usize) -> Vec<(&'static str, Vec<u32>)> {
    let peak_at = |mode: usize| -> Vec<u32> {
        (0..n)
            .map(|i| 1_000_000u32 >> i.abs_diff(mode).min(31))
            .collect()
    };
    let mut one_hot = vec![0u32; n];
    one_hot[n / 3] = 1_000_000;
    vec![
        ("flat", vec![1; n]),
        ("peaked", peak_at(n / 2)),
        ("one-hot", one_hot),
        // The hot window is clipped at either end of the alphabet.
        ("mode at first symbol", peak_at(0)),
        ("mode at last symbol", peak_at(n - 1)),
        ("mode one inside the end", peak_at(n.saturating_sub(2))),
    ]
}

#[test]
fn optimised_rans_matches_the_reference_coder() {
    let mut rng = cachegen_tensor::rng::seeded(4);
    for n in [1usize, 2, 17, 255, 256, 257, 4096] {
        for (name, counts) in distributions(n) {
            let table = FreqTable::from_counts(&counts);
            let cum: Vec<u64> = std::iter::once(0)
                .chain((0..n).map(|s| table.range(s).1))
                .collect();
            assert_eq!(cum[n], MAX_TOTAL);
            // `find` inverts `range` at both ends of every symbol.
            for s in 0..n {
                assert_eq!(table.find(cum[s]), s, "{name}/{n}: first value of {s}");
                assert_eq!(
                    table.find(cum[s + 1] - 1),
                    s,
                    "{name}/{n}: last value of {s}"
                );
            }
            // Half the stream follows the distribution (every scaled
            // value reachable), half is uniform over the alphabet (every
            // symbol, however rare, gets encoded).
            let symbols: Vec<usize> = (0..3_001)
                .map(|i| {
                    if i % 2 == 0 {
                        table.find(rng.gen::<u64>() % MAX_TOTAL)
                    } else {
                        rng.gen::<usize>() % n
                    }
                })
                .collect();
            let mut enc = rans::Encoder::new();
            for (i, &s) in symbols.iter().enumerate() {
                enc.encode(i % LANES, &table, s);
            }
            let bytes = enc.finish();
            assert_eq!(
                bytes,
                reference::encode(&cum, &symbols),
                "{name}/{n}: encoders disagree"
            );
            assert_eq!(
                reference::decode(&cum, &bytes, symbols.len()).as_deref(),
                Some(&symbols[..]),
                "{name}/{n}: reference decode of optimised bytes"
            );
            // Scalar and batched optimised decode, fully checked.
            let mut dec = rans::Decoder::new(&bytes);
            let scalar: Vec<usize> = (0..symbols.len())
                .map(|i| dec.decode(i % LANES, &table))
                .collect();
            assert_eq!(scalar, symbols, "{name}/{n}: optimised decode");
            assert!(dec.finished() && dec.bytes_consumed() == bytes.len());
            let mut dec = rans::Decoder::new(&bytes);
            let mut batched = Vec::with_capacity(symbols.len());
            for _ in 0..symbols.len() / LANES {
                batched.extend(dec.decode4([&table; LANES]));
            }
            batched.push(dec.decode(0, &table)); // 3001 = 4 · 750 + 1
            assert_eq!(batched, symbols, "{name}/{n}: batched decode");
            assert!(dec.finished() && dec.bytes_consumed() == bytes.len());
        }
    }
}

/// `cum[0..=n]` of a table, read through its public ranges.
fn cumulative(table: &FreqTable) -> Vec<u64> {
    std::iter::once(0)
        .chain((0..table.len()).map(|s| table.range(s).1))
        .collect()
}

/// Where the hot window's index cuts a table's scaled values, as the
/// `FreqTable` docs define it: the window is the heaviest run of fifteen
/// consecutive symbols (the first on ties; a shorter alphabet whole), and
/// its span is cut into 32 slices of the smallest power-of-two width that
/// fits it. Returns the 33 slice boundaries.
fn index_boundaries(cum: &[u64]) -> Vec<u64> {
    let n = cum.len() - 1;
    let at = |i: usize| cum[i.min(n)];
    let base = (0..=n.saturating_sub(15))
        .max_by_key(|&b| (at(b + 15) - cum[b], std::cmp::Reverse(b)))
        .expect("a table has a symbol");
    let (lo, hi) = (cum[base], at(base + 15));
    let width = (0..TOTAL_BITS)
        .map(|s| 1u64 << s)
        .find(|w| hi - lo <= 32 * w)
        .expect("the total fits");
    (0..=32).map(|j| lo + j * width).collect()
}

/// What the hot-window-first resolve reads: the symbols
/// `rans::Decoder::decode4` takes out of four lane states whose low
/// `TOTAL_BITS` are `scaled` (the states' upper bits are immaterial).
fn hot_first(table: &FreqTable, scaled: [u64; LANES]) -> [usize; LANES] {
    let header: Vec<u8> = scaled
        .iter()
        .flat_map(|&s| ((RANS_L << TOTAL_BITS) | s).to_le_bytes())
        .collect();
    rans::Decoder::new(&header).decode4([table; LANES])
}

/// Checks both resolves of `table` against a linear scan of its
/// cumulative array: every symbol boundary and every index slice boundary
/// ±1, plus `random` uniform values. The probes are sorted, so one scan
/// of `cum` answers them all.
fn check_resolves(table: &FreqTable, random: usize, rng: &mut rand::rngs::StdRng, name: &str) {
    let cum = cumulative(table);
    let mut probes: Vec<u64> = cum
        .iter()
        .chain(&index_boundaries(&cum))
        .flat_map(|&b| [b.wrapping_sub(1), b, b + 1])
        .chain((0..random).map(|_| rng.gen::<u64>() % MAX_TOTAL))
        .filter(|&v| v < MAX_TOTAL)
        .collect();
    probes.sort_unstable();
    probes.resize(probes.len().next_multiple_of(LANES), MAX_TOTAL - 1);
    let mut want = 0;
    for four in probes.chunks_exact(LANES) {
        let four: [u64; LANES] = four.try_into().expect("four probes");
        let hot = hot_first(table, four);
        for (&v, hot) in four.iter().zip(hot) {
            while cum[want + 1] <= v {
                want += 1;
            }
            assert_eq!(table.find(v), want, "{name}: ranked resolve of {v}");
            assert_eq!(hot, want, "{name}: hot-first resolve of {v}");
        }
    }
}

#[test]
fn both_resolves_equal_a_linear_scan() {
    let mut rng = cachegen_tensor::rng::seeded(27);
    // Alphabets shorter than the fifteen-symbol window, exactly it, one
    // either side, the codec's 256 and past the two-level rank's reach;
    // `distributions` clips the window at either end.
    for n in [1usize, 2, 7, 14, 15, 16, 17, 255, 256, 257, 4096] {
        for (name, counts) in distributions(n) {
            check_resolves(
                &FreqTable::from_counts(&counts),
                10_000,
                &mut rng,
                &format!("{name}/{n}"),
            );
        }
    }
    // Every table of a real five-level profile: anchor and delta, K and
    // V, every (layer, channel), at the engine's five bin factors.
    let model = SimTransformer::new(SimModelConfig::tiny(7));
    let sample = model.prefill(&(0..60).map(|i| (i * 7) % 64).collect::<Vec<_>>());
    for factor in [0.3f32, 0.6, 1.0, 1.8, 3.0] {
        let cfg = CodecConfig::default().with_bin_factor(factor);
        let profile = CodecProfile::build(&cfg, &[&sample]);
        for kind in [SymKind::Anchor, SymKind::Delta] {
            for is_k in [true, false] {
                for layer in 0..profile.layers() {
                    for channel in 0..profile.channels() {
                        let table = profile.table(kind, is_k, layer, channel);
                        let name = format!("×{factor} {kind:?} k={is_k} ({layer}, {channel})");
                        check_resolves(table, 100, &mut rng, &name);
                    }
                }
            }
        }
    }
}

#[test]
fn a_table_stays_three_cache_lines() {
    // Decode strides over arrays of tables: the hot window's index lives
    // in the third line's slack, not in a fourth line.
    assert_eq!(std::mem::size_of::<FreqTable>(), 192);
}

#[test]
fn reference_coder_rejects_what_the_optimised_one_rejects() {
    // The oracle is only worth diffing against if it is as strict.
    let table = FreqTable::from_counts(&[500, 30, 9, 2, 1]);
    let cum: Vec<u64> = std::iter::once(0)
        .chain((0..5).map(|s| table.range(s).1))
        .collect();
    let symbols: Vec<usize> = (0..400).map(|i| (i * i) % 5).collect();
    let bytes = reference::encode(&cum, &symbols);
    assert!(reference::decode(&cum, &bytes, symbols.len()).is_some());
    assert!(reference::decode(&cum, &bytes[..bytes.len() - 1], symbols.len()).is_none());
    let mut slack = bytes.clone();
    slack.extend_from_slice(&[0; 4]);
    assert!(reference::decode(&cum, &slack, symbols.len()).is_none());
    let mut flipped = bytes.clone();
    flipped[STATE_BYTES + 2] ^= 0x40;
    assert!(reference::decode(&cum, &flipped, symbols.len()).is_none());
}

/// Picks one (side, layer, group) chunk of `enc` from an arbitrary index.
fn pick_chunk(enc: &EncodedKv, pick: usize) -> (bool, usize, usize) {
    let groups = enc.num_groups();
    let target = pick % (2 * enc.layers * groups);
    let (side, rest) = (
        target / (enc.layers * groups),
        target % (enc.layers * groups),
    );
    (side == 0, rest / groups, rest % groups)
}

fn chunk_mut(enc: &mut EncodedKv, (is_k, layer, group): (bool, usize, usize)) -> &mut Vec<u8> {
    let side = if is_k {
        &mut enc.k_chunks
    } else {
        &mut enc.v_chunks
    };
    &mut side[layer][group]
}

/// The (side, layer, group) a per-chunk decode error names.
fn error_address(err: &CodecError) -> Option<(bool, usize, usize)> {
    match *err {
        CodecError::TruncatedChunk {
            is_k, layer, group, ..
        }
        | CodecError::ChunkLengthMismatch {
            is_k, layer, group, ..
        }
        | CodecError::CorruptChunk { is_k, layer, group } => Some((is_k, layer, group)),
        CodecError::Geometry(_) => None,
    }
}

#[test]
fn v3_container_is_rejected_by_version_never_decoded() {
    // A v3 container has v4's framing (same header, same chunk frames,
    // same 32-byte lane states) but maps scaled values to symbols through
    // the retired alias layout. It must fail on the version byte — were it
    // dispatched to the v4 decoder it would mostly "decode", as noise.
    let (_, enc) = encode_small(3, 40, true);
    let mut bytes = enc.to_bytes();
    assert_eq!(bytes[4], 4, "encode emits v4");
    bytes[4] = 3;
    assert_eq!(
        EncodedKv::from_bytes(&bytes),
        Err("unsupported version 3".to_string()),
        "the same error the long-gone v1 gets"
    );
    // An `EncodedKv` carries no version, so the byte gate is the only
    // way in: the retired v2 (range coder) and v1 stop at it too.
    for old in [2u8, 1] {
        bytes[4] = old;
        assert_eq!(
            EncodedKv::from_bytes(&bytes),
            Err(format!("unsupported version {old}"))
        );
    }
}

/// A small encoded cache plus the codec that produced it, shared by the
/// damage-injection properties below.
fn encode_small(seed: u64, len: usize, delta: bool) -> (KvCodec, EncodedKv) {
    let model = SimTransformer::new(SimModelConfig::tiny(7));
    let mut rng = cachegen_tensor::rng::seeded(seed);
    let ctx: Vec<usize> = (0..len).map(|_| rng.gen::<usize>() % 64).collect();
    let cache = model.prefill(&ctx);
    let cfg = CodecConfig {
        delta_encoding: delta,
        ..CodecConfig::default()
    };
    let profile = CodecProfile::build(&cfg, &[&cache]);
    let codec = KvCodec::new(cfg, profile);
    let enc = codec.encode(&cache);
    (codec, enc)
}

proptest! {
    // Each case prefills the tiny transformer, so keep the counts modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Decoding is bit-identical serially, in parallel, and after a wire
    /// round-trip of the container, under both ablation arms.
    #[test]
    fn v4_decode_is_bit_identical_serial_parallel_and_over_the_wire(
        seed in 0u64..500,
        len in 12usize..60,
    ) {
        // Exercise both ablation arms across cases.
        let delta = seed % 2 == 0;
        let model = SimTransformer::new(SimModelConfig::tiny(7));
        let mut rng = cachegen_tensor::rng::seeded(seed);
        let ctx: Vec<usize> = (0..len).map(|_| rng.gen::<usize>() % 64).collect();
        let cache = model.prefill(&ctx);
        let cfg = CodecConfig { delta_encoding: delta, ..CodecConfig::default() };
        let profile = CodecProfile::build(&cfg, &[&cache]);
        let codec = KvCodec::new(cfg, profile);
        let enc = codec.encode(&cache);
        let dec = codec.try_decode(&enc).unwrap();
        prop_assert_eq!(&dec, &codec.try_decode_parallel(&enc).unwrap());
        let bytes = enc.to_bytes();
        prop_assert_eq!(bytes[4], 4);
        let back = EncodedKv::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&codec.try_decode(&back).unwrap(), &dec);
    }

    /// Truncating any v4 chunk to any proper prefix is always detected,
    /// as a typed error naming that chunk: `try_decode` never returns
    /// noise (lane states cannot all return to the normalization base on
    /// short input).
    #[test]
    fn truncated_v4_chunk_is_always_detected(
        seed in 0u64..200,
        len in 20usize..50,
        pick in 0usize..1000,
        cut in 0usize..1000,
    ) {
        let (codec, mut enc) = encode_small(seed, len, seed % 2 == 0);
        let target = pick_chunk(&enc, pick);
        let chunk = chunk_mut(&mut enc, target);
        prop_assert!(chunk.len() >= STATE_BYTES); // the lane-state header
        let keep = cut % chunk.len();
        chunk.truncate(keep);
        let err = codec.try_decode(&enc).expect_err("truncation must be detected");
        prop_assert_eq!(error_address(&err), Some(target));
        prop_assert!(codec.try_decode_parallel(&enc).is_err());
    }

    /// Flipping any single bit of any v4 chunk is detected: the decoder
    /// either consumes a different byte count than the frame claims or
    /// fails the per-lane final-state check — it never silently yields a
    /// cache decoded from corrupt bytes.
    #[test]
    fn corrupt_v4_chunk_is_always_detected(
        seed in 0u64..200,
        len in 20usize..50,
        pick in 0usize..1000,
        at in 0usize..10_000,
        bit in 0u8..8,
    ) {
        let (codec, mut enc) = encode_small(seed, len, seed % 2 == 0);
        let target = pick_chunk(&enc, pick);
        let chunk = chunk_mut(&mut enc, target);
        let idx = at % chunk.len();
        chunk[idx] ^= 1u8 << bit;
        let err = codec.try_decode(&enc).expect_err("corruption must be detected");
        prop_assert_eq!(error_address(&err), Some(target));
        prop_assert!(codec.try_decode_parallel(&enc).is_err());
    }

    /// Bytes appended to any v4 chunk are detected: whole words or not,
    /// zero or not, the chunk decodes its symbols and then fails the
    /// exact-consumption check against its frame.
    #[test]
    fn trailing_garbage_in_v4_chunk_is_always_detected(
        seed in 0u64..200,
        len in 20usize..50,
        pick in 0usize..1000,
        extra in 1usize..9,
        fill in 0u16..256,
    ) {
        let (codec, mut enc) = encode_small(seed, len, seed % 2 == 0);
        let target = pick_chunk(&enc, pick);
        let chunk = chunk_mut(&mut enc, target);
        let framed = chunk.len() + extra;
        chunk.resize(framed, fill as u8);
        let err = codec.try_decode(&enc).expect_err("slack must be detected");
        prop_assert_eq!(
            err,
            CodecError::ChunkLengthMismatch {
                is_k: target.0,
                layer: target.1,
                group: target.2,
                consumed: framed - extra,
                framed,
            }
        );
        prop_assert!(codec.try_decode_parallel(&enc).is_err());
    }

    /// Chunks stay independent on the v4 wire: damaging one chunk is
    /// repaired (and reported) without perturbing any other chunk's
    /// decoded rows — the interleaved lanes never leak state across the
    /// per-(layer, token-group) chunk boundary.
    #[test]
    fn v4_damage_is_chunk_local(
        seed in 0u64..200,
        len in 20usize..50,
        pick in 0usize..1000,
        at in 0usize..10_000,
    ) {
        let (codec, enc) = encode_small(seed, len, true);
        let clean = codec.try_decode(&enc).unwrap();
        let layout = GroupLayout::new(enc.group_size, enc.tokens);
        let groups = layout.num_groups();
        let (is_k, layer, group) = pick_chunk(&enc, pick);
        let mut damaged = enc.clone();
        let chunk = chunk_mut(&mut damaged, (is_k, layer, group));
        let idx = at % chunk.len();
        chunk[idx] ^= 0x10;
        let arrivals = ChunkArrivalMap::full(enc.layers, groups);
        let repaired = codec
            .decode_with_repairs(&damaged, &arrivals, RepairPolicy::ZeroFill)
            .unwrap();
        // Exactly the damaged chunk is reported, as arrived-but-corrupt.
        prop_assert_eq!(repaired.repairs.len(), 1);
        let r = &repaired.repairs[0];
        prop_assert_eq!((r.is_k, r.layer, r.group), (is_k, layer, group));
        prop_assert!(matches!(r.cause, RepairCause::Corrupt(_)));
        // Every row outside the damaged (side, layer, group) region is
        // bit-identical to the clean decode.
        let (start, end) = layout.group_range(group);
        let channels = enc.channels;
        let tokens = enc.tokens;
        for (side_idx, (got, want)) in [
            (repaired.cache.k().data(), clean.k().data()),
            (repaired.cache.v().data(), clean.v().data()),
        ]
        .into_iter()
        .enumerate()
        {
            for (i, (g, w)) in got.iter().zip(want).enumerate() {
                let l = i / (tokens * channels);
                let t = (i / channels) % tokens;
                let in_damaged =
                    (side_idx == 0) == is_k && l == layer && t >= start && t < end;
                if !in_damaged {
                    prop_assert!(
                        g.to_bits() == w.to_bits(),
                        "leak at side {} layer {} token {} (damaged: {:?})",
                        side_idx, l, t, (is_k, layer, group)
                    );
                }
            }
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A synthetic chunk whose shape exercises what a model's cache does not:
/// seven channels (a three-channel lane tail after one four-wide block),
/// a short last token group, a profile taken from a *different* sample (so
/// symbols the tables never saw are coded), and outliers far past the
/// alphabet clamp on both sides.
fn synthetic_cache(seed: u64) -> KvCache {
    let (layers, tokens, channels) = (3usize, 43usize, 7usize);
    let mut rng = cachegen_tensor::rng::seeded(seed);
    let mut side = || {
        let mut t = Tensor::zeros(&[layers, tokens, channels]);
        for (i, v) in t.data_mut().iter_mut().enumerate() {
            let (c, tok) = (i % channels, (i / channels) % tokens);
            let slow = ((tok / 10) as f32 * 0.7 + c as f32).sin() * (1.0 + c as f32);
            let noise = rng.gen::<f32>() - 0.5;
            *v = slow + noise * 0.3 * (1.0 + (c % 3) as f32);
            if rng.gen::<u32>() % 97 == 0 {
                *v = if rng.gen::<bool>() { 1.0e6 } else { -1.0e6 };
            }
        }
        t
    };
    let k = side();
    KvCache::from_tensors(k, side())
}

/// `EncodedKv::to_bytes()` digests of two fixed chunks at the engine's five
/// levels and in the `delta_encoding: false` arm, **recorded at the commit
/// before the encode kernel was rewritten** (two-pass walk + hardware
/// divide → quantise buffer + reverse multiply-high pass). A rewrite of
/// the encoder that decodes correctly but moves one byte fails here, not
/// only through the serving digests.
#[test]
fn container_bytes_are_pinned_at_every_level_and_without_delta() {
    const WANT: [[u64; 6]; 2] = [
        [
            0x2aef_2bcf_dee0_2efd,
            0x621a_e189_5eec_4f9c,
            0x9827_17c2_9271_b84a,
            0x9138_9556_303b_8e25,
            0x9875_059c_94d7_87f1,
            0xfbce_a8bd_eb8a_0018,
        ],
        [
            0xddad_2572_7569_0a0b,
            0xe199_4714_4a77_8ada,
            0x8c91_8107_7b4d_70e0,
            0xfe89_24f7_bad5_939a,
            0x0190_6de7_c0bb_6c67,
            0x2199_8037_6fde_f34a,
        ],
    ];
    let model = SimTransformer::new(SimModelConfig::tiny(7));
    let prefill = |seed: u64| {
        let mut rng = cachegen_tensor::rng::seeded(seed);
        model.prefill(&(0..43).map(|_| rng.gen::<usize>() % 64).collect::<Vec<_>>())
    };
    let fixtures = [
        (prefill(1), prefill(2)),
        (synthetic_cache(1), synthetic_cache(2)),
    ];
    let mut got = [[0u64; 6]; 2];
    for ((sample, chunk), row) in fixtures.iter().zip(&mut got) {
        let base = CodecConfig::default();
        let mut arms: Vec<CodecConfig> = [0.3f32, 0.6, 1.0, 1.8, 3.0]
            .iter()
            .map(|&f| base.with_bin_factor(f))
            .collect();
        arms.push(CodecConfig {
            delta_encoding: false,
            ..base
        });
        for (cfg, slot) in arms.into_iter().zip(row) {
            let profile = CodecProfile::build(&cfg, &[sample]);
            let codec = KvCodec::new(cfg, profile);
            let enc = codec.encode(chunk);
            assert_eq!(codec.try_decode(&enc).unwrap().tokens(), chunk.tokens());
            *slot = fnv1a(&enc.to_bytes());
        }
    }
    assert_eq!(got, WANT, "container digests moved: {got:#x?}");
}

/// A container's fixed-width header: magic, version 4, the delta flag,
/// then layers, tokens, channels and group size.
fn header(layers: u16, tokens: u32, channels: u16, group_size: u16) -> Vec<u8> {
    let mut bytes = b"CGKV".to_vec();
    bytes.extend([4, 1]);
    bytes.extend(layers.to_le_bytes());
    bytes.extend(tokens.to_le_bytes());
    bytes.extend(channels.to_le_bytes());
    bytes.extend(group_size.to_le_bytes());
    bytes
}

/// Two hostile containers that used to take the parser down: a chunk
/// length whose end overflows the offset arithmetic (a panic), and a
/// header whose chunk table (2³² − 1 groups) was allocated before a byte
/// of it was read (an abort). Both are typed errors.
#[test]
fn hostile_container_sizes_are_typed_errors() {
    // One layer, one token, one channel, group size 1: 8 scale bytes,
    // then a first chunk length of `usize::MAX`, 34 bytes in all.
    let mut overflow = header(1, 1, 1, 1);
    overflow.extend([0; 8]);
    overflow.extend([0xFF; 9]);
    overflow.push(0x01);
    assert_eq!(overflow.len(), 34);
    // `u32::MAX` tokens at group size 1 and their 8 scale bytes: 24 bytes.
    let mut table = header(1, u32::MAX, 1, 1);
    table.extend([0; 8]);
    assert_eq!(table.len(), 24);
    for bytes in [overflow, table] {
        let got = EncodedKv::from_bytes(&bytes);
        assert!(got.is_err(), "{} bytes parsed: {got:?}", bytes.len());
    }
}

/// Two containers that parse but whose headers ask a decode for ~976 MB
/// and ~550 GB: the tiny model's 2 layers × 16 channels at group size
/// 65,535 (not the codec's), with zeroed scales and every chunk empty. A
/// decode refuses the group size before it sizes anything.
#[test]
fn a_foreign_group_size_is_refused_before_anything_is_sized() {
    let (codec, _) = encode_small(1, 20, true);
    for (tokens, len) in [(4_000_000, 520), (u32::MAX, 262_420)] {
        let groups = (tokens as usize).div_ceil(65_535);
        let mut bytes = header(2, tokens, 16, 65_535);
        bytes.extend(vec![0; 4 * 2 * 16 * 2 + 2 * 2 * groups]);
        assert_eq!(bytes.len(), len);
        let enc = EncodedKv::from_bytes(&bytes).expect("a well-formed container");
        let arrivals = ChunkArrivalMap::full(2, groups);
        let mut out = KvCache::zeros(2, 1, 16);
        let refusals = [
            codec.try_decode(&enc).err(),
            codec.try_decode_parallel(&enc).err(),
            codec
                .decode_with_repairs(&enc, &arrivals, RepairPolicy::ZeroFill)
                .err(),
            codec
                .decode_into(&enc, &mut out, 0, &cachegen_telemetry::NOOP)
                .err(),
        ];
        for got in refusals {
            let geometry = matches!(got, Some(CodecError::Geometry(_)));
            assert!(geometry, "{tokens} tokens: {got:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random header fields, each over its whole range or small enough
    /// that the chunk table is walked, followed by random bytes too few
    /// for the scale tables plus one length byte per chunk: never a
    /// panic, never an abort, always a typed error.
    #[test]
    fn short_containers_are_typed_errors(
        small in 0u8..16,
        layers in 1u32..65_536,
        tokens in 1u64..(1 << 32),
        channels in 0u32..65_536,
        group_size in 0u32..65_536,
        body in proptest::collection::vec(0u16..256, 0..96),
    ) {
        let shrink = |bit: u8, x: u64, to: u64| if small >> bit & 1 == 1 { x % to } else { x };
        let layers = shrink(0, u64::from(layers), 4).max(1) as u16;
        let tokens = shrink(1, tokens, 40).max(1) as u32;
        let channels = shrink(2, u64::from(channels), 5) as u16;
        let group_size = shrink(3, u64::from(group_size), 12) as u16;
        let groups = (tokens as usize).div_ceil(usize::from(group_size.max(1)));
        let least = 8 * usize::from(layers) * usize::from(channels)
            + 2 * usize::from(layers) * groups;
        let mut bytes = header(layers, tokens, channels, group_size);
        bytes.extend(body.iter().take(least - 1).map(|&b| b as u8));
        prop_assert!(EncodedKv::from_bytes(&bytes).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Containers that parse, with layers and channels at or next to the
    /// tiny model's profile (2 × 16), 1 to 4 groups of tokens at the
    /// codec's group size and random scales; all, some or none of the
    /// chunks are 0–79 random bytes, the rest real chunks of the same
    /// side and layer from any group, and some are marked lost. Every
    /// decode entry point returns a typed error or a cache within the
    /// documented bound of `4 × channels × group_size` bytes per input
    /// byte. None panics.
    #[test]
    fn near_profile_headers_decode_to_errors_or_bounded_caches(
        exact in 0u8..2,
        layers in 1usize..4,
        channels in 15usize..18,
        tokens in 1usize..(4 * DEFAULT_GROUP_SIZE + 1),
        delta in 0u8..2,
        random_chunks in 0u8..3,
        seed in 0u64..u64::MAX,
    ) {
        let (codec, real) = encode_small(1, 20, true);
        let group_size = codec.config().group_size;
        let (layers, channels) = if exact == 1 { (2, 16) } else { (layers, channels) };
        let groups = tokens.div_ceil(group_size);
        let mut rng = cachegen_tensor::rng::seeded(seed);
        let scales = std::array::from_fn(|_| {
            let row = |_| (0..channels).map(|_| wire_to_scale(rng.gen())).collect();
            (0..layers).map(row).collect()
        });
        let mut chunks = |side: &[Vec<Vec<u8>>]| -> Vec<Vec<Vec<u8>>> {
            let mut chunk = |layer: usize| -> Vec<u8> {
                if random_chunks == 2 || (random_chunks == 1 && rng.gen()) {
                    return (0..rng.gen_range(0..80)).map(|_| rng.gen()).collect();
                }
                let real_groups = &side[layer % side.len()];
                real_groups[rng.gen_range(0..real_groups.len())].clone()
            };
            (0..layers).map(|l| (0..groups).map(|_| chunk(l)).collect()).collect()
        };
        let (k_chunks, v_chunks) = (chunks(&real.k_chunks), chunks(&real.v_chunks));
        let delta_encoding = delta == 1;
        let bytes = EncodedKv {
            layers, tokens, channels, group_size, delta_encoding, k_chunks, v_chunks, scales,
        }
        .to_bytes();
        let enc = EncodedKv::from_bytes(&bytes).expect("the container parses");
        let mut arrivals = ChunkArrivalMap::full(layers, groups);
        for _ in 0..rng.gen_range(0..4) {
            arrivals.mark_lost(rng.gen(), rng.gen_range(0..layers), rng.gen_range(0..groups));
        }
        let bound = 4 * channels * group_size * bytes.len();
        let bounded = |c: &KvCache| 8 * c.layers() * c.tokens() * c.channels() <= bound;
        let whole = [codec.try_decode(&enc), codec.try_decode_parallel(&enc)];
        for cache in whole.into_iter().flatten() {
            prop_assert!(bounded(&cache));
        }
        for policy in [RepairPolicy::ZeroFill, RepairPolicy::AnchorInterpolate, RepairPolicy::Refetch] {
            if let Ok(repaired) = codec.decode_with_repairs(&enc, &arrivals, policy) {
                prop_assert!(bounded(&repaired.cache), "{policy:?}");
            }
        }
        let mut out = KvCache::zeros(layers, tokens + 1, channels);
        let _ = codec.decode_into(&enc, &mut out, 1, &cachegen_telemetry::NOOP);
    }
}
