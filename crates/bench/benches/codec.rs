//! Whole-context KV encode/decode cost, the read path above it and, for
//! information, the entropy coder's raw single-table symbol rate and the
//! prefill the cache avoids. Every row is [`SAMPLES`] timed calls through
//! `harness::sample`, written as median and MAD to `BENCH_codec.json` at
//! the workspace root.
//!
//! The gated rows are `kv_*`: one 480-token context of the 7B-shaped sim
//! model, split into the engine's 30-token stream chunks, encoded (and
//! decoded) **chunk-outer / level-inner at all five encoding levels** —
//! the order `store_kv` runs in. That keeps every level's per-(layer,
//! channel) model set live at once, which is the traffic the entropy
//! stage actually sees: 7,680 tables walked round-robin, ~10 symbols per
//! table per chunk. The rows are in Melem/s of KV elements and ratcheted
//! against absolute floors by the `ratchet` bin. Beside the encode row,
//! `kv_encode_scales_us` and `kv_encode_quantize_us` time the write
//! path's first two stages alone — the per-cache scales pass and the
//! quantise stage, through the functions `KvCodec::encode` calls — over
//! the same 80 (chunk, level) calls, per call; `info` carries the whole
//! call (`kv_encode_us`) and the remainder (`kv_encode_entropy_us`: table
//! resolution, the reverse rANS pass and container assembly), so the
//! three shares add up. Beside the decode rows, `kv_decode_entropy_us`
//! and `kv_decode_reconstruct_us` split the read path the same way, per
//! decode call of the same 80: the rANS stage writing every row's
//! alphabet indices, and the pass turning them into values (checked
//! against `try_decode` bit for bit).
//!
//! The `micro_rans_*` rows run the 4-lane interleaved rANS coder
//! (`cachegen_codec::rans`) on one 100k-symbol stream under **one hot
//! table**. No production path looks like that — a single-table loop
//! never leaves L1 — so these rows are information only: they show the
//! coder's arithmetic cost, and the last PR that tuned against them made
//! the real traffic slower.
//!
//! The `load_*` rows time the layer above: one whole-context load on a
//! clean link through the read path (`load_stored`: stored bytes →
//! stream → parse → decode → concat) against the ingest + load
//! convenience (`load_context`, which encodes all five levels first).
//! `load_stored_per_s` is ratcheted, so a re-encode cannot creep back
//! onto the read path.
//!
//! The `prefill_*` rows time `SimTransformer::prefill` on the same model at
//! 50–480 tokens; `prefill_ktoken_per_s` (the 480-token row as a rate) is
//! ratcheted, so a strictly ordered scalar `dot` cannot creep back into the
//! numeric core.

use cachegen::{load_context, load_stored, CacheGenEngine, LoadParams};
use cachegen_bench::harness::{context_fixture, sample, Snapshot, Summary, CONTEXT_TOKENS};
use cachegen_codec::delta::GroupLayout;
use cachegen_codec::encoder::{SymKind, ANCHOR_BIN};
use cachegen_codec::profile::single_cache_scales;
use cachegen_codec::quantize::{channel_steps, dequantize_row, quantize_layer};
use cachegen_codec::symbol_model::FreqTable;
use cachegen_codec::{rans, EncodedKv};
use cachegen_llm::{KvCache, SimModelConfig, SimTransformer};
use cachegen_net::trace::{BandwidthTrace, GBPS};
use cachegen_net::Link;
use cachegen_telemetry::{Recorder, NOOP};
use std::hint::black_box;

/// Timed calls per row.
const SAMPLES: usize = 31;

/// Every chunk at every level, chunk-outer / level-inner.
fn encode_context(engine: &CacheGenEngine, chunks: &[KvCache]) -> Vec<Vec<EncodedKv>> {
    chunks
        .iter()
        .map(|chunk| {
            (0..engine.num_levels())
                .map(|l| engine.encode_at_level(chunk, l))
                .collect()
        })
        .collect()
}

/// One side's (anchor, delta) scales, `[layer][channel]` each.
type SideScales = (Vec<Vec<f32>>, Vec<Vec<f32>>);

/// Both sides' scales of one chunk under one level's config: the first
/// stage of `KvCodec::encode`.
fn chunk_scales(engine: &CacheGenEngine, chunk: &KvCache, level: usize) -> [SideScales; 2] {
    [true, false].map(|is_k| single_cache_scales(chunk, is_k, engine.codec(level).config()))
}

/// The scales and quantise stages of the write path, in µs per
/// `KvCodec::encode` call, over the (chunk, level) calls of
/// [`encode_context`] in the same order.
fn bench_encode_stages(
    snap: &mut Snapshot,
    engine: &CacheGenEngine,
    chunks: &[KvCache],
) -> [Summary; 2] {
    let levels = engine.num_levels();
    let per_call = 1e6 / (chunks.len() * levels) as f64;
    let scales = sample(SAMPLES, || {
        for chunk in chunks {
            for l in 0..levels {
                black_box(chunk_scales(engine, chunk, l));
            }
        }
    })
    .scaled(per_call);
    // Per (chunk, level, side, layer): the slab and its two step rows,
    // resolved outside the timed call as `encode` resolves them per layer.
    let mut layers = Vec::new();
    for chunk in chunks {
        for l in 0..levels {
            let cfg = engine.codec(l).config();
            let sides = [chunk.k(), chunk.v()];
            for (tensor, (anchor, delta)) in sides.into_iter().zip(chunk_scales(engine, chunk, l)) {
                for layer in 0..chunk.layers() {
                    let delta_bin = cfg.bins.bin_for_layer(layer, chunk.layers());
                    layers.push((
                        tensor.slab(layer),
                        GroupLayout::new(cfg.group_size, chunk.tokens()),
                        cfg.delta_encoding,
                        channel_steps(ANCHOR_BIN, &anchor[layer]),
                        channel_steps(delta_bin, &delta[layer]),
                    ));
                }
            }
        }
    }
    let channels = chunks[0].channels();
    let quantize = sample(SAMPLES, || {
        for (slab, layout, delta_encoding, anchor_steps, delta_steps) in &layers {
            quantize_layer(
                slab,
                channels,
                *layout,
                *delta_encoding,
                anchor_steps,
                delta_steps,
                |indices| {
                    black_box(indices);
                },
            );
        }
    })
    .scaled(per_call);
    snap.row("kv_encode_scales_us", "us", scales);
    snap.row("kv_encode_quantize_us", "us", quantize);
    [scales, quantize]
}

/// What one (side, layer) of a decode call hands the decode stages: its
/// entropy chunks with their row counts, the tables and steps of both
/// row kinds, and buffers for its alphabet indices and values.
struct LayerStages<'a> {
    delta_encoding: bool,
    streams: Vec<(&'a [u8], usize)>,
    tables: [Vec<&'a FreqTable>; 2],
    steps: [Vec<f32>; 2],
    indices: Vec<u8>,
    values: Vec<f32>,
}

impl LayerStages<'_> {
    /// Stage one: every row's alphabet indices out of the rANS streams.
    fn entropy(&mut self) {
        let channels = self.steps[0].len();
        let mut rows = self.indices.chunks_exact_mut(channels);
        for &(stream, group_rows) in &self.streams {
            let mut dec = rans::Decoder::new(stream);
            for (r, row) in rows.by_ref().take(group_rows).enumerate() {
                let anchor = self.delta_encoding && r == 0;
                let kind = if anchor {
                    SymKind::Anchor
                } else {
                    SymKind::Delta
                };
                dec.decode_row(kind, &self.tables[usize::from(!anchor)], row);
            }
        }
    }

    /// Stage two: every row's values out of its indices.
    fn reconstruct(&mut self) {
        let channels = self.steps[0].len();
        let mut at = 0;
        for &(_, group_rows) in &self.streams {
            let group = at..at + group_rows * channels;
            let indices = &self.indices[group.clone()];
            let values = &mut self.values[group];
            let (anchor, members) =
                values.split_at_mut(if self.delta_encoding { channels } else { 0 });
            dequantize_row(&indices[..anchor.len()], &self.steps[0], None, anchor);
            for (row, out) in indices[anchor.len()..]
                .chunks_exact(channels)
                .zip(members.chunks_exact_mut(channels))
            {
                let base = self.delta_encoding.then_some(&*anchor);
                dequantize_row(row, &self.steps[1], base, out);
            }
            at += group_rows * channels;
        }
    }
}

/// The decode path's two stages alone, in µs per `KvCodec` decode call,
/// over the (chunk, level) calls of [`encode_context`], through the
/// functions the decoder calls per row: the rANS stage writing alphabet
/// indices (`rans::Decoder::decode_row`) and the reconstruct stage turning
/// them into values (`quantize::dequantize_row`). Tables and steps are
/// resolved outside the timed calls, as the codec resolves them once per
/// call. The two stages together must reproduce `try_decode` bit for
/// bit.
fn bench_decode_stages(snap: &mut Snapshot, engine: &CacheGenEngine, encoded: &[Vec<EncodedKv>]) {
    let mut layers = Vec::new();
    let mut calls = 0;
    for versions in encoded {
        for (level, enc) in versions.iter().enumerate() {
            calls += 1;
            let codec = engine.codec(level);
            let cfg = codec.config();
            let layout = enc.layout();
            let rows: Vec<usize> = (0..layout.num_groups())
                .map(|g| layout.group_range(g))
                .map(|(start, end)| end - start)
                .collect();
            for (side, (is_k, chunks)) in [(true, &enc.k_chunks), (false, &enc.v_chunks)]
                .into_iter()
                .enumerate()
            {
                for (layer, streams) in chunks.iter().enumerate() {
                    let bin = cfg.bins.bin_for_layer(layer, enc.layers);
                    let tables = [SymKind::Anchor, SymKind::Delta]
                        .map(|kind| codec.profile().layer_tables(kind, is_k, layer));
                    layers.push(LayerStages {
                        delta_encoding: enc.delta_encoding,
                        streams: streams
                            .iter()
                            .map(Vec::as_slice)
                            .zip(rows.iter().copied())
                            .collect(),
                        tables,
                        steps: [
                            channel_steps(ANCHOR_BIN, &enc.scales[2 * side][layer]),
                            channel_steps(bin, &enc.scales[2 * side + 1][layer]),
                        ],
                        indices: vec![0; enc.tokens * enc.channels],
                        values: vec![0.0; enc.tokens * enc.channels],
                    });
                }
            }
        }
    }
    let per_call = 1e6 / calls as f64;
    let entropy = sample(SAMPLES, || layers.iter_mut().for_each(LayerStages::entropy));
    let reconstruct = sample(SAMPLES, || {
        layers.iter_mut().for_each(LayerStages::reconstruct)
    });
    let mut staged = layers.iter();
    for (level, enc) in encoded.iter().flat_map(|v| v.iter().enumerate()) {
        let cache = engine
            .codec(level)
            .try_decode(enc)
            .expect("self-encoded stream decodes");
        for tensor in [cache.k(), cache.v()] {
            for layer in 0..enc.layers {
                let values = &staged.next().expect("one staged layer per layer").values;
                assert!(
                    values
                        .iter()
                        .zip(tensor.slab(layer))
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "the staged decode must reproduce try_decode bit for bit"
                );
            }
        }
    }
    snap.row("kv_decode_entropy_us", "us", entropy.scaled(per_call));
    snap.row(
        "kv_decode_reconstruct_us",
        "us",
        reconstruct.scaled(per_call),
    );
}

fn bench_kv_context(snap: &mut Snapshot, engine: &CacheGenEngine, chunks: &[KvCache]) {
    let encoded = encode_context(engine, chunks);
    let decode_all = |parallel: bool| {
        for versions in &encoded {
            for (l, enc) in versions.iter().enumerate() {
                let codec = engine.codec(l);
                let out = if parallel {
                    codec.try_decode_parallel(enc)
                } else {
                    codec.try_decode(enc)
                };
                black_box(out.expect("self-encoded stream decodes"));
            }
        }
    };
    let elements: usize = chunks.iter().map(KvCache::num_elements).sum();
    let melem = (elements * engine.num_levels()) as f64 / 1e6;
    let encode = sample(SAMPLES, || encode_context(engine, chunks));
    snap.row("kv_encode_melem_per_s", "Melem/s", encode.rate(melem));
    let [scales, quantize] = bench_encode_stages(snap, engine, chunks);
    let encode_us = encode.median * 1e6 / (chunks.len() * engine.num_levels()) as f64;
    snap.info("kv_encode_us", encode_us);
    snap.info(
        "kv_encode_entropy_us",
        encode_us - scales.median - quantize.median,
    );
    for (key, parallel) in [
        ("kv_decode_melem_per_s", false),
        ("kv_decode_parallel_melem_per_s", true),
    ] {
        let secs = sample(SAMPLES, || decode_all(parallel));
        snap.row(key, "Melem/s", secs.rate(melem));
    }
    bench_decode_stages(snap, engine, &encoded);
}

/// Ingest once, then one `load_stored` and one `load_context` of the
/// same context over a clean 1 Gbps link.
fn bench_loads(snap: &mut Snapshot, engine: &CacheGenEngine, tokens: &[usize], chunks: &[KvCache]) {
    let reference = KvCache::concat_tokens(chunks);
    let plan = engine.store_prefilled(1, tokens, &reference);
    let params = LoadParams::default();
    let link = || Link::new(BandwidthTrace::constant(GBPS), 0.0);
    let stored = sample(SAMPLES, || {
        load_stored(engine, 1, &plan, &mut link(), &params, &NOOP).expect("stored context loads")
    });
    let ingest = sample(SAMPLES, || {
        load_context(engine, &reference, &mut link(), &params)
    });
    snap.row("load_stored_ms", "ms", stored.scaled(1e3));
    snap.row("load_context_ms", "ms", ingest.scaled(1e3));
    snap.row("load_stored_per_s", "1/s", stored.rate(1.0));
}

fn bench_entropy_coders(snap: &mut Snapshot) {
    let table = FreqTable::from_counts(&vec![10u32; 256]);
    let symbols: Vec<usize> = (0..100_000).map(|i| (i * 31) % 256).collect();
    // The round-robin lane schedule the codec uses (lane = position %
    // LANES).
    let encode = || {
        let mut enc = rans::Encoder::new();
        for (i, &s) in symbols.iter().enumerate() {
            enc.encode(i % rans::LANES, &table, s);
        }
        enc.finish()
    };
    let bytes = encode();
    let decode = || {
        let mut dec = rans::Decoder::new(&bytes);
        let mut acc = 0usize;
        for i in 0..symbols.len() {
            acc ^= dec.decode(i % rans::LANES, &table);
        }
        acc
    };
    let melem = symbols.len() as f64 / 1e6;
    snap.row(
        "micro_rans_encode_melem_per_s",
        "Melem/s",
        sample(SAMPLES, encode).rate(melem),
    );
    snap.row(
        "micro_rans_decode_melem_per_s",
        "Melem/s",
        sample(SAMPLES, decode).rate(melem),
    );
}

fn bench_prefill(snap: &mut Snapshot) {
    // The compute CacheGen avoids: prefill grows superlinearly (Figure 14b).
    // `CONTEXT_TOKENS` is the length of every context the layered benchmark
    // prefills in set-up; its rate is the row the ratchet gates.
    let model = SimTransformer::new(SimModelConfig::llama7b_sim(42));
    for len in [50usize, 100, 200, CONTEXT_TOKENS] {
        let ctx: Vec<usize> = (0..len).map(|i| (i * 7) % 512).collect();
        let secs = sample(SAMPLES, || model.prefill(&ctx));
        snap.row(&format!("prefill_ms_{len}_tokens"), "ms", secs.scaled(1e3));
        if len == CONTEXT_TOKENS {
            snap.row(
                "prefill_ktoken_per_s",
                "ktoken/s",
                secs.rate(len as f64 / 1e3),
            );
        }
    }
}

/// One traced in-place decode, for the pool-shape facts the timing rows
/// can't show (worker count, jobs per worker).
fn pool_shape(engine: &CacheGenEngine, chunk: &KvCache) -> (f64, f64) {
    let level = engine.default_level();
    let enc = engine.encode_at_level(chunk, level);
    let recorder = Recorder::new();
    let mut out = KvCache::zeros(enc.layers, enc.tokens, enc.channels);
    engine
        .codec(level)
        .decode_into(&enc, &mut out, 0, &recorder)
        .expect("self-encoded stream decodes");
    let snap = recorder.registry_snapshot();
    let workers = snap
        .gauge_value("cachegen.codec.pool.workers")
        .unwrap_or(0.0);
    let chunks = snap.counter("cachegen.codec.decode_chunks").unwrap_or(0) as f64;
    (workers, chunks)
}

fn main() {
    let (engine, tokens, chunks) = context_fixture();
    let mut snap = Snapshot::new("codec", SAMPLES);
    bench_kv_context(&mut snap, &engine, &chunks);
    bench_loads(&mut snap, &engine, &tokens, &chunks);
    bench_entropy_coders(&mut snap);
    bench_prefill(&mut snap);

    let (pool_workers, decode_chunks) = pool_shape(&engine, &chunks[0]);
    snap.info("kv_context_tokens", CONTEXT_TOKENS as f64);
    snap.info("kv_levels", engine.num_levels() as f64);
    snap.info("pool_workers", pool_workers);
    snap.info("decode_chunks", decode_chunks);
    snap.info("rans_lanes", rans::LANES as f64);
    snap.write("BENCH_codec.json");
}
