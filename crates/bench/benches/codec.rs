//! Criterion benches: whole-context KV encode/decode cost and, for
//! information, the entropy coder's raw single-table symbol rate.
//!
//! The gated rows are the `kv_context` group: one 480-token context of
//! the 7B-shaped sim model, split into the engine's 30-token stream
//! chunks, encoded (and decoded) **chunk-outer / level-inner at all five
//! encoding levels** — the order `store_kv` runs in. That keeps every
//! level's per-(layer, channel) model set live at once, which is the
//! traffic the entropy stage actually sees: 7,680 tables walked
//! round-robin, ~10 symbols per table per chunk. The rows are reported
//! per KV element (ns/element and Melem/s) and ratcheted against
//! absolute floors by the `ratchet` bin.
//!
//! The `entropy_coding` group runs the 4-lane interleaved rANS coder
//! (`cachegen_codec::rans`) on one 100k-symbol stream under **one hot
//! table**. No production path looks like that — a single-table loop
//! never leaves L1 — so these rows are information only: they show the
//! coder's arithmetic cost, and the last PR that tuned against them made
//! the real traffic slower.
//!
//! The `load_*` rows time the layer above: one whole-context load on a
//! clean link through the read path (`load_stored`: stored bytes →
//! stream → parse → decode → concat) against the ingest + load
//! convenience (`load_context`, which encodes all five levels first),
//! each the median of [`LOAD_SAMPLES`] calls. `load_stored_per_s` is
//! ratcheted, so a re-encode cannot creep back onto the read path.
//!
//! Beyond printing, the harness writes the numbers to `BENCH_codec.json`
//! at the workspace root, with the parallel decoder's pool shape from
//! one traced run, so CI can archive the perf trajectory.

use cachegen::{load_context, load_stored, CacheGenEngine, LoadParams};
use cachegen_bench::harness::{context_fixture, median_secs, CONTEXT_TOKENS};
use cachegen_codec::symbol_model::FreqTable;
use cachegen_codec::{rans, EncodedKv};
use cachegen_llm::{KvCache, SimModelConfig, SimTransformer};
use cachegen_net::trace::{BandwidthTrace, GBPS};
use cachegen_net::Link;
use cachegen_telemetry::{workspace_root, JsonValue, Recorder, NOOP};
use criterion::{black_box, BenchmarkId, Criterion, Throughput};

/// Timed calls per `load_*` row; the row reports their median.
const LOAD_SAMPLES: usize = 31;

fn bench_entropy_coders(c: &mut Criterion) {
    let table = FreqTable::from_counts(&vec![10u32; 256]);
    let symbols: Vec<usize> = (0..100_000).map(|i| (i * 31) % 256).collect();
    let mut g = c.benchmark_group("entropy_coding");
    g.throughput(Throughput::Elements(symbols.len() as u64));
    // The round-robin lane schedule the codec uses (lane = position %
    // LANES).
    let mut rans_enc = rans::Encoder::new();
    for (i, &s) in symbols.iter().enumerate() {
        rans_enc.encode(i % rans::LANES, &table, s);
    }
    let rans_bytes = rans_enc.finish();
    g.bench_function("rans_encode_100k_symbols", |b| {
        b.iter(|| {
            let mut enc = rans::Encoder::new();
            for (i, &s) in symbols.iter().enumerate() {
                enc.encode(i % rans::LANES, &table, s);
            }
            enc.finish()
        })
    });
    g.bench_function("rans_decode_100k_symbols", |b| {
        b.iter(|| {
            let mut dec = rans::Decoder::new(&rans_bytes);
            let mut acc = 0usize;
            for i in 0..symbols.len() {
                acc ^= dec.decode(i % rans::LANES, &table);
            }
            acc
        })
    });
    g.finish();
}

/// Every chunk at every level, chunk-outer / level-inner.
fn encode_context(
    engine: &CacheGenEngine,
    chunks: &[KvCache],
    encode: impl Fn(&KvCache, usize) -> EncodedKv,
) -> Vec<Vec<EncodedKv>> {
    chunks
        .iter()
        .map(|chunk| (0..engine.num_levels()).map(|l| encode(chunk, l)).collect())
        .collect()
}

fn bench_kv_context(c: &mut Criterion, engine: &CacheGenEngine, chunks: &[KvCache]) {
    let encode = |chunk: &KvCache, l: usize| engine.encode_at_level(chunk, l);
    let encoded = encode_context(engine, chunks, encode);
    let decode_all = |encoded: &[Vec<EncodedKv>], parallel: bool| {
        for versions in encoded {
            for (l, enc) in versions.iter().enumerate() {
                let codec = engine.codec(l);
                let out = if parallel {
                    codec.try_decode_parallel(enc)
                } else {
                    codec.try_decode(enc)
                };
                criterion::black_box(out.expect("self-encoded stream decodes"));
            }
        }
    };
    let elements: usize = chunks.iter().map(KvCache::num_elements).sum();

    let mut g = c.benchmark_group("kv_context");
    g.throughput(Throughput::Elements(
        (elements * engine.num_levels()) as u64,
    ));
    g.bench_function("encode", |b| {
        b.iter(|| encode_context(engine, chunks, encode))
    });
    g.bench_function("decode_serial", |b| b.iter(|| decode_all(&encoded, false)));
    g.bench_function("decode_parallel", |b| b.iter(|| decode_all(&encoded, true)));
    g.finish();
}

fn bench_prefill(c: &mut Criterion) {
    // The compute CacheGen avoids: prefill grows superlinearly (Figure 14b).
    let model = SimTransformer::new(SimModelConfig::llama7b_sim(42));
    let mut g = c.benchmark_group("prefill");
    g.sample_size(10);
    for &len in &[50usize, 100, 200] {
        let ctx: Vec<usize> = (0..len).map(|i| (i * 7) % 512).collect();
        g.bench_with_input(BenchmarkId::from_parameter(len), &ctx, |b, ctx| {
            b.iter(|| model.prefill(ctx))
        });
    }
    g.finish();
}

/// One traced parallel decode, for the pool-shape metrics the timing
/// rows can't show (worker count, jobs per worker).
fn pool_shape(engine: &CacheGenEngine, chunk: &KvCache) -> (f64, f64) {
    let level = engine.default_level();
    let enc = engine.encode_at_level(chunk, level);
    let recorder = Recorder::new();
    engine
        .codec(level)
        .try_decode_parallel_traced(&enc, &recorder)
        .expect("self-encoded stream decodes");
    let snap = recorder.registry_snapshot();
    let workers = snap
        .gauge_value("cachegen.codec.pool.workers")
        .unwrap_or(0.0);
    let chunks = snap.counter("cachegen.codec.decode_chunks").unwrap_or(0) as f64;
    (workers, chunks)
}

/// Ingest once, then the median milliseconds of one `load_stored` and of
/// one `load_context` of the same context over a clean 1 Gbps link.
fn bench_loads(engine: &CacheGenEngine, tokens: &[usize], chunks: &[KvCache]) -> (f64, f64) {
    let reference = KvCache::concat_tokens(chunks);
    let plan = engine.store_prefilled(1, tokens, &reference);
    let params = LoadParams::default();
    let link = || Link::new(BandwidthTrace::constant(GBPS), 0.0);
    let stored = median_secs(LOAD_SAMPLES, || {
        let out = load_stored(engine, 1, &plan, &mut link(), &params, &NOOP);
        black_box(out.expect("stored context loads"));
    });
    let ingest = median_secs(LOAD_SAMPLES, || {
        black_box(load_context(engine, &reference, &mut link(), &params));
    });
    for (name, secs) in [("load_stored", stored), ("load_context", ingest)] {
        println!("bench loads/{name:<34} {:>12.3} ms/iter", secs * 1e3);
    }
    (stored * 1e3, ingest * 1e3)
}

fn main() {
    let mut criterion = Criterion::default().configure_from_args();
    let (engine, tokens, chunks) = context_fixture();
    bench_kv_context(&mut criterion, &engine, &chunks);
    let (load_stored_ms, load_context_ms) = bench_loads(&engine, &tokens, &chunks);
    bench_entropy_coders(&mut criterion);
    bench_prefill(&mut criterion);

    let rate = |label: &str| {
        criterion
            .measurement(label)
            .and_then(criterion::Measurement::elements_per_sec)
    };
    let melem = |label: &str| rate(label).map_or(JsonValue::Null, |r| JsonValue::Number(r / 1e6));
    let ns_per_elem =
        |label: &str| rate(label).map_or(JsonValue::Null, |r| JsonValue::Number(1e9 / r));
    let (pool_workers, decode_chunks) = pool_shape(&engine, &chunks[0]);
    let row = |key: &str, value: JsonValue| (key.to_string(), value);
    let doc = JsonValue::Object(vec![
        row("bench", JsonValue::String("codec".to_string())),
        // Gated: whole-context KV cost, all five levels' tables live.
        row("kv_encode_ns_per_elem", ns_per_elem("kv_context/encode")),
        row(
            "kv_decode_ns_per_elem",
            ns_per_elem("kv_context/decode_serial"),
        ),
        row("kv_encode_melem_per_s", melem("kv_context/encode")),
        row("kv_decode_melem_per_s", melem("kv_context/decode_serial")),
        row(
            "kv_decode_parallel_melem_per_s",
            melem("kv_context/decode_parallel"),
        ),
        row(
            "kv_context_tokens",
            JsonValue::Number(CONTEXT_TOKENS as f64),
        ),
        row("kv_levels", JsonValue::Number(engine.num_levels() as f64)),
        row("pool_workers", JsonValue::Number(pool_workers)),
        row("decode_chunks", JsonValue::Number(decode_chunks)),
        // Information only: one hot table, 100k symbols.
        row(
            "micro_rans_decode_melem_per_s",
            melem("entropy_coding/rans_decode_100k_symbols"),
        ),
        row(
            "micro_rans_encode_melem_per_s",
            melem("entropy_coding/rans_encode_100k_symbols"),
        ),
        row("rans_lanes", JsonValue::Number(rans::LANES as f64)),
        // Gated: the read path must stay an order below ingest + load.
        row("load_stored_ms", JsonValue::Number(load_stored_ms)),
        row("load_context_ms", JsonValue::Number(load_context_ms)),
        row("load_stored_per_s", JsonValue::Number(1e3 / load_stored_ms)),
    ]);
    let path = workspace_root().join("BENCH_codec.json");
    let mut text = doc.to_compact();
    text.push('\n');
    std::fs::write(&path, text).expect("write BENCH_codec.json");
    println!("wrote {}", path.display());
}
