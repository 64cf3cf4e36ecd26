//! The "micro" rows of the ledger: benchmark-owned N-sample loops over
//! single layers, fed with the corpus's real bytes ([`stats::sample`]).

use crate::fixture::{self, MID_LEVEL};
use crate::spec::Metrics;
use crate::stats::{self, Micro};
use crate::workloads::Report;
use crate::Scale;
use cachegen::{load_context, CacheGenEngine, FecOverhead};
use cachegen_codec::encoder::SymKind;
use cachegen_codec::{rans, symbol_to_index, EncodedKv};
use cachegen_kvstore::LruKvCache;
use cachegen_llm::KvCache;
use cachegen_net::RsCode;
use cachegen_quant::BinQuantizer;
use cachegen_streamer::ChunkSchedule;
use std::hint::black_box;
use std::time::Instant;

/// Real data the micro loops run on: one context of the corpus.
pub struct Inputs<'a> {
    /// The engine that encoded it.
    pub engine: &'a CacheGenEngine,
    /// Its full-precision KV.
    pub kv: &'a KvCache,
    /// `encoded[chunk][level]`.
    pub encoded: &'a [Vec<EncodedKv>],
}

/// What `RsCode::recover` takes: one optional payload per packet.
type Shards<'a> = Vec<Option<&'a [u8]>>;

/// Symbols per rANS micro call.
const RANS_SYMBOLS: usize = 100_000;
/// Members per Reed–Solomon group in the micro rows.
const RS_GROUP: usize = 12;
/// Passes over the context's packets per timed call of the transport
/// micro rows, so that one call takes at least tens of microseconds.
const PASSES: usize = 16;

struct Rows<'a> {
    m: &'a mut Metrics,
    min_scaling: f64,
}

impl Rows<'_> {
    fn note(&mut self, micro: &Micro) {
        self.min_scaling = self.min_scaling.min(micro.scaling);
    }

    /// Records `units / median seconds`.
    fn rate(&mut self, name: &'static str, micro: &Micro, units: f64) {
        self.note(micro);
        self.m.set(name, micro.rate(units));
    }
}

/// Every entropy-chunk payload of the context's level-2 encoding, in
/// wire (K then V, layer, group) order.
fn payloads(encoded: &[Vec<EncodedKv>]) -> Vec<&[u8]> {
    encoded
        .iter()
        .flat_map(|versions| {
            let enc = &versions[MID_LEVEL];
            enc.k_chunks
                .iter()
                .chain(&enc.v_chunks)
                .flatten()
                .map(Vec::as_slice)
        })
        .collect()
}

fn rans_rows(rows: &mut Rows<'_>, inp: &Inputs<'_>, n: usize) {
    // Real delta tables (K side, layer 0, one per channel) and a real
    // symbol stream: the context's K values quantized at that layer's bin.
    let profile = inp.engine.codec(MID_LEVEL).profile();
    let tables = profile.layer_alias_tables(SymKind::Delta, true, 0);
    let scales = profile.delta_scales(true, 0);
    let quantizer = BinQuantizer::new(0.5);
    let channels = inp.kv.channels();
    let symbols: Vec<usize> = inp
        .kv
        .k()
        .data()
        .iter()
        .take(RANS_SYMBOLS)
        .enumerate()
        .map(|(i, v)| {
            let q = quantizer.quantize(std::slice::from_ref(v), scales[i % channels]);
            symbol_to_index(q[0])
        })
        .collect();
    let encode = |symbols: &[usize]| {
        let mut enc = rans::Encoder::new();
        for (i, &s) in symbols.iter().enumerate() {
            let channel = i % channels;
            enc.encode(channel % rans::LANES, tables[channel], s);
        }
        enc.finish()
    };
    let stream = encode(&symbols);
    let enc = stats::sample(n, &symbols[..], encode);
    rows.rate(
        "codec.rans_encode_melem_per_s",
        &enc,
        symbols.len() as f64 / 1e6,
    );
    let dec = stats::sample(n, &stream[..], |bytes| {
        let mut dec = rans::Decoder::new(bytes);
        (0..symbols.len()).fold(0usize, |acc, i| {
            let channel = i % channels;
            acc ^ dec.decode(channel % rans::LANES, tables[channel])
        })
    });
    rows.rate(
        "codec.rans_decode_melem_per_s",
        &dec,
        symbols.len() as f64 / 1e6,
    );
}

fn quant_rows(rows: &mut Rows<'_>, inp: &Inputs<'_>, n: usize) {
    let quantizer = BinQuantizer::new(0.5);
    let values = [inp.kv.k().data(), inp.kv.v().data()].concat();
    let q = stats::sample(n, &values[..], |v| quantizer.quantize(v, 1.0));
    rows.rate("quant.quantize_melem_per_s", &q, values.len() as f64 / 1e6);
    let symbols = quantizer.quantize(&values, 1.0);
    let d = stats::sample(n, &symbols[..], |s| quantizer.dequantize(s, 1.0));
    rows.rate(
        "quant.dequantize_melem_per_s",
        &d,
        symbols.len() as f64 / 1e6,
    );
}

fn rs_rows(rows: &mut Rows<'_>, inp: &Inputs<'_>, n: usize, report: &mut Report) {
    const PARITY: [(usize, &str, &str); 3] = [
        (1, "net.rs_parity_mb_per_s.r1", "net.rs_recover_mb_per_s.r1"),
        (2, "net.rs_parity_mb_per_s.r2", "net.rs_recover_mb_per_s.r2"),
        (4, "net.rs_parity_mb_per_s.r4", "net.rs_recover_mb_per_s.r4"),
    ];
    let all = payloads(inp.encoded);
    let groups: Vec<&[&[u8]]> = all.chunks_exact(RS_GROUP).collect();
    let data_mb = (PASSES
        * groups
            .iter()
            .flat_map(|g| g.iter())
            .map(|p| p.len())
            .sum::<usize>()) as f64
        / 1e6;
    for (r, parity_row, recover_row) in PARITY {
        let code = RsCode::new(RS_GROUP, r).expect("12 + r fits GF(256)");
        let parity = stats::sample(n, &groups[..], |groups| {
            (0..PASSES)
                .map(|_| groups.iter().map(|g| code.parity(g).len()).sum::<usize>())
                .sum::<usize>()
        });
        rows.rate(parity_row, &parity, data_mb);
        // Receiver: the first `r` members of every group are lost.
        let sent: Vec<Vec<Vec<u8>>> = groups.iter().map(|g| code.parity(g)).collect();
        let received: Vec<(Shards<'_>, Shards<'_>)> = groups
            .iter()
            .zip(&sent)
            .map(|(g, p)| {
                (
                    g.iter()
                        .enumerate()
                        .map(|(i, d)| (i >= r).then_some(*d))
                        .collect(),
                    p.iter().map(|p| Some(p.as_slice())).collect(),
                )
            })
            .collect();
        let recover = stats::sample(n, &received[..], |received| {
            (0..PASSES)
                .map(|_| {
                    received
                        .iter()
                        .map(|(data, parity)| code.recover(data, parity).map_or(0, |r| r.len()))
                        .sum::<usize>()
                })
                .sum::<usize>()
        });
        rows.rate(recover_row, &recover, data_mb);
        let exact = received.iter().zip(&groups).all(|((data, parity), g)| {
            code.recover(data, parity).is_ok_and(|rebuilt| {
                rebuilt.len() == r
                    && rebuilt
                        .iter()
                        .all(|(i, bytes)| bytes[..g[*i].len()] == *g[*i])
            })
        });
        report.check(exact, || {
            format!("RS(12,{r}) micro rebuilt different bytes")
        });
    }
}

fn transport_rows(rows: &mut Rows<'_>, inp: &Inputs<'_>, n: usize) {
    let schedules: Vec<ChunkSchedule> = inp
        .encoded
        .iter()
        .map(|v| CacheGenEngine::packet_schedule(&v[MID_LEVEL]))
        .collect();
    let sizes: Vec<Vec<u64>> = schedules.iter().map(ChunkSchedule::packet_sizes).collect();
    let packets = PASSES * sizes.iter().map(Vec::len).sum::<usize>();
    let send = stats::sample(n, &sizes[..], |sizes| {
        let mut link = fixture::link(Some((crate::ops::burst_faults(), 7)));
        let mut t = 0.0;
        for _ in 0..PASSES {
            for s in sizes {
                t = link.send_packets(s, t).wire_finish;
            }
        }
        t
    });
    rows.rate("net.send_packets_per_s", &send, packets as f64);

    let fec = FecOverhead::Rs { k: 12, r: 2 };
    let grouped: Vec<_> = schedules
        .iter()
        .zip(&sizes)
        .map(|(s, sizes)| (s, fec.groups_for(MID_LEVEL, sizes).expect("RS groups")))
        .collect();
    let wire_packets = PASSES
        * grouped
            .iter()
            .map(|(s, g)| s.len() + g.num_parity_packets())
            .sum::<usize>();
    let wire = stats::sample(n, &grouped[..], |grouped| {
        (0..PASSES)
            .map(|_| {
                grouped
                    .iter()
                    .map(|(s, g)| s.wire_packets(Some(g)).len())
                    .sum::<usize>()
            })
            .sum::<usize>()
    });
    rows.rate("streamer.wire_packets_per_s", &wire, wire_packets as f64);
}

fn lru_rows(rows: &mut Rows<'_>, n: usize) {
    /// Lookups per timed call; each miss inserts, and 48 contexts of
    /// 64 KiB over a 2 MiB cache keep the eviction path busy.
    const LOOKUPS: u64 = 4096;
    let lru = stats::sample(n, &LOOKUPS, |&lookups| {
        let cache = LruKvCache::new(2 << 20);
        let mut hits = 0u64;
        for i in 0..lookups {
            let id = (i * i + 3 * i) % 48;
            if cache.touch(id) {
                hits += 1;
            } else {
                cache.insert(id, 64 << 10);
            }
        }
        hits
    });
    rows.rate("kvstore.lru_ops_per_s", &lru, LOOKUPS as f64);
}

/// Times `a` and `b` alternately, `n` times each, so that both see the
/// same stretch of host noise; returns their median seconds.
fn paired<A, B>(n: usize, mut a: impl FnMut() -> A, mut b: impl FnMut() -> B) -> (f64, f64) {
    let mut secs = (Vec::with_capacity(n), Vec::with_capacity(n));
    for _ in 0..n {
        let start = Instant::now();
        black_box(a());
        secs.0.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        black_box(b());
        secs.1.push(start.elapsed().as_secs_f64());
    }
    (stats::median(&secs.0), stats::median(&secs.1))
}

/// Rows whose single call takes milliseconds: whole-context decode,
/// serial against pooled, and the library's one-call `encode_context`
/// against the `load_context` that re-runs it on every call.
fn whole_context_rows(m: &mut Metrics, inp: &Inputs<'_>, n: usize, report: &mut Report) {
    let codec = inp.engine.codec(MID_LEVEL);
    let whole = inp.engine.encode_at_level(inp.kv, MID_LEVEL);
    let (serial, parallel) = paired(
        4 * n,
        || codec.try_decode(black_box(&whole)),
        || codec.try_decode_parallel(black_box(&whole)),
    );
    m.set("codec.decode_serial_whole_ms", serial * 1e3);
    m.set("codec.decode_parallel_ms", parallel * 1e3);
    m.set(
        "codec.pool_workers",
        cachegen_codec::pool::bounded_workers(whole.num_chunks()) as f64,
    );
    report.check(
        codec.try_decode(&whole) == codec.try_decode_parallel(&whole),
        || "parallel decode differs from serial".into(),
    );

    let params = fixture::load_params(FecOverhead::Off);
    let (encode, load) = paired(
        n,
        || inp.engine.encode_context(black_box(inp.kv)),
        || {
            load_context(
                inp.engine,
                black_box(inp.kv),
                &mut fixture::link(None),
                &params,
            )
        },
    );
    m.set("core.encode_context_ms", encode * 1e3);
    m.set("core.load_context_ms", load * 1e3);
    m.set("core.reencode_share", encode / load);
}

/// Measures and records every micro row.
pub fn rows(m: &mut Metrics, inp: &Inputs<'_>, scale: &Scale, report: &mut Report) {
    let mut rows = Rows {
        m,
        min_scaling: f64::INFINITY,
    };
    let n = scale.micro_samples;
    rans_rows(&mut rows, inp, n);
    quant_rows(&mut rows, inp, n);
    rs_rows(&mut rows, inp, n, report);
    transport_rows(&mut rows, inp, n);
    lru_rows(&mut rows, n);
    let min_scaling = rows.min_scaling;
    whole_context_rows(m, inp, scale.heavy_samples, report);
    m.set("micro.samples", n as f64);
    m.set("micro.min_scaling", min_scaling);
    report.check(min_scaling >= 2.0, || {
        format!("a micro loop's time did not grow with its iteration count ({min_scaling:.2}×)")
    });
}
