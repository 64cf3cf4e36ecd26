//! The four single-threaded workloads: reference pass, timed closed
//! loop, traced run, and the metrics they print.
//!
//! A workload is a fixed cycle of *slots* (context × fault-seed round).
//! The **reference pass** runs every slot once, untimed: it warms the
//! caches, checks each composed operation against the library's own
//! one-call path, and yields the seed-only ("exact") metrics and one
//! digest per slot. The **timed loop** then cycles the slots for
//! `--seconds`, one client, the next operation starting when the last
//! one returned, and compares each result's digest with its slot's.

use crate::fixture::{self, EngineFixture, MID_LEVEL, SLO_S};
use crate::ops::{self, Counts, IngestOut, LoadKind, LoadOut, TransportOut, INGEST_ID_BASE};
use crate::spec::{Metrics, SHARE_ROWS};
use crate::stats;
use crate::trace::Tracer;
use crate::{micro, Scale};
use cachegen::{load_context, RepairPolicy};
use cachegen_codec::EncodedKv;
use cachegen_kvstore::FetchedChunk;
use cachegen_llm::KvCache;
use std::time::{Duration, Instant};

/// Which single-threaded workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `load_clean` / `load_lossy`.
    Load(LoadKind),
    /// `store_ingest`.
    Ingest,
    /// `transport_burst`.
    Transport,
}

impl Kind {
    /// Fault-seed rounds per context: only a faulty link makes one
    /// context's operations differ.
    fn rounds(self, scale: &Scale) -> usize {
        match self {
            Kind::Load(LoadKind::Clean) | Kind::Ingest => 1,
            Kind::Load(LoadKind::Lossy) | Kind::Transport => scale.rounds,
        }
    }
}

/// What a finished run reports.
#[derive(Default)]
pub struct Report {
    /// Operations attempted in the reference pass and the timed loop.
    pub attempted: u64,
    /// Operations that returned an error or failed a check.
    pub failed: u64,
    /// First few failure messages.
    pub errors: Vec<String>,
    /// The metrics of the requested mode.
    pub metrics: Metrics,
}

impl Report {
    /// Counts one failed operation or check.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    /// Counts a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(message());
        }
    }
}

enum Out {
    Load(LoadOut),
    Ingest(IngestOut),
    Transport(TransportOut),
}

impl Out {
    fn counts(&self) -> &Counts {
        match self {
            Out::Load(o) => &o.counts,
            Out::Ingest(o) => &o.counts,
            Out::Transport(o) => &o.counts,
        }
    }
}

fn fnv(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

/// The digest the timed loop compares per slot: the cache's bits for a
/// load, the plan's sizes and the stored footprint for an ingest, the
/// delivery's timeline and holes for a transport run.
fn digest(fx: &EngineFixture, store_id: u64, out: &Out) -> u64 {
    match out {
        Out::Load(o) => fnv(fixture::digest(&o.cache), o.stream.finish.to_bits()),
        Out::Ingest(o) => {
            let stored = fx.engine.store().context_bytes(store_id).unwrap_or(0);
            o.plan
                .chunks()
                .iter()
                .flat_map(|c| c.level_bytes.iter().copied())
                .fold(fnv(0xCBF2_9CE4_8422_2325, stored), fnv)
        }
        Out::Transport(o) => o.holes.iter().fold(
            fnv(
                fnv(0xCBF2_9CE4_8422_2325, o.finish.to_bits()),
                o.wire_bytes(),
            ),
            |h, (lost, recovered)| fnv(fnv(h, lost.len() as u64), recovered.len() as u64),
        ),
    }
}

struct Slot {
    ctx: usize,
    store_id: u64,
    fault_seed: u64,
}

fn slot(kind: Kind, fx: &EngineFixture, seed: u64, index: usize) -> Slot {
    let ctx = index % fx.kvs.len();
    Slot {
        ctx,
        store_id: match kind {
            Kind::Ingest => INGEST_ID_BASE + ctx as u64,
            _ => ctx as u64,
        },
        fault_seed: fixture::mix(seed, index as u64),
    }
}

fn run_op(kind: Kind, fx: &EngineFixture, s: &Slot, tr: &mut Tracer) -> Result<Out, String> {
    match kind {
        Kind::Load(k) => ops::load(fx, s.ctx, s.store_id, k, s.fault_seed, tr).map(Out::Load),
        Kind::Ingest => ops::ingest(fx, s.ctx, s.store_id, tr).map(Out::Ingest),
        Kind::Transport => ops::transport(fx, s.ctx, s.fault_seed, tr).map(Out::Transport),
    }
}

/// Seed-only results of the reference pass.
struct Reference {
    digests: Vec<u64>,
    ttft_ms: Vec<f64>,
    wire_bytes: u64,
    tokens: u64,
    nmse_sum: f64,
    slo_met: u64,
    counts: Counts,
}

impl Reference {
    /// Records what a reader of one slot's data saw.
    fn read(
        &mut self,
        fx: &EngineFixture,
        s: &Slot,
        finish_s: f64,
        wire_bytes: u64,
        kv: &KvCache,
        counts: &Counts,
    ) {
        self.ttft_ms.push(finish_s * 1e3);
        self.wire_bytes += wire_bytes;
        self.tokens += fx.contexts[s.ctx].len() as u64;
        self.nmse_sum += fixture::nmse(kv, &fx.kvs[s.ctx]);
        self.slo_met += u64::from(finish_s <= SLO_S);
        self.counts.add(counts);
    }
}

/// Fetches, parses and serially decodes one stored chunk.
fn read_chunk(
    fx: &EngineFixture,
    store_id: u64,
    chunk: usize,
    level: usize,
) -> Result<(EncodedKv, KvCache), String> {
    let Some(FetchedChunk::Encoded(bytes)) = fx.engine.get_kv(store_id, chunk, level) else {
        return Err(format!("chunk {chunk} level {level} is not stored"));
    };
    let enc = EncodedKv::from_bytes(&bytes)?;
    let kv = fx
        .engine
        .codec(level)
        .try_decode(&enc)
        .map_err(|e| e.to_string())?;
    Ok((enc, kv))
}

/// Checks one composed load against the library's `load_context` run
/// with the same parameters and link seed: bit-identical cache, the same
/// timeline, the same lost and FEC-recovered packet sets.
fn cross_check_load(fx: &EngineFixture, k: LoadKind, s: &Slot, out: &LoadOut, report: &mut Report) {
    let mut link = k.link(s.fault_seed);
    let lib = load_context(
        &fx.engine,
        &fx.kvs[s.ctx],
        &mut link,
        &fixture::load_params(k.fec()),
    );
    report.check(lib.cache == out.cache, || {
        format!("context {}: composed load differs from load_context", s.ctx)
    });
    report.check(lib.stream.chunks == out.stream.chunks, || {
        format!(
            "context {}: timeline or packet sets differ from load_context",
            s.ctx
        )
    });
    report.check(lib.stream.finish == out.stream.finish, || {
        format!("context {}: finish differs from load_context", s.ctx)
    });
}

/// Checks one composed ingest: equals the library's `encode_context`
/// (how the fixture was built), the stored bytes parse back to the
/// encoder's output, and `decode(encode(chunk))` equals `round_trip`.
fn cross_check_ingest(fx: &EngineFixture, s: &Slot, out: &IngestOut, report: &mut Report) {
    report.check(out.plan == fx.plans[s.ctx], || {
        format!(
            "context {}: composed plan differs from encode_context",
            s.ctx
        )
    });
    report.check(out.encoded == fx.encoded[s.ctx], || {
        format!(
            "context {}: composed encodings differ from encode_context",
            s.ctx
        )
    });
    let chunks = fx.engine.chunk_caches(&fx.kvs[s.ctx]);
    for (c, versions) in out.encoded.iter().enumerate() {
        for (l, enc) in versions.iter().enumerate() {
            match read_chunk(fx, s.store_id, c, l) {
                Ok((parsed, decoded)) => {
                    report.check(parsed == *enc, || {
                        format!("context {} chunk {c} level {l}: stored bytes differ", s.ctx)
                    });
                    if l == MID_LEVEL {
                        let (round_trip, _) = fx.engine.codec(l).round_trip(&chunks[c]);
                        report.check(decoded == round_trip, || {
                            format!("context {} chunk {c}: decode != round_trip", s.ctx)
                        });
                    }
                }
                Err(e) => report.fail(e),
            }
        }
    }
}

/// The KV a receiver of one transport run would decode, holes repaired.
fn transport_cache(fx: &EngineFixture, ctx: usize, out: &TransportOut) -> Result<KvCache, String> {
    let chunks = fx.encoded[ctx]
        .iter()
        .zip(&out.holes)
        .map(|(versions, (lost, recovered))| {
            let enc = &versions[MID_LEVEL];
            fx.engine
                .decode_with_repairs_at_level(
                    enc,
                    MID_LEVEL,
                    &ops::arrival_map(enc, lost, recovered),
                    RepairPolicy::AnchorInterpolate,
                )
                .map(|r| r.cache)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(KvCache::concat_tokens(&chunks))
}

fn reference_pass(
    kind: Kind,
    fx: &EngineFixture,
    seed: u64,
    scale: &Scale,
    report: &mut Report,
) -> Reference {
    let slots = fx.kvs.len() * kind.rounds(scale);
    let mut r = Reference {
        digests: Vec::with_capacity(slots),
        ttft_ms: Vec::with_capacity(slots),
        wire_bytes: 0,
        tokens: 0,
        nmse_sum: 0.0,
        slo_met: 0,
        counts: Counts::default(),
    };
    let mut tr = Tracer::off();
    for index in 0..slots {
        let s = slot(kind, fx, seed, index);
        report.attempted += 1;
        let out = match run_op(kind, fx, &s, &mut tr) {
            Ok(out) => out,
            Err(e) => {
                report.fail(format!("slot {index}: {e}"));
                r.digests.push(0);
                continue;
            }
        };
        r.digests.push(digest(fx, s.store_id, &out));
        let first_round = index < fx.kvs.len();
        // What a reader of this slot's data sees: the operation's own
        // result for a load, a clean-link read of the bytes just written
        // for an ingest, the receiver's repaired decode for a transport
        // run.
        match &out {
            Out::Load(o) => {
                if let (Kind::Load(k), true) = (kind, first_round) {
                    cross_check_load(fx, k, &s, o, report);
                }
                r.read(fx, &s, o.finish(), o.wire_bytes(), &o.cache, &o.counts);
            }
            Out::Ingest(o) => {
                cross_check_ingest(fx, &s, o, report);
                match ops::load(
                    fx,
                    s.ctx,
                    s.store_id,
                    LoadKind::Clean,
                    s.fault_seed,
                    &mut tr,
                ) {
                    Ok(o) => r.read(fx, &s, o.finish(), o.wire_bytes(), &o.cache, &o.counts),
                    Err(e) => report.fail(format!("slot {index}: reference read: {e}")),
                }
            }
            Out::Transport(o) => match transport_cache(fx, s.ctx, o) {
                Ok(kv) => r.read(fx, &s, o.finish, o.wire_bytes(), &kv, &o.counts),
                Err(e) => report.fail(format!("slot {index}: reference read: {e}")),
            },
        }
        report.check(out.counts().byte_mismatches == 0, || {
            format!("slot {index}: a rebuilt packet differs from what was sent")
        });
    }
    r
}

/// What one closed loop measured.
struct Phase {
    /// Wall time of each operation run with tracing off, ms.
    op_ms: Vec<f64>,
    /// Wall time of each traced operation, ms.
    traced_ms: Vec<f64>,
    /// Work counted: of the traced operations when tracing, else of all.
    counts: Counts,
}

/// The closed loop: cycles the slots until `budget` has passed (at least
/// one full cycle of contexts), timing each operation alone. With a
/// tracer, every third operation still runs untraced, so both medians
/// see the same stretch of host noise and their difference is the
/// tracing overhead.
fn timed_loop(
    kind: Kind,
    fx: &EngineFixture,
    seed: u64,
    digests: &[u64],
    budget: Duration,
    mut tracer: Option<&mut Tracer>,
    report: &mut Report,
) -> Phase {
    let mut phase = Phase {
        op_ms: Vec::new(),
        traced_ms: Vec::new(),
        counts: Counts::default(),
    };
    let mut off = Tracer::off();
    let deadline = Instant::now() + budget;
    let mut index = 0usize;
    while Instant::now() < deadline || index < fx.kvs.len() {
        let slot_index = index % digests.len();
        let s = slot(kind, fx, seed, slot_index);
        let traced = tracer.is_some() && !index.is_multiple_of(3);
        index += 1;
        report.attempted += 1;
        let tr = match &mut tracer {
            Some(tr) if traced => &mut **tr,
            _ => &mut off,
        };
        tr.begin_op();
        let start = Instant::now();
        let out = run_op(kind, fx, &s, tr);
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        tr.end_op();
        if traced {
            phase.traced_ms.push(elapsed_ms);
        } else {
            phase.op_ms.push(elapsed_ms);
        }
        match out {
            Ok(out) => {
                if traced || tracer.is_none() {
                    phase.counts.add(out.counts());
                }
                report.check(digest(fx, s.store_id, &out) == digests[slot_index], || {
                    format!("slot {slot_index}: result differs from the reference pass")
                });
                report.check(out.counts().byte_mismatches == 0, || {
                    format!("slot {slot_index}: a rebuilt packet differs from what was sent")
                });
            }
            Err(e) => report.fail(format!("slot {slot_index}: {e}")),
        }
    }
    phase
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Share of stream chunks shipped as KV bitstreams rather than text
/// (`configs`: levels 0–4, then text).
pub fn kv_chunk_share(configs: &[u64; 6]) -> f64 {
    let total: u64 = configs.iter().sum();
    if total == 0 {
        1.0
    } else {
        1.0 - configs[5] as f64 / total as f64
    }
}

/// Fails the run when a workload did work it exists to bypass.
fn bypass_checks(kind: Kind, c: &Counts, report: &mut Report) {
    if kind == Kind::Load(LoadKind::Clean) {
        report.check(c.packets_sent == 0, || {
            format!("load_clean sent {} packets", c.packets_sent)
        });
    }
    if matches!(kind, Kind::Ingest | Kind::Transport) {
        report.check(c.chunks_decoded == 0, || {
            format!("{kind:?} decoded {} chunks", c.chunks_decoded)
        });
    }
    kv_share_check(&c.configs, report);
}

/// Fails the run when the adapter shipped more than 5% of the chunks as
/// text: a "load" that recomputes instead of decoding measures nothing.
pub fn kv_share_check(configs: &[u64; 6], report: &mut Report) {
    let share = kv_chunk_share(configs);
    report.check(share >= 0.95, || {
        format!("only {share:.3} of chunks travelled as KV")
    });
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Builds the fixture `repeats` times (at least `keep`); returns the
/// last `keep` built and the median build time.
pub fn set_up<F>(repeats: usize, keep: usize, mut build: impl FnMut() -> F) -> (Vec<F>, f64) {
    let mut secs = Vec::new();
    let mut fixtures = std::collections::VecDeque::with_capacity(keep + 1);
    for _ in 0..repeats.max(keep) {
        if fixtures.len() == keep {
            fixtures.pop_front();
        }
        let start = Instant::now();
        fixtures.push_back(build());
        secs.push(start.elapsed().as_secs_f64());
    }
    (fixtures.into(), stats::median(&secs))
}

/// Records the wall-clock end-to-end metrics every workload shares.
pub fn wall_metrics(m: &mut Metrics, setup_s: f64, op_ms: &[f64], ops_per_s: f64, report: &Report) {
    m.set("setup_s", setup_s);
    m.set("op_p50_ms", stats::median(op_ms));
    m.set("ops_per_s", ops_per_s);
    m.set("ok_share", 1.0 - ratio(report.failed, report.attempted));
    m.set("peak_rss_mb", peak_rss_mb());
}

/// Records tail percentiles, layer shares and the tracing overhead.
pub fn trace_metrics(
    m: &mut Metrics,
    tr: &Tracer,
    traced_ms: &[f64],
    untraced_ms: &[f64],
    report: &mut Report,
) {
    let sorted = stats::sorted(traced_ms);
    m.set("tail.op_p95_ms", stats::percentile_sorted(&sorted, 95.0));
    m.set("tail.op_p99_ms", stats::percentile_sorted(&sorted, 99.0));
    m.set("tail.op_samples", sorted.len() as f64);
    let layers = SHARE_ROWS.map(|row| row.strip_prefix("share.").expect("share row"));
    let shares = tr.layer_shares(&layers);
    for (row, share) in SHARE_ROWS.iter().zip(&shares) {
        m.set(row, *share);
    }
    let sum: f64 = shares.iter().sum();
    report.check(sum >= 0.99, || format!("layer shares sum to {sum}"));
    let (traced, untraced) = (stats::median(traced_ms), stats::median(untraced_ms));
    m.set("trace.overhead_share", (traced - untraced) / untraced);
    m.set("trace.ops", tr.ops() as f64);
    m.set(
        "host.available_parallelism",
        std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64),
    );
}

/// Writes the kept spans to `out/trace_<workload>.json` next to the
/// benchmark's sources.
pub fn write_trace(tr: &Tracer, workload: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace_{workload}.json"));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.chrome_json(workload)))
    {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// The `streamer.level_share.*` rows and `streamer.kv_chunk_share` from
/// stream chunks counted per configuration (levels 0–4, then text).
pub fn level_rows(m: &mut Metrics, configs: &[u64; 6]) {
    const ROWS: [&str; 6] = [
        "streamer.level_share.l0",
        "streamer.level_share.l1",
        "streamer.level_share.l2",
        "streamer.level_share.l3",
        "streamer.level_share.l4",
        "streamer.level_share.text",
    ];
    let chunks: u64 = configs.iter().sum();
    for (name, n) in ROWS.iter().zip(configs) {
        m.set(name, ratio(*n, chunks));
    }
    m.set("streamer.kv_chunk_share", kv_chunk_share(configs));
}

/// Per-layer rows read from the composed operations' spans and counts.
fn op_rows(m: &mut Metrics, tr: &Tracer, c: &Counts, fx: &EngineFixture) {
    let ops = tr.ops().max(1) as f64;
    let per_op = |n: u64| n as f64 / ops;
    let rate = |units: u64, secs: f64| if secs > 0.0 { units as f64 / secs } else { 0.0 };
    let decode_secs = tr.secs("codec.try_decode") + tr.secs("codec.decode_with_repairs");
    m.set("codec.decode_ms", tr.ms_per_op("codec.try_decode"));
    m.set(
        "codec.decode_melem_per_s",
        rate(c.elements_decoded, decode_secs) / 1e6,
    );
    m.set(
        "codec.repair_decode_ms",
        tr.ms_per_op("codec.decode_with_repairs"),
    );
    m.set("codec.parse_ms", tr.ms_per_op("codec.from_bytes"));
    m.set("codec.encode_ms", tr.ms_per_op("codec.encode"));
    m.set(
        "codec.encode_melem_per_s",
        rate(c.elements_encoded, tr.secs("codec.encode")) / 1e6,
    );
    m.set("codec.serialize_ms", tr.ms_per_op("codec.to_bytes"));
    m.set("codec.chunks_decoded", per_op(c.chunks_decoded));
    m.set(
        "llm.prefill_ms_per_ktoken",
        fx.prefill_secs * 1e3 / (fx.corpus_tokens() as f64 / 1e3),
    );
    m.set("llm.concat_ms", tr.ms_per_op("llm.concat_tokens"));
    m.set("kvstore.get_ms", tr.ms_per_op("kvstore.get_kv"));
    m.set("kvstore.put_ms", tr.ms_per_op("kvstore.store_kv"));
    m.set("net.parity_ms", tr.ms_per_op("net.rs_parity"));
    m.set("net.recover_ms", tr.ms_per_op("net.rs_recover"));
    m.set("net.packets_sent", per_op(c.packets_sent));
    m.set("net.packets_dropped", per_op(c.packets_dropped));
    m.set("net.fec_recovered_packets", per_op(c.fec_recovered));
    m.set("net.unrecovered_packets", per_op(c.unrecovered));
    m.set(
        "net.recovered_share",
        ratio(c.fec_recovered, c.fec_recovered + c.unrecovered),
    );
    m.set("net.parity_byte_share", ratio(c.parity_bytes, c.data_bytes));
    m.set(
        "streamer.simulate_stream_ms",
        tr.ms_per_op("streamer.simulate_stream"),
    );
    m.set(
        "streamer.deliver_ms",
        tr.ms_per_op("streamer.deliver_schedule"),
    );
    m.set(
        "streamer.deliver_packets_per_s",
        rate(c.packets_sent, tr.secs("streamer.deliver_schedule")),
    );
    level_rows(m, &c.configs);
    const RUNG_ROWS: [&str; 3] = [
        "streamer.fec_rung_share.14_1",
        "streamer.fec_rung_share.10_1",
        "streamer.fec_rung_share.12_2",
    ];
    let rungs: u64 = c.rungs.iter().sum();
    for (name, n) in RUNG_ROWS.iter().zip(c.rungs) {
        m.set(name, ratio(n, rungs));
    }
    m.set("streamer.retransmits", per_op(c.retransmits));
    m.set(
        "core.packet_schedule_ms",
        tr.ms_per_op("core.packet_schedule"),
    );
}

/// Runs one single-threaded workload and reports its metrics.
pub fn run(kind: Kind, name: &str, seed: u64, seconds: f64, trace: bool, scale: &Scale) -> Report {
    let mut report = Report::default();
    let (mut fixtures, setup_s) = set_up(scale.setup_repeats, 1, || EngineFixture::build(seed));
    let fx = fixtures.pop().expect("one fixture was built");
    let reference = reference_pass(kind, &fx, seed, scale, &mut report);
    let budget = Duration::from_secs_f64(seconds);
    let mut m = Metrics::default();

    if !trace {
        let phase = timed_loop(
            kind,
            &fx,
            seed,
            &reference.digests,
            budget,
            None,
            &mut report,
        );
        bypass_checks(kind, &phase.counts, &mut report);
        let busy_s: f64 = phase.op_ms.iter().sum::<f64>() / 1e3;
        wall_metrics(
            &mut m,
            setup_s,
            &phase.op_ms,
            phase.op_ms.len() as f64 / busy_s,
            &report,
        );
        let ttft = stats::sorted(&reference.ttft_ms);
        let slots = reference.ttft_ms.len().max(1) as f64;
        m.set("ttft_virtual_p50_ms", stats::percentile_sorted(&ttft, 50.0));
        m.set("ttft_virtual_p99_ms", stats::percentile_sorted(&ttft, 99.0));
        m.set(
            "wire_bytes_per_token",
            ratio(reference.wire_bytes, reference.tokens),
        );
        let stored: u64 = (0..fx.kvs.len() as u64)
            .filter_map(|id| fx.engine.store().context_bytes(id))
            .sum();
        m.set(
            "stored_bytes_per_token",
            stored as f64 / fx.corpus_tokens() as f64,
        );
        m.set("kv_nmse", reference.nmse_sum / slots);
        m.set(
            "intact_share",
            1.0 - ratio(reference.counts.lost_bytes, reference.counts.data_bytes),
        );
        m.set("slo_met_share", reference.slo_met as f64 / slots);
    } else {
        let mut tr = Tracer::on();
        let phase = timed_loop(
            kind,
            &fx,
            seed,
            &reference.digests,
            budget,
            Some(&mut tr),
            &mut report,
        );
        bypass_checks(kind, &phase.counts, &mut report);
        op_rows(&mut m, &tr, &phase.counts, &fx);
        trace_metrics(&mut m, &tr, &phase.traced_ms, &phase.op_ms, &mut report);
        let inputs = micro::Inputs {
            engine: &fx.engine,
            kv: &fx.kvs[0],
            encoded: &fx.encoded[0],
        };
        micro::rows(&mut m, &inputs, scale, &mut report);
        write_trace(&tr, name);
    }
    report.metrics = m;
    report
}
