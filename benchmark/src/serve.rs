//! `serve_mixed`: the multi-tenant path and the only multi-threaded
//! workload.
//!
//! One operation is one *request*; requests are sent as a replay of a
//! Poisson trace (open loop on the virtual clock, 20 Hz) through the
//! thread backend (closed replay on the wall clock: bounded shard
//! queues, one worker per shard, two decode-pool threads regardless of
//! the host). Set-up builds two identical clusters. One is replayed for
//! `--seconds` with the first `serve_replay` requests of the trace. The
//! other runs the virtual-clock oracle alone: on the same prefix, as the
//! reference the thread backend's outcomes are compared with; on the
//! whole trace, for the virtual-clock metrics (the oracle serves 3000
//! requests in ~60 ms, and over 600 the tail and the hit rate still
//! move by 10% between seeds); and as the scratch cluster of the ledger
//! rows.

use crate::fixture::{
    self, CONTEXT_TOKENS, MID_LEVEL, MODEL_SEED, PLAN_SLO_S, PROPAGATION_S, RECOMPUTE_S_PER_TOKEN,
    SLO_S,
};
use crate::spec::Metrics;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{self, Report};
use crate::{micro, Scale};
use cachegen::{EngineConfig, FecOverhead};
use cachegen_codec::EncodedKv;
use cachegen_kvstore::FetchedChunk;
use cachegen_llm::{KvCache, SimModelConfig};
use cachegen_net::{BandwidthTrace, Link, PacketFaults};
use cachegen_serving::{
    PlannedChunk, PlannedWork, ServingCluster, ServingConfig, ServingReport, ShardSummary,
    ThreadBackend, ThreadRunStats,
};
use cachegen_telemetry::NOOP;
use cachegen_workloads::{workload_rng, MultiTenantWorkload, ServingRequest, SharedPrefixGen};
use std::time::{Duration, Instant};

const TENANTS: usize = 4;
const SHARDS: usize = 2;
const DOCUMENTS: usize = 12;
const RATE_HZ: f64 = 20.0;
/// Store → shard link rate, bits/s.
const SHARD_LINK_BPS: f64 = 20e6;
/// Shard cache: two finest-level contexts per shard, so ~44% of batches
/// hit and the median request is a miss. At 1 MiB (three contexts, ~66%
/// hits) the median request sits between the hit and the miss mode and
/// `ttft_virtual_p50_ms` moved from 20 to 123 ms between seeds.
const SHARD_CACHE_BYTES: u64 = 640 << 10;
/// Arrival rates probed for `serving.max_rate_slo_hz`.
const RATES_HZ: [f64; 5] = [5.0, 10.0, 20.0, 40.0, 80.0];

fn backend(pool_workers: usize) -> ThreadBackend {
    ThreadBackend {
        workers_per_shard: 1,
        decode_pool_workers: pool_workers,
        queue_capacity: 2,
    }
}

fn trace(seed: u64, requests: usize, rate_hz: f64) -> MultiTenantWorkload {
    let vocab = SimModelConfig::llama7b_sim(MODEL_SEED).vocab;
    SharedPrefixGen::new(vocab, DOCUMENTS, CONTEXT_TOKENS).generate(
        &mut workload_rng(seed),
        TENANTS,
        requests,
        rate_hz,
    )
}

fn build_cluster(seed: u64, workload: &MultiTenantWorkload) -> ServingCluster {
    let model = SimModelConfig::llama7b_sim(MODEL_SEED);
    let profile = fixture::profile_contexts(&mut workload_rng(fixture::mix(seed, 1)), model.vocab);
    let config = ServingConfig {
        num_shards: SHARDS,
        num_tenants: TENANTS,
        cache_capacity_bytes: SHARD_CACHE_BYTES,
        slo: Some(PLAN_SLO_S),
        prior_throughput_bps: Some(SHARD_LINK_BPS),
        recompute_sec_per_token: RECOMPUTE_S_PER_TOKEN,
        retransmit_budget: 0,
        fec_overhead: FecOverhead::adaptive_default(),
        ..ServingConfig::default()
    };
    let links = (0..SHARDS as u64)
        .map(|shard| {
            Link::new(BandwidthTrace::constant(SHARD_LINK_BPS), PROPAGATION_S)
                .with_packet_faults(PacketFaults::loss(0.05), fixture::mix(seed, 2 + shard))
        })
        .collect();
    let mut cluster =
        ServingCluster::build(model, EngineConfig::default(), config, &profile, links);
    for (id, tokens) in &workload.documents {
        cluster.store_context(*id, tokens);
    }
    cluster
}

/// One replay's measurements.
struct Replay {
    report: ServingReport,
    stats: ThreadRunStats,
    packets_sent: u64,
    packets_dropped: u64,
}

fn replay(cluster: &mut ServingCluster, requests: &[ServingRequest], tr: &mut Tracer) -> Replay {
    tr.begin_op();
    let (report, stats) = tr.span("serving.run_detailed", || {
        backend(2).run_detailed(cluster, requests, &NOOP)
    });
    tr.end_op();
    // A run zeroes the link counters on entry, so they now hold this
    // replay's packets alone.
    let (packets_sent, packets_dropped) =
        cluster.shards().iter().fold((0, 0), |(sent, dropped), s| {
            let link = s.link.stats();
            (sent + link.packets_sent, dropped + link.packets_dropped)
        });
    Replay {
        report,
        stats,
        packets_sent,
        packets_dropped,
    }
}

/// Counts a replay's shed requests and decode errors as failed, and
/// checks that every completed request got a wall-clock TTFT.
fn account(r: &Replay, requests: usize, report: &mut Report) {
    report.attempted += requests as u64;
    for _ in 0..r.report.shed_count() {
        report.fail("a request was shed".into());
    }
    for e in &r.stats.decode_errors {
        report.fail(format!("decode error: {e}"));
    }
    let completed = r.report.completed().count();
    report.check(r.stats.wall_ttfts.len() == completed, || {
        format!(
            "{} wall TTFTs for {completed} completed requests",
            r.stats.wall_ttfts.len()
        )
    });
}

/// Replays until `budget` has passed, at least once untraced. With a
/// tracer, the replays after the first alternate traced, traced,
/// untraced, so both kinds see the same stretch of host noise. Returns
/// `(untraced, traced)`.
fn timed_replays(
    cluster: &mut ServingCluster,
    requests: &[ServingRequest],
    budget: Duration,
    mut tracer: Option<&mut Tracer>,
    report: &mut Report,
) -> (Vec<Replay>, Vec<Replay>) {
    let deadline = Instant::now() + budget;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut off = Tracer::off();
    let mut index = 0usize;
    while index < 1 + usize::from(tracer.is_some()) || Instant::now() < deadline {
        let (tr, bucket) = match &mut tracer {
            Some(tr) if !index.is_multiple_of(3) => (&mut **tr, &mut traced),
            _ => (&mut off, &mut untraced),
        };
        index += 1;
        let r = replay(cluster, requests, tr);
        account(&r, requests.len(), report);
        bucket.push(r);
    }
    (untraced, traced)
}

fn wall_ttfts_ms(replays: &[Replay]) -> Vec<f64> {
    replays
        .iter()
        .flat_map(|r| r.stats.wall_ttfts.iter().map(|&(_, s)| s * 1e3))
        .collect()
}

fn requests_per_s(replays: &[Replay]) -> f64 {
    let served: usize = replays.iter().map(|r| r.stats.wall_ttfts.len()).sum();
    served as f64 / replays.iter().map(|r| r.stats.wall_secs).sum::<f64>()
}

/// A stored document read back at the middle level: its encodings and
/// the KV they decode to.
fn read_document(
    cluster: &ServingCluster,
    id: u64,
) -> Result<(Vec<Vec<EncodedKv>>, KvCache), String> {
    let engine = &cluster.shard(cluster.shard_of(id)).engine;
    let chunks = engine
        .store()
        .num_chunks(id)
        .ok_or("document is not stored")?;
    let mut encoded = Vec::with_capacity(chunks);
    let mut decoded = Vec::with_capacity(chunks);
    for chunk in 0..chunks {
        let versions = (0..engine.num_levels())
            .map(|level| match engine.get_kv(id, chunk, level) {
                Some(FetchedChunk::Encoded(bytes)) => EncodedKv::from_bytes(&bytes),
                _ => Err(format!("chunk {chunk} level {level} is not stored")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        decoded.push(
            engine
                .codec(MID_LEVEL)
                .try_decode(&versions[MID_LEVEL])
                .map_err(|e| e.to_string())?,
        );
        encoded.push(versions);
    }
    Ok((encoded, KvCache::concat_tokens(&decoded)))
}

/// The reference read of what the cluster stores.
struct StoredQuality {
    /// `kv_nmse` over the stored documents (over four of them it moved
    /// by 12% between seeds).
    nmse: f64,
    /// Prefill cost seen while recomputing their exact KV.
    prefill_ms_per_ktoken: f64,
    /// Document 0's exact KV and encodings, for the micro rows.
    document: Option<(KvCache, Vec<Vec<EncodedKv>>)>,
}

fn stored_quality(
    cluster: &ServingCluster,
    workload: &MultiTenantWorkload,
    report: &mut Report,
) -> StoredQuality {
    let mut nmse_sum = 0.0;
    let mut prefill_s = 0.0;
    let mut document = None;
    let documents = &workload.documents;
    for (id, tokens) in documents {
        let engine = &cluster.shard(cluster.shard_of(*id)).engine;
        let start = Instant::now();
        let exact = engine.calculate_kv(tokens);
        prefill_s += start.elapsed().as_secs_f64();
        match read_document(cluster, *id) {
            Ok((encoded, decoded)) => {
                nmse_sum += fixture::nmse(&decoded, &exact);
                document.get_or_insert((exact, encoded));
            }
            Err(e) => report.fail(format!("document {id}: {e}")),
        }
    }
    StoredQuality {
        nmse: nmse_sum / documents.len() as f64,
        prefill_ms_per_ktoken: prefill_s * 1e3 / (documents.len() * CONTEXT_TOKENS) as f64 * 1e3,
        document,
    }
}

/// A per-shard counter summed over the cluster.
fn shard_sum(r: &ServingReport, f: fn(&ShardSummary) -> u64) -> u64 {
    r.shards.iter().map(f).sum()
}

/// Requests whose virtual TTFT met the SLO (a shed request has none).
fn slo_met(r: &ServingReport) -> usize {
    r.ttfts(None).iter().filter(|&&t| t <= SLO_S).count()
}

fn exact_metrics(
    m: &mut Metrics,
    r: &ServingReport,
    requests: usize,
    stored_bytes: u64,
    nmse: f64,
) {
    let ttft_ms = |p: f64| r.ttft_percentile(None, p).unwrap_or(0.0) * 1e3;
    m.set("ttft_virtual_p50_ms", ttft_ms(50.0));
    m.set("ttft_virtual_p99_ms", ttft_ms(99.0));
    let sum = |f: fn(&ShardSummary) -> u64| shard_sum(r, f);
    let (fetched, parity) = (sum(|s| s.bytes_fetched), sum(|s| s.parity_bytes));
    let served_tokens = (r.completed().count() * CONTEXT_TOKENS) as f64;
    m.set(
        "wire_bytes_per_token",
        (fetched + sum(|s| s.refetched_bytes)) as f64 / served_tokens,
    );
    m.set(
        "stored_bytes_per_token",
        stored_bytes as f64 / (DOCUMENTS * CONTEXT_TOKENS) as f64,
    );
    m.set("kv_nmse", nmse);
    m.set(
        "intact_share",
        1.0 - sum(|s| s.lost_bytes) as f64 / (fetched - parity) as f64,
    );
    m.set("slo_met_share", slo_met(r) as f64 / requests as f64);
}

/// Ledger rows measured on the scratch (oracle) cluster.
fn ledger_rows(
    m: &mut Metrics,
    scratch: &mut ServingCluster,
    seed: u64,
    workload: &MultiTenantWorkload,
    scale: &Scale,
    report: &mut Report,
) {
    let requests = &workload.requests;
    let replayed = &requests[..scale.serve_replay];
    let plan = stats::sample(scale.heavy_samples, &requests[..], |r| {
        scratch.plan_run(r, &NOOP).1.batches.len()
    });
    m.set("serving.plan_ms", plan.secs.median * 1e3);
    m.set("serving.plan_req_per_s", plan.rate(requests.len() as f64));

    // Chunk configurations the oracle chose, from one more plan.
    let (_, planned) = scratch.plan_run(requests, &NOOP);
    let mut configs = [0u64; 6];
    for batch in &planned.batches {
        if let PlannedWork::Query { chunks, .. } = &batch.work {
            for chunk in chunks {
                match chunk {
                    PlannedChunk::Decode { level, .. } => configs[*level] += 1,
                    PlannedChunk::Text { .. } => configs[5] += 1,
                }
            }
        }
    }
    workloads::level_rows(m, &configs);
    workloads::kv_share_check(&configs, report);

    // Decode-pool scaling on the first third of the replayed prefix, the two pool
    // sizes alternating so drift hits both alike.
    let subset = &replayed[..replayed.len() / 3];
    let mut rate = [Vec::new(), Vec::new()];
    for _ in 0..2 {
        for (slot, workers) in [1usize, 2].into_iter().enumerate() {
            let (_, stats) = backend(workers).run_detailed(scratch, subset, &NOOP);
            rate[slot].push(stats.wall_ttfts.len() as f64 / stats.wall_secs);
        }
    }
    let (pool1, pool2) = (stats::median(&rate[0]), stats::median(&rate[1]));
    m.set("serving.req_per_s.pool1", pool1);
    m.set("serving.pool_scaling", pool2 / pool1);

    let mut max_rate = 0.0f64;
    for hz in RATES_HZ {
        let probe = trace(seed, requests.len(), hz);
        let r = scratch.run(&probe.requests);
        if r.shed_count() == 0 && slo_met(&r) as f64 >= 0.95 * probe.requests.len() as f64 {
            max_rate = max_rate.max(hz);
        }
    }
    m.set("serving.max_rate_slo_hz", max_rate);
}

/// Per-layer rows read from one traced replay.
fn replay_rows(m: &mut Metrics, r: &Replay, requests: usize, entropy_per_chunk: usize) {
    let per_request = |n: u64| n as f64 / requests as f64;
    let sum =
        |f: fn(&cachegen_serving::ShardSummary) -> u64| r.report.shards.iter().map(f).sum::<u64>();
    let (hits, misses) = (sum(|s| s.cache.hits), sum(|s| s.cache.misses));
    let (fetched, parity) = (sum(|s| s.bytes_fetched), sum(|s| s.parity_bytes));
    m.set(
        "kvstore.cache_hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m.set(
        "codec.chunks_decoded",
        per_request(r.stats.decoded_chunks * entropy_per_chunk as u64),
    );
    m.set("codec.decode_errors", r.stats.decode_errors.len() as f64);
    m.set("net.packets_sent", per_request(r.packets_sent));
    m.set("net.packets_dropped", per_request(r.packets_dropped));
    m.set(
        "net.fec_recovered_packets",
        per_request(sum(|s| s.fec_recovered_packets)),
    );
    m.set(
        "net.parity_byte_share",
        parity as f64 / (fetched - parity).max(1) as f64,
    );
    m.set("serving.thread_wall_s", r.stats.wall_secs);
    m.set("serving.batches", r.stats.batches as f64);
    m.set(
        "serving.coalesced_requests",
        r.report.coalesced_count() as f64,
    );
    m.set("serving.degraded", r.report.degraded_count() as f64);
    m.set("serving.shed", r.report.shed_count() as f64);
    m.set("serving.decoded_chunks", r.stats.decoded_chunks as f64);
    m.set("serving.mean_quality", r.report.mean_quality());
}

/// Runs `serve_mixed` and reports its metrics.
pub fn run(name: &str, seed: u64, seconds: f64, trace_on: bool, scale: &Scale) -> Report {
    let mut report = Report::default();
    let workload = trace(seed, scale.serve_requests, RATE_HZ);
    let requests = &workload.requests[..scale.serve_replay];
    let (mut clusters, setup_s) =
        workloads::set_up(scale.setup_repeats, 2, || build_cluster(seed, &workload));
    let mut cluster = clusters.pop().expect("two clusters were built");
    let mut scratch = clusters.pop().expect("two clusters were built");

    // Reference: the oracle alone on one cold cluster, the thread
    // backend's first (warm-up) replay on the other; then the oracle on
    // the whole trace.
    let oracle = scratch.run(requests);
    let warm_up = replay(&mut cluster, requests, &mut Tracer::off());
    account(&warm_up, requests.len(), &mut report);
    report.check(warm_up.report.outcomes == oracle.outcomes, || {
        "thread backend outcomes differ from the oracle's".into()
    });
    let quality = stored_quality(&cluster, &workload, &mut report);
    let budget = Duration::from_secs_f64(seconds);
    let mut m = Metrics::default();

    if !trace_on {
        let (replays, _) = timed_replays(&mut cluster, requests, budget, None, &mut report);
        workloads::wall_metrics(
            &mut m,
            setup_s,
            &wall_ttfts_ms(&replays),
            requests_per_s(&replays),
            &report,
        );
        let stored: u64 = cluster
            .shards()
            .iter()
            .map(|s| s.engine.store().total_bytes())
            .sum();
        let whole = scratch.run(&workload.requests);
        report.attempted += workload.requests.len() as u64;
        for _ in 0..whole.shed_count() {
            report.fail("the oracle shed a request".into());
        }
        exact_metrics(
            &mut m,
            &whole,
            workload.requests.len(),
            stored,
            quality.nmse,
        );
    } else {
        let mut tr = Tracer::on();
        let (untraced, traced) =
            timed_replays(&mut cluster, requests, budget, Some(&mut tr), &mut report);
        let traced_ms = wall_ttfts_ms(&traced);
        workloads::trace_metrics(
            &mut m,
            &tr,
            &traced_ms,
            &wall_ttfts_ms(&untraced),
            &mut report,
        );
        m.set(
            "serving.wall_ttft_p90_ms",
            stats::percentile_sorted(&stats::sorted(&traced_ms), 90.0),
        );
        m.set("llm.prefill_ms_per_ktoken", quality.prefill_ms_per_ktoken);
        ledger_rows(&mut m, &mut scratch, seed, &workload, scale, &mut report);
        if let Some((kv, encoded)) = &quality.document {
            let entropy_per_chunk = encoded[0][MID_LEVEL].num_chunks();
            replay_rows(&mut m, &traced[0], requests.len(), entropy_per_chunk);
            let engine = &cluster
                .shard(cluster.shard_of(workload.documents[0].0))
                .engine;
            let inputs = micro::Inputs {
                engine,
                kv,
                encoded,
            };
            micro::rows(&mut m, &inputs, scale, &mut report);
        }
        workloads::write_trace(&tr, name);
    }
    report.metrics = m;
    report
}
