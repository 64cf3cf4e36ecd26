//! Where a serving run becomes telemetry: the one place request spans are
//! recorded and the run's metrics are published.
//!
//! A backend decides *when* things happen — four timestamps per query, two
//! per re-fetch — and calls these helpers at the same points in the same
//! order; everything else about the exported trace and registry (stages,
//! nesting, argument names, metric keys) is decided here, so the
//! virtual-clock oracle and the thread backend cannot drift apart.

use cachegen_telemetry::{percentile, Recorder, SpanCtx, Stage};

use crate::metrics::ServingReport;
use crate::shard::Shard;
use crate::threads::ThreadRunStats;

/// One published metric: registry key, unit, and what it measures.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Registry key, `cachegen.<crate>.<metric>`.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// One-line meaning.
    pub doc: &'static str,
}

/// Declares each key once: a private name constant [`publish_run`] writes
/// through, and the matching row of [`METRICS`].
macro_rules! metric_table {
    ($($id:ident = $name:literal, $unit:literal, $doc:literal;)*) => {
        $(const $id: &str = $name;)*
        /// Every `cachegen.serving.*`, `cachegen.serving.threads.*` and
        /// `cachegen.net.*` key [`publish_run`] writes — the README's
        /// "Observability → Metrics" table is checked against it.
        pub const METRICS: &[Metric] = &[$(Metric { name: $name, unit: $unit, doc: $doc }),*];
    };
}

metric_table! {
    REQUESTS = "cachegen.serving.requests", "count", "requests in the trace";
    COMPLETED = "cachegen.serving.completed", "count", "requests served to a first token";
    SHED = "cachegen.serving.shed", "count", "requests rejected at admission";
    DEGRADED = "cachegen.serving.degraded", "count", "completed requests served degraded under backpressure";
    COALESCED = "cachegen.serving.coalesced", "count", "completed requests that shared a batch";
    TTFT_MS = "cachegen.serving.ttft_ms", "ms", "histogram of per-request time to first token";
    TTFT_P50_MS = "cachegen.serving.ttft_p50_ms", "ms", "nearest-rank median TTFT";
    TTFT_P99_MS = "cachegen.serving.ttft_p99_ms", "ms", "nearest-rank 99th-percentile TTFT";
    SHED_RATE = "cachegen.serving.shed_rate", "ratio", "shed requests over all requests";
    MEAN_QUALITY = "cachegen.serving.mean_quality", "ratio", "mean quality proxy of completed requests";
    MAKESPAN_S = "cachegen.serving.makespan_s", "s", "time of the last completion";
    BATCHES = "cachegen.serving.batches", "count", "query batches dispatched";
    COALESCED_REQUESTS = "cachegen.serving.coalesced_requests", "count", "requests beyond the first in their batch";
    BYTES_FETCHED = "cachegen.serving.bytes_fetched", "bytes", "store-link wire bytes, parity, retransmissions and re-fetches included";
    PARITY_BYTES = "cachegen.serving.parity_bytes", "bytes", "FEC parity bytes sent on top of the data";
    FEC_RECOVERED_PACKETS = "cachegen.serving.fec_recovered_packets", "packets", "dropped packets rebuilt from parity";
    LOST_BYTES = "cachegen.serving.lost_bytes", "bytes", "bytes a transfer never delivered (repaired per policy)";
    REFETCHES = "cachegen.serving.refetches", "count", "loss-repair re-fetch batches and riders served";
    REFETCH_SHED = "cachegen.serving.refetch_shed", "count", "re-fetches rejected at admission";
    REFETCHED_BYTES = "cachegen.serving.refetched_bytes", "bytes", "bytes recovered by re-fetches";
    CACHE_HITS = "cachegen.serving.cache_hits", "count", "batches served from a shard's local cache";
    CACHE_MISSES = "cachegen.serving.cache_misses", "count", "batches that fetched from the store";
    PEAK_QUEUE_DEPTH = "cachegen.serving.peak_queue_depth", "count", "deepest shard queue observed";
    THREADS_WORKERS_PER_SHARD = "cachegen.serving.threads.workers_per_shard", "count", "thread backend: queue consumers per shard";
    THREADS_POOL_WORKERS = "cachegen.serving.threads.pool_workers", "count", "thread backend: workers per batch's chunk loads";
    THREADS_BATCHES = "cachegen.serving.threads.batches", "count", "thread backend: query batches executed";
    THREADS_DECODED_CHUNKS = "cachegen.serving.threads.decoded_chunks", "count", "thread backend: chunks entropy-decoded on the pool";
    THREADS_TEXT_CHUNKS = "cachegen.serving.threads.text_chunks", "count", "thread backend: text-fallback chunks emulated";
    THREADS_DECODE_ERRORS = "cachegen.serving.threads.decode_errors", "count", "thread backend: failed chunk loads";
    NET_TRANSFERS = "cachegen.net.transfers", "count", "byte-stream transfers on the store links";
    NET_PACKET_BATCHES = "cachegen.net.packet_batches", "count", "packet-mode sends on the store links";
    NET_WIRE_BYTES = "cachegen.net.wire_bytes", "bytes", "bytes put on the wire";
    NET_DELIVERED_BYTES = "cachegen.net.delivered_bytes", "bytes", "bytes that arrived";
    NET_PACKETS_SENT = "cachegen.net.packets_sent", "packets", "packets sent";
    NET_PACKETS_DROPPED = "cachegen.net.packets_dropped", "packets", "packets the link dropped";
    NET_PACKETS_TRUNCATED = "cachegen.net.packets_truncated", "packets", "packets the link cut short";
}

/// The four instants a backend measures for one completed query; the spans
/// between them tile its TTFT exactly.
#[derive(Clone, Copy, Debug)]
pub struct QueryTimes {
    /// The request entered the system.
    pub arrival: f64,
    /// Its batch left the queue.
    pub dispatch: f64,
    /// The batch's KV was ready.
    pub ready: f64,
    /// Its prompt suffix finished prefilling (first token).
    pub finish: f64,
}

/// Records one completed request's span tree: a `request` root over
/// `queue_wait`, then `store_fetch` (miss) or `cache_decode` (hit), then
/// `prefill`.
pub fn request_tree(
    recorder: &Recorder,
    ctx: SpanCtx,
    t: QueryTimes,
    cache_hit: bool,
    coalesced: bool,
    quality: f64,
    prompt_tokens: usize,
) {
    let load_stage = if cache_hit {
        Stage::CacheDecode
    } else {
        Stage::StoreFetch
    };
    let root_args = vec![("ttft", t.finish - t.arrival), ("quality", quality)];
    recorder.record_span_for(Stage::Request, ctx, t.arrival, t.finish, root_args);
    recorder.record_span_for(Stage::QueueWait, ctx, t.arrival, t.dispatch, Vec::new());
    let load_args = vec![("coalesced", f64::from(u8::from(coalesced)))];
    recorder.record_span_for(load_stage, ctx, t.dispatch, t.ready, load_args);
    let prefill_args = vec![("tokens", prompt_tokens as f64)];
    recorder.record_span_for(Stage::Prefill, ctx, t.ready, t.finish, prefill_args);
}

/// Records one loss-repair re-fetch under its synthetic request id: a
/// `request` root exactly covered by a `refetch` span.
pub fn refetch_tree(recorder: &Recorder, ctx: SpanCtx, start: f64, end: f64, bytes: u64) {
    recorder.record_span_for(Stage::Request, ctx, start, end, vec![("refetch", 1.0)]);
    let args = vec![("bytes", bytes as f64)];
    recorder.record_span_for(Stage::Refetch, ctx, start, end, args);
}

/// Records an admission decision that was not a plain accept.
pub fn admission_instant(recorder: &Recorder, ctx: SpanCtx, at: f64, shed: bool) {
    let arg = if shed { "shed" } else { "degraded" };
    recorder.instant_for(Stage::Admission, ctx, at, vec![(arg, 1.0)]);
}

/// Publishes one finished run into the recorder's registry: the report
/// under `cachegen.serving.*` (per-request TTFT into a histogram plus
/// p50/p99 gauges, dispositions as counters, per-shard summaries summed
/// fleet-wide) and the shards' link counters under `cachegen.net.*`.
///
/// The oracle passes `wall = None`, publishing the report's virtual TTFTs
/// and makespan. The thread backend passes what it measured: the
/// duration-valued keys then carry wall time, `cachegen.serving.threads.*`
/// is added, and every other value is the same by construction.
pub fn publish_run(
    recorder: &Recorder,
    report: &ServingReport,
    shards: &[Shard],
    wall: Option<&ThreadRunStats>,
) {
    recorder.with_registry(|reg| {
        let (ttfts, makespan) = match wall {
            Some(w) => (w.wall_ttfts.iter().map(|(_, t)| *t).collect(), w.wall_secs),
            None => (report.ttfts(None), report.makespan),
        };
        reg.add(REQUESTS, report.outcomes.len() as u64);
        reg.add(COMPLETED, report.completed().count() as u64);
        reg.add(SHED, report.shed_count() as u64);
        reg.add(DEGRADED, report.degraded_count() as u64);
        reg.add(COALESCED, report.coalesced_count() as u64);
        for t in &ttfts {
            reg.observe(TTFT_MS, t * 1e3);
        }
        for (key, p) in [(TTFT_P50_MS, 50.0), (TTFT_P99_MS, 99.0)] {
            if let Some(v) = percentile(&ttfts, p) {
                reg.gauge(key, v * 1e3);
            }
        }
        if !report.outcomes.is_empty() {
            let shed_rate = report.shed_count() as f64 / report.outcomes.len() as f64;
            reg.gauge(SHED_RATE, shed_rate);
        }
        reg.gauge(MEAN_QUALITY, report.mean_quality());
        reg.gauge(MAKESPAN_S, makespan);
        for s in &report.shards {
            reg.add(BATCHES, s.batches);
            reg.add(COALESCED_REQUESTS, s.coalesced_requests);
            reg.add(BYTES_FETCHED, s.bytes_fetched);
            reg.add(PARITY_BYTES, s.parity_bytes);
            reg.add(FEC_RECOVERED_PACKETS, s.fec_recovered_packets);
            reg.add(LOST_BYTES, s.lost_bytes);
            reg.add(REFETCHES, s.refetches);
            reg.add(REFETCH_SHED, s.refetch_shed);
            reg.add(REFETCHED_BYTES, s.refetched_bytes);
            reg.add(CACHE_HITS, s.cache.hits);
            reg.add(CACHE_MISSES, s.cache.misses);
        }
        let peak_depth = report.shards.iter().map(|s| s.peak_queue_depth).max();
        reg.gauge(PEAK_QUEUE_DEPTH, peak_depth.unwrap_or(0) as f64);
        for shard in shards {
            let s = shard.link.stats();
            reg.add(NET_TRANSFERS, s.transfers);
            reg.add(NET_PACKET_BATCHES, s.packet_batches);
            reg.add(NET_WIRE_BYTES, s.wire_bytes);
            reg.add(NET_DELIVERED_BYTES, s.delivered_bytes);
            reg.add(NET_PACKETS_SENT, s.packets_sent);
            reg.add(NET_PACKETS_DROPPED, s.packets_dropped);
            reg.add(NET_PACKETS_TRUNCATED, s.packets_truncated);
        }
        if let Some(w) = wall {
            reg.gauge(THREADS_WORKERS_PER_SHARD, w.workers_per_shard as f64);
            reg.gauge(THREADS_POOL_WORKERS, w.pool_workers as f64);
            reg.add(THREADS_BATCHES, w.batches);
            reg.add(THREADS_DECODED_CHUNKS, w.decoded_chunks);
            reg.add(THREADS_TEXT_CHUNKS, w.text_chunks);
            reg.add(THREADS_DECODE_ERRORS, w.decode_errors.len() as u64);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// README "Observability → Metrics" lists exactly the table: one row
    /// per key, in table order, with the same unit and meaning.
    #[test]
    fn readme_lists_exactly_the_metric_table() {
        let readme = include_str!("../../../README.md");
        let rows: Vec<String> = readme
            .lines()
            .filter(|l| l.starts_with("| `cachegen."))
            .map(str::to_string)
            .collect();
        let table: Vec<String> = METRICS
            .iter()
            .map(|m| format!("| `{}` | {} | {} |", m.name, m.unit, m.doc))
            .collect();
        assert_eq!(rows, table);
    }
}
