//! The real OS-thread execution backend.
//!
//! [`ThreadBackend`] serves a trace on actual worker threads instead of
//! the virtual clock, in two phases:
//!
//! 1. **Plan** — the virtual-clock oracle runs first
//!    ([`ServingCluster::plan_run`]) and resolves every decision:
//!    admission degrade/shed, batch composition and dispatch order, the
//!    chunk configuration of every context load, and each loss-repair
//!    re-fetch (with the synthetic trace id the oracle assigned it). The
//!    oracle's [`ServingReport`] is the authoritative outcome set.
//! 2. **Execute** — the plan replays on real threads, all owned by one
//!    kind of executor, the workspace's scoped bounded [`Pool`]: each
//!    shard has a pool of `workers_per_shard` threads behind a queue
//!    bounded at `queue_capacity` (a full queue blocks the feeder — real
//!    backpressure), and every batch fans its chunk loads out to one
//!    shared decode pool, where the *actual* entropy decode of the stored
//!    bitstream runs. Text-fallback chunks, prompt prefill, and re-fetch
//!    bytes have no real GPU/NIC behind them, so they are emulated as
//!    deterministic compute proportional to the virtual model's inputs.
//!
//! Because outcomes come from the plan, the two backends agree on
//! everything but time: same dispositions, same shed/degrade decisions,
//! same final cache state. Span trees (re-fetches under the oracle's
//! synthetic ids) and registry keys come from the [`crate::trace`] helpers
//! the oracle itself calls, with wall-clock durations where the oracle has
//! virtual ones. `tests/backend_equivalence.rs` diffs exactly that.
//!
//! This module spawns nothing itself: it opens the two `thread::scope`s
//! its pools live in (the decode pool in the outer one, so that shard
//! tasks in the inner one can borrow it). `tensor::pool` (reached here
//! through its `codec::pool` re-export) is the one spawn site; the
//! `cachegen-analyze` no-raw-spawn rule enforces both.

use std::sync::{Arc, Mutex, PoisonError};

use cachegen_codec::pool::{report_shape, Pool, PoolJob};
use cachegen_kvstore::FetchedChunk;
use cachegen_telemetry::{Clock, Recorder, SpanCtx, Stage, WallClock, NOOP};
use cachegen_workloads::ServingRequest;

use crate::cluster::ServingCluster;
use crate::metrics::ServingReport;
use crate::plan::{PlannedBatch, PlannedChunk, PlannedRefetch, PlannedWork};
use crate::shard::Shard;
use crate::trace::{self, QueryTimes};

/// One chunk-level span measured inside a pool job: slot in the batch's
/// chunk order (so records replay deterministically sorted), stage,
/// wall start/end, and the stage's arg value (chunk index or tokens).
type ChunkSpan = (usize, Stage, f64, f64, f64);

/// Emulated compute per prefilled or text-recomputed token, in spin-loop
/// iterations (stands in for the GPU work the virtual model prices as
/// `recompute_sec_per_token`).
const SPIN_PER_TOKEN: u64 = 2_000;

/// Emulated wire work per re-fetched byte, in spin-loop iterations,
/// and the cap that keeps a large re-fetch from stalling a smoke run.
const SPIN_PER_REFETCH_BYTE: u64 = 4;
const REFETCH_SPIN_CAP: u64 = 400_000;

/// What the execute phase measured, beyond the report.
#[derive(Clone, Debug, Default)]
pub struct ThreadRunStats {
    /// Worker threads per shard (queue consumers).
    pub workers_per_shard: usize,
    /// Workers in the shared decode pool.
    pub pool_workers: usize,
    /// Wall seconds from first feed to last batch completion.
    pub wall_secs: f64,
    /// Query batches executed.
    pub batches: u64,
    /// Pure re-fetch batches executed.
    pub refetch_batches: u64,
    /// Encoded chunks actually entropy-decoded on the pool.
    pub decoded_chunks: u64,
    /// Text-fallback chunks recomputed (emulated).
    pub text_chunks: u64,
    /// Decode failures, with job context (empty on a healthy run).
    pub decode_errors: Vec<String>,
    /// Wall TTFT per completed request, sorted by request index.
    pub wall_ttfts: Vec<(usize, f64)>,
}

/// Real OS-thread serving engine (see the module docs for the
/// plan/execute split).
#[derive(Clone, Copy, Debug)]
pub struct ThreadBackend {
    /// Worker threads per shard.
    pub workers_per_shard: usize,
    /// Workers in the shared chunk-decode pool.
    pub decode_pool_workers: usize,
    /// Bound of each shard's batch queue (feeder blocks when full).
    pub queue_capacity: usize,
}

impl ThreadBackend {
    /// A backend with `workers` threads per shard, an equally sized
    /// shared decode pool, and a small bounded queue per shard.
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker per shard");
        ThreadBackend {
            workers_per_shard: workers,
            decode_pool_workers: workers,
            queue_capacity: 2 * workers,
        }
    }

    /// Runs the trace and returns the oracle report plus what the
    /// execute phase measured.
    pub fn run_detailed(
        &self,
        cluster: &mut ServingCluster,
        requests: &[ServingRequest],
        recorder: &Recorder,
    ) -> (ServingReport, ThreadRunStats) {
        assert!(self.workers_per_shard >= 1, "need at least one worker");
        assert!(self.decode_pool_workers >= 1, "need at least one decoder");
        assert!(self.queue_capacity >= 1, "need a positive queue bound");

        // Phase 1: the oracle plans (and decides) everything. A recording
        // run plans on a scratch recorder to catch the loop's live counters
        // (`cachegen.streamer.*`) for the wall registry; an untraced run
        // has no registry to carry them to and plans untraced.
        let planner = recorder.is_enabled().then(Recorder::new);
        let (report, plan) = cluster.plan_run(requests, planner.as_ref().unwrap_or(&NOOP));

        // Phase 2: replay the plan on real threads, measuring wall time.
        let clock = WallClock::start();

        // Shed/degrade instants replay at feed time — the decisions are
        // the plan's, only their wall timestamps are ours.
        for a in &plan.admissions {
            let ctx = SpanCtx::new(a.request as u64, a.tenant as u32, a.shard as u32);
            trace::admission_instant(recorder, ctx, clock.now(), a.shed);
        }

        let shards = cluster.shards();
        let stats = Mutex::new(ThreadRunStats {
            workers_per_shard: self.workers_per_shard,
            pool_workers: self.decode_pool_workers,
            ..ThreadRunStats::default()
        });

        std::thread::scope(|outer| {
            let decode = &Pool::spawn_in(
                outer,
                self.decode_pool_workers,
                self.queue_capacity.max(self.decode_pool_workers),
            );
            let (plan, stats) = (&plan, &stats);
            std::thread::scope(|inner| {
                let pools: Vec<Pool<'_>> = shards
                    .iter()
                    .map(|_| Pool::spawn_in(inner, self.workers_per_shard, self.queue_capacity))
                    .collect();
                for batch in &plan.batches {
                    let shard = &shards[batch.shard];
                    let enqueued = clock.now();
                    // A full shard queue blocks here: bounded-queue
                    // backpressure at the dispatch seam.
                    pools[batch.shard].submit(move || {
                        execute_batch(batch, enqueued, shard, decode, clock, recorder, stats)
                    });
                }
            });
        });
        let mut stats = stats.into_inner().unwrap_or_else(PoisonError::into_inner);
        stats.wall_secs = clock.now();
        stats.wall_ttfts.sort_unstable_by_key(|(req, _)| *req);

        // Same registry taxonomy as the oracle, from the same publisher:
        // wall-clock values for the duration-valued keys, plus this
        // backend's own `cachegen.serving.threads.*` shape.
        trace::publish_run(recorder, &report, cluster.shards(), Some(&stats));
        // The streamer's counters were recorded live inside the planning
        // loop; everything else is recomputed by `publish_run`, so only
        // that namespace is copied over.
        if let Some(planner) = planner {
            let planned = planner.registry_snapshot();
            recorder.with_registry(|reg| {
                for (name, value) in planned.counters() {
                    if name.starts_with("cachegen.streamer.") {
                        reg.add(name, value);
                    }
                }
            });
        }

        (report, stats)
    }
}

/// Locks a mutex, treating a poisoning panic elsewhere as survivable —
/// accounting stays valid, and the panic itself still fails the run.
fn alock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Deterministic busy-work standing in for compute the simulation prices
/// but this host cannot run for real (GPU prefill, NIC transfer).
fn spin(units: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ units;
    for i in 0..units {
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(i);
        x ^= x >> 33;
    }
    std::hint::black_box(x)
}

/// Executes one planned batch on a shard worker thread. Decode jobs
/// outlive this call only in type — `run_batch` waits for them — so they
/// borrow the shard's engine for as long as the decode pool's scope.
fn execute_batch<'scope>(
    batch: &PlannedBatch,
    enqueued: f64,
    shard: &'scope Shard,
    decode: &Pool<'scope>,
    clock: WallClock,
    recorder: &Recorder,
    stats: &Mutex<ThreadRunStats>,
) {
    let dequeued = clock.now();
    match &batch.work {
        PlannedWork::Query {
            cache_hit,
            coalesced,
            quality,
            chunks,
            queries,
            rider,
            ..
        } => {
            // Fan the chunk loads out to the shared decode pool. Encoded
            // chunks run the real entropy decode of the stored
            // bitstream; text chunks emulate their recompute.
            let spans: Arc<Mutex<Vec<ChunkSpan>>> =
                Arc::new(Mutex::new(Vec::with_capacity(chunks.len())));
            let mut jobs = Vec::with_capacity(chunks.len());
            let (mut decoded, mut texts) = (0u64, 0u64);
            for (slot, c) in chunks.iter().enumerate() {
                let (stage, arg, work): (_, _, PoolJob<'scope, String>) = match *c {
                    PlannedChunk::Decode { chunk, level } => {
                        let Some(FetchedChunk::Encoded(bytes)) =
                            shard.engine.get_kv(batch.context_id, chunk, level)
                        else {
                            alock(stats).decode_errors.push(format!(
                                "context {} chunk {chunk} level {level} missing from store",
                                batch.context_id
                            ));
                            continue;
                        };
                        decoded += 1;
                        let (id, engine) = (batch.context_id, &shard.engine);
                        let tokens = shard.plan(id).chunk(chunk).tokens;
                        let work = move || match engine.decode_stored(&bytes, level, tokens) {
                            Ok(_) => Ok(()),
                            Err(e) => Err(format!("context {id} chunk {chunk} level {level}: {e}")),
                        };
                        (Stage::ChunkDecode, chunk as f64, Box::new(work))
                    }
                    PlannedChunk::Text { tokens } => {
                        texts += 1;
                        let work = move || {
                            spin(tokens as u64 * SPIN_PER_TOKEN);
                            Ok(())
                        };
                        (Stage::TextRecompute, tokens as f64, Box::new(work))
                    }
                };
                let spans = Arc::clone(&spans);
                jobs.push(move || -> Result<(), String> {
                    let start = clock.now();
                    work()?;
                    alock(&spans).push((slot, stage, start, clock.now(), arg));
                    Ok(())
                });
            }
            if let Err(e) = decode.run_batch(jobs, |shape| report_shape(shape, recorder)) {
                alock(stats).decode_errors.push(e.to_string());
            }
            let loaded = clock.now();

            // Chunk spans nest under the batch lead, exactly like the
            // oracle's streamer spans do.
            let lead = SpanCtx::new(
                queries[0].request as u64,
                queries[0].tenant as u32,
                batch.shard as u32,
            );
            let mut chunk_spans = std::mem::take(&mut *alock(&spans));
            chunk_spans.sort_unstable_by_key(|s| s.0);
            for (_, stage, start, end, arg) in chunk_spans {
                let key = if stage == Stage::ChunkDecode {
                    "chunk"
                } else {
                    "tokens"
                };
                recorder.record_span_for(stage, lead, start, end, vec![(key, arg)]);
            }

            // Per-query tiling: queue_wait + load + prefill under one
            // root, same shape the oracle emits.
            let mut ttfts = Vec::with_capacity(queries.len());
            for q in queries {
                spin(q.prompt_tokens as u64 * SPIN_PER_TOKEN);
                let times = QueryTimes {
                    arrival: enqueued,
                    dispatch: dequeued,
                    ready: loaded,
                    finish: clock.now(),
                };
                let ctx = SpanCtx::new(q.request as u64, q.tenant as u32, batch.shard as u32);
                trace::request_tree(
                    recorder,
                    ctx,
                    times,
                    *cache_hit,
                    *coalesced,
                    *quality,
                    q.prompt_tokens,
                );
                ttfts.push((q.request, times.finish - enqueued));
            }
            if let Some(r) = rider {
                run_refetch(r, batch.shard, clock, recorder);
            }
            let mut acc = alock(stats);
            acc.batches += 1;
            acc.decoded_chunks += decoded;
            acc.text_chunks += texts;
            acc.wall_ttfts.extend(ttfts);
            if rider.is_some() {
                acc.refetch_batches += 1;
            }
        }
        PlannedWork::Refetch(r) => {
            run_refetch(r, batch.shard, clock, recorder);
            alock(stats).refetch_batches += 1;
        }
    }
}

/// Emulates one loss-repair re-fetch and records its spans under the
/// synthetic trace id the oracle assigned.
fn run_refetch(r: &PlannedRefetch, shard: usize, clock: WallClock, recorder: &Recorder) {
    let start = clock.now();
    spin((r.bytes * SPIN_PER_REFETCH_BYTE).min(REFETCH_SPIN_CAP));
    let end = clock.now();
    let ctx = SpanCtx::new(r.trace_request, r.tenant as u32, shard as u32);
    trace::refetch_tree(recorder, ctx, start, end, r.bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServingConfig;
    use cachegen::engine::EngineConfig;
    use cachegen_llm::SimModelConfig;
    use cachegen_net::{BandwidthTrace, Link};
    use cachegen_workloads::{workload_rng, SharedPrefixGen};

    fn cluster() -> ServingCluster {
        let config = ServingConfig::default();
        let profile: Vec<Vec<usize>> = vec![(0..60).map(|i| (i * 7) % 64).collect()];
        let links = (0..config.num_shards)
            .map(|_| Link::new(BandwidthTrace::constant(5e6), 0.0))
            .collect();
        ServingCluster::build(
            SimModelConfig::tiny(42),
            EngineConfig::default(),
            config,
            &profile,
            links,
        )
    }

    fn workload(n: usize) -> cachegen_workloads::MultiTenantWorkload {
        SharedPrefixGen::new(64, 6, 90).generate(&mut workload_rng(3), 4, n, 25.0)
    }

    #[test]
    fn thread_backend_matches_oracle_outcomes() {
        let w = workload(40);
        let mut oracle = cluster();
        for (id, tokens) in &w.documents {
            oracle.store_context(*id, tokens);
        }
        let expected = oracle.run(&w.requests);

        let mut c = cluster();
        for (id, tokens) in &w.documents {
            c.store_context(*id, tokens);
        }
        let recorder = Recorder::new_wall();
        let (report, stats) = ThreadBackend::new(2).run_detailed(&mut c, &w.requests, &recorder);
        assert_eq!(report.outcomes, expected.outcomes);
        assert_eq!(report.makespan, expected.makespan);
        assert!(stats.decode_errors.is_empty(), "{:?}", stats.decode_errors);
        assert!(stats.wall_secs > 0.0);
        assert!(stats.decoded_chunks > 0, "misses must decode real chunks");
        assert_eq!(
            stats.wall_ttfts.len(),
            report.completed().count(),
            "every completed request gets a wall TTFT"
        );
    }

    #[test]
    fn thread_backend_trace_validates_with_one_root_per_request() {
        let w = workload(30);
        let mut c = cluster();
        for (id, tokens) in &w.documents {
            c.store_context(*id, tokens);
        }
        let recorder = Recorder::new_wall();
        let (report, _) = ThreadBackend::new(2).run_detailed(&mut c, &w.requests, &recorder);
        let trace = cachegen_telemetry::chrome_trace_json(&recorder.spans(), &recorder.instants());
        let summary = cachegen_telemetry::validate_chrome_trace(&trace)
            .unwrap_or_else(|e| panic!("thread-backend trace invalid: {e}"));
        assert_eq!(summary.requests, report.completed().count());
    }

    #[test]
    fn worker_count_does_not_change_outcomes() {
        let w = workload(30);
        let run = |workers: usize| {
            let mut c = cluster();
            for (id, tokens) in &w.documents {
                c.store_context(*id, tokens);
            }
            let recorder = Recorder::new();
            ThreadBackend::new(workers)
                .run_detailed(&mut c, &w.requests, &recorder)
                .0
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.outcomes, four.outcomes);
    }

    #[test]
    fn pool_shape_does_not_change_what_runs() {
        // Every way of owning the threads — down to one worker behind a
        // one-slot queue, where feeder and shard tasks block the most —
        // replays the same plan: same outcomes, same chunks decoded, no
        // decode lost to a full queue.
        let w = workload(30);
        let run = |workers_per_shard, decode_pool_workers, queue_capacity| {
            let mut c = cluster();
            for (id, tokens) in &w.documents {
                c.store_context(*id, tokens);
            }
            let backend = ThreadBackend {
                workers_per_shard,
                decode_pool_workers,
                queue_capacity,
            };
            backend.run_detailed(&mut c, &w.requests, &NOOP)
        };
        let (base, base_stats) = run(1, 1, 1);
        assert!(base_stats.decoded_chunks > 0);
        for workers in [1, 2, 4] {
            for decoders in [1, 2, 4] {
                for capacity in [1, 2] {
                    let shape = (workers, decoders, capacity);
                    let (report, stats) = run(workers, decoders, capacity);
                    assert_eq!(report.outcomes, base.outcomes, "{shape:?}");
                    assert_eq!(stats.decoded_chunks, base_stats.decoded_chunks, "{shape:?}");
                    assert_eq!(stats.decode_errors, Vec::<String>::new(), "{shape:?}");
                }
            }
        }
    }

    #[test]
    fn corrupted_stored_version_ends_the_run_with_a_named_decode_error() {
        use cachegen_kvstore::StoredChunk;
        let w = workload(30);
        let mut c = cluster();
        for (id, tokens) in &w.documents {
            c.store_context(*id, tokens);
        }
        // Truncate every stored version of every context the trace asks
        // for, whichever level the planner picks: the oracle never reads
        // the bytes, the execute phase must report each one it decodes.
        for shard in c.shards() {
            for &(id, _) in &w.documents {
                if !shard.owns(id) {
                    continue;
                }
                let (engine, plan) = (&shard.engine, shard.plan(id));
                let fetch = |f: Option<FetchedChunk>| match f {
                    Some(FetchedChunk::Encoded(b) | FetchedChunk::Text(b)) => b,
                    None => panic!("context {id} is stored"),
                };
                let chunks = (0..plan.num_chunks())
                    .map(|chunk| StoredChunk {
                        tokens: plan.chunk(chunk).tokens,
                        versions: (0..engine.num_levels())
                            .map(|l| {
                                let bytes = fetch(engine.get_kv(id, chunk, l));
                                bytes.slice(0..bytes.len() / 2)
                            })
                            .collect(),
                        text: fetch(engine.store().get_text(id, chunk)),
                    })
                    .collect();
                engine.store().store_kv(id, chunks);
            }
        }
        let (_, stats) = ThreadBackend::new(2).run_detailed(&mut c, &w.requests, &NOOP);
        assert!(stats.decoded_chunks > 0);
        assert!(!stats.decode_errors.is_empty(), "truncation must surface");
        for e in &stats.decode_errors {
            let named = ["context ", " chunk ", " level ", "malformed stored bytes"];
            assert!(named.iter().all(|part| e.contains(part)), "got: {e}");
        }
    }

    #[test]
    fn untraced_run_matches_a_recording_run() {
        // An untraced run plans untraced too (no scratch recorder); what it
        // plans and executes must not depend on that.
        let w = workload(40);
        let run = |recorder: &Recorder| {
            let mut c = cluster();
            for (id, tokens) in &w.documents {
                c.store_context(*id, tokens);
            }
            ThreadBackend::new(2).run_detailed(&mut c, &w.requests, recorder)
        };
        let (silent, silent_stats) = run(&NOOP);
        let recorder = Recorder::new_wall();
        let (traced, traced_stats) = run(&recorder);
        assert_eq!(silent.outcomes, traced.outcomes);
        assert_eq!(silent_stats.batches, traced_stats.batches);
        assert_eq!(silent_stats.decoded_chunks, traced_stats.decoded_chunks);
        assert!(recorder
            .registry_snapshot()
            .counter("cachegen.streamer.chunks")
            .is_some_and(|n| n > 0));
    }
}
