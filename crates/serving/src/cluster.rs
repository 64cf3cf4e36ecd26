//! The sharded serving cluster and its discrete-event loop.
//!
//! [`ServingCluster`] glues the pieces together: a consistent-hash ring
//! places contexts on shards; each shard owns an engine (with its slice of
//! the store), a local KV-bitstream cache, and a link; per-tenant bounded
//! queues apply backpressure; and the event loop replays a multi-tenant
//! arrival trace on one virtual clock, dispatching same-context batches
//! whenever a shard goes idle.

use cachegen::engine::{CacheGenEngine, EngineConfig};
use cachegen::RepairPolicy;
use cachegen_llm::SimModelConfig;
use cachegen_net::Link;
use cachegen_streamer::{AdaptPolicy, FecOverhead};
use cachegen_telemetry::{Recorder, SpanCtx, Stage, NOOP};
use cachegen_workloads::ServingRequest;

use crate::backend::{
    ExecutionBackend, ExecutionPlan, PlannedAdmission, PlannedBatch, PlannedChunk, PlannedQuery,
    PlannedRefetch, PlannedWork,
};
use crate::clock::EventQueue;
use crate::metrics::{Disposition, RequestOutcome, ServingReport};
use crate::queue::{Admission, EntryKind, QueuedRequest};
use crate::ring::HashRing;
use crate::shard::Shard;

/// Cluster-wide serving configuration.
#[derive(Clone, Debug)]
pub struct ServingConfig {
    /// Number of shards.
    pub num_shards: usize,
    /// Number of tenants sharing the cluster.
    pub num_tenants: usize,
    /// Virtual nodes per shard on the placement ring.
    pub virtual_nodes: usize,
    /// Queue depth at which admission degrades the encoding level.
    pub degrade_depth: usize,
    /// Queue depth at which admission sheds requests.
    pub shed_depth: usize,
    /// Maximum requests per coalesced batch.
    pub max_batch: usize,
    /// Per-shard local KV-bitstream cache capacity, bytes.
    pub cache_capacity_bytes: u64,
    /// SLO on per-request context-loading time, seconds.
    pub slo: Option<f64>,
    /// Streaming policy for normally-admitted requests.
    pub policy: AdaptPolicy,
    /// Level forced on degraded requests (`None` = coarsest).
    pub degraded_level: Option<usize>,
    /// Prior throughput knowledge for each stream's first chunk, bits/s.
    pub prior_throughput_bps: Option<f64>,
    /// GPU decode throughput for compressed bitstreams, bytes/s.
    pub decode_bytes_per_sec: f64,
    /// GPU prefill-recompute speed, seconds per token (text fallback and
    /// the query suffix's own prefill).
    pub recompute_sec_per_token: f64,
    /// Quality proxy per encoding level, finest first (text counts as 1).
    pub level_quality: Vec<f64>,
    /// How holes left by a lossy store link are repaired. Under
    /// [`RepairPolicy::Refetch`] the cluster enqueues a re-fetch that
    /// competes under the same admission watermarks as first fetches.
    pub repair: RepairPolicy,
    /// Packet retransmissions allowed per batch fetch before the repair
    /// policy takes over (per-packet-fault links only).
    pub retransmit_budget: usize,
    /// Default forward-error-correction parity density on store→shard
    /// links: XOR parity recovers single-loss groups before the
    /// retransmit budget or the repair/refetch ladder is consulted, so a
    /// lossy link stops flooding the shard queues with re-fetch entries.
    pub fec_overhead: FecOverhead,
    /// Per-tenant FEC overrides (`tenant_fec[t] = Some(knob)`), letting
    /// tenants buy more (or less) parity than the cluster default. The
    /// lead tenant of a batch decides the batch's parity.
    pub tenant_fec: Vec<Option<FecOverhead>>,
    /// Parity used for batches admitted *degraded*: under backpressure
    /// admission can shrink parity (e.g. [`FecOverhead::Off`]) instead of
    /// only coarsening the quantization level. `None` keeps the tenant's
    /// normal knob.
    pub degraded_fec: Option<FecOverhead>,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            num_shards: 2,
            num_tenants: 4,
            virtual_nodes: 16,
            degrade_depth: 6,
            shed_depth: 16,
            max_batch: 8,
            cache_capacity_bytes: 256 * 1024,
            slo: None,
            policy: AdaptPolicy::Adaptive,
            degraded_level: None,
            prior_throughput_bps: None,
            decode_bytes_per_sec: 8.0e9,
            recompute_sec_per_token: 1e-3,
            // Matches the default 5-level ladder; coarser bins lose more.
            level_quality: vec![0.995, 0.98, 0.95, 0.91, 0.86],
            repair: RepairPolicy::AnchorInterpolate,
            retransmit_budget: 1,
            fec_overhead: FecOverhead::Off,
            tenant_fec: Vec::new(),
            degraded_fec: None,
        }
    }
}

impl ServingConfig {
    /// Quality proxy of one encoding level (clamped to the table).
    pub fn quality_of_level(&self, level: usize) -> f64 {
        self.level_quality[level.min(self.level_quality.len() - 1)]
    }

    /// The FEC parity knob a batch runs with: the degraded override when
    /// admission degraded the batch (parity is a backpressure dial too),
    /// else the lead tenant's override, else the cluster default.
    pub fn fec_for(&self, tenant: usize, degraded: bool) -> &FecOverhead {
        if degraded {
            if let Some(f) = &self.degraded_fec {
                return f;
            }
        }
        self.tenant_fec
            .get(tenant)
            .and_then(Option::as_ref)
            .unwrap_or(&self.fec_overhead)
    }

    fn validate(&self) {
        assert!(self.num_shards >= 1, "need at least one shard");
        assert!(self.num_tenants >= 1, "need at least one tenant");
        assert!(self.max_batch >= 1, "need at least one request per batch");
        assert!(
            self.degrade_depth >= 1 && self.degrade_depth <= self.shed_depth,
            "watermarks must satisfy 1 <= degrade <= shed"
        );
        assert!(!self.level_quality.is_empty(), "need level qualities");
        assert!(self.decode_bytes_per_sec > 0.0);
        assert!(self.recompute_sec_per_token >= 0.0);
    }
}

/// Internal event type of the serving loop.
enum Event {
    /// Request `index` of the trace arrives.
    Arrival(usize),
    /// Shard `shard` finished its in-flight batch.
    BatchDone { shard: usize },
}

/// A sharded multi-tenant serving cluster.
pub struct ServingCluster {
    config: ServingConfig,
    ring: HashRing,
    shards: Vec<Shard>,
}

impl ServingCluster {
    /// Builds the cluster: one engine per shard (each profiles its codecs
    /// from `profile_contexts`) plus one store→shard link each. `links`
    /// must have exactly `num_shards` entries.
    pub fn build(
        model_cfg: SimModelConfig,
        engine_cfg: EngineConfig,
        config: ServingConfig,
        profile_contexts: &[Vec<usize>],
        links: Vec<Link>,
    ) -> Self {
        config.validate();
        assert_eq!(
            links.len(),
            config.num_shards,
            "need one link per shard ({} links for {} shards)",
            links.len(),
            config.num_shards
        );
        assert!(
            config.level_quality.len() >= engine_cfg.ladder.len(),
            "level_quality must cover the ladder"
        );
        let ring = HashRing::new(config.num_shards, config.virtual_nodes);
        let shards = links
            .into_iter()
            .enumerate()
            .map(|(id, link)| {
                let engine =
                    CacheGenEngine::build(model_cfg.clone(), engine_cfg.clone(), profile_contexts);
                Shard::new(id, engine, link, &config)
            })
            .collect();
        ServingCluster {
            config,
            ring,
            shards,
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ServingConfig {
        &self.config
    }

    /// The shard a context lives on.
    pub fn shard_of(&self, context_id: u64) -> usize {
        self.ring.route(context_id)
    }

    /// Shard state (for inspection in tests and reports).
    pub fn shard(&self, id: usize) -> &Shard {
        &self.shards[id]
    }

    /// All shards, in id order (execution backends walk these to reach
    /// each shard's engine and link).
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Runs a trace through an [`ExecutionBackend`] — the seam both the
    /// virtual-clock oracle and the OS-thread engine plug into.
    pub fn run_on(
        &mut self,
        backend: &mut dyn ExecutionBackend,
        requests: &[ServingRequest],
        recorder: &Recorder,
    ) -> ServingReport {
        backend.run(self, requests, recorder)
    }

    /// Runs the virtual loop while capturing the full [`ExecutionPlan`] —
    /// what a real backend replays. The report is the oracle's,
    /// byte-identical to [`run`](Self::run), and `recorder` sees exactly
    /// what [`run_traced`](Self::run_traced) would record (pass
    /// [`NOOP`] for an untraced planning pass; a real backend passes a
    /// scratch recorder to salvage the loop's live counters, e.g.
    /// `cachegen.streamer.*`).
    pub fn plan_run(
        &mut self,
        requests: &[ServingRequest],
        recorder: &Recorder,
    ) -> (ServingReport, ExecutionPlan) {
        let mut plan = ExecutionPlan::default();
        let report = self.run_plan(requests, recorder, Some(&mut plan));
        (report, plan)
    }

    /// Stores a context on its owning shard (offline ingest path).
    /// Returns the shard index.
    pub fn store_context(&mut self, context_id: u64, tokens: &[usize]) -> usize {
        let shard = self.ring.route(context_id);
        self.shards[shard].store_context(context_id, tokens);
        shard
    }

    /// Replays a multi-tenant arrival trace on the virtual clock and
    /// returns the full report. Requests must reference stored contexts
    /// and be sorted by arrival time.
    ///
    /// Each call reports that run alone: queues and per-shard accounting
    /// (including the cache counters) reset at entry. The local caches'
    /// *contents* deliberately stay warm across runs, so a warm-up trace
    /// followed by a measured trace behaves like a long-lived deployment.
    pub fn run(&mut self, requests: &[ServingRequest]) -> ServingReport {
        self.run_traced(requests, &NOOP)
    }

    /// [`run`](Self::run) with request-lifecycle tracing: every event pop
    /// advances the recorder's virtual clock, admission degrade/shed
    /// decisions land as instants, and each completed request gets a span
    /// tree that tiles its TTFT exactly — a `request` root over
    /// `queue_wait` (arrival → dispatch), `store_fetch` or `cache_decode`
    /// (dispatch → KV ready, with the streamer's per-chunk wire/decode
    /// spans nested under the batch lead), and `prefill` (ready → first
    /// token). Loss-repair re-fetch batches trace under synthetic request
    /// ids past the trace length. Link-level packet counters drain into
    /// the `cachegen.net.*` namespace and the report publishes itself
    /// under `cachegen.serving.*`. Passing [`NOOP`] makes this identical
    /// to `run` (the recorder is a no-op, not a different code path).
    pub fn run_traced(
        &mut self,
        requests: &[ServingRequest],
        recorder: &Recorder,
    ) -> ServingReport {
        self.run_plan(requests, recorder, None)
    }

    /// The discrete-event loop behind [`run_traced`](Self::run_traced),
    /// optionally capturing every decision it makes into an
    /// [`ExecutionPlan`]. With `plan = None` this *is* `run_traced` —
    /// capture only appends to side vectors, so the event sequence,
    /// recorder output, and report stay byte-identical either way (the
    /// golden digests in `tests/backend_equivalence.rs` pin that).
    fn run_plan(
        &mut self,
        requests: &[ServingRequest],
        recorder: &Recorder,
        mut plan: Option<&mut ExecutionPlan>,
    ) -> ServingReport {
        assert!(
            requests.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "requests must be sorted by arrival"
        );
        let cache_start: Vec<_> = self
            .shards
            .iter_mut()
            .map(|shard| {
                shard.stats = crate::metrics::ShardSummary::default();
                shard.queues = crate::queue::TenantQueues::new(
                    self.config.num_tenants,
                    self.config.degrade_depth,
                    self.config.shed_depth,
                );
                shard.busy = false;
                shard.link.reset_stats();
                shard.cache.stats()
            })
            .collect();
        let mut events: EventQueue<Event> = EventQueue::new();
        for (i, r) in requests.iter().enumerate() {
            assert!(r.tenant < self.config.num_tenants, "tenant out of range");
            assert!(
                self.shards[self.ring.route(r.context_id)].owns(r.context_id),
                "request references unstored context {}",
                r.context_id
            );
            events.push(r.arrival, Event::Arrival(i));
        }
        let mut outcomes: Vec<Option<RequestOutcome>> = vec![None; requests.len()];
        // Re-fetch batches are not trace entries; their spans trace under
        // synthetic request ids starting past the trace length.
        let mut synthetic_id = requests.len() as u64;

        while let Some((now, event)) = events.pop() {
            recorder.set_time(now);
            match event {
                Event::Arrival(i) => {
                    let req = &requests[i];
                    let shard_id = self.ring.route(req.context_id);
                    let shard = &mut self.shards[shard_id];
                    let decision = shard.queues.push(QueuedRequest {
                        index: i,
                        tenant: req.tenant,
                        context_id: req.context_id,
                        arrival: req.arrival,
                        prompt_tokens: req.prompt.len(),
                        degraded: false,
                        kind: EntryKind::Query,
                    });
                    let ctx = SpanCtx::new(i as u64, req.tenant as u32, shard_id as u32);
                    match decision {
                        Admission::Shed => {
                            shard.stats.shed += 1;
                            if let Some(p) = plan.as_deref_mut() {
                                p.admissions.push(PlannedAdmission {
                                    request: i,
                                    tenant: req.tenant,
                                    shard: shard_id,
                                    shed: true,
                                });
                            }
                            recorder.instant_for(Stage::Admission, ctx, now, vec![("shed", 1.0)]);
                            outcomes[i] = Some(RequestOutcome {
                                tenant: req.tenant,
                                context_id: req.context_id,
                                shard: shard_id,
                                arrival: req.arrival,
                                disposition: Disposition::Shed,
                            });
                            continue;
                        }
                        Admission::Degraded => {
                            shard.stats.degraded_admissions += 1;
                            if let Some(p) = plan.as_deref_mut() {
                                p.admissions.push(PlannedAdmission {
                                    request: i,
                                    tenant: req.tenant,
                                    shard: shard_id,
                                    shed: false,
                                });
                            }
                            recorder.instant_for(
                                Stage::Admission,
                                ctx,
                                now,
                                vec![("degraded", 1.0)],
                            );
                        }
                        Admission::Normal => {}
                    }
                    if !self.shards[shard_id].busy {
                        self.dispatch(
                            shard_id,
                            now,
                            &mut outcomes,
                            &mut events,
                            recorder,
                            &mut synthetic_id,
                            plan.as_deref_mut(),
                        );
                    }
                }
                Event::BatchDone { shard } => {
                    self.shards[shard].busy = false;
                    if !self.shards[shard].queues.is_empty() {
                        self.dispatch(
                            shard,
                            now,
                            &mut outcomes,
                            &mut events,
                            recorder,
                            &mut synthetic_id,
                            plan.as_deref_mut(),
                        );
                    }
                }
            }
        }
        // Last completion time, prompt prefill included (a run of pure
        // sheds has no completions and a zero makespan).
        let makespan = outcomes
            .iter()
            .flatten()
            .filter_map(|o| o.ttft().map(|t| o.arrival + t))
            .fold(0.0f64, f64::max);

        for (shard, start) in self.shards.iter_mut().zip(&cache_start) {
            shard.stats.cache = shard.cache.stats().since(start);
            shard.stats.peak_queue_depth = shard.queues.peak_depth();
        }
        let report = ServingReport {
            outcomes: outcomes
                .into_iter()
                // analyze: allow(no-lib-unwrap, "the event loop runs to quiescence, so every admitted request's slot is filled; an empty slot is a scheduler bug worth a loud stop")
                .map(|o| o.expect("every request resolved"))
                .collect(),
            shards: self.shards.iter().map(|s| s.stats).collect(),
            makespan,
        };
        recorder.with_registry(|reg| {
            report.fill_registry(reg);
            for shard in &self.shards {
                let s = shard.link.stats();
                reg.add("cachegen.net.transfers", s.transfers);
                reg.add("cachegen.net.packet_batches", s.packet_batches);
                reg.add("cachegen.net.wire_bytes", s.wire_bytes);
                reg.add("cachegen.net.delivered_bytes", s.delivered_bytes);
                reg.add("cachegen.net.packets_sent", s.packets_sent);
                reg.add("cachegen.net.packets_dropped", s.packets_dropped);
                reg.add("cachegen.net.packets_truncated", s.packets_truncated);
            }
        });
        report
    }

    /// Pops the next batch off a shard's queues and serves it, recording
    /// outcomes and scheduling the completion event. A batch headed by a
    /// re-fetch entry pulls the missing bytes instead of running a full
    /// fetch; a query batch satisfies any re-fetch riders for free (the
    /// fresh transfer re-delivers the context).
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &mut self,
        shard_id: usize,
        now: f64,
        outcomes: &mut [Option<RequestOutcome>],
        events: &mut EventQueue<Event>,
        recorder: &Recorder,
        synthetic_id: &mut u64,
        plan: Option<&mut ExecutionPlan>,
    ) {
        let shard = &mut self.shards[shard_id];
        let batch = shard.queues.pop_batch(self.config.max_batch);
        if batch.is_empty() {
            return;
        }
        let context_id = batch[0].context_id;
        let queries: Vec<&QueuedRequest> = batch
            .iter()
            .filter(|q| q.kind == EntryKind::Query)
            .collect();

        if queries.is_empty() {
            // Pure re-fetch batch: fill the holes a lossy transfer left.
            let (bytes, restore) = batch
                .iter()
                .map(|q| match q.kind {
                    EntryKind::Refetch {
                        bytes,
                        restore_quality,
                    } => (bytes, restore_quality),
                    EntryKind::Query => unreachable!("filtered above"),
                })
                .fold((0u64, 0.0f64), |(b, q), (nb, nq)| (b + nb, q.max(nq)));
            let ready = shard.serve_refetch(context_id, bytes, restore, now);
            shard.stats.refetches += 1;
            shard.stats.busy_secs += ready - now;
            shard.busy = true;
            let ctx = SpanCtx::new(*synthetic_id, batch[0].tenant as u32, shard_id as u32);
            *synthetic_id += 1;
            if let Some(p) = plan {
                p.batches.push(PlannedBatch {
                    shard: shard_id,
                    context_id,
                    work: PlannedWork::Refetch(PlannedRefetch {
                        trace_request: ctx.request,
                        tenant: batch[0].tenant,
                        bytes,
                    }),
                });
            }
            recorder.record_span_for(Stage::Request, ctx, now, ready, vec![("refetch", 1.0)]);
            recorder.record_span_for(
                Stage::Refetch,
                ctx,
                now,
                ready,
                vec![("bytes", bytes as f64)],
            );
            events.push(ready, Event::BatchDone { shard: shard_id });
            return;
        }

        // A batch degrades if any member crossed the watermark: under
        // saturation the whole transfer downshifts (the riders share it).
        let degraded = queries.iter().any(|r| r.degraded);
        let fec = self.config.fec_for(queries[0].tenant, degraded);
        // The streamer's per-chunk wire/decode spans nest under the batch
        // lead's request (the riders share the transfer; their own trees
        // still tile their full TTFT below).
        recorder.set_ctx(SpanCtx::new(
            queries[0].index as u64,
            queries[0].tenant as u32,
            shard_id as u32,
        ));
        let planning = plan.is_some();
        let mut chunk_work: Vec<PlannedChunk> = Vec::new();
        let outcome = shard.serve_batch_planned(
            context_id,
            degraded,
            now,
            &self.config,
            fec,
            recorder,
            planning.then_some(&mut chunk_work),
        );
        shard.stats.batches += 1;
        shard.stats.coalesced_requests += (batch.len() - 1) as u64;

        // Re-fetch riders: a *miss* re-fetched the whole context, which
        // satisfies them for free — but a cache *hit* served the resident
        // (repaired) bitstream without touching the link, so the rider's
        // missing bytes must still be pulled before the shard goes idle.
        let mut ready = outcome.ready;
        let (rider_bytes, rider_restore) = batch
            .iter()
            .filter_map(|q| match q.kind {
                EntryKind::Refetch {
                    bytes,
                    restore_quality,
                } => Some((bytes, restore_quality)),
                EntryKind::Query => None,
            })
            .fold((0u64, 0.0f64), |(b, q), (nb, nq)| (b + nb, q.max(nq)));
        let mut planned_rider = None;
        if rider_bytes > 0 && outcome.cache_hit {
            ready = shard.serve_refetch(context_id, rider_bytes, rider_restore, ready);
            shard.stats.refetches += 1;
            // The rider's pull runs past the queries' first tokens, so it
            // traces as its own synthetic request, not under a query root.
            let ctx = SpanCtx::new(*synthetic_id, queries[0].tenant as u32, shard_id as u32);
            *synthetic_id += 1;
            planned_rider = Some(PlannedRefetch {
                trace_request: ctx.request,
                tenant: queries[0].tenant,
                bytes: rider_bytes,
            });
            recorder.record_span_for(
                Stage::Request,
                ctx,
                outcome.ready,
                ready,
                vec![("refetch", 1.0)],
            );
            recorder.record_span_for(
                Stage::Refetch,
                ctx,
                outcome.ready,
                ready,
                vec![("bytes", rider_bytes as f64)],
            );
        }
        shard.stats.busy_secs += ready - now;
        shard.busy = true;
        events.push(ready, Event::BatchDone { shard: shard_id });

        // Wire the repair loop: bytes the lossy link never delivered are
        // re-requested through the *same* admission path as first fetches
        // — under overload the re-fetch is degraded or shed like any
        // arrival, and the context simply stays at its repaired quality.
        if outcome.lost_bytes > 0 && self.config.repair == RepairPolicy::Refetch {
            let decision = shard.queues.push(QueuedRequest {
                index: usize::MAX,
                tenant: queries[0].tenant,
                context_id,
                arrival: outcome.ready,
                prompt_tokens: 0,
                degraded: false,
                kind: EntryKind::Refetch {
                    bytes: outcome.lost_bytes,
                    restore_quality: outcome.restore_quality,
                },
            });
            recorder.instant(
                Stage::RepairLadder,
                outcome.ready,
                vec![
                    ("lost_bytes", outcome.lost_bytes as f64),
                    ("shed", f64::from(u8::from(decision == Admission::Shed))),
                ],
            );
            if decision == Admission::Shed {
                shard.stats.refetch_shed += 1;
            }
        }

        let coalesced = batch.len() > 1;
        if let Some(p) = plan {
            p.batches.push(PlannedBatch {
                shard: shard_id,
                context_id,
                work: PlannedWork::Query {
                    cache_hit: outcome.cache_hit,
                    degraded,
                    coalesced,
                    quality: outcome.quality,
                    chunks: chunk_work,
                    queries: queries
                        .iter()
                        .map(|q| PlannedQuery {
                            request: q.index,
                            tenant: q.tenant,
                            prompt_tokens: q.prompt_tokens,
                        })
                        .collect(),
                    rider: planned_rider,
                },
            });
        }
        let load_stage = if outcome.cache_hit {
            Stage::CacheDecode
        } else {
            Stage::StoreFetch
        };
        for q in &queries {
            let prefill = q.prompt_tokens as f64 * self.config.recompute_sec_per_token;
            let finish = outcome.ready + prefill;
            // The request's span tree tiles its TTFT exactly:
            // [arrival, now] queued + [now, ready] loading + [ready,
            // finish] prefilling, under one root per request.
            let ctx = SpanCtx::new(q.index as u64, q.tenant as u32, shard_id as u32);
            recorder.record_span_for(
                Stage::Request,
                ctx,
                q.arrival,
                finish,
                vec![("ttft", finish - q.arrival), ("quality", outcome.quality)],
            );
            recorder.record_span_for(Stage::QueueWait, ctx, q.arrival, now, Vec::new());
            recorder.record_span_for(
                load_stage,
                ctx,
                now,
                outcome.ready,
                vec![("coalesced", f64::from(u8::from(coalesced)))],
            );
            recorder.record_span_for(
                Stage::Prefill,
                ctx,
                outcome.ready,
                finish,
                vec![("tokens", q.prompt_tokens as f64)],
            );
            outcomes[q.index] = Some(RequestOutcome {
                tenant: q.tenant,
                context_id,
                shard: shard_id,
                arrival: q.arrival,
                disposition: Disposition::Completed {
                    ttft: finish - q.arrival,
                    quality: outcome.quality,
                    degraded,
                    coalesced,
                },
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachegen_net::BandwidthTrace;
    use cachegen_workloads::{workload_rng, SharedPrefixGen};

    fn tiny_cluster(config: ServingConfig, bandwidth_bps: f64) -> ServingCluster {
        let profile: Vec<Vec<usize>> = vec![(0..60).map(|i| (i * 7) % 64).collect()];
        let links = (0..config.num_shards)
            .map(|_| Link::new(BandwidthTrace::constant(bandwidth_bps), 0.0))
            .collect();
        ServingCluster::build(
            SimModelConfig::tiny(42),
            EngineConfig::default(),
            config,
            &profile,
            links,
        )
    }

    fn store_and_run(
        cluster: &mut ServingCluster,
        seed: u64,
        n_requests: usize,
        rate_hz: f64,
    ) -> ServingReport {
        let gen = SharedPrefixGen::new(64, 6, 90);
        let workload = gen.generate(
            &mut workload_rng(seed),
            cluster.config().num_tenants,
            n_requests,
            rate_hz,
        );
        for (id, tokens) in &workload.documents {
            cluster.store_context(*id, tokens);
        }
        cluster.run(&workload.requests)
    }

    #[test]
    fn run_resolves_every_request() {
        let mut c = tiny_cluster(ServingConfig::default(), 5e6);
        let report = store_and_run(&mut c, 1, 60, 20.0);
        assert_eq!(report.outcomes.len(), 60);
        assert!(report.completed().count() + report.shed_count() == 60);
        assert!(report.makespan > 0.0);
        for o in report.completed() {
            assert!(o.ttft().unwrap() > 0.0);
        }
    }

    #[test]
    fn same_seed_same_report() {
        let run = || {
            let mut c = tiny_cluster(ServingConfig::default(), 5e6);
            store_and_run(&mut c, 7, 80, 30.0)
        };
        let a = run();
        let b = run();
        assert_eq!(a.outcomes, b.outcomes, "virtual-time replay must be exact");
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn contexts_route_to_owning_shards() {
        let mut c = tiny_cluster(ServingConfig::default(), 5e6);
        let report = store_and_run(&mut c, 3, 40, 10.0);
        for o in &report.outcomes {
            assert_eq!(o.shard, c.shard_of(o.context_id));
        }
        // With 6 documents and 2 shards, both shards should see traffic.
        let shards_used: std::collections::BTreeSet<usize> =
            report.outcomes.iter().map(|o| o.shard).collect();
        assert!(shards_used.len() >= 2, "placement collapsed to one shard");
    }

    #[test]
    fn hot_documents_hit_the_cache() {
        let mut c = tiny_cluster(ServingConfig::default(), 5e6);
        let report = store_and_run(&mut c, 5, 120, 10.0);
        let hits: u64 = report.shards.iter().map(|s| s.cache.hits).sum();
        assert!(hits > 20, "Zipf reuse should hit the local cache: {hits}");
    }

    #[test]
    fn second_run_reports_only_its_own_activity() {
        let mut c = tiny_cluster(ServingConfig::default(), 5e6);
        let first = store_and_run(&mut c, 1, 60, 20.0);
        let second = store_and_run(&mut c, 1, 60, 20.0);
        for (i, s) in second.shards.iter().enumerate() {
            // One cache lookup per batch: cumulative counters would break
            // this equality on the second run.
            assert_eq!(
                s.cache.hits + s.cache.misses,
                s.batches,
                "shard {i} cache stats leaked across runs"
            );
            assert!(
                s.utilization(second.makespan) <= 1.0 + 1e-9,
                "shard {i} utilization {} exceeds 100%",
                s.utilization(second.makespan)
            );
        }
        // The warm cache carries over by design: the replay misses less.
        let misses = |r: &ServingReport| r.shards.iter().map(|s| s.cache.misses).sum::<u64>();
        assert!(misses(&second) < misses(&first));
    }

    #[test]
    fn lossy_links_trigger_refetches_that_restore_cached_quality() {
        use cachegen_net::PacketFaults;
        let config = ServingConfig {
            repair: RepairPolicy::Refetch,
            retransmit_budget: 0,
            ..ServingConfig::default()
        };
        let build = || {
            let profile: Vec<Vec<usize>> = vec![(0..60).map(|i| (i * 7) % 64).collect()];
            let links = (0..config.num_shards)
                .map(|s| {
                    Link::new(BandwidthTrace::constant(5e6), 0.0)
                        .with_packet_faults(PacketFaults::loss(0.25), 100 + s as u64)
                })
                .collect();
            ServingCluster::build(
                SimModelConfig::tiny(42),
                EngineConfig::default(),
                config.clone(),
                &profile,
                links,
            )
        };
        let mut c = build();
        let report = store_and_run(&mut c, 11, 80, 10.0);
        let lost: u64 = report.shards.iter().map(|s| s.lost_bytes).sum();
        let refetched: u64 = report.shards.iter().map(|s| s.refetched_bytes).sum();
        let refetches: u64 = report.shards.iter().map(|s| s.refetches).sum();
        assert!(lost > 0, "25% packet loss must lose bytes");
        assert!(
            refetches > 0 && refetched > 0,
            "refetch policy must pull the holes back: {refetches} batches, {refetched} bytes"
        );
        // Damaged first fetches are quality-penalized (below the whole
        // level-quality table) until their re-fetch lands.
        let min_q = report
            .completed()
            .filter_map(|o| match o.disposition {
                Disposition::Completed { quality, .. } => Some(quality),
                _ => None,
            })
            .fold(f64::INFINITY, f64::min);
        assert!(
            min_q < 0.86,
            "some request must observe repaired (penalized) quality, min {min_q}"
        );
        // Deterministic replay, loss and all.
        let mut c2 = build();
        let again = store_and_run(&mut c2, 11, 80, 10.0);
        assert_eq!(report.outcomes, again.outcomes);

        // A warm re-run hits the cache; the refetch restored the cached
        // entries, so hit quality is back at the full level table.
        let warm = store_and_run(&mut c, 11, 80, 10.0);
        let warm_min = warm
            .completed()
            .filter_map(|o| match o.disposition {
                Disposition::Completed { quality, .. } => Some(quality),
                _ => None,
            })
            .fold(f64::INFINITY, f64::min);
        assert!(
            warm_min >= min_q,
            "restored caches must not serve worse than the damaged run: {warm_min} vs {min_q}"
        );
    }

    #[test]
    fn refetch_rider_on_cache_hit_still_pulls_the_missing_bytes() {
        use cachegen_net::PacketFaults;
        use cachegen_workloads::ServingRequest;
        // One shard, lossy link, Refetch policy. The first request misses
        // and loses bytes (queuing a re-fetch); two more same-context
        // requests arrive while the shard is busy, so the re-fetch rides
        // a query-headed batch that *hits* the cache — the rider must
        // still be served, not silently dropped.
        let config = ServingConfig {
            num_shards: 1,
            num_tenants: 1,
            repair: RepairPolicy::Refetch,
            retransmit_budget: 0,
            ..ServingConfig::default()
        };
        let profile: Vec<Vec<usize>> = vec![(0..60).map(|i| (i * 7) % 64).collect()];
        let links = vec![Link::new(BandwidthTrace::constant(5e6), 0.0)
            .with_packet_faults(PacketFaults::loss(0.3), 5)];
        let mut c = ServingCluster::build(
            SimModelConfig::tiny(42),
            EngineConfig::default(),
            config,
            &profile,
            links,
        );
        let ctx: Vec<usize> = (0..90).map(|i| (i * 3) % 64).collect();
        c.store_context(0, &ctx);
        let req = |arrival: f64| ServingRequest {
            arrival,
            tenant: 0,
            context_id: 0,
            prompt: vec![1, 2, 3, 4],
        };
        let report = c.run(&[req(0.0), req(0.001), req(0.002)]);
        let s = &report.shards[0];
        assert!(s.lost_bytes > 0, "30% loss must lose bytes (seeded)");
        assert!(
            s.refetches >= 1 && s.refetched_bytes >= s.lost_bytes,
            "the re-fetch rider must be served, not dropped: {} refetches, {} bytes",
            s.refetches,
            s.refetched_bytes
        );
        // Later requests coalesced onto cache hits; their recorded quality
        // is the repaired one, but the cached entry is restored for the
        // future (a warm re-run serves full level quality).
        let warm = c.run(&[req(0.0)]);
        let Disposition::Completed { quality, .. } = warm.outcomes[0].disposition else {
            panic!("warm hit must complete");
        };
        assert!(
            quality > 0.9,
            "restored cache must serve undamaged quality, got {quality}"
        );
    }

    #[test]
    fn fec_for_resolves_degraded_then_tenant_then_default() {
        let cfg = ServingConfig {
            fec_overhead: FecOverhead::Rs { k: 8, r: 1 },
            tenant_fec: vec![None, Some(FecOverhead::Rs { k: 4, r: 1 }), None],
            degraded_fec: Some(FecOverhead::Off),
            ..ServingConfig::default()
        };
        // Normal admission: tenant override wins, else the cluster default.
        assert_eq!(cfg.fec_for(0, false), &FecOverhead::Rs { k: 8, r: 1 });
        assert_eq!(cfg.fec_for(1, false), &FecOverhead::Rs { k: 4, r: 1 });
        assert_eq!(
            cfg.fec_for(3, false),
            &FecOverhead::Rs { k: 8, r: 1 },
            "past the table"
        );
        // Degraded admission: parity shrinks regardless of tenant knob.
        assert_eq!(cfg.fec_for(0, true), &FecOverhead::Off);
        assert_eq!(cfg.fec_for(1, true), &FecOverhead::Off);
        // Without a degraded override, degraded batches keep their knob.
        let keep = ServingConfig {
            tenant_fec: vec![Some(FecOverhead::Rs { k: 4, r: 1 })],
            ..ServingConfig::default()
        };
        assert_eq!(keep.fec_for(0, true), &FecOverhead::Rs { k: 4, r: 1 });
    }

    #[test]
    fn fec_for_carries_rs_and_adaptive_knobs() {
        // Multi-erasure knobs flow through the same resolution chain as the
        // XOR ones: a tenant can pin RS(k, r) parity while the cluster
        // default adapts to the measured loss rate, and degraded admission
        // shrinks parity depth (r = 2 → 1) instead of dropping FEC outright.
        let cfg = ServingConfig {
            fec_overhead: FecOverhead::adaptive_default(),
            tenant_fec: vec![Some(FecOverhead::Rs { k: 10, r: 2 })],
            degraded_fec: Some(FecOverhead::Rs { k: 10, r: 1 }),
            ..ServingConfig::default()
        };
        assert_eq!(
            cfg.fec_for(0, false),
            &FecOverhead::Rs { k: 10, r: 2 },
            "tenant pins full double-parity RS"
        );
        assert_eq!(
            cfg.fec_for(1, false),
            &FecOverhead::adaptive_default(),
            "cluster default adapts (k, r) to the loss estimate"
        );
        // Degraded admission keeps the erasure code but sheds one repair
        // symbol per group — cheaper than r = 2, stronger than Off.
        assert_eq!(cfg.fec_for(0, true), &FecOverhead::Rs { k: 10, r: 1 });
        let (k, r) = cfg
            .fec_for(0, true)
            .params_for(0, None)
            .expect("degraded RS knob still groups");
        assert_eq!((k, r), (10, 1));
    }

    #[test]
    fn overload_coalesces_batches() {
        // Fire fast on a slow link: queues build while a batch is in
        // flight, and same-context arrivals ride together.
        let mut c = tiny_cluster(
            ServingConfig {
                shed_depth: 64,
                degrade_depth: 64,
                ..ServingConfig::default()
            },
            2e5,
        );
        let report = store_and_run(&mut c, 9, 100, 200.0);
        assert!(
            report.coalesced_count() > 10,
            "coalesced {} of 100",
            report.coalesced_count()
        );
        let batches: u64 = report.shards.iter().map(|s| s.batches).sum();
        assert!(
            batches < report.completed().count() as u64,
            "batching must fetch less often than once per request"
        );
    }
}
