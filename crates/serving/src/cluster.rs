//! The sharded serving cluster and its discrete-event loop.
//!
//! [`ServingCluster`] glues the pieces together: a consistent-hash ring
//! places contexts on shards; each shard owns an engine (with its slice of
//! the store), a local KV-bitstream cache, and a link; per-tenant bounded
//! queues apply backpressure; and the event loop replays a multi-tenant
//! arrival trace on one virtual clock, dispatching same-context batches
//! whenever a shard goes idle. The loop is both the oracle and the
//! planner: every run returns its report *and* the [`ExecutionPlan`] of
//! the decisions behind it.

use cachegen::engine::{CacheGenEngine, EngineConfig};
use cachegen::RepairPolicy;
use cachegen_llm::SimModelConfig;
use cachegen_net::Link;
use cachegen_telemetry::{Recorder, SpanCtx, Stage, NOOP};
use cachegen_workloads::ServingRequest;

use crate::clock::EventQueue;
use crate::config::{ServingConfig, LEVEL_QUALITY};
use crate::metrics::{Disposition, RequestOutcome, ServingReport, ShardSummary};
use crate::plan::{
    ExecutionPlan, PlannedAdmission, PlannedBatch, PlannedQuery, PlannedRefetch, PlannedWork,
};
use crate::queue::{Admission, EntryKind, QueuedRequest, TenantQueues};
use crate::ring::HashRing;
use crate::shard::Shard;
use crate::trace::{self, QueryTimes};

/// Virtual nodes per shard on the placement ring.
const RING_VIRTUAL_NODES: usize = 16;

/// Internal event type of the serving loop.
enum Event {
    /// Request `index` of the trace arrives.
    Arrival(usize),
    /// Shard `shard` finished its in-flight batch.
    BatchDone { shard: usize },
}

/// What one run of the event loop accumulates.
struct Run<'a> {
    recorder: &'a Recorder,
    events: EventQueue<Event>,
    outcomes: Vec<Option<RequestOutcome>>,
    /// Re-fetch batches are not trace entries; their spans trace under
    /// synthetic request ids starting past the trace length.
    next_synthetic_id: u64,
    plan: ExecutionPlan,
}

/// A sharded multi-tenant serving cluster.
pub struct ServingCluster {
    config: ServingConfig,
    ring: HashRing,
    shards: Vec<Shard>,
}

impl ServingCluster {
    /// Builds the cluster: the model and its codecs are built and profiled
    /// from `profile_contexts` once; every shard gets an engine over them
    /// with its own store, plus one store→shard link. `links` must have
    /// exactly `num_shards` entries.
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
            LEVEL_QUALITY.len() >= engine_cfg.ladder.len(),
            "the level quality table must cover the ladder"
        );
        let ring = HashRing::new(config.num_shards, RING_VIRTUAL_NODES);
        // One model, one set of profiled codecs; each shard gets its own
        // store over them.
        let engine = CacheGenEngine::build(model_cfg, engine_cfg, profile_contexts);
        let shards = links
            .into_iter()
            .enumerate()
            .map(|(id, link)| Shard::new(id, engine.with_empty_store(), link, &config))
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

    /// All shards, in id order (the thread backend walks these to reach
    /// each shard's engine and link).
    pub fn shards(&self) -> &[Shard] {
        &self.shards
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
        self.plan_run(requests, &NOOP).0
    }

    /// The discrete-event loop behind [`run`](Self::run): returns the
    /// oracle's report together with the [`ExecutionPlan`] — every
    /// admission decision and dispatched batch, in order — that the
    /// thread backend replays.
    ///
    /// `recorder` traces the request lifecycle: every event pop advances
    /// its virtual clock, admission degrade/shed decisions land as
    /// instants, and each completed request gets a span tree that tiles
    /// its TTFT exactly — a `request` root over `queue_wait` (arrival →
    /// dispatch), `store_fetch` or `cache_decode` (dispatch → KV ready,
    /// with the streamer's per-chunk wire/decode spans nested under the
    /// batch lead), and `prefill` (ready → first token). Loss-repair
    /// re-fetch batches trace under synthetic request ids past the trace
    /// length. Link-level packet counters drain into the `cachegen.net.*`
    /// namespace and the report publishes itself under
    /// `cachegen.serving.*`. Passing [`NOOP`] is what `run` does (the
    /// recorder is a no-op, not a different code path).
    pub fn plan_run(
        &mut self,
        requests: &[ServingRequest],
        recorder: &Recorder,
    ) -> (ServingReport, ExecutionPlan) {
        assert!(
            requests.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "requests must be sorted by arrival"
        );
        let cache_start: Vec<_> = self
            .shards
            .iter_mut()
            .map(|shard| {
                shard.stats = ShardSummary::default();
                shard.queues = TenantQueues::new(
                    self.config.num_tenants,
                    self.config.degrade_depth,
                    self.config.shed_depth,
                );
                shard.busy = false;
                shard.link.reset_stats();
                shard.cache.stats()
            })
            .collect();
        let mut run = Run {
            recorder,
            events: EventQueue::new(),
            outcomes: vec![None; requests.len()],
            next_synthetic_id: requests.len() as u64,
            plan: ExecutionPlan::default(),
        };
        for (i, r) in requests.iter().enumerate() {
            assert!(r.tenant < self.config.num_tenants, "tenant out of range");
            assert!(
                self.shards[self.ring.route(r.context_id)].owns(r.context_id),
                "request references unstored context {}",
                r.context_id
            );
            run.events.push(r.arrival, Event::Arrival(i));
        }

        while let Some((now, event)) = run.events.pop() {
            recorder.set_time(now);
            let idle_shard = match event {
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
                    if decision != Admission::Normal {
                        let shed = decision == Admission::Shed;
                        run.plan.admissions.push(PlannedAdmission {
                            request: i,
                            tenant: req.tenant,
                            shard: shard_id,
                            shed,
                        });
                        let ctx = SpanCtx::new(i as u64, req.tenant as u32, shard_id as u32);
                        trace::admission_instant(recorder, ctx, now, shed);
                        if shed {
                            shard.stats.shed += 1;
                            run.outcomes[i] = Some(RequestOutcome {
                                tenant: req.tenant,
                                context_id: req.context_id,
                                shard: shard_id,
                                arrival: req.arrival,
                                disposition: Disposition::Shed,
                            });
                            continue;
                        }
                        shard.stats.degraded_admissions += 1;
                    }
                    if shard.busy {
                        continue;
                    }
                    shard_id
                }
                Event::BatchDone { shard } => {
                    self.shards[shard].busy = false;
                    shard
                }
            };
            self.dispatch(idle_shard, now, &mut run);
        }
        // Last completion time, prompt prefill included (a run of pure
        // sheds has no completions and a zero makespan).
        let makespan = run
            .outcomes
            .iter()
            .flatten()
            .filter_map(|o| o.ttft().map(|t| o.arrival + t))
            .fold(0.0f64, f64::max);

        for (shard, start) in self.shards.iter_mut().zip(&cache_start) {
            shard.stats.cache = shard.cache.stats().since(start);
            shard.stats.peak_queue_depth = shard.queues.peak_depth();
        }
        let report = ServingReport {
            outcomes: run
                .outcomes
                .into_iter()
                // analyze: allow(no-lib-unwrap, "the event loop runs to quiescence, so every admitted request's slot is filled; an empty slot is a scheduler bug worth a loud stop")
                .map(|o| o.expect("every request resolved"))
                .collect(),
            shards: self.shards.iter().map(|s| s.stats).collect(),
            makespan,
        };
        trace::publish_run(recorder, &report, &self.shards, None);
        (report, run.plan)
    }

    /// Pulls a context's missing bytes over the shard's link starting at
    /// `start`, tracing the pull under the next synthetic request id.
    /// Returns the planned re-fetch and when its bytes were in hand.
    fn refetch(
        shard: &mut Shard,
        run: &mut Run<'_>,
        context_id: u64,
        tenant: usize,
        (bytes, restore_quality): (u64, f64),
        start: f64,
    ) -> (PlannedRefetch, f64) {
        let ready = shard.serve_refetch(context_id, bytes, restore_quality, start);
        shard.stats.refetches += 1;
        let ctx = SpanCtx::new(run.next_synthetic_id, tenant as u32, shard.id as u32);
        run.next_synthetic_id += 1;
        trace::refetch_tree(run.recorder, ctx, start, ready, bytes);
        let planned = PlannedRefetch {
            trace_request: ctx.request,
            tenant,
            bytes,
        };
        (planned, ready)
    }

    /// Pops the next batch off an idle shard's queues (if any) and serves
    /// it, recording outcomes and scheduling the completion event. A batch
    /// headed by a re-fetch entry pulls the missing bytes instead of
    /// running a full fetch; a query batch satisfies any re-fetch riders
    /// for free (the fresh transfer re-delivers the context).
    fn dispatch(&mut self, shard_id: usize, now: f64, run: &mut Run<'_>) {
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
        // What the batch's re-fetch entries ask for: missing bytes, and
        // the quality the context recovers to once they land.
        let missing = batch
            .iter()
            .filter_map(|q| match q.kind {
                EntryKind::Refetch {
                    bytes,
                    restore_quality,
                } => Some((bytes, restore_quality)),
                EntryKind::Query => None,
            })
            .fold((0u64, 0.0f64), |(b, q), (nb, nq)| (b + nb, q.max(nq)));
        shard.busy = true;

        let Some(lead) = queries.first() else {
            // Pure re-fetch batch: fill the holes a lossy transfer left.
            let (refetch, ready) =
                Self::refetch(shard, run, context_id, batch[0].tenant, missing, now);
            shard.stats.busy_secs += ready - now;
            run.plan.batches.push(PlannedBatch {
                shard: shard_id,
                context_id,
                work: PlannedWork::Refetch(refetch),
            });
            run.events.push(ready, Event::BatchDone { shard: shard_id });
            return;
        };

        // A batch degrades if any member crossed the watermark: under
        // saturation the whole transfer downshifts (the riders share it).
        let degraded = queries.iter().any(|r| r.degraded);
        // The streamer's per-chunk wire/decode spans nest under the batch
        // lead's request (the riders share the transfer; their own trees
        // still tile their full TTFT below).
        let recorder = run.recorder;
        recorder.set_ctx(SpanCtx::new(
            lead.index as u64,
            lead.tenant as u32,
            shard_id as u32,
        ));
        let (outcome, chunks) =
            shard.serve_batch(context_id, degraded, now, &self.config, recorder);
        shard.stats.batches += 1;
        shard.stats.coalesced_requests += (batch.len() - 1) as u64;

        // Re-fetch riders: a *miss* re-fetched the whole context, which
        // satisfies them for free — but a cache *hit* served the resident
        // (repaired) bitstream without touching the link, so the rider's
        // missing bytes must still be pulled before the shard goes idle.
        // The pull runs past the queries' first tokens, so it traces as
        // its own synthetic request, not under a query root.
        let mut ready = outcome.ready;
        let mut rider = None;
        if missing.0 > 0 && outcome.cache_hit {
            let (refetch, done) =
                Self::refetch(shard, run, context_id, lead.tenant, missing, outcome.ready);
            rider = Some(refetch);
            ready = done;
        }
        shard.stats.busy_secs += ready - now;
        run.events.push(ready, Event::BatchDone { shard: shard_id });

        // Wire the repair loop: bytes the lossy link never delivered are
        // re-requested through the *same* admission path as first fetches
        // — under overload the re-fetch is degraded or shed like any
        // arrival, and the context simply stays at its repaired quality.
        if outcome.lost_bytes > 0 && self.config.repair == RepairPolicy::Refetch {
            let decision = shard.queues.push(QueuedRequest {
                index: usize::MAX,
                tenant: lead.tenant,
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
        let mut planned = Vec::with_capacity(queries.len());
        for q in &queries {
            let prefill = q.prompt_tokens as f64 * self.config.recompute_sec_per_token;
            let times = QueryTimes {
                arrival: q.arrival,
                dispatch: now,
                ready: outcome.ready,
                finish: outcome.ready + prefill,
            };
            let ctx = SpanCtx::new(q.index as u64, q.tenant as u32, shard_id as u32);
            trace::request_tree(
                recorder,
                ctx,
                times,
                outcome.cache_hit,
                coalesced,
                outcome.quality,
                q.prompt_tokens,
            );
            run.outcomes[q.index] = Some(RequestOutcome {
                tenant: q.tenant,
                context_id,
                shard: shard_id,
                arrival: q.arrival,
                disposition: Disposition::Completed {
                    ttft: times.finish - q.arrival,
                    quality: outcome.quality,
                    degraded,
                    coalesced,
                },
            });
            planned.push(PlannedQuery {
                request: q.index,
                tenant: q.tenant,
                prompt_tokens: q.prompt_tokens,
            });
        }
        run.plan.batches.push(PlannedBatch {
            shard: shard_id,
            context_id,
            work: PlannedWork::Query {
                cache_hit: outcome.cache_hit,
                degraded,
                coalesced,
                quality: outcome.quality,
                chunks,
                queries: planned,
                rider,
            },
        });
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
    #[should_panic(expected = "level quality table must cover the ladder")]
    fn a_ladder_longer_than_the_quality_table_is_rejected() {
        let engine_cfg = EngineConfig {
            ladder: cachegen_streamer::LevelLadder::new(vec![0.3, 0.6, 1.0, 1.8, 3.0, 5.0]),
            ..EngineConfig::default()
        };
        let config = ServingConfig::default();
        let links = (0..config.num_shards)
            .map(|_| Link::new(BandwidthTrace::constant(5e6), 0.0))
            .collect();
        let profile: Vec<Vec<usize>> = vec![(0..60).map(|i| (i * 7) % 64).collect()];
        ServingCluster::build(
            SimModelConfig::tiny(42),
            engine_cfg,
            config,
            &profile,
            links,
        );
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
