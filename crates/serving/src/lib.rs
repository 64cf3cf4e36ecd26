//! # Sharded multi-tenant serving front for CacheGen
//!
//! The paper's engine (§6) is exercised one request at a time, but
//! CacheGen's value proposition — loading long contexts faster than
//! prefill — only shows up when many tenants contend for store bandwidth
//! and cache capacity. This crate is that serving front, built as a
//! deterministic discrete-event simulation on the same virtual clock as
//! `cachegen-net`:
//!
//! * [`clock`] — the event queue: `f64` virtual seconds, insertion-order
//!   tie-breaking, fully deterministic.
//! * [`ring`] — consistent-hash placement of [`ContextId`]s onto shards
//!   (virtual nodes, splitmix64, resharding-stable).
//! * [`queue`] — per-tenant FIFO queues with two admission watermarks:
//!   past the first, requests are *degraded* to a coarser encoding level;
//!   past the second they are *shed*. Dispatch is round-robin across
//!   tenants and coalesces every queued request for the same context into
//!   one batch. Loss-repair *re-fetches* enter through the same
//!   watermarks — under overload a re-fetch is degraded or shed like any
//!   first fetch, and the context stays at its repaired quality.
//! * [`shard`] — one shard: a [`cachegen::CacheGenEngine`] (with its
//!   slice of the store), an [`cachegen_kvstore::LruKvCache`] of fetched
//!   bitstreams, and the store→shard link. A batch fetches once; cache
//!   hits skip the link entirely.
//! * [`config`] — [`ServingConfig`]: watermarks, batching, cache size,
//!   streaming policy, repair policy and the FEC knobs.
//! * [`cluster`] — [`ServingCluster`]: the ring + shards + event loop
//!   that replays a [`cachegen_workloads::MultiTenantWorkload`] trace —
//!   the deterministic, golden-pinned oracle.
//! * [`plan`] — the [`ExecutionPlan`] every run also returns
//!   ([`ServingCluster::plan_run`]): each admission decision and
//!   dispatched batch, as replayable data.
//! * [`threads`] — [`ThreadBackend`]: the plan replayed on real OS
//!   threads — batches fed through `tensor::pool::run_queued` into one
//!   bounded queue per shard, each batch's chunk decodes fanned out with
//!   `run_pooled` — with wall-clock durations.
//! * [`trace`] — the one place request span trees are recorded and a
//!   run's metrics are published ([`trace::METRICS`] names every key), so
//!   both ways of running a trace export the same taxonomy.
//! * [`metrics`] — per-tenant TTFT percentiles, QoE (MOS), shed/degrade
//!   counts, and per-shard utilization/cache/batching summaries.
//!
//! ## Example
//!
//! ```
//! use cachegen::EngineConfig;
//! use cachegen_llm::SimModelConfig;
//! use cachegen_net::{BandwidthTrace, Link};
//! use cachegen_serving::{ServingCluster, ServingConfig};
//! use cachegen_workloads::{workload_rng, SharedPrefixGen};
//!
//! let config = ServingConfig::default(); // 2 shards × 4 tenants
//! let links = (0..config.num_shards)
//!     .map(|_| Link::new(BandwidthTrace::constant(5e6), 0.0))
//!     .collect();
//! let profile: Vec<Vec<usize>> = vec![(0..60).map(|i| (i * 7) % 64).collect()];
//! let mut cluster = ServingCluster::build(
//!     SimModelConfig::tiny(42),
//!     EngineConfig::default(),
//!     config,
//!     &profile,
//!     links,
//! );
//!
//! // Ingest a shared-prefix corpus, then replay a multi-tenant trace.
//! let workload = SharedPrefixGen::new(64, 4, 90).generate(&mut workload_rng(1), 4, 40, 20.0);
//! for (id, tokens) in &workload.documents {
//!     cluster.store_context(*id, tokens);
//! }
//! let report = cluster.run(&workload.requests);
//! assert_eq!(report.outcomes.len(), 40);
//! assert!(report.ttft_percentile(None, 50.0).unwrap() > 0.0);
//! ```

pub mod clock;
pub mod cluster;
pub mod config;
pub mod metrics;
pub mod plan;
pub mod queue;
pub mod ring;
pub mod shard;
pub mod threads;
pub mod trace;

pub use cachegen_kvstore::ContextId;
pub use clock::EventQueue;
pub use cluster::ServingCluster;
pub use config::ServingConfig;
pub use metrics::{percentile, Disposition, RequestOutcome, ServingReport, ShardSummary};
pub use plan::{
    ExecutionPlan, PlannedAdmission, PlannedBatch, PlannedChunk, PlannedQuery, PlannedRefetch,
    PlannedWork,
};
pub use queue::{Admission, EntryKind, QueuedRequest, TenantQueues};
pub use ring::HashRing;
pub use shard::{repair_effectiveness, BatchOutcome, Shard};
pub use threads::{ThreadBackend, ThreadRunStats};
