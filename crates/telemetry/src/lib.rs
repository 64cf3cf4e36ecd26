//! Deterministic telemetry for the CacheGen workspace.
//!
//! This crate is the measurement substrate the request path reports
//! through: request-lifecycle [`Span`]s carrying the times their caller
//! passes in, a counter/gauge/histogram [`MetricsRegistry`],
//! and two byte-deterministic exporters — Chrome trace-event JSON
//! (loadable in Perfetto, one process per shard, one thread per tenant)
//! and compact `BENCH_*.json` metrics snapshots.
//!
//! Everything funnels through one handle, the [`Recorder`]. Hot paths
//! take `&Recorder` and pay nothing when handed the disabled [`NOOP`]:
//! every method starts with a branch on an `Option` that is `None` for
//! the no-op, so benches show no regression with tracing off.
//!
//! Metric names follow `cachegen.<crate>.<metric>`, e.g.
//! `cachegen.net.wire_bytes` or `cachegen.serving.ttft_ms`.
//!
//! Pure std, zero dependencies, by design: the crate must never pull
//! simulator code in (every layer depends on it). The recorder keeps no
//! clock of its own: the discrete-event loop passes virtual seconds,
//! and the OS-thread execution backend passes readings of a
//! [`WallClock`] (the sanctioned [`wall`] module) to the same
//! [`Recorder`] calls, so both backends export one span/metric taxonomy
//! and differ only in durations.

pub mod chrome;
pub mod export;
pub mod json;
pub mod recorder;
pub mod registry;
pub mod span;
pub mod stats;
pub mod validate;
pub mod wall;

pub use chrome::{chrome_trace, chrome_trace_json};
pub use export::{metrics_snapshot, metrics_snapshot_json, workspace_root};
pub use json::JsonValue;
pub use recorder::{Recorder, NOOP};
pub use registry::{Histogram, MetricsRegistry};
pub use span::{InstantEvent, Span, SpanCtx, Stage};
pub use stats::{mean, percentile};
pub use validate::{validate_chrome_trace, TraceSummary};
pub use wall::WallClock;
