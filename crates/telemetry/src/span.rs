//! Request-lifecycle spans.
//!
//! A [`Span`] is one closed `[start, end]` interval of time attributed
//! to a [`Stage`] of one request's lifecycle. The stages tile a
//! completed request's TTFT exactly: `queue_wait` + (`store_fetch` |
//! `cache_decode`) + `prefill` sum to `finish − arrival`, with the
//! transport-level stages (`wire_delivery`, `chunk_decode`,
//! `text_recompute`, FEC/repair events) nested inside the fetch. Times
//! are whatever the caller passes: virtual seconds from the
//! discrete-event loop, or [`WallClock`](crate::WallClock) seconds from
//! the OS-thread backend.

/// A stage of the request lifecycle (the span/event taxonomy).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Root span of one request: `[arrival, first token ready]`.
    Request,
    /// Waiting in a per-tenant admission queue for the shard to go idle.
    QueueWait,
    /// Admission decision instant (degraded or shed — see event args).
    Admission,
    /// Store→shard fetch of a batch's KV bitstreams (a cache miss).
    StoreFetch,
    /// Decoding a locally cached bitstream (a cache hit: no fetch).
    CacheDecode,
    /// One chunk's packets occupying the wire until its last arrival.
    WireDelivery,
    /// XOR-parity reconstruction instant (losses FEC made invisible).
    FecRecovery,
    /// Repair-policy reconstruction of holes the transport left.
    RepairLadder,
    /// GPU entropy-decode of one fetched chunk.
    ChunkDecode,
    /// GPU prefill-recompute of one text-fallback chunk.
    TextRecompute,
    /// Re-fetch of bytes a lossy transfer never delivered.
    Refetch,
    /// The query suffix's own prompt prefill after the context is ready.
    Prefill,
}

impl Stage {
    /// Stable event name used in exports (`snake_case`).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::QueueWait => "queue_wait",
            Stage::Admission => "admission",
            Stage::StoreFetch => "store_fetch",
            Stage::CacheDecode => "cache_decode",
            Stage::WireDelivery => "wire_delivery",
            Stage::FecRecovery => "fec_recovery",
            Stage::RepairLadder => "repair_ladder",
            Stage::ChunkDecode => "chunk_decode",
            Stage::TextRecompute => "text_recompute",
            Stage::Refetch => "refetch",
            Stage::Prefill => "prefill",
        }
    }

    /// The layer that emits the stage — the Chrome-trace category.
    pub fn category(self) -> &'static str {
        match self {
            Stage::Request | Stage::QueueWait | Stage::Admission | Stage::Prefill => "serving",
            Stage::StoreFetch | Stage::CacheDecode | Stage::Refetch => "shard",
            Stage::WireDelivery | Stage::FecRecovery => "transport",
            Stage::RepairLadder | Stage::ChunkDecode | Stage::TextRecompute => "decode",
        }
    }
}

/// Which request (and which shard/tenant track) a span belongs to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanCtx {
    /// Request identifier — the trace index of the request, or a
    /// synthetic id for work not tied to one arrival (e.g. re-fetches).
    pub request: u64,
    /// Tenant that issued the request (the Chrome-trace thread id).
    pub tenant: u32,
    /// Shard serving the request (the Chrome-trace process id).
    pub shard: u32,
}

impl SpanCtx {
    /// A context for request `request` on `shard` from `tenant`.
    pub fn new(request: u64, tenant: u32, shard: u32) -> Self {
        SpanCtx {
            request,
            tenant,
            shard,
        }
    }
}

/// One closed interval of time attributed to a lifecycle stage.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Lifecycle stage.
    pub stage: Stage,
    /// Owning request / track.
    pub ctx: SpanCtx,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds (`end >= start`).
    pub end: f64,
    /// Numeric annotations exported as Chrome-trace args.
    pub args: Vec<(&'static str, f64)>,
}

impl Span {
    /// Span duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A zero-duration event (shed/degrade decisions, FEC recoveries).
#[derive(Clone, Debug, PartialEq)]
pub struct InstantEvent {
    /// Lifecycle stage.
    pub stage: Stage,
    /// Owning request / track.
    pub ctx: SpanCtx,
    /// Time of the event, seconds.
    pub at: f64,
    /// Numeric annotations exported as Chrome-trace args.
    pub args: Vec<(&'static str, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_unique() {
        let all = [
            Stage::Request,
            Stage::QueueWait,
            Stage::Admission,
            Stage::StoreFetch,
            Stage::CacheDecode,
            Stage::WireDelivery,
            Stage::FecRecovery,
            Stage::RepairLadder,
            Stage::ChunkDecode,
            Stage::TextRecompute,
            Stage::Refetch,
            Stage::Prefill,
        ];
        let names: std::collections::BTreeSet<&str> = all.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), all.len());
        for s in all {
            assert!(!s.category().is_empty());
        }
    }
}
