//! The [`ExecutionPlan`]: one serving run's decisions, as data.
//!
//! [`ServingCluster::plan_run`](crate::cluster::ServingCluster::plan_run)
//! — the virtual-clock event loop, the oracle every test pins — records
//! here every admission decision, batch composition, chunk configuration
//! and loss-repair re-fetch it resolves.
//! [`ThreadBackend`](crate::threads::ThreadBackend) replays the plan
//! instead of re-deciding, which is what makes its outcomes, shed/degrade
//! decisions and final cache state the oracle's by construction.

/// One admission decision the planner made at a request's arrival
/// (normal admissions are implicit — only the degrade/shed instants are
/// replayed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedAdmission {
    /// Index into the run's request slice.
    pub request: usize,
    /// Tenant that issued the request.
    pub tenant: usize,
    /// Shard whose queues made the decision.
    pub shard: usize,
    /// True for shed, false for degraded.
    pub shed: bool,
}

/// The work one chunk of a batch's context contributes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlannedChunk {
    /// Decode the stored bitstream of `chunk` at encoding `level` (the
    /// thread backend runs the *real* entropy decode).
    Decode {
        /// Chunk index within the context's plan.
        chunk: usize,
        /// Encoding level the adapter picked.
        level: usize,
    },
    /// Recompute `tokens` tokens from text (the fallback arm; emulated
    /// as proportional compute on a real backend).
    Text {
        /// Tokens recomputed.
        tokens: usize,
    },
}

/// One query riding a planned batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedQuery {
    /// Index into the run's request slice.
    pub request: usize,
    /// Tenant that issued it.
    pub tenant: usize,
    /// Tokens in its unique prompt suffix (prefilled after load).
    pub prompt_tokens: usize,
}

/// A loss-repair re-fetch the planner scheduled (standalone batch or a
/// rider pulled behind a cache hit).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedRefetch {
    /// Synthetic trace-request id the oracle assigned — the thread
    /// backend reuses it, so both traces carry the same request-id set.
    pub trace_request: u64,
    /// Tenant whose entry led the batch.
    pub tenant: usize,
    /// Bytes re-pulled.
    pub bytes: u64,
}

/// What one planned batch executes.
#[derive(Clone, Debug, PartialEq)]
pub enum PlannedWork {
    /// A query-headed batch: load the context (decode or fetch+decode),
    /// then prefill every member's prompt suffix.
    Query {
        /// The context was resident — decode only, no store fetch.
        cache_hit: bool,
        /// Served at the degraded (coarser) level under backpressure.
        degraded: bool,
        /// More than one request rode the batch.
        coalesced: bool,
        /// Token-weighted quality the oracle resolved for the batch.
        quality: f64,
        /// Per-chunk work items of the context load.
        chunks: Vec<PlannedChunk>,
        /// Member queries, in batch order (index 0 is the lead).
        queries: Vec<PlannedQuery>,
        /// A re-fetch rider served after a cache hit, if any.
        rider: Option<PlannedRefetch>,
    },
    /// A pure loss-repair re-fetch batch.
    Refetch(PlannedRefetch),
}

/// One dispatched batch, in dispatch order.
#[derive(Clone, Debug, PartialEq)]
pub struct PlannedBatch {
    /// Shard that served it.
    pub shard: usize,
    /// Context the batch loaded.
    pub context_id: u64,
    /// What the batch executes.
    pub work: PlannedWork,
}

/// Everything the oracle decided for one run, as replayable data: the
/// thread backend executes this plan instead of re-deciding, which is
/// what pins its outcomes, shed/degrade decisions, and final cache
/// state to the oracle's.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecutionPlan {
    /// Degrade/shed admission decisions, in arrival order.
    pub admissions: Vec<PlannedAdmission>,
    /// Dispatched batches, in dispatch order.
    pub batches: Vec<PlannedBatch>,
}
