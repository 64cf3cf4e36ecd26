//! KV-cache streaming with bandwidth adaptation (§5.3 of the paper).
//!
//! Before any query arrives, a context is split into **chunks** (default
//! 1.5K tokens) and each chunk is encoded offline at several **encoding
//! levels** (scaled quantization bins). At fetch time the streamer sends
//! chunks one by one; per chunk it picks a **streaming configuration** —
//! one of the encoding levels, or raw text that the LLM re-prefills — so
//! that the expected time-to-first-token stays within the SLO while
//! compression loss is minimised (Algorithm 1, §C.1).
//!
//! * [`levels`] — the ordered ladder of encoding levels.
//! * [`plan`] — chunk geometry and the offline per-chunk/per-level size
//!   table the adapter consults, including per-level packet schedules.
//! * [`schedule`] — the anchor-group-aligned, priority-ordered packet
//!   schedule a lossy link delivers chunk by chunk (early token groups
//!   and shallow layers first), including the per-level FEC parity
//!   density ([`FecOverhead`]: XOR, fixed Reed–Solomon `(k, r)`, or
//!   loss-adaptive) and the parity-interleaved wire order.
//! * `adapter` (re-exported here) — Algorithm 1 plus the virtual-time
//!   streaming simulation (transfer pipelined with decode, §6) and
//!   concurrent-request batching (Figure 12).
//! * `delivery` (re-exported here) — packetized delivery of one chunk
//!   schedule on per-packet-fault links: parity FEC recovery (any `r`
//!   losses per group), then the retransmit budget through
//!   [`cachegen_net::Link::resend`]; whatever is still missing after both
//!   is reported per chunk for the codec's repair policies.

mod adapter;
mod delivery;
pub mod levels;
pub mod plan;
pub mod schedule;

pub use adapter::{
    simulate_stream, simulate_stream_from, AdaptPolicy, ChunkOutcome, StreamOutcome, StreamParams,
};
pub use delivery::{deliver_schedule, ScheduleDelivery};
pub use levels::{LevelLadder, StreamConfig};
pub use plan::{ChunkPlan, ChunkSizes};
pub use schedule::{AdaptiveFec, ChunkSchedule, FecOverhead, PacketId, WirePacket};
