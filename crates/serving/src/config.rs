//! Cluster-wide serving configuration.

use cachegen::RepairPolicy;
use cachegen_streamer::{AdaptPolicy, FecOverhead};

/// Quality proxy per encoding level, finest first (text counts as 1):
/// coarser bins lose more. Matches the default 5-level ladder, which
/// [`crate::ServingCluster::build`] checks.
pub(crate) const LEVEL_QUALITY: [f64; 5] = [0.995, 0.98, 0.95, 0.91, 0.86];

/// Quality proxy of one encoding level (clamped to [`LEVEL_QUALITY`]).
pub(crate) fn quality_of_level(level: usize) -> f64 {
    LEVEL_QUALITY[level.min(LEVEL_QUALITY.len() - 1)]
}

/// Cluster-wide serving configuration: topology, admission watermarks,
/// the streaming policy and the loss-recovery ladder. The GPU decode rate
/// ([`cachegen::DECODE_BYTES_PER_SEC`]) and the per-level quality proxy
/// are fixed, not settings.
#[derive(Clone, Debug)]
pub struct ServingConfig {
    /// Number of shards.
    pub num_shards: usize,
    /// Number of tenants sharing the cluster.
    pub num_tenants: usize,
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
    /// Streaming policy for normally-admitted requests (degraded requests
    /// are forced to the coarsest level).
    pub policy: AdaptPolicy,
    /// Prior throughput knowledge for each stream's first chunk, bits/s.
    pub prior_throughput_bps: Option<f64>,
    /// GPU prefill-recompute speed, seconds per token (text fallback and
    /// the query suffix's own prefill).
    pub recompute_sec_per_token: f64,
    /// How holes left by a lossy store link are repaired. Under
    /// [`RepairPolicy::Refetch`] the cluster enqueues a re-fetch that
    /// competes under the same admission watermarks as first fetches.
    pub repair: RepairPolicy,
    /// Packet retransmissions allowed per batch fetch before the repair
    /// policy takes over (per-packet-fault links only).
    pub retransmit_budget: usize,
    /// Forward-error-correction parity on store→shard links, for every
    /// batch: erasure parity recovers groups that lost no more packets
    /// than they carry parity before the retransmit budget
    /// or the repair/refetch ladder is consulted, so a lossy link stops
    /// flooding the shard queues with re-fetch entries.
    pub fec_overhead: FecOverhead,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            num_shards: 2,
            num_tenants: 4,
            degrade_depth: 6,
            shed_depth: 16,
            max_batch: 8,
            cache_capacity_bytes: 256 * 1024,
            slo: None,
            policy: AdaptPolicy::Adaptive,
            prior_throughput_bps: None,
            recompute_sec_per_token: 1e-3,
            repair: RepairPolicy::AnchorInterpolate,
            retransmit_budget: 1,
            fec_overhead: FecOverhead::Off,
        }
    }
}

impl ServingConfig {
    pub(crate) fn validate(&self) {
        assert!(self.num_shards >= 1, "need at least one shard");
        assert!(self.num_tenants >= 1, "need at least one tenant");
        assert!(self.max_batch >= 1, "need at least one request per batch");
        assert!(
            self.degrade_depth >= 1 && self.degrade_depth <= self.shed_depth,
            "watermarks must satisfy 1 <= degrade <= shed"
        );
        assert!(self.recompute_sec_per_token >= 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachegen_streamer::LevelLadder;

    #[test]
    fn level_quality_covers_the_default_ladder_and_never_increases() {
        assert!(LEVEL_QUALITY.len() >= LevelLadder::paper_default().len());
        assert!(LEVEL_QUALITY.windows(2).all(|w| w[0] >= w[1]));
        assert!(LEVEL_QUALITY.iter().all(|&q| q > 0.0 && q <= 1.0));
        // Past the table, the coarsest entry is reused.
        assert_eq!(
            quality_of_level(LEVEL_QUALITY.len()),
            LEVEL_QUALITY[LEVEL_QUALITY.len() - 1]
        );
    }
}
