//! Cluster-wide serving configuration.

use cachegen::RepairPolicy;
use cachegen_streamer::{AdaptPolicy, FecOverhead};

/// Cluster-wide serving configuration.
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
    /// links: erasure parity (XOR at r = 1) recovers groups that lost no
    /// more packets than they carry parity before the retransmit budget
    /// or the repair/refetch ladder is consulted, so a lossy link stops
    /// flooding the shard queues with re-fetch entries.
    pub fec_overhead: FecOverhead,
    /// Per-tenant FEC overrides (`tenant_fec[t] = Some(knob)`), letting
    /// tenants buy more (or less) parity than the cluster default. The
    /// lead tenant of a batch decides the batch's parity.
    pub tenant_fec: Vec<Option<FecOverhead>>,
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
            decode_bytes_per_sec: 8.0e9,
            recompute_sec_per_token: 1e-3,
            // Matches the default 5-level ladder; coarser bins lose more.
            level_quality: vec![0.995, 0.98, 0.95, 0.91, 0.86],
            repair: RepairPolicy::AnchorInterpolate,
            retransmit_budget: 1,
            fec_overhead: FecOverhead::Off,
            tenant_fec: Vec::new(),
        }
    }
}

impl ServingConfig {
    /// Quality proxy of one encoding level (clamped to the table).
    pub fn quality_of_level(&self, level: usize) -> f64 {
        self.level_quality[level.min(self.level_quality.len() - 1)]
    }

    /// The FEC parity knob a batch runs with: the lead tenant's override,
    /// else the cluster default.
    pub fn fec_for(&self, tenant: usize) -> &FecOverhead {
        self.tenant_fec
            .get(tenant)
            .and_then(Option::as_ref)
            .unwrap_or(&self.fec_overhead)
    }

    pub(crate) fn validate(&self) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fec_for_resolves_tenant_then_default() {
        let cfg = ServingConfig {
            fec_overhead: FecOverhead::Rs { k: 8, r: 1 },
            tenant_fec: vec![None, Some(FecOverhead::Rs { k: 4, r: 1 }), None],
            ..ServingConfig::default()
        };
        // The tenant override wins, else the cluster default.
        assert_eq!(cfg.fec_for(0), &FecOverhead::Rs { k: 8, r: 1 });
        assert_eq!(cfg.fec_for(1), &FecOverhead::Rs { k: 4, r: 1 });
        assert_eq!(
            cfg.fec_for(3),
            &FecOverhead::Rs { k: 8, r: 1 },
            "past the table"
        );
    }

    #[test]
    fn fec_for_carries_rs_and_adaptive_knobs() {
        // Multi-erasure knobs flow through the same resolution chain as the
        // XOR ones: a tenant can pin RS(k, r) parity while the cluster
        // default adapts to the measured loss rate.
        let cfg = ServingConfig {
            fec_overhead: FecOverhead::adaptive_default(),
            tenant_fec: vec![Some(FecOverhead::Rs { k: 10, r: 2 })],
            ..ServingConfig::default()
        };
        assert_eq!(
            cfg.fec_for(0),
            &FecOverhead::Rs { k: 10, r: 2 },
            "tenant pins full double-parity RS"
        );
        assert_eq!(
            cfg.fec_for(1),
            &FecOverhead::adaptive_default(),
            "cluster default adapts (k, r) to the loss estimate"
        );
        let (k, r) = cfg
            .fec_for(0)
            .params_for(0, None)
            .expect("a pinned RS knob groups");
        assert_eq!((k, r), (10, 2));
    }
}
