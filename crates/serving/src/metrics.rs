//! Per-tenant and per-shard serving metrics.
//!
//! The serving experiment reports what the paper's §8 discussion asks of a
//! production deployment: tail context-loading delay per tenant (TTFT
//! percentiles), quality under degradation (QoE via the Figure 16 MOS
//! model), and how hard each shard worked (utilization, cache behaviour,
//! bytes pulled from the store, batching wins).

use cachegen::qoe::QoeModel;
use cachegen_kvstore::CacheStats;

// The nearest-rank percentile lives in the telemetry crate now (every
// crate that summarizes samples shares one definition); re-exported here
// so existing `cachegen_serving::percentile` callers keep compiling.
pub use cachegen_telemetry::percentile;

/// What happened to one request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Disposition {
    /// Served to completion.
    Completed {
        /// Time to first token: queue wait + context load + prompt prefill.
        ttft: f64,
        /// Token-weighted quality proxy in [0, 1] (text/lossless = 1).
        quality: f64,
        /// Served at the degraded (coarser) level under backpressure.
        degraded: bool,
        /// Rode a coalesced same-context batch.
        coalesced: bool,
    },
    /// Rejected at admission (queue full).
    Shed,
}

/// Outcome record for one request, in trace order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RequestOutcome {
    /// Tenant that issued the request.
    pub tenant: usize,
    /// Context requested.
    pub context_id: u64,
    /// Shard that owned the context.
    pub shard: usize,
    /// Virtual arrival time.
    pub arrival: f64,
    /// What happened.
    pub disposition: Disposition,
}

impl RequestOutcome {
    /// TTFT if the request completed.
    pub fn ttft(&self) -> Option<f64> {
        match self.disposition {
            Disposition::Completed { ttft, .. } => Some(ttft),
            Disposition::Shed => None,
        }
    }
}

/// Per-shard accounting after a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardSummary {
    /// Batches dispatched.
    pub batches: u64,
    /// Requests that rode along in a coalesced batch (batch size − 1 each).
    pub coalesced_requests: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests admitted at the degraded level.
    pub degraded_admissions: u64,
    /// Virtual seconds the shard was serving.
    pub busy_secs: f64,
    /// Bytes the shard's link carried from the store: every byte on the
    /// wire, FEC parity, retransmissions and re-fetches included.
    pub bytes_fetched: u64,
    /// Erasure parity bytes sent on top of the data (the FEC bandwidth
    /// overhead; zero with FEC off).
    pub parity_bytes: u64,
    /// Packets dropped by the link but reconstructed byte-identically by
    /// erasure parity (any `r` losses per group) — losses that never
    /// became repairs or re-fetches.
    pub fec_recovered_packets: u64,
    /// Bytes a lossy transfer never delivered (repaired per policy).
    pub lost_bytes: u64,
    /// Loss-repair re-fetch batches served.
    pub refetches: u64,
    /// Re-fetches rejected at admission (queue full — the context stays
    /// at its repaired quality).
    pub refetch_shed: u64,
    /// Bytes recovered by re-fetch batches.
    pub refetched_bytes: u64,
    /// Local KV-cache statistics (hits avoid store fetches entirely).
    pub cache: CacheStats,
    /// Highest queue depth observed (the backpressure bound).
    pub peak_queue_depth: usize,
}

impl ShardSummary {
    /// Fraction of the run the shard spent serving.
    pub fn utilization(&self, makespan: f64) -> f64 {
        if makespan <= 0.0 {
            0.0
        } else {
            self.busy_secs / makespan
        }
    }
}

/// Full report of one serving run.
#[derive(Clone, Debug)]
pub struct ServingReport {
    /// One outcome per request, in trace order.
    pub outcomes: Vec<RequestOutcome>,
    /// Per-shard summaries.
    pub shards: Vec<ShardSummary>,
    /// Virtual time of the last completion.
    pub makespan: f64,
}

impl ServingReport {
    /// Completed outcomes only.
    pub fn completed(&self) -> impl Iterator<Item = &RequestOutcome> {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.disposition, Disposition::Completed { .. }))
    }

    /// Requests shed across all shards.
    pub fn shed_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.disposition == Disposition::Shed)
            .count()
    }

    /// Completed requests that were served degraded.
    pub fn degraded_count(&self) -> usize {
        self.completed()
            .filter(|o| matches!(o.disposition, Disposition::Completed { degraded: true, .. }))
            .count()
    }

    /// Completed requests that rode a coalesced batch.
    pub fn coalesced_count(&self) -> usize {
        self.completed()
            .filter(|o| {
                matches!(
                    o.disposition,
                    Disposition::Completed {
                        coalesced: true,
                        ..
                    }
                )
            })
            .count()
    }

    /// TTFTs of completed requests, optionally for one tenant.
    pub fn ttfts(&self, tenant: Option<usize>) -> Vec<f64> {
        self.completed()
            .filter(|o| tenant.is_none_or(|t| o.tenant == t))
            .filter_map(RequestOutcome::ttft)
            .collect()
    }

    /// Nearest-rank TTFT percentile (`tenant = None` for the whole fleet).
    pub fn ttft_percentile(&self, tenant: Option<usize>, p: f64) -> Option<f64> {
        percentile(&self.ttfts(tenant), p)
    }

    /// Mean quality proxy over completed requests.
    pub fn mean_quality(&self) -> f64 {
        let (sum, n) = self.completed().fold((0.0, 0usize), |(s, n), o| {
            if let Disposition::Completed { quality, .. } = o.disposition {
                (s + quality, n + 1)
            } else {
                (s, n)
            }
        });
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Per-request MOS samples under a QoE model, optionally for one
    /// tenant; a shed request scores the floor MOS of 1 (the user got
    /// nothing).
    pub fn mos_samples(&self, model: &QoeModel, tenant: Option<usize>) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| tenant.is_none_or(|t| o.tenant == t))
            .map(|o| match o.disposition {
                Disposition::Completed { ttft, quality, .. } => model.mos(ttft, quality),
                Disposition::Shed => 1.0,
            })
            .collect()
    }

    /// Mean opinion score across all requests (sheds at the floor of 1).
    pub fn mean_mos(&self, model: &QoeModel) -> f64 {
        let samples = self.mos_samples(model, None);
        if samples.is_empty() {
            return 0.0;
        }
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completed(tenant: usize, ttft: f64, quality: f64) -> RequestOutcome {
        RequestOutcome {
            tenant,
            context_id: 0,
            shard: 0,
            arrival: 0.0,
            disposition: Disposition::Completed {
                ttft,
                quality,
                degraded: false,
                coalesced: false,
            },
        }
    }

    fn shed(tenant: usize) -> RequestOutcome {
        RequestOutcome {
            tenant,
            context_id: 0,
            shard: 0,
            arrival: 0.0,
            disposition: Disposition::Shed,
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 95.0), Some(95.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn report_filters_by_tenant_and_disposition() {
        let report = ServingReport {
            outcomes: vec![
                completed(0, 1.0, 1.0),
                completed(1, 3.0, 0.9),
                shed(0),
                completed(0, 2.0, 0.8),
            ],
            shards: vec![ShardSummary::default()],
            makespan: 10.0,
        };
        assert_eq!(report.shed_count(), 1);
        assert_eq!(report.ttfts(Some(0)), vec![1.0, 2.0]);
        assert_eq!(report.ttft_percentile(None, 50.0), Some(2.0));
        assert!((report.mean_quality() - 0.9).abs() < 1e-9);
        let mos = report.mean_mos(&QoeModel::default());
        assert!(mos > 1.0 && mos < 5.0);
    }

    #[test]
    fn utilization_is_busy_over_makespan() {
        let s = ShardSummary {
            busy_secs: 5.0,
            ..Default::default()
        };
        assert!((s.utilization(10.0) - 0.5).abs() < 1e-9);
        assert_eq!(s.utilization(0.0), 0.0);
    }
}
