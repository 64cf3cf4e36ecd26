//! Multi-tenant serving under contention: per-tenant TTFT/QoE percentiles
//! and shard utilization for CacheGen vs its ablations.
//!
//! The paper evaluates the engine one request at a time; this experiment
//! exercises it the way §8's discussion anticipates — many tenants, Zipf
//! document popularity, bounded store bandwidth per shard — and reports
//! what a production operator would watch: tail TTFT per tenant, mean
//! opinion score under the Figure 16 QoE model, shed/degrade counts, and
//! how much of the run each shard spent serving.

use cachegen::qoe::QoeModel;
use cachegen_net::{BandwidthTrace, Link};
use cachegen_serving::{percentile, ServingConfig, ServingReport};
use cachegen_streamer::AdaptPolicy;
use cachegen_workloads::{workload_rng, MultiTenantWorkload, SharedPrefixGen};

use crate::harness::{section, serving_cluster};

const TENANTS: usize = 4;
const SHARDS: usize = 2;
const DOCUMENTS: usize = 6;
const DOC_TOKENS: usize = 150;
const REQUESTS: usize = 120;
const RATE_HZ: f64 = 25.0;
const LINK_BPS: f64 = 2e6;

struct Variant {
    name: &'static str,
    policy: AdaptPolicy,
    cache_capacity_bytes: u64,
}

fn run_variant(v: &Variant, workload: &MultiTenantWorkload) -> ServingReport {
    let config = ServingConfig {
        num_shards: SHARDS,
        num_tenants: TENANTS,
        slo: Some(0.4),
        policy: v.policy,
        prior_throughput_bps: Some(LINK_BPS),
        recompute_sec_per_token: 2e-3,
        cache_capacity_bytes: v.cache_capacity_bytes,
        ..ServingConfig::default()
    };
    let links = (0..SHARDS)
        .map(|_| Link::new(BandwidthTrace::constant(LINK_BPS), 0.0))
        .collect();
    serving_cluster(config, links, workload).run(&workload.requests)
}

/// The serving experiment: sharded multi-tenant load, three variants.
pub fn serving() {
    section("Serving: 2 shards x 4 tenants, shared-prefix fan-out, 2 Mbps store links");
    let workload = SharedPrefixGen::new(64, DOCUMENTS, DOC_TOKENS).generate(
        &mut workload_rng(31),
        TENANTS,
        REQUESTS,
        RATE_HZ,
    );
    let qoe = QoeModel::default();
    let variants = [
        Variant {
            name: "CacheGen (cache + batching)",
            policy: AdaptPolicy::Adaptive,
            cache_capacity_bytes: 256 * 1024,
        },
        Variant {
            name: "CacheGen w/o local cache",
            policy: AdaptPolicy::Adaptive,
            cache_capacity_bytes: 1,
        },
        Variant {
            name: "Text fallback baseline",
            policy: AdaptPolicy::AlwaysText,
            cache_capacity_bytes: 256 * 1024,
        },
    ];
    for v in &variants {
        let report = run_variant(v, &workload);
        println!("\n{}:", v.name);
        println!(
            "  {:>7} {:>10} {:>10} {:>8} {:>8}",
            "tenant", "p50 TTFT", "p95 TTFT", "p50 MOS", "p5 MOS"
        );
        for t in 0..TENANTS {
            let mos = report.mos_samples(&qoe, Some(t));
            println!(
                "  {:>7} {:>9.0}ms {:>9.0}ms {:>8.2} {:>8.2}",
                t,
                report.ttft_percentile(Some(t), 50.0).unwrap_or(f64::NAN) * 1e3,
                report.ttft_percentile(Some(t), 95.0).unwrap_or(f64::NAN) * 1e3,
                percentile(&mos, 50.0).unwrap_or(f64::NAN),
                percentile(&mos, 5.0).unwrap_or(f64::NAN),
            );
        }
        for (i, s) in report.shards.iter().enumerate() {
            println!(
                "  shard {i}: util {:>3.0}%  batches {:>3}  coalesced {:>3}  \
                 cache hit {:>3.0}%  fetched {:>4} KB  peak queue {}",
                100.0 * s.utilization(report.makespan),
                s.batches,
                s.coalesced_requests,
                100.0 * s.cache.hit_ratio(),
                s.bytes_fetched / 1024,
                s.peak_queue_depth,
            );
        }
        println!(
            "  fleet: p50 {:.0} ms  p95 {:.0} ms  quality {:.3}  mean MOS {:.2}  \
             shed {}  degraded {}",
            report.ttft_percentile(None, 50.0).unwrap_or(f64::NAN) * 1e3,
            report.ttft_percentile(None, 95.0).unwrap_or(f64::NAN) * 1e3,
            report.mean_quality(),
            report.mean_mos(&qoe),
            report.shed_count(),
            report.degraded_count(),
        );
    }
    println!(
        "\n(the serving front turns shared-prefix reuse into local-cache hits and \
         coalesced fetches; the text baseline pays a re-prefill per batch)"
    );
}
