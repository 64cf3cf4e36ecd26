//! Backpressure integration test: an over-admitted shard must degrade
//! encoding levels and shed requests deterministically instead of growing
//! its queue without bound.

use cachegen::{EngineConfig, RepairPolicy};
use cachegen_llm::SimModelConfig;
use cachegen_net::{BandwidthTrace, Link, PacketFaults};
use cachegen_serving::{Disposition, ServingCluster, ServingConfig, ServingReport};
use cachegen_streamer::{AdaptPolicy, FecOverhead};
use cachegen_workloads::{workload_rng, SharedPrefixGen};

const TENANTS: usize = 4;
const SHARDS: usize = 2;

/// Tight watermarks on a starved link: arrivals outpace service.
fn overload_config() -> ServingConfig {
    ServingConfig {
        num_shards: SHARDS,
        num_tenants: TENANTS,
        degrade_depth: 2,
        shed_depth: 5,
        // Disable coalescing so pressure actually builds (each batch
        // serves exactly one request).
        max_batch: 1,
        policy: AdaptPolicy::Adaptive,
        prior_throughput_bps: Some(2e5),
        slo: Some(0.5),
        ..ServingConfig::default()
    }
}

fn run_overloaded(seed: u64) -> ServingReport {
    let cfg = overload_config();
    // 0.2 Mbps store links: a single context takes long enough to stream
    // that a 60 req/s arrival rate floods the queues.
    let links = (0..SHARDS)
        .map(|_| Link::new(BandwidthTrace::constant(2e5), 0.0))
        .collect();
    let profile: Vec<Vec<usize>> = vec![(0..60).map(|i| (i * 7) % 64).collect()];
    let mut cluster = ServingCluster::build(
        SimModelConfig::tiny(42),
        EngineConfig::default(),
        cfg,
        &profile,
        links,
    );
    let workload =
        SharedPrefixGen::new(64, 6, 90).generate(&mut workload_rng(seed), TENANTS, 120, 60.0);
    for (id, tokens) in &workload.documents {
        cluster.store_context(*id, tokens);
    }
    cluster.run(&workload.requests)
}

#[test]
fn overloaded_shard_sheds_and_degrades_instead_of_queueing_unboundedly() {
    let report = run_overloaded(17);

    // Every request resolves one way or the other — nothing is lost.
    assert_eq!(report.outcomes.len(), 120);
    assert_eq!(report.completed().count() + report.shed_count(), 120);

    // The queue bound holds on every shard: depth never exceeded the shed
    // watermark (this is the "no unbounded queue" guarantee).
    let cfg = overload_config();
    for (i, s) in report.shards.iter().enumerate() {
        assert!(
            s.peak_queue_depth <= cfg.shed_depth,
            "shard {i} queue peaked at {} > shed depth {}",
            s.peak_queue_depth,
            cfg.shed_depth
        );
    }

    // Overload actually engaged both backpressure mechanisms.
    assert!(report.shed_count() > 0, "overload must shed");
    assert!(report.degraded_count() > 0, "overload must degrade");

    // Degraded service really is coarser: completed degraded requests on
    // the miss path carry a lower quality proxy than normal misses.
    let quality = |want_degraded: bool| -> Vec<f64> {
        report
            .completed()
            .filter_map(|o| match o.disposition {
                Disposition::Completed {
                    quality, degraded, ..
                } if degraded == want_degraded => Some(quality),
                _ => None,
            })
            .collect()
    };
    let degraded = quality(true);
    let normal = quality(false);
    assert!(!degraded.is_empty() && !normal.is_empty());
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    assert!(
        mean(&degraded) < mean(&normal),
        "degraded mean quality {} should be below normal {}",
        mean(&degraded),
        mean(&normal)
    );
}

/// Builds a cluster whose store links inject seeded packet loss, with a
/// configurable FEC knob.
fn lossy_cluster(
    loss: f64,
    fec: FecOverhead,
    tenant_fec: Vec<Option<FecOverhead>>,
) -> ServingCluster {
    let cfg = ServingConfig {
        num_shards: SHARDS,
        num_tenants: TENANTS,
        repair: RepairPolicy::Refetch,
        retransmit_budget: 0,
        fec_overhead: fec,
        tenant_fec,
        ..ServingConfig::default()
    };
    let links = (0..SHARDS)
        .map(|s| {
            Link::new(BandwidthTrace::constant(5e6), 0.0)
                .with_packet_faults(PacketFaults::loss(loss), 300 + s as u64)
        })
        .collect();
    let profile: Vec<Vec<usize>> = vec![(0..60).map(|i| (i * 7) % 64).collect()];
    ServingCluster::build(
        SimModelConfig::tiny(42),
        EngineConfig::default(),
        cfg,
        &profile,
        links,
    )
}

fn run_lossy(cluster: &mut ServingCluster, seed: u64) -> ServingReport {
    let workload =
        SharedPrefixGen::new(64, 6, 90).generate(&mut workload_rng(seed), TENANTS, 100, 10.0);
    for (id, tokens) in &workload.documents {
        cluster.store_context(*id, tokens);
    }
    cluster.run(&workload.requests)
}

/// On a lossy store link with the Refetch ladder, turning FEC on must
/// collapse the re-fetch queue traffic (most losses are recovered before
/// a hole ever reaches the repair rung), and the new ShardSummary FEC
/// counters must account for it deterministically.
#[test]
fn fec_on_lossy_links_suppresses_the_refetch_queue() {
    // 5% i.i.d. packet loss; dense parity (k=2) on the tiny schedules.
    let mut without = lossy_cluster(0.05, FecOverhead::Off, Vec::new());
    let off = run_lossy(&mut without, 77);
    let mut with = lossy_cluster(0.05, FecOverhead::Rs { k: 2, r: 1 }, Vec::new());
    let on = run_lossy(&mut with, 77);

    let refetches = |r: &ServingReport| r.shards.iter().map(|s| s.refetches).sum::<u64>();
    let lost = |r: &ServingReport| r.shards.iter().map(|s| s.lost_bytes).sum::<u64>();
    assert!(refetches(&off) > 0, "5% loss without FEC must refetch");
    assert!(
        refetches(&on) * 4 <= refetches(&off),
        "FEC must drop refetch batches to ~zero: {} vs {}",
        refetches(&on),
        refetches(&off)
    );
    assert!(lost(&on) < lost(&off), "parity must absorb most lost bytes");

    // The FEC counters surface the overhead and the recoveries.
    let parity: u64 = on.shards.iter().map(|s| s.parity_bytes).sum();
    let recovered: u64 = on.shards.iter().map(|s| s.fec_recovered_packets).sum();
    assert!(parity > 0 && recovered > 0);
    let off_parity: u64 = off.shards.iter().map(|s| s.parity_bytes).sum();
    assert_eq!(off_parity, 0);
    assert_eq!(
        off.shards
            .iter()
            .map(|s| s.fec_recovered_packets)
            .sum::<u64>(),
        0
    );

    // Deterministic replay, counters included.
    let mut again = lossy_cluster(0.05, FecOverhead::Rs { k: 2, r: 1 }, Vec::new());
    let rerun = run_lossy(&mut again, 77);
    assert_eq!(on.outcomes, rerun.outcomes);
    for (a, b) in on.shards.iter().zip(rerun.shards.iter()) {
        assert_eq!(a.parity_bytes, b.parity_bytes);
        assert_eq!(a.fec_recovered_packets, b.fec_recovered_packets);
        assert_eq!(a.refetches, b.refetches);
    }
}

/// The FEC knob is per-tenant: a cluster whose default is Off but whose
/// tenant 0 buys parity shows parity bytes exactly when tenant-0-led
/// batches fetch.
#[test]
fn per_tenant_fec_knob_shows_up_in_shard_counters() {
    let tenant_fec = {
        let mut v: Vec<Option<FecOverhead>> = vec![None; TENANTS];
        v[0] = Some(FecOverhead::Rs { k: 4, r: 1 });
        v
    };
    let mut mixed = lossy_cluster(0.05, FecOverhead::Off, tenant_fec);
    let report = run_lossy(&mut mixed, 91);
    let parity: u64 = report.shards.iter().map(|s| s.parity_bytes).sum();
    assert!(
        parity > 0,
        "tenant 0 leads some batches, so its parity must appear"
    );
    // All-Off control: same workload, no parity anywhere.
    let mut plain = lossy_cluster(0.05, FecOverhead::Off, Vec::new());
    let control = run_lossy(&mut plain, 91);
    assert_eq!(
        control.shards.iter().map(|s| s.parity_bytes).sum::<u64>(),
        0
    );
    // A tenant buying parity means the cluster fetches *more* bytes (the
    // overhead) but recovers packets the control could only refetch.
    let recovered: u64 = report.shards.iter().map(|s| s.fec_recovered_packets).sum();
    assert!(recovered > 0);
}

#[test]
fn backpressure_outcome_is_deterministic_per_seed() {
    let a = run_overloaded(23);
    let b = run_overloaded(23);
    assert_eq!(a.outcomes, b.outcomes, "same seed ⇒ same outcomes");
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.shed_count(), b.shed_count());
    for p in [50.0, 95.0, 99.0] {
        for tenant in 0..TENANTS {
            assert_eq!(
                a.ttft_percentile(Some(tenant), p),
                b.ttft_percentile(Some(tenant), p),
                "tenant {tenant} p{p} diverged"
            );
        }
    }

    // Different seeds exercise a different schedule (sanity that the
    // determinism above is not vacuous).
    let c = run_overloaded(29);
    assert_ne!(a.outcomes, c.outcomes);
}
