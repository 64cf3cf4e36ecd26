//! Bandwidth-adaptive streaming on the paper's Figure 7 scenario, plus
//! loss-resilient packetized delivery.
//!
//! Part 1 — a KV stream starts on a 2 Gbps link; at t = 2 s the bandwidth
//! collapses to 0.2 Gbps, recovering to 1 Gbps at t = 4 s. A fixed
//! encoding level blows through the SLO; CacheGen's adapter (Algorithm 1)
//! watches the measured per-chunk throughput and downshifts (or falls
//! back to text + recompute), meeting the deadline.
//!
//! Part 2 — the same engine-backed stream is fetched over a seeded lossy
//! and reordering link: every per-(layer, group) entropy chunk travels
//! as its own packet, holes left after the retransmit budget are
//! repaired by neighbor-anchor interpolation (provenance printed per
//! chunk), and the stream finishes on time instead of stalling.
//!
//! Run with: `cargo run --release --example adaptive_streaming`
//! Override the fault injection: `-- --loss 0.05 --reorder 0.1`

use cachegen::{load_stored, CacheGenEngine, EngineConfig, LoadParams, RepairPolicy};
use cachegen_llm::SimModelConfig;
use cachegen_net::trace::{BandwidthTrace, GBPS};
use cachegen_net::{Link, PacketFaults};
use cachegen_streamer::{
    simulate_stream, AdaptPolicy, ChunkPlan, ChunkSizes, FecOverhead, LevelLadder, StreamConfig,
    StreamParams,
};
use cachegen_telemetry::NOOP;

fn figure7_adaptation() {
    // Paper-scale plan: a ~1 GB KV stream in 6 chunks, encoded at four
    // levels (sizes from the measured CacheGen ratios), 6 KB of text each.
    let chunk = || {
        ChunkSizes::new(
            1_500,
            vec![170_000_000, 110_000_000, 70_000_000, 40_000_000],
            6_000,
        )
    };
    let plan = ChunkPlan::new((0..6).map(|_| chunk()).collect());
    let ladder = LevelLadder::new(vec![0.5, 1.0, 1.5, 2.5]);
    let slo = 4.0;

    let decode = |bytes: u64| bytes as f64 / 2.0e9; // GPU AC decoder
    let recompute = |tokens: usize| tokens as f64 * 4.0e-4; // prefill/token

    println!("Figure 7 trace: 2 Gbps -> 0.2 Gbps @2s -> 1 Gbps @4s; SLO {slo} s\n");
    for (name, policy) in [
        ("fixed level 0 (no adaptation)", AdaptPolicy::FixedLevel(0)),
        ("CacheGen adaptive", AdaptPolicy::Adaptive),
    ] {
        let mut link = Link::new(BandwidthTrace::figure7(), 0.0);
        let params = StreamParams {
            slo: Some(slo),
            policy,
            prior_throughput_bps: Some(2.0 * GBPS),
            concurrent_requests: 1,
            retransmit_budget: 0,
            fec_overhead: FecOverhead::Off,
            ladder: &ladder,
            decode_seconds: &decode,
            recompute_seconds: &recompute,
            recorder: None,
        };
        let out = simulate_stream(&plan, &mut link, &params);
        println!("{name}:");
        println!(
            "  {:>5} {:>14} {:>12} {:>10} {:>10}",
            "chunk", "config", "bytes", "sent at", "ready at"
        );
        for c in &out.chunks {
            let cfg = match c.config {
                StreamConfig::Level(l) => format!("level {l}"),
                StreamConfig::Text => "text+recompute".to_string(),
            };
            println!(
                "  {:>5} {:>14} {:>12} {:>9.2}s {:>9.2}s",
                c.index, cfg, c.bytes, c.transfer_start, c.ready
            );
        }
        println!(
            "  finish {:.2} s — SLO {}\n",
            out.finish,
            if out.slo_met { "MET" } else { "VIOLATED" }
        );
    }
}

fn loss_resilient_streaming(loss: f64, reorder: f64) {
    println!(
        "Loss resilience: packetized fetch at {loss:.0$}% loss + {reorder:.0$}% reorder (seeded)\n",
        0
    );
    let profile: Vec<usize> = (0..120).map(|i| (i * 7) % 512).collect();
    let engine = CacheGenEngine::build(
        SimModelConfig::llama7b_sim(42),
        EngineConfig::default(),
        &[profile],
    );
    let ctx: Vec<usize> = (0..150).map(|i| (i * 13) % 512).collect();
    let reference = engine.calculate_kv(&ctx);
    // Ingest once; both policies below load the same stored bytes.
    let plan = engine.store_prefilled(1, &ctx, &reference);

    let faults = PacketFaults {
        loss: loss / 100.0,
        reorder: reorder / 100.0,
        ..PacketFaults::none()
    };
    let run = |repair: RepairPolicy, budget: usize| {
        let mut link = Link::new(BandwidthTrace::constant(2e6), 0.02).with_packet_faults(faults, 7);
        let params = LoadParams {
            prior_throughput_bps: Some(2e6),
            repair,
            retransmit_budget: budget,
            ..LoadParams::default()
        };
        load_stored(&engine, 1, &plan, &mut link, &params, &NOOP).expect("stored context loads")
    };

    let stall = run(RepairPolicy::AnchorInterpolate, usize::MAX);
    let repairing = run(RepairPolicy::AnchorInterpolate, 1);
    println!(
        "  stall-and-retry baseline: finish {:.3} s ({} retransmits, 0 holes)",
        stall.stream.finish,
        stall.stream.retransmits()
    );
    println!(
        "  anchor-interpolate:       finish {:.3} s ({} retransmits, {} repaired chunks = {:.1}%)",
        repairing.stream.finish,
        repairing.stream.retransmits(),
        repairing.repairs.len(),
        100.0 * repairing.repaired_fraction
    );
    for (chunk, r) in repairing.repairs.iter().take(6) {
        println!(
            "    chunk {chunk}: {}[layer {}, group {}] {:?} <- {:?}",
            if r.is_k { "K" } else { "V" },
            r.layer,
            r.group,
            r.kind,
            r.cause
        );
    }
    if repairing.repairs.len() > 6 {
        println!("    … and {} more", repairing.repairs.len() - 6);
    }
    let mse = reference.mse(&repairing.cache);
    println!(
        "  repaired cache mse vs reference: {mse:.4} (finite, bounded — no stall, no noise)\n"
    );
    assert!(
        repairing.cache.k().data().iter().all(|x| x.is_finite()),
        "repaired cache must be finite"
    );
    assert!(
        repairing.stream.finish <= stall.stream.finish,
        "repairing must never finish after the stall baseline"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str, default: f64| -> f64 {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let loss = flag("--loss", 0.05) * 100.0;
    let reorder = flag("--reorder", 0.10) * 100.0;

    figure7_adaptation();
    loss_resilient_streaming(loss, reorder);
}
