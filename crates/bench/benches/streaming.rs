//! Streaming-simulation throughput: how fast the virtual-time adapter
//! sweeps run (the Figure 13 workload is 20 traces × 3 policies × 2 SLOs,
//! so the simulator itself must be cheap).

use cachegen_bench::harness::{report, sample};
use cachegen_net::trace::{BandwidthTrace, GBPS};
use cachegen_net::Link;
use cachegen_streamer::{
    simulate_stream, AdaptPolicy, ChunkPlan, ChunkSizes, FecOverhead, LevelLadder, StreamParams,
};
use cachegen_tensor::rng::seeded;
use std::hint::black_box;

/// Timed calls per row.
const SAMPLES: usize = 31;
/// Simulated streams per timed call: one takes under a microsecond.
const PASSES: usize = 1_000;

/// Prints microseconds per simulated stream of `stream`.
fn bench<T>(key: &str, mut stream: impl FnMut() -> T) {
    let secs = sample(SAMPLES, || {
        for _ in 0..PASSES {
            black_box(stream());
        }
    });
    report(key, "us", secs.scaled(1e6 / PASSES as f64));
}

fn plan() -> ChunkPlan {
    ChunkPlan::new(
        (0..7)
            .map(|_| {
                ChunkSizes::new(
                    1_500,
                    vec![170_000_000, 110_000_000, 70_000_000, 40_000_000, 25_000_000],
                    6_000,
                )
            })
            .collect(),
    )
}

fn main() {
    let plan = plan();
    let ladder = LevelLadder::paper_default();
    let decode = |bytes: u64| bytes as f64 / 2.0e9;
    let recompute = |tokens: usize| tokens as f64 * 3.6e-4;

    bench("streaming_sim/adaptive_over_random_trace", || {
        let mut rng = seeded(9);
        let trace = BandwidthTrace::random_uniform(&mut rng, 0.1 * GBPS, 10.0 * GBPS, 0.25, 40);
        let mut link = Link::new(trace, 0.0);
        let params = StreamParams {
            slo: Some(1.0),
            policy: AdaptPolicy::Adaptive,
            prior_throughput_bps: Some(5.0 * GBPS),
            concurrent_requests: 1,
            retransmit_budget: 0,
            fec_overhead: FecOverhead::Off,
            ladder: &ladder,
            decode_seconds: &decode,
            recompute_seconds: &recompute,
            recorder: None,
        };
        simulate_stream(&plan, &mut link, &params)
    });
    bench("streaming_sim/fixed_level_constant_bw", || {
        let mut link = Link::new(BandwidthTrace::constant(3.0 * GBPS), 0.0);
        let params = StreamParams {
            slo: None,
            policy: AdaptPolicy::FixedLevel(1),
            prior_throughput_bps: None,
            concurrent_requests: 1,
            retransmit_budget: 0,
            fec_overhead: FecOverhead::Off,
            ladder: &ladder,
            decode_seconds: &decode,
            recompute_seconds: &recompute,
            recorder: None,
        };
        simulate_stream(&plan, &mut link, &params)
    });
}
