//! Thread-backend throughput sweep: the `serving` example's workload
//! replayed on real OS threads at 1→N workers per shard, written to
//! `BENCH_serving_threads.json` at the workspace root.
//!
//! ```text
//! cargo bench --bench serving -- --cores 2
//! ```
//!
//! One replay of the 160-request trace takes tens of milliseconds and
//! swings ±50% run to run, so every sweep point is [`SAMPLES`] replays,
//! summarised over `ThreadRunStats::wall_secs` (first feed → last batch
//! completion). Each replay gets a cold cluster built outside the timed
//! region, so the points replay the same cold-start plan, runs untraced,
//! and must reproduce the virtual oracle's outcomes exactly.

use cachegen_bench::harness::{ServingDemo, Snapshot, Summary};
use cachegen_serving::ThreadBackend;
use cachegen_streamer::AdaptPolicy;
use cachegen_telemetry::NOOP;

/// Replays per sweep point.
const SAMPLES: usize = 7;

fn main() {
    // `--cores N` is the sweep's last point (default: this host's
    // parallelism); Cargo's own `--bench` argument is ignored.
    let args: Vec<String> = std::env::args().collect();
    let cores: usize = match args.iter().position(|a| a == "--cores") {
        Some(i) => args[i + 1].parse().expect("--cores takes a count"),
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let demo = ServingDemo::generate();
    let requests = &demo.workload.requests;
    let cluster = || demo.cluster(ServingDemo::config(AdaptPolicy::Adaptive), None);
    let oracle = cluster().run(requests);
    let completed = oracle.completed().count() as f64;

    let mut snap = Snapshot::new("serving_threads", SAMPLES);
    let mut decoded_chunks = 0;
    for workers in 1..=cores {
        let walls: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let (report, stats) =
                    ThreadBackend::new(workers).run_detailed(&mut cluster(), requests, &NOOP);
                assert_eq!(
                    report.outcomes, oracle.outcomes,
                    "thread backend ({workers} workers) diverged from the oracle"
                );
                assert!(
                    stats.decode_errors.is_empty(),
                    "decode errors: {:?}",
                    stats.decode_errors
                );
                decoded_chunks = stats.decoded_chunks;
                stats.wall_secs
            })
            .collect();
        let wall = Summary::of(&walls);
        snap.row(&format!("wall_ms_w{workers}"), "ms", wall.scaled(1e3));
        snap.row(
            &format!("req_per_s_w{workers}"),
            "1/s",
            wall.rate(completed),
        );
    }
    snap.info("cores", cores as f64);
    snap.info("requests", requests.len() as f64);
    snap.info("completed", completed);
    snap.info("decoded_chunks", decoded_chunks as f64);
    snap.info("virtual_makespan_s", oracle.makespan);
    snap.write("BENCH_serving_threads.json");
}
