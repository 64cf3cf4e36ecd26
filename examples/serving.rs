//! Sharded multi-tenant serving under shared-prefix (RAG fan-out) load.
//!
//! Four tenants fire Zipf-skewed queries against a corpus of shared
//! documents served by a two-shard cluster. Each shard owns an engine, a
//! local KV-bitstream cache, and a store link; per-tenant bounded queues
//! apply backpressure and same-context fetches coalesce into one transfer.
//! The demo replays the identical trace twice — once with CacheGen's KV
//! streaming (+ caching + batching), once with the text-fallback baseline
//! that re-prefills every context — and compares per-tenant TTFT
//! percentiles. It also replays the CacheGen run a second time to show
//! the virtual-clock simulation is deterministic.
//!
//! A final traced replay — on store links with 5% seeded packet loss and
//! loss-adaptive FEC, so the packet and parity path is in the snapshot —
//! exports the full request-lifecycle telemetry: `serving_trace.json`
//! (Chrome trace-event format — load it in Perfetto or `chrome://tracing`;
//! shards appear as processes, tenants as threads) and
//! `BENCH_serving.json` (the metrics-registry snapshot with TTFT
//! percentiles, shed rates and packet/FEC counters), both at the workspace
//! root and both byte-identical across same-seed runs.
//!
//! Run with: `cargo run --release --example serving`
//!
//! With `--backend threads [--cores N]` the identical workload instead
//! runs on the real OS-thread execution backend: the virtual-clock
//! oracle plans the run, then N real workers per shard replay it (chunk
//! decodes on the shared codec pool). Outcomes are asserted identical to
//! the oracle's and the run's wall-clock trace lands in
//! `serving_trace_threads.json`. The 1→N throughput sweep is
//! `cargo bench --bench serving`.

use cachegen::qoe::QoeModel;
use cachegen_bench::harness::ServingDemo;
use cachegen_serving::{ServingConfig, ServingReport, ThreadBackend};
use cachegen_streamer::{AdaptPolicy, FecOverhead};
use cachegen_telemetry::{
    chrome_trace_json, metrics_snapshot_json, validate_chrome_trace, workspace_root, Recorder,
    Stage, NOOP,
};

/// Packet loss on the exported replay's store links.
const EXPORT_LOSS: f64 = 0.05;

fn run(policy: AdaptPolicy, demo: &ServingDemo) -> ServingReport {
    demo.cluster(ServingDemo::config(policy), None)
        .run(&demo.workload.requests)
}

/// The exported replay: the CacheGen run on lossy links, parity picked
/// by the loss-adaptive ladder and no retransmits, so every drop is
/// either rebuilt from parity or repaired.
fn run_lossy(demo: &ServingDemo, recorder: &Recorder) -> ServingReport {
    let cfg = ServingConfig {
        fec_overhead: FecOverhead::adaptive_default(),
        retransmit_budget: 0,
        ..ServingDemo::config(AdaptPolicy::Adaptive)
    };
    demo.cluster(cfg, Some(EXPORT_LOSS))
        .plan_run(&demo.workload.requests, recorder)
        .0
}

fn summarize(name: &str, report: &ServingReport) {
    let qoe = QoeModel::default();
    println!("{name}:");
    println!(
        "  {:>7} {:>10} {:>10} {:>10}",
        "tenant", "requests", "p50 TTFT", "p95 TTFT"
    );
    for t in 0..ServingDemo::TENANTS {
        let n = report.ttfts(Some(t)).len();
        println!(
            "  {:>7} {:>10} {:>9.0}ms {:>9.0}ms",
            t,
            n,
            report.ttft_percentile(Some(t), 50.0).unwrap_or(f64::NAN) * 1e3,
            report.ttft_percentile(Some(t), 95.0).unwrap_or(f64::NAN) * 1e3,
        );
    }
    for (i, s) in report.shards.iter().enumerate() {
        println!(
            "  shard {i}: util {:>3.0}%  batches {:>3}  coalesced {:>3}  \
             cache hit {:>3.0}%  fetched {} KB  peak queue {}",
            100.0 * s.utilization(report.makespan),
            s.batches,
            s.coalesced_requests,
            100.0 * s.cache.hit_ratio(),
            s.bytes_fetched / 1024,
            s.peak_queue_depth,
        );
    }
    println!(
        "  fleet: p50 {:.0} ms  p95 {:.0} ms  quality {:.3}  MOS {:.2}  \
         shed {}  degraded {}\n",
        report.ttft_percentile(None, 50.0).unwrap_or(f64::NAN) * 1e3,
        report.ttft_percentile(None, 95.0).unwrap_or(f64::NAN) * 1e3,
        report.mean_quality(),
        report.mean_mos(&qoe),
        report.shed_count(),
        report.degraded_count(),
    );
}

fn main() {
    let (backend, cores) = parse_args();
    let demo = ServingDemo::generate();
    println!(
        "{} requests, {} tenants, {} shared documents, {} shards, ~{:.0} req/s, backend {}\n",
        ServingDemo::REQUESTS,
        ServingDemo::TENANTS,
        demo.workload.documents.len(),
        ServingDemo::SHARDS,
        ServingDemo::RATE_HZ,
        backend,
    );
    if backend == "threads" {
        run_threads_demo(&demo, cores);
        return;
    }

    let cachegen = run(AdaptPolicy::Adaptive, &demo);
    summarize("CacheGen (KV streaming + cache + batching)", &cachegen);

    let text = run(AdaptPolicy::AlwaysText, &demo);
    summarize("Text fallback baseline (re-prefill every context)", &text);

    let replay = run(AdaptPolicy::Adaptive, &demo);
    let deterministic = replay.outcomes == cachegen.outcomes;
    println!(
        "deterministic replay (same seed, same percentiles): {}",
        if deterministic { "yes" } else { "NO" }
    );
    assert!(deterministic, "virtual-clock replay diverged");

    let p50_kv = cachegen.ttft_percentile(None, 50.0).expect("completions");
    let p50_text = text.ttft_percentile(None, 50.0).expect("completions");
    println!(
        "p50 TTFT: CacheGen {:.0} ms vs text baseline {:.0} ms ({:.1}x)",
        p50_kv * 1e3,
        p50_text * 1e3,
        p50_text / p50_kv
    );
    assert!(
        p50_kv < p50_text,
        "cached multi-tenant load must beat the text baseline"
    );

    // Traced replay on the lossy links: the recorder observes, never
    // perturbs — the traced run must resolve every request exactly like
    // its untraced twin.
    let untraced = run_lossy(&demo, &NOOP);
    let export = || {
        let recorder = Recorder::new();
        let report = run_lossy(&demo, &recorder);
        let trace = chrome_trace_json(&recorder.spans(), &recorder.instants());
        let metrics = metrics_snapshot_json(&recorder.registry_snapshot());
        (recorder, report, trace, metrics)
    };
    let (recorder, traced, trace, metrics) = export();
    assert_eq!(
        traced.outcomes, untraced.outcomes,
        "recording must be observation-only"
    );
    let (_, _, trace_again, metrics_again) = export();
    assert_eq!(trace, trace_again, "trace export must be byte-identical");
    assert_eq!(
        metrics, metrics_again,
        "metrics export must be byte-identical"
    );

    // The exported trace must validate (one root per request, children
    // contained) and each request's child spans must tile >= 99% of its
    // TTFT — the span tree accounts for where every millisecond went.
    let summary = validate_chrome_trace(&trace).expect("exported trace must validate");
    let spans = recorder.spans();
    for (i, outcome) in traced.outcomes.iter().enumerate() {
        let Some(ttft) = outcome.ttft() else { continue };
        let covered: f64 = spans
            .iter()
            .filter(|s| s.ctx.request == i as u64)
            .filter(|s| {
                matches!(
                    s.stage,
                    Stage::QueueWait | Stage::StoreFetch | Stage::CacheDecode | Stage::Prefill
                )
            })
            .map(|s| s.duration())
            .sum();
        assert!(
            covered >= 0.99 * ttft,
            "request {i}: span tree covers {covered:.6}s of {ttft:.6}s TTFT"
        );
    }

    let root = workspace_root();
    let trace_path = root.join("serving_trace.json");
    std::fs::write(&trace_path, &trace).expect("write serving_trace.json");
    let bench_path = root.join("BENCH_serving.json");
    std::fs::write(&bench_path, &metrics).expect("write BENCH_serving.json");
    println!(
        "\ntelemetry: {} spans, {} instants, {} request roots — \
         wrote {} (load it in Perfetto) and {}",
        summary.spans,
        summary.instants,
        summary.requests,
        trace_path.display(),
        bench_path.display(),
    );
}

/// `--backend virtual|threads` and `--cores N` (threads only; defaults
/// to this host's available parallelism).
fn parse_args() -> (String, usize) {
    let mut backend = "virtual".to_string();
    let mut cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--backend" => {
                backend = value(i).clone();
                assert!(
                    backend == "virtual" || backend == "threads",
                    "unknown backend `{backend}` (virtual|threads)"
                );
                i += 2;
            }
            "--cores" => {
                cores = value(i).parse().unwrap_or_else(|e| panic!("--cores: {e}"));
                assert!(cores >= 1, "--cores must be >= 1");
                i += 2;
            }
            other => panic!("unknown argument `{other}` (--backend, --cores)"),
        }
    }
    (backend, cores)
}

/// The thread-backend path: oracle reference first, then one wall-clock
/// replay of the identical workload at `workers` workers per shard, with
/// outcome equality asserted. Artifact: `serving_trace_threads.json`.
fn run_threads_demo(demo: &ServingDemo, workers: usize) {
    let oracle = run(AdaptPolicy::Adaptive, demo);
    println!(
        "virtual oracle: {} completed, makespan {:.2}s (virtual), p50 {:.0} ms",
        oracle.completed().count(),
        oracle.makespan,
        oracle.ttft_percentile(None, 50.0).unwrap_or(f64::NAN) * 1e3,
    );

    let mut cluster = demo.cluster(ServingDemo::config(AdaptPolicy::Adaptive), None);
    let recorder = Recorder::new();
    let (report, stats) =
        ThreadBackend::new(workers).run_detailed(&mut cluster, &demo.workload.requests, &recorder);
    assert_eq!(
        report.outcomes, oracle.outcomes,
        "thread backend ({workers} workers) diverged from the oracle"
    );
    assert!(
        stats.decode_errors.is_empty(),
        "decode errors: {:?}",
        stats.decode_errors
    );
    println!(
        "{workers} workers per shard: {:.3}s wall, {} chunks decoded",
        stats.wall_secs, stats.decoded_chunks
    );

    // The wall-clock trace carries the same taxonomy as the oracle's and
    // must satisfy the same structural contract.
    let trace = chrome_trace_json(&recorder.spans(), &recorder.instants());
    let summary = validate_chrome_trace(&trace).expect("thread-backend trace must validate");
    let trace_path = workspace_root().join("serving_trace_threads.json");
    std::fs::write(&trace_path, &trace).expect("write serving_trace_threads.json");
    println!(
        "\noutcomes identical to the oracle; {} spans, {} request roots — wrote {}",
        summary.spans,
        summary.requests,
        trace_path.display(),
    );
    println!("{}", metrics_snapshot_json(&recorder.registry_snapshot()));
}
