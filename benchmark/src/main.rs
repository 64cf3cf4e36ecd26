//! Layered benchmark of the CacheGen workspace.
//!
//! Two ways to run it:
//!
//! * **One workload** (what `BENCHMARK.json`'s command runs):
//!   `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs that
//!   workload in this process and prints, as the last line of stdout,
//!   one JSON object `{"correct", "attempted", "failed", "metrics"}` —
//!   the end-to-end metrics with `--trace 0`, the per-layer ledger with
//!   `--trace 1`.
//! * **The whole set**: without `--workload`, every workload runs in a
//!   fresh child process, untraced then traced, and every metric is
//!   printed by name with its unit. `--repeat N` does that N times and
//!   prints the noise report (A/A mode).
//!
//! Everything is measured from outside the crates, by timing calls into
//! their public functions with `std::time::Instant`.

mod fixture;
mod micro;
mod ops;
mod serve;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use cachegen_telemetry::JsonValue;
use ops::LoadKind;
use std::process::ExitCode;
use workloads::{Kind, Report};

/// How much untimed work a run does around its timed loop.
pub struct Scale {
    /// Times the fixture is built (`setup_s` is the median).
    pub setup_repeats: usize,
    /// Fault-seed rounds per context in the slot cycle.
    pub rounds: usize,
    /// Requests in the `serve_mixed` trace (what the oracle serves).
    pub serve_requests: usize,
    /// Leading requests of the trace the thread backend replays.
    pub serve_replay: usize,
    /// Samples per micro row.
    pub micro_samples: usize,
    /// Samples per ledger row whose single call takes tens of
    /// milliseconds.
    pub heavy_samples: usize,
}

impl Scale {
    /// The scale every comparable number is measured at.
    const FULL: Scale = Scale {
        setup_repeats: 3,
        rounds: 16,
        serve_requests: 3000,
        serve_replay: 600,
        micro_samples: 30,
        heavy_samples: 7,
    };
    /// `--quick`: enough to exercise every code path in a smoke test.
    const QUICK: Scale = Scale {
        setup_repeats: 1,
        rounds: 2,
        serve_requests: 360,
        serve_replay: 120,
        micro_samples: 9,
        heavy_samples: 3,
    };
}

/// Parsed command line.
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    repeat: usize,
}

const USAGE: &str = "usage: cachegen-benchmark [--workload <name> --trace <0|1>] [--seed <u64>] \
                     [--seconds <s>] [--repeat <n>] [--quick]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        repeat: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Runs one workload in this process.
fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool, scale: &Scale) -> Option<Report> {
    let kind = match name {
        "load_clean" => Kind::Load(LoadKind::Clean),
        "load_lossy" => Kind::Load(LoadKind::Lossy),
        "store_ingest" => Kind::Ingest,
        "transport_burst" => Kind::Transport,
        "serve_mixed" => return Some(serve::run(name, seed, seconds, trace, scale)),
        _ => return None,
    };
    Some(workloads::run(kind, name, seed, seconds, trace, scale))
}

/// The result line of one workload run.
fn result_json(report: Report, trace: bool) -> String {
    let table: &[(&str, &str)] = if trace {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    };
    let metrics = report
        .metrics
        .into_ordered(table, trace)
        .into_iter()
        .map(|(name, value, unit)| {
            let entry = JsonValue::Object(vec![
                ("value".into(), JsonValue::Number(value)),
                ("unit".into(), JsonValue::String(unit.into())),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    JsonValue::Object(vec![
        ("correct".into(), JsonValue::Bool(report.failed == 0)),
        (
            "attempted".into(),
            JsonValue::Number(report.attempted as f64),
        ),
        ("failed".into(), JsonValue::Number(report.failed as f64)),
        ("metrics".into(), JsonValue::Object(metrics)),
    ])
    .to_compact()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scale = if args.quick {
        &Scale::QUICK
    } else {
        &Scale::FULL
    };
    let Some(name) = &args.workload else {
        return suite::run(&args);
    };
    let seconds = args.seconds.unwrap_or(suite::DEFAULT_SECONDS);
    if args.quick {
        println!("# QUICK RUN: scaled-down smoke test, numbers are not comparable with anything");
    }
    println!(
        "# {} workload={name} seed={} seconds={seconds} trace={}",
        suite::provenance(),
        args.seed,
        u8::from(args.trace),
    );
    let Some(report) = run_workload(name, args.seed, seconds, args.trace, scale) else {
        eprintln!(
            "unknown workload {name}; known: {}",
            spec::WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    for e in &report.errors {
        eprintln!("FAILED: {e}");
    }
    let correct = report.failed == 0;
    println!("{}", result_json(report, args.trace));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
