//! The whole set: every workload in a fresh child process, untraced then
//! traced, printed by name with units; `--repeat N` adds the A/A noise
//! report and fails when two runs of one binary and seed disagree by
//! more than a metric's bound.

use crate::spec::{self, EXACT, WORKLOADS};
use crate::stats::Summary;
use crate::Args;
use cachegen_telemetry::{json, JsonValue};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Seconds each run measures unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 8.0;
/// `--quick` run length.
const QUICK_SECONDS: f64 = 0.3;

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .map(str::to_owned)
    })?
}

/// What every result line carries besides seed and run length: commit,
/// compiler and core count. The commit comes from `BENCH_COMMIT` (set by
/// `run.sh`) or `git`; a checkout that is no repository reads `unknown`.
pub fn provenance() -> String {
    let commit = std::env::var("BENCH_COMMIT").ok().or_else(|| {
        let dir = manifest_dir().to_string_lossy();
        first_line_of("git", &["-C", &dir, "rev-parse", "--short", "HEAD"])
    });
    format!(
        "commit={} rustc=\"{}\" available_parallelism={}",
        commit.as_deref().unwrap_or("unknown"),
        first_line_of("rustc", &["-V"])
            .as_deref()
            .unwrap_or("unknown"),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )
}

/// `end_to_end` of `BENCHMARK.json`: name → regression bound.
fn load_bounds() -> Result<Vec<(String, f64)>, String> {
    let path = manifest_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    doc.get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(JsonValue::as_str);
            let bound = m.get("bound").and_then(JsonValue::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_owned(), b))
                .ok_or_else(|| "an end_to_end entry lacks name or bound".to_owned())
        })
        .collect()
}

/// One child run's parsed result line.
struct ChildResult {
    correct: bool,
    metrics: Vec<(String, f64, String)>,
}

fn run_child(
    workload: &str,
    args: &Args,
    seconds: f64,
    trace: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let doc =
        json::parse(line).map_err(|e| format!("child's last line is not JSON ({e}): {line}"))?;
    let JsonValue::Object(members) = doc.get("metrics").ok_or("no metrics")? else {
        return Err("metrics is not an object".into());
    };
    let metrics = members
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(JsonValue::as_f64);
            let unit = m.get("unit").and_then(JsonValue::as_str);
            value
                .zip(unit)
                .map(|(v, u)| (name.clone(), v, u.to_owned()))
                .ok_or_else(|| format!("metric {name} lacks value or unit"))
        })
        .collect::<Result<_, _>>()?;
    Ok(ChildResult {
        correct: out.status.success() && doc.get("correct") == Some(&JsonValue::Bool(true)),
        metrics,
    })
}

/// All values seen for one (workload, metric) pair, run by run.
struct Series {
    workload: &'static str,
    metric: String,
    unit: String,
    end_to_end: bool,
    values: Vec<f64>,
}

fn record(all: &mut Vec<Series>, workload: &'static str, end_to_end: bool, r: ChildResult) {
    for (metric, value, unit) in r.metrics {
        match all
            .iter_mut()
            .find(|s| s.workload == workload && s.metric == metric)
        {
            Some(s) => s.values.push(value),
            None => all.push(Series {
                workload,
                metric,
                unit,
                end_to_end,
                values: vec![value],
            }),
        }
    }
}

/// Whether the runs of one pair agree: exact metrics equal (`kv_nmse` to
/// 1e-6 relative), the rest within `bound` of their median.
fn agrees(s: &Series, bound: f64) -> (bool, f64) {
    let summary = Summary::of(&s.values);
    let (min, max) = s
        .values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let spread = if summary.median == 0.0 {
        max - min
    } else {
        (max - min) / summary.median.abs()
    };
    let limit = match s.metric.as_str() {
        "kv_nmse" => 1e-6,
        m if EXACT.contains(&m) => 0.0,
        _ => bound,
    };
    (spread <= limit, spread)
}

fn results_json(provenance: &str, args: &Args, seconds: f64, all: &[Series]) -> String {
    let series = all
        .iter()
        .map(|s| {
            JsonValue::Object(vec![
                ("workload".into(), JsonValue::String(s.workload.into())),
                ("metric".into(), JsonValue::String(s.metric.clone())),
                ("unit".into(), JsonValue::String(s.unit.clone())),
                (
                    "kind".into(),
                    JsonValue::String(
                        if s.end_to_end {
                            "end_to_end"
                        } else {
                            "per_layer"
                        }
                        .into(),
                    ),
                ),
                (
                    "values".into(),
                    JsonValue::Array(s.values.iter().map(|&v| JsonValue::Number(v)).collect()),
                ),
            ])
        })
        .collect();
    JsonValue::Object(vec![
        ("provenance".into(), JsonValue::String(provenance.into())),
        ("seed".into(), JsonValue::Number(args.seed as f64)),
        ("seconds".into(), JsonValue::Number(seconds)),
        ("quick".into(), JsonValue::Bool(args.quick)),
        ("series".into(), JsonValue::Array(series)),
    ])
    .to_compact()
}

fn out_path() -> PathBuf {
    manifest_dir().join("out").join("results.json")
}

/// Runs the whole set `args.repeat` times.
pub fn run(args: &Args) -> ExitCode {
    let bounds = match load_bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds.unwrap_or(if args.quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    if args.quick {
        println!("# QUICK RUN: scaled-down smoke test, numbers are not comparable with anything");
    }
    let provenance = provenance();
    println!(
        "# {provenance} seed={} seconds={seconds} repeat={}",
        args.seed, args.repeat
    );
    let mut all: Vec<Series> = Vec::new();
    let mut ok = true;
    for run in 1..=args.repeat {
        for workload in WORKLOADS {
            for trace in [false, true] {
                match run_child(workload, args, seconds, trace) {
                    Ok(r) => {
                        if !r.correct {
                            eprintln!(
                                "run {run}: {workload} (trace {trace}) reported a failed check"
                            );
                            ok = false;
                        }
                        for (metric, value, unit) in &r.metrics {
                            println!("run {run}  {workload:<16} {metric:<34} {value:>16.6} {unit}");
                        }
                        record(&mut all, workload, !trace, r);
                    }
                    Err(e) => {
                        eprintln!("run {run}: {workload} (trace {trace}): {e}");
                        ok = false;
                    }
                }
            }
        }
    }

    if args.repeat > 1 {
        println!(
            "\n# noise report: {} runs of one binary, seed {}",
            args.repeat, args.seed
        );
        println!(
            "# {:<16} {:<24} {:>3} {:>14} {:>12} {:>8} {:>9} {:>7}",
            "workload", "metric", "n", "median", "mad", "iqr", "max-min", "bound"
        );
        for s in all.iter().filter(|s| s.end_to_end) {
            let bound = bounds
                .iter()
                .find(|(n, _)| *n == s.metric)
                .map_or(0.0, |(_, b)| *b);
            let summary = Summary::of(&s.values);
            let (agree, spread) = agrees(s, bound);
            println!(
                "  {:<16} {:<24} {:>3} {:>14.6} {:>12.6} {:>7.2}% {:>8.2}% {:>6.1}%{}",
                s.workload,
                s.metric,
                summary.n,
                summary.median,
                summary.mad,
                summary.iqr_share() * 100.0,
                spread * 100.0,
                bound * 100.0,
                if agree { "" } else { "  DISAGREE" }
            );
            ok &= agree;
        }
    }
    for name in all.iter().map(|s| s.metric.as_str()).chain(WORKLOADS) {
        if !spec::valid_name(name) {
            eprintln!("invalid name {name}");
            ok = false;
        }
    }

    let path = out_path();
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, results_json(&provenance, args, seconds, &all)));
    match written {
        Ok(()) => println!("# results written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
