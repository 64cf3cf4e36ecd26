//! Smoke and schema test: every workload runs at `--quick` scale, prints
//! exactly the metrics and units `BENCHMARK.json` lists, repeats its
//! seed-only metrics bit for bit, and reacts to the seed.

use cachegen_telemetry::{json, JsonValue};
use std::path::Path;
use std::process::Command;

/// The benchmark's own name tables (the binary has no library target).
#[allow(dead_code)]
#[path = "../src/spec.rs"]
mod spec;
use spec::EXACT;

fn benchmark_json() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn list<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {key}"))
}

fn text<'a>(entry: &'a JsonValue, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("entry has a string {key}"))
}

/// Runs one workload at `--quick` scale; returns `(name, value, unit)`
/// per printed metric.
fn run(workload: &str, seed: u64, trace: bool) -> Vec<(String, f64, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_cachegen-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0.3",
            "--trace",
            if trace { "1" } else { "0" },
            "--quick",
        ])
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("QUICK RUN"), "quick runs carry the banner");
    let doc = json::parse(stdout.lines().last().expect("a result line")).expect("result is JSON");
    let JsonValue::Object(members) = &doc else {
        panic!("result is an object");
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)));
    assert_eq!(doc.get("failed").and_then(JsonValue::as_f64), Some(0.0));
    assert!(
        doc.get("attempted")
            .and_then(JsonValue::as_f64)
            .expect("attempted")
            >= 1.0
    );
    let Some(JsonValue::Object(metrics)) = doc.get("metrics") else {
        panic!("metrics is an object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(JsonValue::as_f64).expect("value");
            (name.clone(), value, text(m, "unit").to_owned())
        })
        .collect()
}

fn assert_matches_table(printed: &[(String, f64, String)], table: &[JsonValue], what: &str) {
    let printed: Vec<(&str, &str)> = printed
        .iter()
        .map(|(n, _, u)| (n.as_str(), u.as_str()))
        .collect();
    let listed: Vec<(&str, &str)> = table
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect();
    assert_eq!(
        printed, listed,
        "{what}: printed metrics differ from BENCHMARK.json"
    );
}

#[test]
fn benchmark_json_meets_the_contract() {
    let doc = benchmark_json();
    let JsonValue::Object(members) = &doc else {
        panic!("BENCHMARK.json is an object");
    };
    let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let workloads = list(&doc, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert!(text(w, "why").len() <= 200 && !text(w, "why").contains('\n'));
    }
    let end_to_end = list(&doc, "end_to_end");
    assert!((1..=16).contains(&end_to_end.len()));
    for m in end_to_end {
        let bound = m.get("bound").and_then(JsonValue::as_f64).expect("bound");
        assert!(
            bound > 0.0 && bound <= 0.25,
            "{}: bound {bound}",
            text(m, "name")
        );
        assert!(["lower", "higher"].contains(&text(m, "better")));
    }
    let setup = end_to_end
        .iter()
        .find(|m| text(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    assert!((1..=128).contains(&list(&doc, "per_layer").len()));
    let seconds = doc
        .get("run_seconds")
        .and_then(JsonValue::as_f64)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&seconds) && seconds == seconds.trunc());
}

#[test]
fn every_workload_prints_the_listed_metrics_and_repeats_its_exact_ones() {
    let doc = benchmark_json();
    for w in list(&doc, "workloads") {
        let workload = text(w, "name");
        let first = run(workload, 1, false);
        assert_matches_table(&first, list(&doc, "end_to_end"), workload);
        for (name, value, _) in &first {
            assert!(*value != 0.0, "{workload}: end-to-end metric {name} is 0");
        }
        let again = run(workload, 1, false);
        let other_seed = run(workload, 2, false);
        let value_of = |run: &[(String, f64, String)], name: &str| {
            run.iter()
                .find(|m| m.0 == name)
                .expect("metric is printed")
                .1
        };
        for name in EXACT {
            let (a, b) = (value_of(&first, name), value_of(&again, name));
            let same = if name == "kv_nmse" {
                (a - b).abs() <= 1e-6 * a.abs()
            } else {
                a == b
            };
            assert!(same, "{workload}: {name} read {a} then {b} with one seed");
        }
        assert_ne!(
            value_of(&first, "wire_bytes_per_token"),
            value_of(&other_seed, "wire_bytes_per_token"),
            "{workload}: the seed does not reach the inputs"
        );
        let traced = run(workload, 1, true);
        assert_matches_table(&traced, list(&doc, "per_layer"), workload);
    }
}

#[test]
fn unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_cachegen-benchmark"))
        .args([
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark starts");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
