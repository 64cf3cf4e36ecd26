//! Perf ratchet over a committed `BENCH_*.json` snapshot: fails CI when
//! a measured key falls below its pinned absolute floor.
//!
//! ```text
//! cargo run -p cachegen-bench --release --bin ratchet -- \
//!     --min kv_encode_melem_per_s=40 --min kv_decode_melem_per_s=60
//! cargo run -p cachegen-bench --release --bin ratchet -- \
//!     --file BENCH_net.json --min rs_parity_mb_per_s_r2=1200
//! ```
//!
//! `--file` is relative to the workspace root and defaults to
//! `BENCH_codec.json`. The floors are pinned in the workflow (not here)
//! so loosening the ratchet is a visible CI-config change, not a silent
//! code edit. In `BENCH_codec.json` gate the `kv_*` rows — whole-context
//! encode and decode with every level's tables live; the `micro_*` rows
//! time one hot table, which is not traffic the codec ever sees, and are
//! information only.

use cachegen_telemetry::{json, workspace_root, JsonValue};

const USAGE: &str = "usage: ratchet [--file <BENCH_x.json>] --min <key>=<floor> [--min ...]";

fn fail(msg: &str) -> ! {
    eprintln!("ratchet: {msg}");
    std::process::exit(1);
}

fn main() {
    let mut floors: Vec<(String, f64)> = Vec::new();
    let mut file = "BENCH_codec.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--min" => {
                let spec = args.next().unwrap_or_default();
                match spec
                    .split_once('=')
                    .and_then(|(key, floor)| Some((key, floor.parse::<f64>().ok()?)))
                {
                    Some((key, floor)) if !key.is_empty() && floor.is_finite() => {
                        floors.push((key.to_string(), floor));
                    }
                    _ => fail(&format!("'--min {spec}' is not <key>=<number>\n{USAGE}")),
                }
            }
            "--file" => match args.next() {
                Some(name) => file = name,
                None => fail(&format!("'--file' needs a path\n{USAGE}")),
            },
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if floors.is_empty() {
        fail(USAGE);
    }

    let path = workspace_root().join(&file);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
    let doc = json::parse(&text)
        .unwrap_or_else(|e| fail(&format!("{} is not valid JSON: {e}", path.display())));

    let mut failed = false;
    for (key, floor) in &floors {
        match doc.get(key).and_then(JsonValue::as_f64) {
            Some(v) if v.is_finite() && v >= *floor => {
                println!("ratchet: {key} = {v:.2} >= {floor:.2}");
            }
            Some(v) if v.is_finite() => {
                eprintln!("ratchet: FAIL — {key} = {v:.2} is below the pinned floor {floor:.2}");
                failed = true;
            }
            _ => {
                eprintln!("ratchet: FAIL — {file} has no finite numeric '{key}'");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("ratchet: OK");
}
