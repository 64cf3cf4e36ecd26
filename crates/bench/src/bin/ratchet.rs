//! Perf ratchet over a `BENCH_*.json` snapshot (`harness::Snapshot`):
//! fails CI when a row's median falls below its pinned absolute floor, or
//! when the row carries no noise estimate — no `mad`, or fewer samples
//! than the snapshot declares.
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
        match gate(&doc, key, *floor) {
            Ok(line) => println!("ratchet: {line}"),
            Err(why) => {
                eprintln!("ratchet: FAIL — {why}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("ratchet: OK");
}

/// One `--min` verdict on snapshot `doc`: the passing line to print, or
/// why row `key` fails.
fn gate(doc: &JsonValue, key: &str, floor: f64) -> Result<String, String> {
    let number = |value: Option<&JsonValue>| value.and_then(JsonValue::as_f64);
    let row = doc.get("rows").and_then(|rows| rows.get(key));
    let field = |name: &str| number(row.and_then(|r| r.get(name))).filter(|v| v.is_finite());
    let median = field("median").ok_or(format!("no row '{key}' with a finite median"))?;
    let mad = field("mad").ok_or(format!("row '{key}' has no mad"))?;
    let declared = number(doc.get("samples")).ok_or("snapshot declares no sample count")?;
    let n = field("n").unwrap_or(0.0);
    if n < declared {
        return Err(format!(
            "row '{key}' has {n} samples, the snapshot declares {declared}"
        ));
    }
    if median < floor {
        return Err(format!(
            "{key} = {median:.2} ± {mad:.2} is below the pinned floor {floor:.2}"
        ));
    }
    Ok(format!(
        "{key} = {median:.2} ± {mad:.2} (MAD) >= {floor:.2}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(row: &str) -> JsonValue {
        json::parse(&format!(r#"{{"samples":31,"rows":{{"k":{row}}}}}"#)).expect("valid JSON")
    }

    #[test]
    fn gates_the_median_and_prints_the_mad() {
        let doc = snapshot(r#"{"median":80.5,"mad":1.25,"n":31,"unit":"x"}"#);
        assert_eq!(
            gate(&doc, "k", 40.0).as_deref(),
            Ok("k = 80.50 ± 1.25 (MAD) >= 40.00")
        );
        assert!(gate(&doc, "k", 81.0).unwrap_err().contains("below"));
        assert!(gate(&doc, "absent", 1.0).unwrap_err().contains("no row"));
    }

    #[test]
    fn rejects_a_row_without_a_noise_estimate() {
        let no_mad = snapshot(r#"{"median":80.5,"n":31,"unit":"x"}"#);
        assert!(gate(&no_mad, "k", 40.0).unwrap_err().contains("no mad"));
        let few = snapshot(r#"{"median":80.5,"mad":1.25,"n":4,"unit":"x"}"#);
        assert!(gate(&few, "k", 40.0).unwrap_err().contains("4 samples"));
        let uncounted = snapshot(r#"{"median":80.5,"mad":1.25,"unit":"x"}"#);
        assert!(gate(&uncounted, "k", 40.0)
            .unwrap_err()
            .contains("0 samples"));
    }
}
