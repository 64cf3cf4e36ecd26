//! Command-line driver for the workspace determinism gate.
//!
//! Subcommands:
//!
//! - `check` — run every rule over the workspace's own source and the
//!   two per-crate budgets against `crates/analyze/unwrap_budget.txt`
//!   and `crates/analyze/dead_pub_budget.txt`; print
//!   `file:line: [rule] message` per violation and exit non-zero if any,
//!   and per-crate slack for both budgets.
//! - `baseline` — regenerate both budget files from the current
//!   measured counts (use after ratcheting a count down, never up).
//! - `rules` — list every rule with its rationale.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(),
        Some("baseline") => baseline(),
        Some("rules") => {
            rules();
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: cachegen-analyze <check|baseline|rules>");
            ExitCode::FAILURE
        }
    }
}

/// Resolves the workspace root: from the manifest dir when run via
/// `cargo run -p cachegen-analyze`, from the current dir otherwise.
fn workspace_root() -> Result<PathBuf, String> {
    let start = match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => PathBuf::from(dir),
        Err(_) => std::env::current_dir().map_err(|e| format!("cannot read current dir: {e}"))?,
    };
    cachegen_analyze::find_workspace_root(&start)
        .ok_or_else(|| format!("no [workspace] Cargo.toml at or above {}", start.display()))
}

fn check() -> ExitCode {
    let root = match workspace_root() {
        Ok(root) => root,
        Err(e) => {
            eprintln!("cachegen-analyze: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match cachegen_analyze::analyze_workspace(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("cachegen-analyze: workspace scan failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for finding in &report.findings {
        println!("{finding}");
    }
    for (file, name, actual, budget) in &report.budget_slack {
        eprintln!(
            "note: crate `{name}` is under its budget ({actual} < {budget}) — ratchet {file} down"
        );
    }
    if report.findings.is_empty() {
        println!(
            "cachegen-analyze: {} files clean across {} rules",
            report.files_scanned,
            cachegen_analyze::RULES.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("cachegen-analyze: {} violation(s)", report.findings.len());
        ExitCode::FAILURE
    }
}

fn baseline() -> ExitCode {
    let root = match workspace_root() {
        Ok(root) => root,
        Err(e) => {
            eprintln!("cachegen-analyze: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match cachegen_analyze::analyze_workspace(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("cachegen-analyze: workspace scan failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    use cachegen_analyze::budget::{render_baseline, DEAD_PUB, UNWRAP};
    for (budget, counts) in [
        (&UNWRAP, &report.unwrap_counts),
        (&DEAD_PUB, &report.dead_pub_counts),
    ] {
        let path = root.join(budget.file);
        if let Err(e) = std::fs::write(&path, render_baseline(budget, counts)) {
            eprintln!("cachegen-analyze: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "cachegen-analyze: wrote {} ({} crate(s) with sites)",
            path.display(),
            counts.len()
        );
    }
    ExitCode::SUCCESS
}

fn rules() {
    for rule in cachegen_analyze::RULES {
        println!("{:<22} {}", rule.name, rule.summary);
    }
}
