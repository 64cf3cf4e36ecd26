//! `cachegen-analyze`: the workspace's static determinism gate.
//!
//! Every headline number in this reproduction — TTFT ladders, loss-sweep
//! frontiers, FEC acceptance pins — rests on the virtual-clock simulator
//! being a bit-reproducible oracle. This crate mechanically rejects the
//! source-level hazards that would silently corrupt it: wall-clock time
//! sources, raw thread spawns, hash-order iteration, unseeded RNGs,
//! partial float comparisons, and unchecked unwrap growth. It is pure
//! `std` (no crates.io, consistent with the `vendor/` policy), runs as a
//! CI step (`cargo run -p cachegen-analyze -- check`) and as a test
//! (`cargo test -p cachegen-analyze`), and every rule has a justified
//! escape hatch (see [`rules`]).
//!
//! Matching is lexical but string/comment-aware: a hand-rolled lexer
//! ([`lexer`]) blanks string literals, char literals, and comments
//! before rules run, so prose about `thread::spawn` never trips the
//! gate, while suppression markers are parsed from real comments only.

pub mod budget;
mod dead_pub;
pub mod lexer;
pub mod rules;

pub use rules::{FileReport, Finding, RULES};

use budget::Budget;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Everything one full workspace pass produces.
#[derive(Debug, Default)]
pub struct Report {
    /// All violations, budget breaches included, sorted by file/line.
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Measured per-crate library unwrap counts.
    pub unwrap_counts: BTreeMap<String, usize>,
    /// Measured per-crate `dead-pub` site counts.
    pub dead_pub_counts: BTreeMap<String, usize>,
    /// Crates under a budget: (budget file, crate, actual, budget) —
    /// ratchet material.
    pub budget_slack: Vec<(&'static str, String, usize, usize)>,
}

/// Locates the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Collects the `.rs` files under the given top-level directories,
/// deterministically sorted. Vendored stand-ins, build outputs, and the
/// analyzer's known-bad fixtures are excluded.
fn rs_files_under(root: &Path, tops: &[&str]) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in tops {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name == "vendor" || name == "fixtures" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn count_per_crate(counts: &mut BTreeMap<String, usize>, rel_path: &str, sites: usize) {
    if let Some(name) = rules::crate_of(rel_path).filter(|_| sites > 0) {
        *counts.entry(name.to_string()).or_insert(0) += sites;
    }
}

/// Charges measured per-crate `counts` to `budget`'s checked-in file:
/// a breach is a finding, followed by the breaching crate's `sites` so
/// the diagnostic names what to remove; slack is recorded for `check`.
fn charge(
    budget: &'static Budget,
    root: &Path,
    counts: &BTreeMap<String, usize>,
    sites: &[Finding],
    findings: &mut Vec<Finding>,
    budget_slack: &mut Vec<(&'static str, String, usize, usize)>,
) {
    let breach = |message: String| Finding {
        rule: budget.rule,
        file: budget.file.to_string(),
        line: 0,
        message,
    };
    let Some(baseline) = budget::load_baseline(root, budget) else {
        let fix = "regenerate with `cargo run -p cachegen-analyze -- baseline`";
        findings.push(breach(format!("budget baseline missing; {fix}")));
        return;
    };
    let (violations, slack) = budget::compare(&baseline, counts);
    for (name, actual, allowed) in violations {
        findings.push(breach(format!(
            "crate `{name}` has {actual} `{}` sites, budget {allowed} — remove the new ones (the budget only ratchets down)",
            budget.rule
        )));
        let of_crate = |f: &&Finding| rules::crate_of(&f.file) == Some(name.as_str());
        findings.extend(sites.iter().filter(of_crate).cloned());
    }
    budget_slack.extend(slack.into_iter().map(|(n, a, b)| (budget.file, n, a, b)));
}

/// Runs the full pass: every per-file rule over every workspace file,
/// Markdown citations against the repo root, and the two per-crate
/// budgets (library unwraps, dead public items) against their
/// checked-in baselines.
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    // What `dead-pub` reads: every `.rs` file that may define or name an
    // item — the frozen benchmark is a caller like any other, though not
    // this gate's to lint (it reads the wall clock by design) — and each
    // crate's manifest.
    let mut sources = Vec::new();
    let tops = [
        "crates",
        "tests",
        "examples",
        "benchmark/src",
        "benchmark/tests",
    ];
    for path in rs_files_under(root, &tops)? {
        let rel = relative(root, &path);
        let source = std::fs::read_to_string(&path)?;
        if !rel.starts_with("benchmark/") {
            let file_report = rules::analyze_source(&rel, &source);
            report.files_scanned += 1;
            report.findings.extend(file_report.findings);
            let unwraps = file_report.unwrap_lines.len();
            count_per_crate(&mut report.unwrap_counts, &rel, unwraps);
            for (line, cited) in file_report.md_citations {
                if !root.join(&cited).is_file() {
                    report.findings.push(Finding {
                        rule: "doc-anchor",
                        file: rel.clone(),
                        line,
                        message: format!("comment cites `{cited}`, which does not exist at the repo root — write it or repoint the citation"),
                    });
                }
            }
        }
        sources.push((rel, source));
    }
    for entry in std::fs::read_dir(root.join("crates"))? {
        let manifest = entry?.path().join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            sources.push((relative(root, &manifest), text));
        }
    }
    let dead = dead_pub::scan(&sources);
    for site in &dead {
        count_per_crate(&mut report.dead_pub_counts, &site.file, 1);
    }
    let (findings, slack) = (&mut report.findings, &mut report.budget_slack);
    charge(
        &budget::UNWRAP,
        root,
        &report.unwrap_counts,
        &[],
        findings,
        slack,
    );
    charge(
        &budget::DEAD_PUB,
        root,
        &report.dead_pub_counts,
        &dead,
        findings,
        slack,
    );

    report.findings.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then_with(|| a.line.cmp(&b.line))
            .then_with(|| a.rule.cmp(b.rule))
    });
    Ok(report)
}
