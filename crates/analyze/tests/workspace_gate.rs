//! The determinism gate as a test: `cargo test -p cachegen-analyze`
//! fails the build the moment any workspace source violates a rule, so
//! the gate runs even where CI's dedicated `check` step doesn't.

use std::path::Path;

#[test]
fn workspace_satisfies_every_determinism_rule() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let report = cachegen_analyze::analyze_workspace(&root).expect("workspace scan succeeds");
    let rendered: Vec<String> = report.findings.iter().map(ToString::to_string).collect();
    assert!(
        rendered.is_empty(),
        "determinism gate violations:\n{}",
        rendered.join("\n")
    );
    // Down-only, enforced: a budget line above its crate's reading (one
    // raised by hand, or left behind by a deletion) fails here.
    assert!(
        report.budget_slack.is_empty(),
        "budget lines above their reading — lower them (`cachegen-analyze baseline`): {:?}",
        report.budget_slack
    );
    assert!(
        report.files_scanned > 50,
        "scan looks truncated: only {} files",
        report.files_scanned
    );
}
