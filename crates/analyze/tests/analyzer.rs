//! Fixture tests: every rule fires at the exact file:line on known-bad
//! input, stays silent on known-good input, and the lexer keeps string
//! literals and comments inert.

use cachegen_analyze::rules::{analyze_source, EXECUTOR_MODULE, WALL_CLOCK_MODULE};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn lines_of(report: &cachegen_analyze::FileReport, rule: &str) -> Vec<usize> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn wall_clock_flagged_at_exact_lines_outside_bench() {
    let src = fixture("bad_wall_clock.rs");
    let report = analyze_source("crates/serving/src/fx.rs", &src);
    assert_eq!(lines_of(&report, "no-wall-clock"), vec![4, 5]);

    // crates/bench is the one exempt crate: same content, no findings.
    let bench = analyze_source("crates/bench/src/fx.rs", &src);
    assert!(bench.findings.is_empty(), "{:?}", bench.findings);

    // The telemetry wall module is the only other sanctioned reader —
    // `WallClock` is where real backends get their time from.
    let wall = analyze_source(WALL_CLOCK_MODULE, &src);
    assert!(
        lines_of(&wall, "no-wall-clock").is_empty(),
        "{:?}",
        wall.findings
    );
    // ... and only that exact file: a sibling telemetry module is not.
    let sibling = analyze_source("crates/telemetry/src/recorder.rs", &src);
    assert_eq!(lines_of(&sibling, "no-wall-clock"), vec![4, 5]);
}

#[test]
fn prose_and_strings_never_fire() {
    let src = fixture("good_mentions_only.rs");
    let report = analyze_source("crates/serving/src/fx.rs", &src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert!(report.unwrap_lines.is_empty());
}

#[test]
fn raw_spawn_flagged_everywhere_but_the_executor_modules() {
    let src = fixture("bad_raw_spawn.rs");
    // `thread::spawn` (line 5) and `thread::scope` (line 6) both fire.
    let report = analyze_source("crates/kvstore/src/fx.rs", &src);
    assert_eq!(lines_of(&report, "no-raw-spawn"), vec![5, 6]);

    // The sim transformer runs its prefill phases on the executor and
    // the thread backend feeds its shard queues through it: a scope of
    // either's own fires, as does one anywhere else in the serving crate,
    // in the tensor crate beside the pool, or in the codec module that
    // re-exports it.
    for path in [
        "crates/llm/src/transformer.rs",
        "crates/serving/src/threads.rs",
        "crates/serving/src/cluster.rs",
        "crates/tensor/src/linalg.rs",
        "crates/codec/src/pool.rs",
    ] {
        let report = analyze_source(path, &src);
        assert_eq!(lines_of(&report, "no-raw-spawn"), vec![5, 6], "{path}");
    }

    // The same content analyzed as the executor module itself is exempt.
    let exempt = analyze_source(EXECUTOR_MODULE, &src);
    assert!(
        lines_of(&exempt, "no-raw-spawn").is_empty(),
        "{:?}",
        exempt.findings
    );
}

#[test]
fn hash_containers_banned_only_in_determinism_critical_crates() {
    let src = fixture("bad_hash_iter.rs");
    for banned in [
        "serving",
        "streamer",
        "net",
        "workloads",
        "kvstore",
        "telemetry",
    ] {
        let report = analyze_source(&format!("crates/{banned}/src/fx.rs"), &src);
        assert_eq!(
            lines_of(&report, "no-hash-iter"),
            vec![4, 7],
            "crate {banned}"
        );
    }
    let codec = analyze_source("crates/codec/src/fx.rs", &src);
    assert!(
        lines_of(&codec, "no-hash-iter").is_empty(),
        "{:?}",
        codec.findings
    );
}

#[test]
fn telemetry_sources_face_the_full_determinism_gate() {
    // The telemetry crate exports byte-identical traces per seed, so it
    // sits inside both the no-wall-clock and no-hash-iter scopes: a
    // seeded violation of each must fire at its exact line.
    let src = "use std::collections::HashMap;\n\
               use std::time::Instant;\n\
               pub fn snapshot(m: &HashMap<String, u64>) -> f64 {\n\
                   let t = Instant::now();\n\
                   t.elapsed().as_secs_f64() + m.len() as f64\n\
               }\n";
    let report = analyze_source("crates/telemetry/src/fx.rs", src);
    assert_eq!(lines_of(&report, "no-hash-iter"), vec![1, 3]);
    assert_eq!(lines_of(&report, "no-wall-clock"), vec![4]);
}

#[test]
fn entropy_seeded_rng_flagged_outside_bench() {
    let src = fixture("bad_rng.rs");
    let report = analyze_source("crates/workloads/src/fx.rs", &src);
    assert_eq!(lines_of(&report, "seeded-rng-only"), vec![4]);
    let bench = analyze_source("crates/bench/src/fx.rs", &src);
    assert!(lines_of(&bench, "seeded-rng-only").is_empty());
}

#[test]
fn partial_cmp_flagged_and_its_unwrap_counted() {
    let src = fixture("bad_float_sort.rs");
    let report = analyze_source("crates/tensor/src/fx.rs", &src);
    assert_eq!(lines_of(&report, "total-float-order"), vec![4]);
    assert_eq!(report.unwrap_lines, vec![4]);
}

#[test]
fn marker_grammar_end_to_end() {
    let src = fixture("markers.rs");
    let report = analyze_source("crates/serving/src/fx.rs", &src);

    // Justified markers (trailing on 4, standalone above 8) suppress.
    assert!(
        !report.findings.iter().any(|f| f.line == 4 || f.line == 8),
        "{:?}",
        report.findings
    );
    // Bare and unknown-rule markers do NOT suppress, and are themselves
    // violations; the stale standalone marker is one too.
    assert_eq!(lines_of(&report, "no-wall-clock"), vec![11, 15]);
    assert_eq!(lines_of(&report, "no-unjustified-allow"), vec![11, 15, 18]);
    assert_eq!(report.findings.len(), 5);
}

#[test]
fn unwrap_budget_counts_library_sites_only() {
    let src = fixture("unwrap_budget.rs");
    let report = analyze_source("crates/codec/src/fx.rs", &src);
    // Lines 5 and 9 count; line 14 is suppressed with a justification;
    // the #[cfg(test)] module's unwraps are masked out entirely.
    assert_eq!(report.unwrap_lines, vec![5, 9]);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn rans_module_faces_the_full_determinism_gate() {
    // The wire-v3 rANS hot path (`crates/codec/src/rans.rs`) is ordinary
    // budget scope — no executor or wall-clock exemption applies, and its
    // library unwraps draw from the same codec budget as every other
    // codec module.
    let src = fixture("bad_rans_decode.rs");
    let report = analyze_source("crates/codec/src/rans.rs", &src);
    assert_eq!(lines_of(&report, "no-wall-clock"), vec![5]);
    assert_eq!(report.unwrap_lines, vec![10]);
}

#[test]
fn erasure_coding_modules_face_the_full_determinism_gate() {
    // The GF(256) field and Reed–Solomon modules sit on the decode hot
    // path (`crates/net`), a determinism-critical crate: hash-ordered
    // iteration and unseeded entropy are banned there like everywhere
    // else — no arithmetic-kernel exemption applies.
    for module in ["crates/net/src/gf256.rs", "crates/net/src/rs.rs"] {
        let hashy = analyze_source(module, &fixture("bad_hash_iter.rs"));
        assert_eq!(lines_of(&hashy, "no-hash-iter"), vec![4, 7], "{module}");
        let rngy = analyze_source(module, &fixture("bad_rng.rs"));
        assert_eq!(lines_of(&rngy, "seeded-rng-only"), vec![4], "{module}");
        // Library unwraps in these modules draw from the net crate's
        // budget — recovery paths must return typed errors instead.
        let unwrappy = analyze_source(module, &fixture("unwrap_budget.rs"));
        assert_eq!(unwrappy.unwrap_lines, vec![5, 9], "{module}");
    }
}

#[test]
fn allow_attributes_need_a_written_reason() {
    let src = fixture("bad_allow_attr.rs");
    let report = analyze_source("crates/core/src/fx.rs", &src);
    assert_eq!(lines_of(&report, "no-unjustified-allow"), vec![4]);
}

/// The workspace-level passes over `fixtures/dead_pub_ws`: three crates,
/// a root test, an example and a benchmark source.
fn fixture_workspace() -> cachegen_analyze::Report {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/dead_pub_ws");
    cachegen_analyze::analyze_workspace(&root).expect("fixture workspace scans")
}

fn rendered(report: &cachegen_analyze::Report, rule: &str) -> Vec<String> {
    let of_rule = report.findings.iter().filter(|f| f.rule == rule);
    of_rule.map(ToString::to_string).collect()
}

#[test]
fn dead_pub_is_what_no_other_file_names_charged_per_crate() {
    let report = fixture_workspace();
    // A name in a string, a comment or the defining file's own test
    // module is not a caller; one in `tests/`, `examples/` or
    // `benchmark/src` is. `pub(crate)` and `src/bin` are out of scope. A
    // declared dependency counts when nothing in the crate imports it:
    // `parking_lot` in codec, not in kvstore (which does).
    let over = |krate: &str, actual: usize, budget: usize| {
        format!("crates/analyze/dead_pub_budget.txt:0: [dead-pub] crate `{krate}` has {actual} `dead-pub` sites, budget {budget} — remove the new ones (the budget only ratchets down)")
    };
    assert_eq!(
        rendered(&report, "dead-pub"),
        vec![
            // Over its line: fails, and names its sites.
            over("codec", 3, 2),
            // No line at all: budget 0.
            over("net", 1, 0),
            "crates/codec/Cargo.toml:6: [dead-pub] dependency `parking_lot` is imported nowhere in this crate".to_string(),
            "crates/codec/src/lib.rs:4: [dead-pub] public item `only_in_prose` is named in no other file".to_string(),
            "crates/codec/src/lib.rs:5: [dead-pub] public item `only_in_own_tests` is named in no other file".to_string(),
            "crates/net/src/lib.rs:1: [dead-pub] public item `UNBUDGETED` is named in no other file".to_string(),
        ]
    );
    // Under its line: passes, and reports the slack to ratchet away.
    let counts: Vec<_> = report.dead_pub_counts.into_iter().collect();
    let named = |name: &str, n| (name.to_string(), n);
    assert_eq!(
        counts,
        [named("codec", 3), named("kvstore", 1), named("net", 1)]
    );
    let slack = (
        "crates/analyze/dead_pub_budget.txt",
        "kvstore".to_string(),
        1,
        2,
    );
    assert_eq!(report.budget_slack, [slack]);
}

#[test]
fn cited_markdown_files_must_exist() {
    // The fixture root has a README and nothing else.
    assert_eq!(
        rendered(&fixture_workspace(), "doc-anchor"),
        vec!["crates/codec/src/lib.rs:1: [doc-anchor] comment cites `DESIGN.md`, which does not exist at the repo root — write it or repoint the citation"]
    );
}
