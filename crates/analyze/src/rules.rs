//! The determinism rule set and the per-file engine that applies it.
//!
//! Rules are lexical token matches over scrubbed code (see
//! [`crate::lexer`]), scoped by crate or by file. Every rule has an
//! escape hatch: a line comment of the form
//!
//! ```text
//! ... code ...            <trailing:>  analyze: allow(rule-name, "why")
//! ```
//!
//! (preceded by the usual comment introducer), either trailing the
//! offending line or standing alone on the line above it. A marker with
//! no quoted justification, naming an unknown rule, or suppressing
//! nothing is itself a violation — suppressions cannot rot silently.

use crate::lexer::{self, Scrubbed};

/// A rule violation (or budget breach) at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier, e.g. `no-wall-clock`.
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number (0 for file-level findings).
    pub line: usize,
    /// Human-readable diagnostic.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Name and rationale of one rule, for `cachegen-analyze rules` and the
/// README table.
pub struct RuleInfo {
    /// Rule identifier usable in an allow marker.
    pub name: &'static str,
    /// One-line rationale.
    pub summary: &'static str,
}

/// Every rule the engine knows, including the budget pseudo-rule and
/// the marker-hygiene rule.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "no-wall-clock",
        summary: "Instant::now/SystemTime banned outside crates/bench and telemetry's wall module — the virtual clock is the simulator's time source; real backends go through telemetry::WallClock",
    },
    RuleInfo {
        name: "no-raw-spawn",
        summary: "thread::spawn/scope banned outside tensor::pool — the one module that spawns or scopes threads (run_pooled for a batch, run_queued for bounded queues)",
    },
    RuleInfo {
        name: "no-hash-iter",
        summary: "HashMap/HashSet banned in determinism-critical crates (serving, streamer, net, workloads, kvstore, telemetry) — hash iteration order is seed-dependent; use BTreeMap/BTreeSet",
    },
    RuleInfo {
        name: "seeded-rng-only",
        summary: "entropy-seeded RNG constructors (thread_rng, from_entropy, OsRng) banned in non-bench crates — every random stream must be replayable",
    },
    RuleInfo {
        name: "total-float-order",
        summary: "float comparisons must use total_cmp, never partial_cmp().unwrap() — NaN must order deterministically, not panic or wobble",
    },
    RuleInfo {
        name: "no-lib-unwrap",
        summary: "library-code .unwrap()/.expect( count is capped by a ratcheting baseline (crates/analyze/unwrap_budget.txt)",
    },
    RuleInfo {
        name: "dead-pub",
        summary: "public items in crates/*/src that no other file (crates, tests, examples, benchmark) names, and [dependencies] a crate never imports, are capped per crate by a down-only baseline (crates/analyze/dead_pub_budget.txt)",
    },
    RuleInfo {
        name: "doc-anchor",
        summary: "a Markdown file cited in a comment (a bare name or a root-relative path) must exist — documentation may not point at a file that was never written",
    },
    RuleInfo {
        name: "no-unjustified-allow",
        summary: "every suppression — analyze markers and #[allow(…)] attributes — must carry a written justification and actually suppress something",
    },
];

fn known_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// What `analyze_source` reports for one file.
#[derive(Clone, Debug, Default)]
pub struct FileReport {
    /// Rule violations in this file.
    pub findings: Vec<Finding>,
    /// Lines (1-based) of unsuppressed `.unwrap()`/`.expect(` sites in
    /// library scope; empty for files outside the budget's scope.
    pub unwrap_lines: Vec<usize>,
    /// `(line, path)` of every unsuppressed `*.md` citation in a comment;
    /// the workspace pass checks each against the repo root.
    pub md_citations: Vec<(usize, String)>,
}

/// A parsed suppression marker.
struct Marker {
    line: usize,
    rule: String,
    justified: bool,
    /// True when the marker's line holds no code, so it applies to the
    /// next line instead of its own.
    standalone: bool,
    used: bool,
    malformed: Option<String>,
}

struct TokenRule {
    name: &'static str,
    tokens: &'static [&'static str],
    message: &'static str,
}

const TOKEN_RULES: &[TokenRule] = &[
    TokenRule {
        name: "no-wall-clock",
        tokens: &["Instant::now", "SystemTime"],
        message: "wall-clock time source in simulator code; use the virtual clock (crates/bench is the only exempt crate)",
    },
    TokenRule {
        name: "no-raw-spawn",
        tokens: &["thread::spawn", "thread::scope"],
        message: "raw thread spawn; route work through cachegen_tensor::pool (run_pooled for a batch, run_queued for bounded queues) — the one module that spawns or scopes threads",
    },
    TokenRule {
        name: "no-hash-iter",
        tokens: &["HashMap", "HashSet"],
        message: "hash container in a determinism-critical crate; iteration order is seed-dependent — use BTreeMap/BTreeSet or sort before iterating",
    },
    TokenRule {
        name: "seeded-rng-only",
        tokens: &["thread_rng", "from_entropy", "OsRng", "from_os_rng"],
        message: "entropy-seeded RNG construction; derive every RNG from an explicit seed (StdRng::seed_from_u64)",
    },
    TokenRule {
        name: "total-float-order",
        tokens: &[".partial_cmp("],
        message: "partial float comparison; use total_cmp (the metrics.rs idiom) so NaN orders deterministically",
    },
];

/// The one module allowed to spawn or scope threads: the tensor
/// crate's executor (`run_pooled`, `run_queued`), at the bottom of the
/// crate graph so every crate can reach it.
pub const EXECUTOR_MODULE: &str = "crates/tensor/src/pool.rs";

/// The one module allowed to read the wall clock outside `crates/bench`:
/// `telemetry::WallClock`, the sanctioned time source real execution
/// backends record spans with.
pub const WALL_CLOCK_MODULE: &str = "crates/telemetry/src/wall.rs";

/// Crates in which hash containers are banned outright. The telemetry
/// crate is in scope because its exporters promise byte-identical
/// output per seed — one hash-ordered iteration would break that.
const HASH_BANNED_CRATES: &[&str] = &[
    "serving",
    "streamer",
    "net",
    "workloads",
    "kvstore",
    "telemetry",
];

pub(crate) fn crate_of(rel_path: &str) -> Option<&str> {
    rel_path.strip_prefix("crates/")?.split('/').next()
}

fn is_bench(rel_path: &str) -> bool {
    crate_of(rel_path) == Some("bench")
}

/// Whether a rule applies to the given file at all.
fn rule_applies(rule: &str, rel_path: &str) -> bool {
    match rule {
        "no-wall-clock" => !is_bench(rel_path) && rel_path != WALL_CLOCK_MODULE,
        "seeded-rng-only" => !is_bench(rel_path),
        "no-raw-spawn" => rel_path != EXECUTOR_MODULE,
        "no-hash-iter" => crate_of(rel_path).is_some_and(|c| HASH_BANNED_CRATES.contains(&c)),
        _ => true,
    }
}

/// Whether a file's unwraps count toward the library budget: crate
/// sources only (`crates/<name>/src/…`), benches exempt, test modules
/// masked separately.
fn in_budget_scope(rel_path: &str) -> bool {
    !is_bench(rel_path)
        && rel_path.starts_with("crates/")
        && rel_path.contains("/src/")
        && rel_path.ends_with(".rs")
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Counts identifier-boundary-respecting occurrences of `token` in a
/// line of scrubbed code.
fn count_token(line: &str, token: &str) -> usize {
    let lb = line.as_bytes();
    let tb = token.as_bytes();
    let check_before = is_ident_byte(tb[0]);
    let check_after = is_ident_byte(tb[tb.len() - 1]);
    let mut count = 0usize;
    let mut start = 0usize;
    while let Some(pos) = line[start..].find(token).map(|p| p + start) {
        let before_ok = !check_before || pos == 0 || !is_ident_byte(lb[pos - 1]);
        let after = pos + tb.len();
        let after_ok = !check_after || after >= lb.len() || !is_ident_byte(lb[after]);
        if before_ok && after_ok {
            count += 1;
        }
        start = pos + 1;
    }
    count
}

/// Parses suppression markers out of the file's comments. Only plain
/// `//` comments count — doc comments are documentation, not policy.
fn parse_markers(scrubbed: &Scrubbed) -> Vec<Marker> {
    let code_lines: Vec<&str> = scrubbed.code.lines().collect();
    let mut markers = Vec::new();
    for comment in &scrubbed.comments {
        let text = comment.text.trim_start();
        let body = match text.strip_prefix("//") {
            // `///` and `//!` are doc comments; skip them.
            Some(rest) if !rest.starts_with('/') && !rest.starts_with('!') => rest.trim_start(),
            _ => continue,
        };
        let Some(after_tag) = body.strip_prefix("analyze:") else {
            continue;
        };
        let standalone = code_lines
            .get(comment.line - 1)
            .is_none_or(|l| l.trim().is_empty());
        let mut marker = Marker {
            line: comment.line,
            rule: String::new(),
            justified: false,
            standalone,
            used: false,
            malformed: None,
        };
        let spec = after_tag.trim_start();
        match spec
            .strip_prefix("allow(")
            .and_then(|s| s.find(')').map(|e| &s[..e]))
        {
            None => {
                marker.malformed =
                    Some("malformed analyze marker; expected `analyze: allow(<rule>, \"<justification>\")`".into());
            }
            Some(inner) => match inner.split_once(',') {
                None => {
                    marker.rule = inner.trim().to_string();
                    marker.malformed = Some(format!(
                        "bare `allow({})` with no justification; write `analyze: allow({}, \"<why this is sound>\")`",
                        inner.trim(),
                        inner.trim()
                    ));
                }
                Some((rule, just)) => {
                    marker.rule = rule.trim().to_string();
                    let just = just.trim();
                    if just.len() > 2 && just.starts_with('"') && just.ends_with('"') {
                        marker.justified = true;
                    } else {
                        marker.malformed =
                            Some("justification must be a non-empty quoted string".to_string());
                    }
                }
            },
        }
        if marker.malformed.is_none() && !known_rule(&marker.rule) {
            marker.malformed = Some(format!(
                "unknown rule `{}` in analyze marker; run `cachegen-analyze rules` for the list",
                marker.rule
            ));
        }
        markers.push(marker);
    }
    markers
}

/// Tries to suppress a finding of `rule` at `line`; marks the winning
/// marker used. Only well-formed, justified markers suppress.
fn try_suppress(markers: &mut [Marker], rule: &str, line: usize) -> bool {
    for m in markers.iter_mut() {
        if m.malformed.is_none()
            && m.rule == rule
            && ((m.standalone && m.line + 1 == line) || (!m.standalone && m.line == line))
        {
            m.used = true;
            return true;
        }
    }
    false
}

/// Runs every rule over one file's source. `rel_path` is the
/// workspace-relative path (forward slashes); it decides rule scope.
pub fn analyze_source(rel_path: &str, source: &str) -> FileReport {
    let scrubbed = lexer::scrub(source);
    let mut markers = parse_markers(&scrubbed);
    let mut report = FileReport::default();

    // Token rules over scrubbed code.
    for rule in TOKEN_RULES {
        if !rule_applies(rule.name, rel_path) {
            continue;
        }
        for (idx, line) in scrubbed.code.lines().enumerate() {
            let ln = idx + 1;
            for token in rule.tokens {
                if count_token(line, token) > 0 && !try_suppress(&mut markers, rule.name, ln) {
                    report.findings.push(Finding {
                        rule: rule.name,
                        file: rel_path.to_string(),
                        line: ln,
                        message: format!("`{}`: {}", token, rule.message),
                    });
                }
            }
        }
    }

    // Unwrap budget sites (library scope only, test modules masked).
    if in_budget_scope(rel_path) {
        let masked = lexer::mask_cfg_test(&scrubbed.code);
        for (idx, line) in masked.lines().enumerate() {
            let ln = idx + 1;
            let sites = count_token(line, ".unwrap()") + count_token(line, ".expect(");
            for _ in 0..sites {
                if !try_suppress(&mut markers, "no-lib-unwrap", ln) {
                    report.unwrap_lines.push(ln);
                }
            }
        }
    }

    // Markdown citations in comments of any kind: a maximal path-shaped
    // token ending in `.md`. One starting with `.` is relative to the
    // citing file, not the root, and is left alone.
    for comment in &scrubbed.comments {
        for (offset, line) in comment.text.lines().enumerate() {
            let ln = comment.line + offset;
            for token in line.split(|c: char| !(c.is_ascii_alphanumeric() || "_./-".contains(c))) {
                let token = token.trim_end_matches('.');
                if token.ends_with(".md")
                    && !token.starts_with('.')
                    && !try_suppress(&mut markers, "doc-anchor", ln)
                {
                    report.md_citations.push((ln, token.to_string()));
                }
            }
        }
    }

    // `#[allow(…)]` attributes must carry a justification comment on the
    // same line or the line above (any comment counts — the point is
    // that a reviewer finds a written reason next to the suppression).
    let comment_lines: Vec<usize> = scrubbed.comments.iter().map(|c| c.line).collect();
    let code_lines: Vec<&str> = scrubbed.code.lines().collect();
    for (idx, line) in code_lines.iter().enumerate() {
        let ln = idx + 1;
        if count_token(line, "[allow(") == 0 {
            continue;
        }
        let trailing = comment_lines.contains(&ln);
        let above = ln >= 2
            && comment_lines.contains(&(ln - 1))
            && code_lines.get(ln - 2).is_none_or(|l| l.trim().is_empty());
        if !trailing && !above {
            report.findings.push(Finding {
                rule: "no-unjustified-allow",
                file: rel_path.to_string(),
                line: ln,
                message:
                    "#[allow(…)] without a justification comment on the same line or the line above"
                        .to_string(),
            });
        }
    }

    // Marker hygiene: malformed markers, and justified markers that
    // suppressed nothing (stale suppressions must be deleted, not
    // accumulate).
    for m in &markers {
        if let Some(msg) = &m.malformed {
            report.findings.push(Finding {
                rule: "no-unjustified-allow",
                file: rel_path.to_string(),
                line: m.line,
                message: msg.clone(),
            });
        } else if !m.used {
            report.findings.push(Finding {
                rule: "no-unjustified-allow",
                file: rel_path.to_string(),
                line: m.line,
                message: format!(
                    "unused suppression: no `{}` violation on the line this marker covers — delete the stale marker",
                    m.rule
                ),
            });
        }
    }

    report.findings.sort_by(|a, b| {
        a.line
            .cmp(&b.line)
            .then_with(|| a.rule.cmp(b.rule))
            .then_with(|| a.message.cmp(&b.message))
    });
    report
}
