//! The `dead-pub` pass: the public surface must be the called surface.
//!
//! Workspace-level and lexical. A *site* is a `pub` item in
//! `crates/<name>/src` (binaries under `src/bin` and `pub(crate)` items
//! are out of scope) whose name occurs in no other file the pass is
//! given — the workspace's crates, tests and examples plus the frozen
//! benchmark's sources — or a `[dependencies]` entry whose crate name
//! occurs nowhere in the declaring crate. Strings, chars and comments
//! are blanked first ([`crate::lexer`]), so prose and rustdoc examples
//! are not callers, and neither is the defining file's own test module.
//!
//! This over-approximates liveness (any identifier `build` keeps every
//! `pub fn build` alive) and under-approximates it (a type only ever
//! named by inference, a module reached through a re-export). Sites are
//! therefore charged to a per-crate down-only budget
//! ([`crate::budget::DEAD_PUB`]) instead of failing one by one.

use crate::lexer;
use crate::rules::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// What may stand between `pub` and an item's name: the item keywords
/// and their qualifiers. A `pub` line that starts with none of them is a
/// field or a re-export.
const ITEM_WORDS: [&str; 12] = [
    "fn", "struct", "enum", "const", "type", "trait", "mod", "static", "unsafe", "async", "extern",
    "mut",
];

fn idents(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|t| !t.is_empty())
}

/// `(line, name)` of every `pub` item in scrubbed code, test modules
/// excluded.
fn public_items(scrubbed: &str) -> Vec<(usize, String)> {
    let masked = lexer::mask_cfg_test(scrubbed);
    let mut items = Vec::new();
    for (idx, line) in masked.lines().enumerate() {
        let Some(rest) = line.trim_start().strip_prefix("pub ") else {
            continue;
        };
        let words: Vec<&str> = idents(rest).collect();
        let is_item = words.first().is_some_and(|w| ITEM_WORDS.contains(w));
        let name = words.iter().find(|w| !ITEM_WORDS.contains(w));
        if let (true, Some(name)) = (is_item, name) {
            items.push((idx + 1, name.to_string()));
        }
    }
    items
}

fn defines_public_surface(rel_path: &str) -> bool {
    rel_path.starts_with("crates/") && rel_path.contains("/src/") && !rel_path.contains("/src/bin/")
}

/// `(line, crate name as imported)` of each `[dependencies]` entry.
fn declared_dependencies(manifest: &str) -> Vec<(usize, String)> {
    let is_name = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
    let lines = manifest.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));
    lines
        .skip_while(|(_, l)| *l != "[dependencies]")
        .skip(1)
        .take_while(|(_, l)| !l.starts_with('['))
        .map(|(n, l)| (n, l.split(|c| !is_name(c)).next().unwrap_or("")))
        .filter(|(_, name)| !name.is_empty())
        .map(|(n, name)| (n, name.replace('-', "_")))
        .collect()
}

/// Every site in the tree. `sources` are
/// `(workspace-relative path, text)` of every `.rs` file that may define
/// or name an item, and of each `crates/*/Cargo.toml`.
pub fn scan(sources: &[(String, String)]) -> Vec<Finding> {
    let is_manifest = |rel_path: &str| rel_path.ends_with("Cargo.toml");
    let scrubbed: Vec<String> = sources
        .iter()
        .map(|(path, text)| match is_manifest(path) {
            true => String::new(),
            false => lexer::scrub(text).code,
        })
        .collect();
    // name → the files it occurs in (as indices into `sources`).
    let mut named_in: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    for (file, code) in scrubbed.iter().enumerate() {
        for ident in idents(code) {
            named_in.entry(ident).or_default().insert(file);
        }
    }

    let mut sites = Vec::new();
    let mut site = |file: &str, line, message| {
        sites.push(Finding {
            rule: "dead-pub",
            file: file.to_string(),
            line,
            message,
        })
    };
    for (file, (rel_path, text)) in sources.iter().enumerate() {
        if is_manifest(rel_path) {
            let in_crate = |f: &usize| {
                let dir = rel_path.trim_end_matches("Cargo.toml");
                sources[*f].0.starts_with(dir)
            };
            for (line, dep) in declared_dependencies(text) {
                if !named_in
                    .get(dep.as_str())
                    .is_some_and(|files| files.iter().any(in_crate))
                {
                    site(
                        rel_path,
                        line,
                        format!("dependency `{dep}` is imported nowhere in this crate"),
                    );
                }
            }
        } else if defines_public_surface(rel_path) {
            for (line, name) in public_items(&scrubbed[file]) {
                if named_in[name.as_str()].iter().all(|&f| f == file) {
                    site(
                        rel_path,
                        line,
                        format!("public item `{name}` is named in no other file"),
                    );
                }
            }
        }
    }
    sites
}
