//! The workspace's self-hosted invariant linter.
//!
//! `cargo run -p xtask -- lint` (or `cargo xtask lint` via the alias)
//! walks the workspace sources and enforces project invariants as
//! CI-failing `file:line` diagnostics. The engine is a hand-rolled
//! lexer + token-pattern rule framework — no `syn`, no `dylint` — so it
//! runs in the registry-less offline build environment and can lint the
//! vendored shims themselves.
//!
//! Rules (see DESIGN.md §7 for the full contract):
//!
//! * `panic-free-dataplane` — no `assert!`/`assert_eq!`/`assert_ne!`
//!   outside `#[cfg(test)]` in a data-plane module: a file whose inner
//!   attribute denies `clippy::panic`, or any file under the directory
//!   of a `mod.rs` that does. Clippy enforces the attribute's own lints
//!   (`unwrap`, `expect`, the `panic!` family, indexing).
//! * `queue-discipline` — no O(n) head ops (`remove(0)`, `insert(0,..)`)
//!   in non-test code under `crates/`.
//! * `drop-accounting` — every `DropReason` variant is constructed in
//!   product code.
//! * `telemetry-naming` — metric names are snake_case constants
//!   registered exactly once in the telemetry name registry; `publish_*`
//!   call sites never pass raw string literals.
//! * `rng-draw-order` — node/router code draws only from
//!   `Context::rng()`.
//!
//! Determinism (no hash containers, wall clock, environment or threads
//! in simulation code) is `crates/clippy.toml`'s to enforce, and a site
//! that must break a lint carries clippy's
//! `#[expect(<lint>, reason = "…")]`.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod rules;
pub mod source;

use rules::{Config, Diagnostic, LintCtx};
use source::SourceFile;

/// Walk `root` for `.rs` files, returning workspace-relative paths with
/// `/` separators, sorted for deterministic diagnostics. Skips build
/// output, VCS metadata, and the linter's own golden fixtures (which
/// contain violations on purpose).
pub fn walk_rs_files(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    let rel = rel
                        .components()
                        .map(|c| c.as_os_str().to_string_lossy())
                        .collect::<Vec<_>>()
                        .join("/");
                    if rel.contains("tests/fixtures/") {
                        continue;
                    }
                    out.push(rel);
                }
            }
        }
    }
    out.sort();
    out
}

/// Lint the file set `rels` (workspace-relative) under `root`, running
/// the named rules (or the full registry when `rule_filter` is `None`).
/// Returns the diagnostics, sorted.
pub fn lint_files(
    root: &Path,
    rels: &[String],
    cfg: &Config,
    rule_filter: Option<&[String]>,
) -> Vec<Diagnostic> {
    let files: Vec<SourceFile> = rels
        .iter()
        .filter_map(|rel| {
            let src = fs::read_to_string(root.join(rel)).ok()?;
            Some(SourceFile::analyze(rel.clone(), &src))
        })
        .collect();
    let ctx = LintCtx { files: &files, cfg };
    let mut diags = Vec::new();
    for rule in rules::all_rules() {
        if rule_filter.is_none_or(|names| names.iter().any(|n| n == rule.name())) {
            rule.check(&ctx, &mut diags);
        }
    }
    diags.sort();
    diags.dedup();
    diags
}

/// Lint the whole workspace under `root` with the production config.
pub fn lint_workspace(root: &Path) -> Vec<Diagnostic> {
    let rels = walk_rs_files(root);
    lint_files(root, &rels, &Config::default(), None)
}

/// Non-test, non-comment Rust lines per package, sorted by package: the
/// distinct lines carrying at least one code token outside `#[cfg(test)]`
/// items, over every file that is not a test location — the lexer's own
/// classification, so the count moves only when product code does. A
/// token spanning lines (a multi-line string) counts as its first line.
/// A package is `crates/<name>`, `shims/<name>`, or a top-level directory
/// (`perf`, `examples`).
pub fn count_loc(root: &Path, rels: &[String]) -> Vec<(String, usize)> {
    let mut per: BTreeMap<String, usize> = BTreeMap::new();
    for rel in rels {
        if source::is_test_location(rel) {
            continue;
        }
        let Ok(src) = fs::read_to_string(root.join(rel)) else {
            continue;
        };
        let f = SourceFile::analyze(rel.clone(), &src);
        let mut lines: Vec<u32> = f
            .tokens
            .iter()
            .map(|t| t.line)
            .filter(|&l| !f.is_test_line(l))
            .collect();
        lines.dedup();
        let depth = if rel.starts_with("crates/") || rel.starts_with("shims/") {
            2
        } else {
            1
        };
        let package = rel.split('/').take(depth).collect::<Vec<_>>().join("/");
        *per.entry(package).or_default() += lines.len();
    }
    per.into_iter().collect()
}

/// Locate the workspace root: `$CARGO_MANIFEST_DIR/../..` when invoked
/// through cargo (the xtask convention), else the current directory.
pub fn workspace_root() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => {
            let p = PathBuf::from(dir);
            p.parent()
                .and_then(|p| p.parent())
                .map(|p| p.to_path_buf())
                .unwrap_or(p)
        }
        None => PathBuf::from("."),
    }
}
