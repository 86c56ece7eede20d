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
//! * `panic-free-dataplane` — no `unwrap`/`expect`/`panic!`-family/
//!   slice-indexing in data-plane modules outside `#[cfg(test)]`.
//! * `queue-discipline` — no O(n) head ops (`remove(0)`, `insert(0,..)`)
//!   in data-plane modules.
//! * `drop-accounting` — drops flow through `PipelineStats::drop` only;
//!   every `DropReason` variant is constructed in product code.
//! * `shim-surface` — only APIs the vendored shims define may be named
//!   in shim-crate paths.
//! * `telemetry-naming` — metric names are snake_case constants
//!   registered exactly once in the telemetry name registry; `publish_*`
//!   call sites never pass raw string literals.
//! * `unsafe-audit` — no `unsafe` outside the (empty) allowlist; crate
//!   roots carry `#![forbid(unsafe_code)]`.
//!
//! Escape hatch: `// lint: allow(<rule>) -- <reason>` on the offending
//! line or the line above. The reason is mandatory; a reason-less allow
//! is itself a diagnostic (rule `lint-allow`).

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

pub mod callgraph;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod symbols;

use lexer::TokKind;
use rules::{Config, Diagnostic, LintCtx, Rule};
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

/// Collect every identifier the shim crate under `dir` defines:
/// fn/struct/enum/trait/mod/type/const/static/union names, enum
/// variants, `macro_rules!` names, and `use` re-exports. This is the
/// "surface" the `shim-surface` rule checks call paths against.
fn shim_surface_of(dir: &Path) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for rel in walk_rs_files(dir) {
        let Ok(src) = fs::read_to_string(dir.join(&rel)) else {
            continue;
        };
        let f = SourceFile::analyze(rel, &src);
        let mut i = 0usize;
        while i < f.code.len() {
            let t = f.tok(i);
            if t.kind == TokKind::Ident {
                match t.text.as_str() {
                    "fn" | "struct" | "enum" | "trait" | "mod" | "type" | "union" | "const"
                    | "static" => {
                        if i + 1 < f.code.len() && f.tok(i + 1).kind == TokKind::Ident {
                            let n = f.tok(i + 1).text.clone();
                            // `const fn` / `static ref` style keywords
                            // fall through to their own arm next round.
                            if !matches!(n.as_str(), "fn" | "mut" | "ref") {
                                names.insert(n);
                            }
                        }
                        // Enum variants are part of the path surface.
                        if t.text == "enum" {
                            collect_enum_variants(&f, i, &mut names);
                        }
                    }
                    "macro_rules" if i + 2 < f.code.len() && f.tok(i + 1).text == "!" => {
                        names.insert(f.tok(i + 2).text.clone());
                    }
                    "use" => {
                        let mut j = i + 1;
                        while j < f.code.len() && f.tok(j).text != ";" {
                            if f.tok(j).kind == TokKind::Ident {
                                names.insert(f.tok(j).text.clone());
                            }
                            j += 1;
                        }
                        i = j;
                    }
                    _ => {}
                }
            }
            i += 1;
        }
    }
    names
}

/// Add the variant names of the enum declared at code index `i` (the
/// `enum` keyword) to `names`.
fn collect_enum_variants(f: &SourceFile, i: usize, names: &mut BTreeSet<String>) {
    let Some(open) = (i + 1..f.code.len()).find(|&k| f.tok(k).text == "{") else {
        return;
    };
    let mut depth = 0usize;
    let mut k = open;
    while k < f.code.len() {
        match f.tok(k).text.as_str() {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            }
            _ => {
                if depth == 1
                    && f.tok(k).kind == TokKind::Ident
                    && matches!(f.tok(k - 1).text.as_str(), "{" | ",")
                {
                    names.insert(f.tok(k).text.clone());
                }
            }
        }
        k += 1;
    }
}

/// The shim crates the `shim-surface` rule knows about: directory names
/// under `shims/` double as crate names.
fn discover_shims(root: &Path) -> BTreeMap<String, BTreeSet<String>> {
    let mut shims = BTreeMap::new();
    let Ok(entries) = fs::read_dir(root.join("shims")) else {
        return shims;
    };
    let mut dirs: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        if let Some(name) = dir.file_name().map(|n| n.to_string_lossy().to_string()) {
            shims.insert(name, shim_surface_of(&dir));
        }
    }
    shims
}

/// Lint the file set `rels` (workspace-relative) under `root`, running
/// the named rules (or the full registry when `rule_filter` is `None`).
/// Returns the surviving diagnostics, sorted.
pub fn lint_files(
    root: &Path,
    rels: &[String],
    cfg: &Config,
    rule_filter: Option<&[String]>,
) -> Vec<Diagnostic> {
    let mut files = Vec::new();
    for rel in rels {
        let Ok(src) = fs::read_to_string(root.join(rel)) else {
            continue;
        };
        files.push(SourceFile::analyze(rel.clone(), &src));
    }
    let shims = discover_shims(root);
    let sym = symbols::SymbolTable::build(root, &files);
    let graph = callgraph::CallGraph::build(&files, &sym);
    let ctx = LintCtx {
        files: &files,
        cfg,
        shims: &shims,
        symbols: &sym,
        graph: &graph,
    };
    let rules: Vec<Box<dyn Rule>> = rules::all_rules()
        .into_iter()
        .filter(|r| {
            rule_filter
                .map(|names| names.iter().any(|n| n == r.name()))
                .unwrap_or(true)
        })
        .collect();
    let mut diags = Vec::new();
    for rule in &rules {
        rule.check(&ctx, &mut diags);
    }
    // Honor `lint: allow(<rule>) -- <reason>` annotations, remembering
    // what each one actually suppressed so stale allows can be flagged.
    let mut suppressed: Vec<Diagnostic> = Vec::new();
    diags.retain(|d| {
        let covered = files
            .iter()
            .find(|f| f.rel == d.file)
            .map(|f| f.is_allowed(&d.rule, d.line))
            .unwrap_or(false);
        if covered {
            suppressed.push(d.clone());
        }
        !covered
    });
    // The escape hatch itself is linted: a reason is mandatory, the rule
    // name must exist (a typo would silently suppress nothing), and a
    // reasoned allow must still be earning its keep — an allow whose
    // rule ran but which suppressed no diagnostic is stale and must be
    // deleted, or it will mask a future regression at that site.
    let known: Vec<&'static str> = rules::all_rules().iter().map(|r| r.name()).collect();
    let active: Vec<&'static str> = rules.iter().map(|r| r.name()).collect();
    for f in &files {
        for a in &f.allows {
            if !known.contains(&a.rule.as_str()) {
                diags.push(Diagnostic::new(
                    &f.rel,
                    a.line,
                    "lint-allow",
                    format!(
                        "`lint: allow({})` names an unknown rule — known rules: {}",
                        a.rule,
                        known.join(", ")
                    ),
                ));
            } else if !a.has_reason {
                diags.push(Diagnostic::new(
                    &f.rel,
                    a.line,
                    "lint-allow",
                    format!(
                        "`lint: allow({})` requires a written reason: \
                         `// lint: allow({}) -- <why this site is safe>`",
                        a.rule, a.rule
                    ),
                ));
            } else if active.contains(&a.rule.as_str())
                && !suppressed.iter().any(|d| {
                    d.file == f.rel
                        && d.rule == a.rule
                        && (d.line == a.line || d.line == a.line + 1)
                })
            {
                diags.push(Diagnostic::new(
                    &f.rel,
                    a.line,
                    "lint-allow",
                    format!(
                        "stale `lint: allow({})` — it suppresses nothing; delete it so it \
                         cannot mask a future violation at this site",
                        a.rule
                    ),
                ));
            }
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
