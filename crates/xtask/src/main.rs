//! CLI for workspace automation tasks.
//!
//! ```text
//! cargo run -p xtask -- lint [--rule <name>]... [--root <path>] [--json]
//! cargo run -p xtask -- lint --list
//! ```
//!
//! `lint` exits 0 when the workspace holds its invariants, 1 with
//! `file:line: [rule] message` diagnostics otherwise, 2 on usage errors.
//! `--json` renders the findings as a JSON array instead — one object
//! per finding, fields always in the order `file`, `line`, `rule`,
//! `message`, `chain` — so CI can archive machine-readable reports whose
//! diffs stay byte-stable across runs.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::rules::{all_rules, Config};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- lint [--rule <name>]... [--root <path>] [--json] [--list]"
            );
            ExitCode::from(2)
        }
    }
}

fn lint(args: &[String]) -> ExitCode {
    let mut rule_filter: Vec<String> = Vec::new();
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                json = true;
                i += 1;
            }
            "--list" => {
                for r in all_rules() {
                    println!("{:24} {}", r.name(), r.describe());
                }
                return ExitCode::SUCCESS;
            }
            "--rule" if i + 1 < args.len() => {
                rule_filter.push(args[i + 1].clone());
                i += 2;
            }
            "--root" if i + 1 < args.len() => {
                root = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            other => {
                eprintln!("xtask lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(xtask::workspace_root);
    let rels = xtask::walk_rs_files(&root);
    let filter = if rule_filter.is_empty() {
        None
    } else {
        Some(rule_filter.as_slice())
    };
    let diags = xtask::lint_files(&root, &rels, &Config::default(), filter);
    if json {
        print!("{}", render_json(&diags));
    } else {
        for d in &diags {
            println!("{d}");
        }
    }
    if diags.is_empty() {
        eprintln!(
            "xtask lint: clean — {} files, {} rules",
            rels.len(),
            all_rules().len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask lint: {} violation(s)", diags.len());
        ExitCode::FAILURE
    }
}

/// Render diagnostics as a JSON array, one object per line, fields in
/// fixed order. Hand-rolled like everything else here: the only JSON
/// this emits is flat strings and integers.
fn render_json(diags: &[xtask::rules::Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"file\":");
        json_str(&mut out, &d.file);
        out.push_str(",\"line\":");
        out.push_str(&d.line.to_string());
        out.push_str(",\"rule\":");
        json_str(&mut out, &d.rule);
        out.push_str(",\"message\":");
        json_str(&mut out, &d.msg);
        out.push_str(",\"chain\":[");
        for (j, c) in d.chain.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            json_str(&mut out, c);
        }
        out.push_str("]}");
    }
    out.push_str("\n]\n");
    out
}

/// Append `s` as a JSON string literal.
fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}
