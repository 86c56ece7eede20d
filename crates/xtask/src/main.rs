//! CLI for workspace automation tasks.
//!
//! ```text
//! cargo run -p xtask -- lint [--rule <name>]... [--root <path>]
//! cargo run -p xtask -- lint --list
//! cargo run -p xtask -- loc [--root <path>]
//! ```
//!
//! `lint` exits 0 when the workspace holds its invariants, 1 with
//! `file:line: [rule] message` diagnostics otherwise, 2 on usage errors.
//! `loc` prints non-test, non-comment Rust lines per package and in total.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::rules::{all_rules, Config};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("loc") => loc(&args[1..]),
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- lint [--rule <name>]... [--root <path>] [--list]\n\
                 \x20      cargo run -p xtask -- loc [--root <path>]"
            );
            ExitCode::from(2)
        }
    }
}

fn lint(args: &[String]) -> ExitCode {
    let mut rule_filter: Vec<String> = Vec::new();
    let mut root: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
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
    for d in &diags {
        println!("{d}");
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

fn loc(args: &[String]) -> ExitCode {
    let root = match args {
        [] => xtask::workspace_root(),
        [flag, path] if flag == "--root" => PathBuf::from(path),
        _ => {
            eprintln!("usage: cargo run -p xtask -- loc [--root <path>]");
            return ExitCode::from(2);
        }
    };
    let per = xtask::count_loc(&root, &xtask::walk_rs_files(&root));
    for (package, lines) in &per {
        println!("{package:24} {lines:>7}");
    }
    let total: usize = per.iter().map(|(_, n)| n).sum();
    println!("{:24} {total:>7}", "total");
    ExitCode::SUCCESS
}
