//! Golden-diagnostic tests: each rule runs over its violating fixture
//! and must reproduce `bad.expected` byte-for-byte, runs over its clean
//! fixture producing nothing, and finally the real workspace must lint
//! clean under the full registry.

use std::fs;
use std::path::Path;

use xtask::rules::Config;

/// Fixture directory name → the rule the run is filtered to.
const FIXTURES: &[(&str, &str)] = &[
    ("panic-free-dataplane", "panic-free-dataplane"),
    ("queue-discipline", "queue-discipline"),
    ("drop-accounting", "drop-accounting"),
    ("telemetry-naming", "telemetry-naming"),
    ("rng-draw-order", "rng-draw-order"),
];

/// The `.rs` files of fixture directory `dir` whose name starts with
/// `prefix`, and every `.rs` file under a subdirectory whose name does
/// (a fixture module tree).
fn fixture_rels(root: &Path, dir: &str, prefix: &str) -> Vec<String> {
    let top = format!("crates/xtask/tests/fixtures/{dir}");
    let mut rels = Vec::new();
    let mut pending = vec![top.clone()];
    while let Some(d) = pending.pop() {
        let abs = root.join(&d);
        for e in fs::read_dir(&abs)
            .unwrap_or_else(|e| panic!("fixture dir {}: {e}", abs.display()))
            .flatten()
        {
            let name = e.file_name().to_string_lossy().to_string();
            let rel = format!("{d}/{name}");
            if d == top && !name.starts_with(prefix) {
                continue;
            }
            if e.path().is_dir() {
                pending.push(rel);
            } else if name.ends_with(".rs") {
                rels.push(rel);
            }
        }
    }
    rels.sort();
    rels
}

/// Lint the fixture files (with scopes read from file stems, so the
/// scope-sensitive rules apply to standalone snippets) and render the
/// diagnostics one per line.
fn run(root: &Path, rule: &str, rels: &[String]) -> String {
    let cfg = Config {
        fixture_scopes: true,
    };
    let filter = [rule.to_string()];
    let diags = xtask::lint_files(root, rels, &cfg, Some(&filter));
    diags.iter().map(|d| format!("{d}\n")).collect()
}

#[test]
fn violating_fixtures_reproduce_golden_output() {
    let root = xtask::workspace_root();
    for (dir, rule) in FIXTURES {
        let rels = fixture_rels(&root, dir, "bad");
        assert!(!rels.is_empty(), "{dir}: no bad fixture");
        let got = run(&root, rule, &rels);
        let expected_path = root.join(format!("crates/xtask/tests/fixtures/{dir}/bad.expected"));
        // `BLESS=1 cargo test -p xtask --test golden` regenerates the
        // expected files after an intentional diagnostic change.
        if std::env::var_os("BLESS").is_some() {
            fs::write(&expected_path, &got)
                .unwrap_or_else(|e| panic!("{}: {e}", expected_path.display()));
        }
        let want = fs::read_to_string(&expected_path)
            .unwrap_or_else(|e| panic!("{}: {e}", expected_path.display()));
        assert!(
            !got.is_empty(),
            "{dir}: bad fixture produced no diagnostics"
        );
        assert_eq!(got, want, "{dir}: diagnostics drifted from bad.expected");
    }
}

#[test]
fn clean_fixtures_produce_nothing() {
    let root = xtask::workspace_root();
    for (dir, rule) in FIXTURES {
        let rels = fixture_rels(&root, dir, "clean");
        assert!(!rels.is_empty(), "{dir}: no clean fixture");
        let got = run(&root, rule, &rels);
        assert_eq!(
            got, "",
            "{dir}: clean fixture should produce no diagnostics"
        );
    }
}

#[test]
fn workspace_lints_clean() {
    let root = xtask::workspace_root();
    let diags = xtask::lint_workspace(&root);
    let rendered: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
    assert!(
        diags.is_empty(),
        "workspace lint regressions:\n{}",
        rendered.join("\n")
    );
}
