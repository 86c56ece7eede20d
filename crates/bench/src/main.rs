//! `exp <id>... | all` — run experiments from the registry.
//!
//! The only place that reads argv, prints, writes `results/` and sets
//! the exit code: non-zero if any gate failed or any results file could
//! not be written.

use std::fs;
use std::process::ExitCode;

use sirpent_bench::exp::{Experiment, REGISTRY, RESULTS_DIR};

#[expect(
    clippy::disallowed_methods,
    reason = "argv selects which experiment runs, never what it computes"
)]
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Option<Vec<&Experiment>> = if args == ["all"] {
        Some(REGISTRY.iter().collect())
    } else {
        args.iter()
            .map(|a| REGISTRY.iter().find(|e| e.id == a))
            .collect()
    };
    let Some(selected) = selected.filter(|s| !s.is_empty()) else {
        let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
        eprintln!("usage: exp <id>... | all\nids: {}", ids.join(" "));
        return ExitCode::from(2);
    };

    let mut failed = false;
    for e in selected {
        let report = (e.run)();
        print!("{}", report.text);
        if let Some(stem) = e.results {
            let path = format!("{RESULTS_DIR}/{stem}.json");
            match fs::write(&path, report.json.to_string()) {
                Ok(()) => println!("[results written to results/{stem}.json]"),
                Err(err) => {
                    eprintln!("FAIL: {}: cannot write {path}: {err}", e.id);
                    failed = true;
                }
            }
        }
        for f in &report.failures {
            eprintln!("FAIL: {}: {f}", e.id);
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
