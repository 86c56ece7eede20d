//! The committed `results/*.json` are what the experiments produce.
//!
//! Runs every registry row in-process — except the 10 000-node `te`,
//! which CI's `exp all` covers — renders its JSON and compares it with
//! the committed file byte for byte, writing nothing.

use std::collections::BTreeSet;
use std::fs;

use sirpent_bench::exp::{REGISTRY, RESULTS_DIR};

#[test]
fn every_experiment_reproduces_its_committed_results_and_passes_its_gates() {
    for e in REGISTRY.iter().filter(|e| e.id != "te") {
        let report = (e.run)();
        assert!(
            report.failures.is_empty(),
            "{}: {:?}",
            e.id,
            report.failures
        );
        if let Some(stem) = e.results {
            let committed = fs::read_to_string(format!("{RESULTS_DIR}/{stem}.json"))
                .expect("committed results file");
            assert_eq!(report.json.to_string(), committed, "{} drifted", e.id);
        }
    }
}

#[test]
fn registry_ids_are_unique_and_claim_every_results_file_once() {
    let ids: BTreeSet<&str> = REGISTRY.iter().map(|e| e.id).collect();
    assert_eq!(ids.len(), REGISTRY.len(), "duplicate registry id");

    let mut claimed: Vec<String> = REGISTRY
        .iter()
        .filter_map(|e| e.results)
        .map(|stem| format!("{stem}.json"))
        .collect();
    claimed.sort();
    let mut on_disk: Vec<String> = fs::read_dir(RESULTS_DIR)
        .expect("results directory")
        .map(|f| {
            f.expect("directory entry")
                .file_name()
                .into_string()
                .unwrap()
        })
        .collect();
    on_disk.sort();
    assert_eq!(claimed, on_disk);
}
