//! The whole suite in one command: every workload untraced and traced,
//! each in a process of its own (so `peak_rss_mb` is that workload's
//! high-water mark and nobody else's), gathered into one JSON document
//! and a table; plus `--check-repeat` and the `--record` ledger row.

use std::process::Command;

use crate::json::Value;
use crate::metrics::{Def, END_TO_END, PER_LAYER, WORKLOADS};
use crate::workloads::{perf_dir, Params};

/// Metrics that are pure functions of the seed: two runs must agree on
/// them exactly, not merely within the bound.
const EXACT: &[&str] = &["route_weight_mean_us", "sim_rtt_p50_us", "sim_rtt_p99_us"];

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The host block every report carries: a number without cores, rustc
/// and commit does not count.
pub fn host_block() -> Value {
    let unknown = || "unknown".to_string();
    Value::object([
        (
            "host_cores",
            Value::from(std::thread::available_parallelism().map_or(0, |n| n.get()) as u64),
        ),
        (
            "rustc",
            Value::from(command_output("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        (
            "commit",
            Value::from(
                command_output("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(unknown),
            ),
        ),
    ])
}

/// One workload's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Value,
}

fn run_child(workload: &str, params: Params, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &params.seed.to_string()])
        .args(["--seconds", &params.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if params.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or("child printed nothing")?;
    for l in lines {
        eprintln!("{l}");
    }
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let v = Value::parse(last)?;
    let field = |k: &str| v.get(k).cloned().ok_or(format!("result line lacks {k}"));
    Ok(ChildResult {
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0),
        failed: field("failed")?.as_f64().unwrap_or(0.0),
        metrics: field("metrics")?,
    })
}

/// Run every workload untraced then traced. Returns the report document
/// and whether every run was correct.
pub fn run_suite(params: Params) -> Result<(Value, bool), String> {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for (name, why) in WORKLOADS {
        let e2e = run_child(name, params, false)?;
        let layers = run_child(name, params, true)?;
        all_correct &= e2e.correct && layers.correct;
        workloads.push(Value::object([
            ("name", Value::from(*name)),
            ("why", Value::from(*why)),
            ("correct", Value::from(e2e.correct && layers.correct)),
            ("attempted", Value::from(e2e.attempted)),
            ("failed", Value::from(e2e.failed)),
            ("end_to_end", e2e.metrics),
            ("per_layer", layers.metrics),
        ]));
    }
    let doc = Value::object([
        ("benchmark", Value::from("BENCH-E2E")),
        ("host", host_block()),
        ("seed", Value::from(params.seed)),
        ("seconds", Value::from(params.seconds)),
        ("smoke", Value::from(params.smoke)),
        ("workloads", Value::Array(workloads)),
    ]);
    Ok((doc, all_correct))
}

fn metric_value(workload: &Value, section: &str, name: &str) -> Option<f64> {
    workload.get(section)?.get(name)?.get("value")?.as_f64()
}

fn workloads_of(doc: &Value) -> &[Value] {
    doc.get("workloads")
        .and_then(Value::as_array)
        .unwrap_or(&[])
}

/// The table: one row per metric, one column per workload.
pub fn print_table(doc: &Value) {
    let names: Vec<&str> = workloads_of(doc)
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    let header = |title: &str| {
        print!("{title:<34}{:<7}", "unit");
        for n in &names {
            print!("{n:>16}");
        }
        println!();
    };
    let rows = |section: &str, table: &[Def]| {
        for d in table {
            print!("{:<34}{:<7}", d.name, d.unit);
            for w in workloads_of(doc) {
                let v = metric_value(w, section, d.name).unwrap_or(0.0);
                if v != 0.0 && (v.abs() < 0.01 || v.abs() >= 1e7) {
                    print!("{v:>16.4e}");
                } else {
                    print!("{v:>16.4}");
                }
            }
            println!();
        }
    };
    header("end-to-end (untraced, median of 3)");
    rows("end_to_end", END_TO_END);
    header("per-layer (traced run + replays)");
    rows("per_layer", PER_LAYER);
}

/// `--check-repeat`: compare two suite reports of the same commit and
/// seed. Prints the observed spread per metric and returns the
/// disagreements (empty = the benchmark repeats within its own bounds).
pub fn check_repeat(a: &Value, b: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    println!(
        "{:<16}{:<24}{:>14}{:>14}{:>10}{:>8}",
        "workload", "metric", "run 1", "run 2", "spread", "bound"
    );
    for (wa, wb) in workloads_of(a).iter().zip(workloads_of(b)) {
        let name = wa.get("name").and_then(Value::as_str).unwrap_or("?");
        for d in END_TO_END {
            let (Some(x), Some(y)) = (
                metric_value(wa, "end_to_end", d.name),
                metric_value(wb, "end_to_end", d.name),
            ) else {
                problems.push(format!("{name}: {} missing from a report", d.name));
                continue;
            };
            let spread = (x - y).abs() / x.abs().max(f64::MIN_POSITIVE);
            println!(
                "{name:<16}{:<24}{x:>14.4}{y:>14.4}{spread:>10.4}{:>8.2}",
                d.name, d.bound
            );
            if EXACT.contains(&d.name) && x != y {
                problems.push(format!(
                    "{name}: {} must repeat exactly, got {x} then {y}",
                    d.name
                ));
            } else if spread > d.bound {
                problems.push(format!(
                    "{name}: {} moved {:.1}% between runs, bound {:.0}%",
                    d.name,
                    spread * 100.0,
                    d.bound * 100.0
                ));
            }
        }
    }
    problems
}

/// `--record`: append this report's end-to-end metrics as one row of
/// `perf/ledger.jsonl` (append-only — the repo's performance trajectory).
pub fn record(doc: &Value) -> Result<(), std::io::Error> {
    use std::io::Write;
    let mut row = vec![
        (
            "host".to_string(),
            doc.get("host").cloned().unwrap_or(Value::Null),
        ),
        (
            "seed".to_string(),
            doc.get("seed").cloned().unwrap_or(Value::Null),
        ),
        (
            "seconds".to_string(),
            doc.get("seconds").cloned().unwrap_or(Value::Null),
        ),
    ];
    for w in workloads_of(doc) {
        let name = w.get("name").and_then(Value::as_str).unwrap_or("?");
        let flat = Value::object(END_TO_END.iter().map(|d| {
            (
                d.name,
                Value::from(metric_value(w, "end_to_end", d.name).unwrap_or(0.0)),
            )
        }));
        row.push((name.to_string(), flat));
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(perf_dir().join("ledger.jsonl"))?;
    writeln!(f, "{}", Value::Object(row))?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(ops: f64, rtt: f64) -> Value {
        let m = |v: f64| Value::object([("value", Value::from(v)), ("unit", Value::from("x"))]);
        let e2e = Value::object(END_TO_END.iter().map(|d| {
            let v = match d.name {
                "ops_per_s" => ops,
                "sim_rtt_p50_us" => rtt,
                _ => 10.0,
            };
            (d.name, m(v))
        }));
        Value::object([(
            "workloads",
            Value::Array(vec![Value::object([
                ("name", Value::from("mesh_forward")),
                ("end_to_end", e2e),
            ])]),
        )])
    }

    #[test]
    fn check_repeat_applies_bounds_and_exactness() {
        assert!(check_repeat(&report(100.0, 5.0), &report(95.0, 5.0)).is_empty());
        let slow = check_repeat(&report(100.0, 5.0), &report(70.0, 5.0));
        assert_eq!(slow.len(), 1, "{slow:?}");
        assert!(slow[0].contains("ops_per_s"));
        let inexact = check_repeat(&report(100.0, 5.0), &report(100.0, 5.000001));
        assert_eq!(inexact.len(), 1, "{inexact:?}");
        assert!(inexact[0].contains("exactly"));
    }

    #[test]
    fn host_block_names_cores_rustc_and_commit() {
        let h = host_block();
        assert!(h.get("host_cores").and_then(Value::as_f64).unwrap() >= 1.0);
        assert!(h.get("rustc").and_then(Value::as_str).is_some());
        assert!(h.get("commit").and_then(Value::as_str).is_some());
    }
}
