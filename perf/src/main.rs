//! BENCH-E2E: the repo's one real-stack benchmark.
//!
//! Real `SirpentHost`s send through real `ViperRouter`s with tokens,
//! trailers and directory-issued routes; every layer is measured from
//! outside, through public API only. See `perf/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perf/Cargo.toml -- \
//!     --workload mesh_forward --seed 7 --seconds 15 --trace 0   # one workload, one result line
//! cargo run --release --manifest-path perf/Cargo.toml -- --seed 7            # whole suite, table + JSON
//! cargo run --release --manifest-path perf/Cargo.toml -- --seed 7 --check-repeat
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dir_te;
mod fixture;
mod json;
mod mesh;
mod metrics;
mod replay;
mod rng;
mod spans;
mod stats;
mod suite;
mod timed;
mod workloads;

use std::process::ExitCode;

use workloads::Params;

const USAGE: &str = "usage: sirpent-perf [--workload <name>] [--seed <n>] [--seconds <n>] \
[--trace [0|1]] [--smoke] [--check-repeat] [--record] [--print-benchmark-json]
  with --workload: run that workload once and print the result line last
  without:         run the whole suite (each workload in its own process), print table + JSON";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    params: Params,
    trace: bool,
    check_repeat: bool,
    record: bool,
    print_benchmark_json: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        params: Params {
            seed: 1,
            seconds: metrics::RUN_SECONDS,
            smoke: false,
        },
        trace: false,
        check_repeat: false,
        record: false,
        print_benchmark_json: false,
    };
    let mut it = argv.iter().peekable();
    let number = |flag: &str, v: Option<&String>| -> Result<u64, String> {
        v.and_then(|s| s.parse().ok())
            .ok_or(format!("{flag} needs a whole number"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => {
                args.workload = Some(it.next().ok_or("--workload needs a name")?.clone());
            }
            "--seed" => args.params.seed = number("--seed", it.next())?,
            "--seconds" => args.params.seconds = number("--seconds", it.next())?.clamp(1, 60),
            "--trace" => {
                // `--trace` alone means on; the driver passes 0 or 1.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.params.smoke = true,
            "--check-repeat" => args.check_repeat = true,
            "--record" => args.record = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn one_workload(name: &str, args: &Args) -> ExitCode {
    let Some(out) = workloads::run(name, args.params, args.trace) else {
        eprintln!("no such workload: {name}\n{USAGE}");
        return ExitCode::from(2);
    };
    for line in &out.detail {
        println!("{line}");
    }
    for v in &out.violations {
        eprintln!("CHECK FAILED: {v}");
    }
    // The contract: the result object is the last line of stdout. A
    // failed output check is reported through `correct`, not the exit
    // code, so the numbers that go with it are still seen.
    println!("{}", out.result_line(args.trace));
    ExitCode::SUCCESS
}

fn whole_suite(args: &Args) -> Result<bool, String> {
    let (doc, mut ok) = suite::run_suite(args.params)?;
    if args.check_repeat {
        let (again, ok_again) = suite::run_suite(args.params)?;
        ok &= ok_again;
        let problems = suite::check_repeat(&doc, &again);
        for p in &problems {
            eprintln!("REPEAT FAILED: {p}");
        }
        ok &= problems.is_empty();
    }
    suite::print_table(&doc);
    if args.record {
        suite::record(&doc).map_err(|e| format!("appending to the ledger: {e}"))?;
    }
    println!("{doc}");
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        println!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Some(name) = &args.workload {
        return one_workload(name, &args);
    }
    match whole_suite(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_drivers_command_line_and_the_short_forms() {
        let a = parse("--workload dir_te --seed 9 --seconds 15 --trace 0").unwrap();
        assert_eq!(a.workload.as_deref(), Some("dir_te"));
        assert_eq!((a.params.seed, a.params.seconds, a.trace), (9, 15, false));
        assert!(parse("--trace 1 --seed 2").unwrap().trace);
        let bare = parse("--seed 2 --trace --smoke").unwrap();
        assert!(bare.trace && bare.params.smoke && bare.workload.is_none());
        assert!(parse("--seed x").is_err());
        assert!(parse("--frobnicate").is_err());
    }
}
