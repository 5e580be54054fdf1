// lint: allow(unsafe-gate) -- two C library calls std does not expose (setsockopt, malloc_trim); unsafe is confined to src/sys.rs and denied everywhere else
#![deny(unsafe_code)]
//! End-to-end and per-layer benchmark of the SAT-MapIt workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite_batch|daemon_mix|store_churn --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --record-pins
//! ```
//!
//! The last line of standard output is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A
//! readable table goes to standard error. A run with a wrong answer prints
//! `"correct": false` and exits with code 1; a run that could not measure
//! (the load ladder never saturated the daemon) prints no result and exits
//! with code 2. Why each workload and metric
//! exists is recorded in `RATIONALE.md` beside this package.

mod daemon;
mod layers;
mod pins;
mod problems;
mod replay;
mod report;
mod suite;
mod sys;
mod trace;
mod util;

/// Where traces and the `store_churn` store are written.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

const USAGE: &str = "usage: perfbench --workload suite_batch|daemon_mix|store_churn \
                     --seed N --seconds S --trace 0|1\n       perfbench --record-pins";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--record-pins") {
        match pins::record() {
            Ok(table) => print!("{table}"),
            Err(problems) => fail(&problems),
        }
        return;
    }
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let parse = |flag: &str| -> u64 {
        value(flag)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| fail(&format!("missing or malformed {flag}")))
    };
    let workload = value("--workload").unwrap_or_else(|| fail("missing --workload"));
    let seed = parse("--seed");
    let seconds = parse("--seconds").max(1);
    let traced = match parse("--trace") {
        0 => false,
        1 => true,
        _ => fail("--trace takes 0 or 1"),
    };
    let tracer = trace::Tracer::new(traced);
    let report = match workload.as_str() {
        "suite_batch" => suite::run(seed, seconds, &tracer),
        "daemon_mix" => daemon::run_mix(seed, seconds, &tracer),
        "store_churn" => daemon::run_store(seed, seconds, &tracer),
        other => fail(&format!("unknown workload {other}")),
    };
    let (table, result) = report.render(&workload, traced);
    // lint: allow(log-discipline) -- the readable table on stderr is part of the documented output
    eprint!("{table}");
    if let Some(why) = &report.invalid {
        // lint: allow(log-discipline) -- an invalid run is reported on stderr before a nonzero exit
        eprintln!("perfbench: invalid run, no result: {why}");
        std::process::exit(2);
    }
    println!("{result}");
    if !report.correct() {
        // The result line says `"correct": false`; the exit code says it too.
        std::process::exit(1);
    }
}

fn fail(message: &str) -> ! {
    // lint: allow(log-discipline) -- usage errors go to stderr before a nonzero exit
    eprintln!("perfbench: {message}\n{USAGE}");
    std::process::exit(2);
}
