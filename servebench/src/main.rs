//! `servebench --workload <fused|chain|cached> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then one JSON result line. Exits 1
//! when a reply was wrong or an invariant broke, 2 when the run could
//! not be made at all.

use starlink_servebench::{run, Args};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(usage) => {
            eprintln!("servebench: {usage}");
            eprintln!("usage: servebench --workload <fused|chain|cached> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("servebench: run failed: {error}");
            return ExitCode::from(2);
        }
    };
    for line in &outcome.context {
        println!("# {line}");
    }
    for metric in outcome.metrics.iter().chain(&outcome.extra) {
        let samples = metric.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
        println!("{:<34} {:>16.6} {}{samples}", metric.name, metric.value, metric.unit);
    }
    for violation in &outcome.violations {
        eprintln!("servebench: VIOLATION: {violation}");
    }
    println!("{}", outcome.json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
