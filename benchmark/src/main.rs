//! The repository's benchmark: five single-threaded workloads timed from
//! outside the crates. See `README.md` for the method and the layer tables.
//!
//! ```text
//! lumiere-benchmark run --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! lumiere-benchmark trace --workload <name> [--seed N] [--seconds S]
//! lumiere-benchmark all [--seed N] [--seconds S]
//! lumiere-benchmark selfcheck [--runs R] [--seed N] [--seconds S]
//! ```
//!
//! `run` prints diagnostics first and, as the last line of standard output,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}` holding
//! every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`, the traced run). It exits non-zero if any unit failed its
//! correctness oracle.

mod layers;
mod mesh;
mod probes;
mod report;
mod run;
mod selfcheck;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;
use workload::{Workload, NOMINAL_SECONDS};

/// Parsed command-line options (every mode shares them).
pub struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    runs: usize,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 42,
        seconds: NOMINAL_SECONDS,
        trace: false,
        runs: 5,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                let known = Workload::ALL.map(Workload::name).join(", ");
                options.workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?} (known: {known})"))?,
                );
            }
            "--seed" => options.seed = number()?,
            "--seconds" => options.seconds = number()?.clamp(1, 60),
            "--trace" => options.trace = number()? != 0,
            "--runs" => options.runs = number()?.max(3) as usize,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(options)
}

const USAGE: &str = "usage: lumiere-benchmark <run|trace|all|selfcheck> \
                     [--workload <name>] [--seed N] [--seconds S] [--trace 0|1] [--runs R]";

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((mode, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let mut options = match parse(rest) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match mode.as_str() {
        "run" | "trace" => {
            options.trace |= mode == "trace";
            let Some(workload) = options.workload else {
                eprintln!("{mode} needs --workload\n{USAGE}");
                return ExitCode::from(2);
            };
            if options.trace {
                layers::traced_run(workload, &options, started)
            } else {
                report::plain_run(workload, &options, started)
            }
        }
        "all" => selfcheck::run_all(&options),
        "selfcheck" => selfcheck::selfcheck(&options),
        _ => {
            eprintln!("unknown mode {mode:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
