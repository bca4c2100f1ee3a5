//! Searches the adversary strategy/schedule space for safety violations and
//! liveness stalls (see `docs/ADVERSARIES.md`) with one search loop,
//! `corpus::run_coverage_fuzz`: every candidate is a fresh sample, one case
//! per seed, unless `--coverage` makes most of them mutations of corpus
//! entries. Deterministic: `fuzz_adversary --seeds 0..200 --quick` prints
//! the same report for every `--threads` value, with or without
//! `--coverage`. Exit code 1 when there are findings.

use lumiere_bench::report::{ensure_writable, write_json};
use lumiere_bench::{corpus, fuzz};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match fuzz::parse_args(&args) {
        Ok(Some(options)) => options,
        Ok(None) => {
            print!("{}", fuzz::usage("fuzz_adversary"));
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("error: {message}\n\n{}", fuzz::usage("fuzz_adversary"));
            return ExitCode::from(2);
        }
    };
    if options.planted.is_some() && !lumiere_core::planted::enabled() {
        eprintln!(
            "error: --planted-bug requires a build with the planted-bugs \
             feature (cargo ... --features planted-bugs); refusing to \
             silently fuzz stock behaviour"
        );
        return ExitCode::from(2);
    }
    // Fail fast on an unwritable output dir, before minutes of simulations.
    for dir in [&options.out, &options.corpus_out].into_iter().flatten() {
        if let Err(message) = ensure_writable(dir) {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "fuzzing {} over seeds {}..{} ({} threads{})...",
        options.protocol.name(),
        options.seed_start,
        options.seed_end,
        options.threads,
        match options.planted {
            Some(bug) => format!(", planted bug: {}", bug.name()),
            None => String::new(),
        },
    );
    let outcome = corpus::run_coverage_fuzz(&options);
    print!("{}", outcome.render());
    if let Some(dir) = &options.corpus_out {
        match write_json(dir, outcome.corpus.entries(), |i, e| e.filename(i)) {
            Ok(paths) => {
                eprintln!("wrote {} corpus file(s) to {}", paths.len(), dir.display());
            }
            Err(message) => {
                eprintln!("error: {message}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(dir) = &options.out {
        match write_json(dir, &outcome.findings, |_, f| f.filename()) {
            Ok(paths) => {
                eprintln!("wrote {} finding file(s) to {}", paths.len(), dir.display());
            }
            Err(message) => {
                eprintln!("error: {message}");
                return ExitCode::FAILURE;
            }
        }
    }
    if outcome.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
