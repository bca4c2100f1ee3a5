//! The `lumiere-bench` command line.
//!
//! ```text
//! lumiere-bench <experiment>… | all  [--out DIR] [--threads N] [--full]
//! lumiere-bench --check DIR
//! lumiere-bench --diff DIR_A DIR_B
//! ```
//!
//! An experiment is named by its slug in [`ALL_EXPERIMENTS`]; `all` runs
//! every one in registry order under a report heading. `--help` describes
//! the flags; no environment variable changes what the binary does.
//!
//! The markdown report goes to stdout; `--out` adds the persistent JSON
//! cells (see `docs/REPORT_SCHEMA.md`). Output dirs are probed for
//! writability *before* any simulation runs, so a typo in `--out` fails in
//! milliseconds, not after the sweep.

use crate::experiments::{ExperimentDef, ExperimentScale, ALL_EXPERIMENTS};
use crate::grid::available_threads;
use crate::report::{
    diff_cells, ensure_writable, read_json, write_json, SweepCell, SCHEMA_VERSION,
};
use serde::json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The heading `all` prints above the reports.
const ALL_HEADER: &str = "# Lumiere reproduction — experiment reports";

/// A sweep run, resolved from the command line.
#[derive(Debug, Clone)]
struct SweepOptions {
    /// The experiments to run, in order.
    experiments: Vec<&'static ExperimentDef>,
    /// Whether they were asked for as `all` (prints the report heading).
    all: bool,
    /// Sweep scale (`--full` selects the paper scale).
    scale: ExperimentScale,
    /// Worker threads for the experiment grids.
    threads: usize,
    /// Where to persist report cells, if anywhere.
    out: Option<PathBuf>,
}

/// What the binary was asked to do.
#[derive(Debug, Clone)]
enum Command {
    Run(SweepOptions),
    Check(PathBuf),
    Diff(PathBuf, PathBuf),
    Help,
}

fn known_slugs() -> String {
    let slugs: Vec<&str> = ALL_EXPERIMENTS.iter().map(|def| def.slug).collect();
    slugs.join(", ")
}

fn usage() -> String {
    format!(
        "usage: lumiere-bench <experiment>... [--out DIR] [--threads N] [--full]\n\
        \x20      lumiere-bench --check DIR\n\
        \x20      lumiere-bench --diff DIR_A DIR_B\n\
         \n\
         Runs the named experiment sweep(s) and prints a markdown report to stdout.\n\
         \n\
         experiments: {}, or `all`\n\
         \n\
         options:\n\
        \x20 --out DIR      write one JSON file per sweep cell under DIR\n\
        \x20                (format: docs/REPORT_SCHEMA.md)\n\
        \x20 --threads N    worker threads (default: available parallelism)\n\
        \x20 --full         paper-scale sweeps\n\
        \x20 --check DIR    validate every report file in DIR (parse + round-trip)\n\
        \x20 --diff A B     compare two report directories\n\
        \x20 --help         this message\n",
        known_slugs()
    )
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut out: Option<PathBuf> = None;
    let mut threads: Option<usize> = None;
    let mut scale = ExperimentScale::Quick;
    let mut check: Option<PathBuf> = None;
    let mut diff: Option<(PathBuf, PathBuf)> = None;
    let mut experiments: Vec<&'static ExperimentDef> = Vec::new();
    let mut all = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--threads" => {
                let raw = value("--threads")?;
                let parsed: usize = raw
                    .parse()
                    .map_err(|_| format!("--threads expects a positive integer, got `{raw}`"))?;
                if parsed == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                threads = Some(parsed);
            }
            "--full" => scale = ExperimentScale::Full,
            "--check" => check = Some(PathBuf::from(value("--check")?)),
            "--diff" => {
                let a = PathBuf::from(value("--diff")?);
                let b = iter
                    .next()
                    .map(PathBuf::from)
                    .ok_or_else(|| "--diff needs two directories".to_string())?;
                diff = Some((a, b));
            }
            "--help" | "-h" => return Ok(Command::Help),
            "all" => all = true,
            flag if flag.starts_with('-') => return Err(format!("unknown argument `{flag}`")),
            slug => {
                let def = ALL_EXPERIMENTS
                    .iter()
                    .find(|def| def.slug == slug)
                    .ok_or_else(|| {
                        format!(
                            "unknown experiment `{slug}` (known: {}, or `all`)",
                            known_slugs()
                        )
                    })?;
                if experiments.iter().any(|seen| seen.slug == slug) {
                    return Err(format!("experiment `{slug}` is named twice"));
                }
                experiments.push(def);
            }
        }
    }
    if let Some(dir) = check {
        return Ok(Command::Check(dir));
    }
    if let Some((a, b)) = diff {
        return Ok(Command::Diff(a, b));
    }
    if all && !experiments.is_empty() {
        return Err("`all` already names every experiment".to_string());
    }
    if all {
        experiments = ALL_EXPERIMENTS.iter().collect();
    }
    if experiments.is_empty() {
        return Err("no experiment named".to_string());
    }
    Ok(Command::Run(SweepOptions {
        experiments,
        all,
        scale,
        threads: threads.unwrap_or_else(available_threads),
        out,
    }))
}

/// Entry point of the `lumiere-bench` binary: parses the command line, runs
/// (or checks, or diffs) and reports errors on stderr with a non-zero exit
/// code — 2 for a command line it cannot act on, 1 for a failed run.
pub fn run_main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("error: {message}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = match command {
        Command::Help => {
            print!("{}", usage());
            Ok(())
        }
        Command::Check(dir) => check_dir(&dir),
        Command::Diff(a, b) => diff_dirs(&a, &b),
        Command::Run(options) => run_sweeps(&options),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run_sweeps(options: &SweepOptions) -> Result<(), String> {
    // Fail fast on an unwritable output dir — before minutes of sweeps.
    if let Some(dir) = &options.out {
        ensure_writable(dir)?;
    }
    if options.all {
        println!("{ALL_HEADER}\n");
    }
    let mut cells: Vec<SweepCell> = Vec::new();
    for def in &options.experiments {
        eprintln!("running {} ...", def.title);
        let run = (def.run)(options.scale, options.threads);
        println!("{}", run.markdown);
        cells.extend(run.cells);
    }
    if let Some(dir) = &options.out {
        let paths = write_json(dir, &cells, |_, cell| cell.filename())?;
        eprintln!("wrote {} report file(s) to {}", paths.len(), dir.display());
    }
    Ok(())
}

/// Reads the cells under `dir`, refusing one of another [`SCHEMA_VERSION`].
fn load_cells(dir: &Path) -> Result<Vec<SweepCell>, String> {
    let cells: Vec<SweepCell> = read_json(dir)?;
    match cells.iter().find(|c| c.schema_version != SCHEMA_VERSION) {
        Some(cell) => Err(format!(
            "{}: cell {} has schema version {}, not the supported version {SCHEMA_VERSION}",
            dir.display(),
            cell.key(),
            cell.schema_version
        )),
        None => Ok(cells),
    }
}

fn check_dir(dir: &Path) -> Result<(), String> {
    let cells = load_cells(dir)?;
    if cells.is_empty() {
        return Err(format!("{}: no report files found", dir.display()));
    }
    for cell in &cells {
        // Round-trip: serialize → parse → compare. This catches any report
        // the loader could read but not reproduce.
        let text = json::to_string_pretty(cell);
        let back: SweepCell = json::from_str(&text)
            .map_err(|e| format!("{}: failed to round-trip: {e}", cell.key()))?;
        if &back != cell {
            return Err(format!("{}: round-trip changed the cell", cell.key()));
        }
    }
    eprintln!(
        "validated {} report file(s) in {}",
        cells.len(),
        dir.display()
    );
    Ok(())
}

fn diff_dirs(a: &Path, b: &Path) -> Result<(), String> {
    let diff = diff_cells(&load_cells(a)?, &load_cells(b)?);
    print!("{}", diff.render());
    if diff.is_empty() {
        Ok(())
    } else {
        Err("the report sets differ".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn run_options(args: &[&str]) -> SweepOptions {
        match parse(args).unwrap() {
            Command::Run(options) => options,
            other => panic!("expected a run command, got {other:?}"),
        }
    }

    fn slugs(options: &SweepOptions) -> Vec<&'static str> {
        options.experiments.iter().map(|def| def.slug).collect()
    }

    #[test]
    fn default_run_uses_available_parallelism() {
        let options = run_options(&["scale"]);
        assert!(options.threads >= 1);
        assert_eq!(options.out, None);
        assert_eq!(options.scale, ExperimentScale::Quick);
    }

    #[test]
    fn flags_are_parsed() {
        let options = run_options(&["--out", "/tmp/r", "load", "--threads", "4", "--full"]);
        assert_eq!(slugs(&options), ["load"]);
        assert_eq!(options.scale, ExperimentScale::Full);
        assert_eq!(options.threads, 4);
        assert_eq!(options.out, Some(PathBuf::from("/tmp/r")));
    }

    #[test]
    fn experiments_run_in_the_order_named_and_all_means_the_registry() {
        let one = run_options(&["figure1"]);
        assert_eq!(slugs(&one), ["figure1"]);
        let several = run_options(&["scale", "table1_worst", "load"]);
        assert_eq!(slugs(&several), ["scale", "table1_worst", "load"]);
        assert!(!one.all && !several.all, "only `all` prints the heading");

        let all = run_options(&["all"]);
        let registry: Vec<_> = ALL_EXPERIMENTS.iter().map(|def| def.slug).collect();
        assert_eq!(slugs(&all), registry);
        assert!(all.all);
    }

    #[test]
    fn a_run_needs_known_experiments_named_once() {
        // What the binary prints for the first two, and its exit code, is
        // checked in `tests/cli_exit_codes.rs`.
        assert!(parse(&["table1_all"]).is_err());
        assert!(parse(&[]).is_err());
        assert!(parse(&["load", "load"]).unwrap_err().contains("twice"));
        assert!(parse(&["all", "load"]).is_err());
    }

    #[test]
    fn check_and_diff_modes_win_over_run_flags() {
        // Neither needs an experiment named.
        assert!(matches!(
            parse(&["--check", "/tmp/r"]).unwrap(),
            Command::Check(dir) if dir == Path::new("/tmp/r")
        ));
        assert!(matches!(
            parse(&["--diff", "/tmp/a", "/tmp/b", "--threads", "2"]).unwrap(),
            Command::Diff(a, b) if a == Path::new("/tmp/a") && b == Path::new("/tmp/b")
        ));
        assert!(matches!(parse(&["--help"]).unwrap(), Command::Help));
    }

    #[test]
    fn schema_version_mismatch_is_rejected() {
        use crate::report::tests::{sample_cell, temp_dir};
        let dir = temp_dir("schema");
        let mut cell = sample_cell("n004", 1);
        cell.schema_version = 999;
        write_json(&dir, &[cell], |_, cell| cell.filename()).unwrap();
        let err = load_cells(&dir).unwrap_err();
        assert!(err.contains("schema version 999"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(parse(&["scale", "--threads"]).is_err());
        assert!(parse(&["scale", "--threads", "zero"]).is_err());
        assert!(parse(&["scale", "--threads", "0"]).is_err());
        assert!(parse(&["scale", "--frobnicate"]).is_err());
        assert!(parse(&["--diff", "/tmp/a"]).is_err());
    }
}
