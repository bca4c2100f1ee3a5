//! `all` and `selfcheck`: the modes that run whole benchmark runs as child
//! processes of this same binary (peak RSS is per process, so runs must not
//! share one).
//!
//! `selfcheck` is the benchmark testing itself: two sets of runs of the same
//! binary, interleaved A, B, A, B, … so both see the same phases of the
//! machine, each set using the seeds `seed, seed+1, …` — different seeds
//! within a set, as the driver does it, and the same seeds in both sets, so
//! seed-exact metrics can be compared run against run. It fails if
//!
//! * the two medians of a metric differ by more than the metric's bound,
//! * a set's quartile spread (`(Q3 − Q1) / median` over its runs) exceeds
//!   the bound (`setup_s` exempt, as in the driver's rule), or
//! * a virtual-time metric or a per-unit count differs at all between the
//!   two runs of one seed.

use crate::report::END_TO_END;
use crate::stats::{median, quartile_spread};
use crate::workload::Workload;
use crate::Options;
use serde::{json, Value};
use std::process::{Command, Stdio};

/// Runs `run --workload w` in a child process and returns its standard
/// output (`None` if it could not run or exited non-zero).
fn child_run(workload: Workload, seed: u64, seconds: u64, capture: bool) -> Option<String> {
    let exe = std::env::current_exe().ok()?;
    let mut command = Command::new(exe);
    command
        .args(["run", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stderr(Stdio::inherit());
    if capture {
        let output = command.output().ok()?;
        output
            .status
            .success()
            .then(|| String::from_utf8_lossy(&output.stdout).into_owned())
    } else {
        command.status().ok()?.success().then(String::new)
    }
}

/// `all`: the five workloads in turn, each printing as `run` does.
pub fn run_all(options: &Options) -> bool {
    let mut ok = true;
    for workload in Workload::ALL {
        ok &= child_run(workload, options.seed, options.seconds, false).is_some();
    }
    ok
}

/// One child run, parsed: the end-to-end values in [`END_TO_END`] order and
/// the per-unit counts.
struct Parsed {
    values: Vec<f64>,
    counts: Value,
}

fn parse(stdout: &str) -> Option<Parsed> {
    let mut lines = stdout.lines().rev();
    let result = json::parse(lines.next()?).ok()?;
    if !result.get("correct")?.as_bool()? {
        return None;
    }
    let metrics = result.get("metrics")?;
    let values = END_TO_END
        .iter()
        .map(|m| metrics.get(m.name)?.get("value")?.as_f64())
        .collect::<Option<Vec<f64>>>()?;
    let counts = stdout
        .lines()
        .filter_map(|line| json::parse(line).ok())
        .find_map(|doc| doc.get("per_unit_counts").cloned())?;
    Some(Parsed { values, counts })
}

/// `selfcheck`: see the module docs.
pub fn selfcheck(options: &Options) -> bool {
    let runs = options.runs;
    let mut ok = true;
    println!(
        "selfcheck: 2 interleaved sets x {runs} runs x {} workloads, seeds {}..{}, {} s runs",
        Workload::ALL.len(),
        options.seed,
        options.seed + runs as u64 - 1,
        options.seconds
    );
    println!(
        "{:<15} {:<22} {:<6} {:>14} {:>14} {:>8} {:>9} {:>9} {:>7}  verdict",
        "workload",
        "metric",
        "better",
        "median A",
        "median B",
        "diff %",
        "spread A%",
        "spread B%",
        "bound %"
    );
    for workload in Workload::ALL {
        let mut sets: [Vec<Parsed>; 2] = [Vec::new(), Vec::new()];
        for i in 0..runs {
            for set in &mut sets {
                let seed = options.seed + i as u64;
                match child_run(workload, seed, options.seconds, true)
                    .as_deref()
                    .and_then(parse)
                {
                    Some(parsed) => set.push(parsed),
                    None => {
                        println!("{}: a run with seed {seed} failed", workload.name());
                        ok = false;
                    }
                }
            }
        }
        if sets.iter().any(|set| set.len() != runs) {
            continue;
        }
        for (slot, metric) in END_TO_END.iter().enumerate() {
            let column =
                |set: &Vec<Parsed>| set.iter().map(|p| p.values[slot]).collect::<Vec<f64>>();
            let (a, b) = (column(&sets[0]), column(&sets[1]));
            let (mid_a, mid_b) = (median(&a), median(&b));
            let diff = (mid_b - mid_a).abs() / mid_a.abs().max(f64::MIN_POSITIVE);
            let (spread_a, spread_b) = (quartile_spread(&a), quartile_spread(&b));
            let mut verdict = Vec::new();
            if diff > metric.bound {
                verdict.push("MEDIANS DIFFER");
            }
            if metric.name != "setup_s" && spread_a.max(spread_b) > metric.bound {
                verdict.push("SPREAD OVER BOUND");
            }
            if metric.exact && a != b {
                verdict.push("EXACT METRIC DIFFERS");
            }
            ok &= verdict.is_empty();
            println!(
                "{:<15} {:<22} {:<6} {:>14.6} {:>14.6} {:>8.3} {:>9.3} {:>9.3} {:>7.1}  {}",
                workload.name(),
                metric.name,
                metric.better.name(),
                mid_a,
                mid_b,
                diff * 100.0,
                spread_a * 100.0,
                spread_b * 100.0,
                metric.bound * 100.0,
                if verdict.is_empty() {
                    "ok".to_string()
                } else {
                    verdict.join(", ")
                }
            );
        }
        let same_counts = sets[0]
            .iter()
            .zip(&sets[1])
            .all(|(a, b)| a.counts == b.counts);
        println!(
            "{:<15} per-unit counts identical between sets: {same_counts}",
            workload.name()
        );
        ok &= same_counts;
    }
    println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    ok
}
