//! Executes a run: a fixed count of identical units, back to back on one
//! thread, each unit's construction, execution and oracle timed separately.

use crate::mesh::{self, NoClock};
use crate::stats::{self, WARMUP_UNITS};
use crate::trace::{Tracer, UnitStamps, DETAILED_UNITS};
use crate::workload::{build_sim, check_sim, Counts, Workload};
use std::time::Instant;

/// Which units of a run record spans.
pub enum Tracing<'a> {
    /// None: the run end-to-end metrics come from.
    Off,
    /// Every second unit, so traced and untraced units see the same
    /// machine and their `fast5`s differ by the tracing overhead alone.
    Alternate(&'a mut Tracer),
}

/// The timings of one unit after warm-up.
#[derive(Debug, Clone, Copy)]
pub struct UnitSample {
    /// The unit's index in the run.
    pub unit: u32,
    /// Whether the unit recorded spans.
    pub traced: bool,
    /// Construction time, in ns.
    pub build_ns: f64,
    /// Execution time, in ns.
    pub run_ns: f64,
    /// Oracle time, in ns.
    pub check_ns: f64,
}

/// Everything one pass over a workload measured.
pub struct RunData {
    /// The workload.
    pub workload: Workload,
    /// One sample per unit after warm-up, in run order.
    pub samples: Vec<UnitSample>,
    /// The counts of the first unit that passed its oracle (what every
    /// other unit was held to).
    pub counts: Option<Counts>,
    /// Units executed, warm-up included: every one is an operation.
    pub attempted: u64,
    /// Units that failed the oracle.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_failure: Option<String>,
}

impl RunData {
    /// One timing of every sample, in run order.
    pub fn column(&self, field: fn(&UnitSample) -> f64) -> Vec<f64> {
        self.samples.iter().map(field).collect()
    }

    /// Unit execution times, in ns.
    pub fn run_ns(&self) -> Vec<f64> {
        self.column(|s| s.run_ns)
    }

    /// `fast5` of the unit execution times, in ns.
    pub fn run_fast5_ns(&self) -> f64 {
        stats::fast5(&self.run_ns())
    }

    /// The units that did (`true`) or did not (`false`) record spans, as a
    /// run of their own.
    pub fn only(&self, traced: bool) -> RunData {
        let samples = self.samples.iter().filter(|s| s.traced == traced);
        RunData {
            workload: self.workload,
            samples: samples.copied().collect(),
            counts: self.counts.clone(),
            attempted: self.attempted,
            failed: self.failed,
            first_failure: self.first_failure.clone(),
        }
    }
}

/// Runs `units` units of `workload` built from `seed`. In a traced unit
/// every call the harness makes into a layer is recorded as a span.
pub fn run_units(workload: Workload, seed: u64, units: usize, mut tracing: Tracing) -> RunData {
    assert!(
        units > WARMUP_UNITS + stats::FAST_K,
        "a run needs more than {} units",
        WARMUP_UNITS + stats::FAST_K
    );
    // Inputs are made once, from the seed; the units receive only them.
    let sim_cfg = workload.sim_config(seed);
    let mut data = RunData {
        workload,
        samples: Vec::with_capacity(units),
        counts: None,
        attempted: 0,
        failed: 0,
        first_failure: None,
    };
    for unit in 0..units {
        let tracer = match &mut tracing {
            Tracing::Alternate(tracer) if unit % 2 == 1 => Some(&mut **tracer),
            _ => None,
        };
        let mut clock = None;
        let t0 = Instant::now();
        let (t1, t2, verdict) = match &sim_cfg {
            Some(cfg) => {
                let sim = build_sim(cfg);
                let t1 = Instant::now();
                let report = sim.run();
                let t2 = Instant::now();
                (t1, t2, check_sim(workload, &report))
            }
            None => {
                let nodes = mesh::build(seed);
                let t1 = Instant::now();
                let outcome = match &tracer {
                    Some(tracer) => {
                        let detailed =
                            tracer.detailed_units() < DETAILED_UNITS && unit >= WARMUP_UNITS;
                        let clock = clock.insert(tracer.mesh_clock(unit as u32, detailed));
                        mesh::run(nodes, seed, clock)
                    }
                    None => mesh::run(nodes, seed, &mut NoClock),
                };
                let t2 = Instant::now();
                (t1, t2, mesh::check(outcome))
            }
        };
        let verdict = verdict.and_then(|counts| match &data.counts {
            Some(first) if *first != counts => Err(format!(
                "counts differ from the run's first unit: {counts:?} vs {first:?}"
            )),
            _ => Ok(counts),
        });
        let t3 = Instant::now();
        data.attempted += 1;
        match verdict {
            Ok(counts) => {
                data.counts.get_or_insert(counts);
            }
            Err(failure) => {
                data.failed += 1;
                data.first_failure
                    .get_or_insert(format!("unit {unit}: {failure}"));
            }
        }
        let traced = tracer.is_some();
        if let Some(tracer) = tracer {
            tracer.record_unit(unit as u32, &UnitStamps { t0, t1, t2, t3 }, clock);
        }
        if unit >= WARMUP_UNITS {
            data.samples.push(UnitSample {
                unit: unit as u32,
                traced,
                build_ns: (t1 - t0).as_nanos() as f64,
                run_ns: (t2 - t1).as_nanos() as f64,
                check_ns: (t3 - t2).as_nanos() as f64,
            });
        }
    }
    data
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
