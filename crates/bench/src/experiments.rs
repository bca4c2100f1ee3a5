//! The experiments that regenerate the paper's tables and figures.
//!
//! Every experiment is a grid of independent, seeded simulations
//! (`protocol × n` or `protocol × f_a` or `protocol × δ`). The grid is
//! scattered over worker threads by [`run_grid`] and the results are
//! assembled *in grid order*, so the rendered tables and the emitted
//! [`SweepCell`]s are identical for every thread count. Each experiment
//! returns an [`ExperimentRun`]: the markdown report that used to be printed
//! to stdout, plus one [`SweepCell`] per grid cell for persistence under
//! `--out` (see `crate::report` and `docs/REPORT_SCHEMA.md`).

use crate::grid::run_grid;
use crate::report::{SweepCell, SCHEMA_VERSION};
use crate::table::TextTable;
use lumiere_core::Pacemaker;
use lumiere_crypto::keygen;
use lumiere_sim::metrics::SimReport;
use lumiere_sim::scenario::{ProtocolKind, SimConfig};
use lumiere_sim::trace::Trace;
use lumiere_sim::{AdversarySchedule, StrategyKind, WorkloadConfig};
use lumiere_types::{Duration, Params, Time, View};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// How large the parameter sweeps should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Small sweeps that finish in seconds (default).
    Quick,
    /// The reference sweeps recorded in `EXPERIMENTS.md` (set
    /// `LUMIERE_FULL=1`).
    Full,
}

impl ExperimentScale {
    /// Reads the scale from the `LUMIERE_FULL` environment variable.
    pub fn from_env() -> Self {
        if std::env::var("LUMIERE_FULL").is_ok_and(|v| v == "1") {
            ExperimentScale::Full
        } else {
            ExperimentScale::Quick
        }
    }

    /// The name recorded in report files (`"quick"` / `"full"`).
    pub fn name(&self) -> &'static str {
        match self {
            ExperimentScale::Quick => "quick",
            ExperimentScale::Full => "full",
        }
    }

    fn worst_case_ns(&self) -> Vec<usize> {
        match self {
            ExperimentScale::Quick => vec![4, 7, 13, 19],
            ExperimentScale::Full => vec![4, 7, 13, 19, 25, 31, 43],
        }
    }

    fn eventual_n(&self) -> usize {
        match self {
            ExperimentScale::Quick => 13,
            ExperimentScale::Full => 22,
        }
    }

    fn eventual_fas(&self) -> Vec<usize> {
        match self {
            ExperimentScale::Quick => vec![0, 1, 2, 4],
            ExperimentScale::Full => vec![0, 1, 2, 3, 5, 7],
        }
    }

    fn responsiveness_deltas_ms(&self) -> Vec<i64> {
        match self {
            ExperimentScale::Quick => vec![1, 5, 10, 20],
            ExperimentScale::Full => vec![1, 2, 5, 10, 20, 40],
        }
    }

    /// Processor counts for the large-`n` scale sweep. Quick runs the CI
    /// smoke sizes plus n = 1024, which exercises symbolic broadcasts and
    /// their recipient runs at real scale on every PR; full extends to
    /// n = 8192, where the O(n·f_a + n) vs Θ(n²) separation is over three
    /// orders of magnitude. The quadratic baselines are capped per
    /// protocol (see [`scale_cap`]) so the sweep's wall clock stays
    /// dominated by the linear protocol, not the baselines' Θ(n²) tails.
    fn scale_ns(&self) -> Vec<usize> {
        match self {
            ExperimentScale::Quick => vec![64, 128, 1024],
            ExperimentScale::Full => vec![64, 128, 256, 512, 1024, 4096, 8192],
        }
    }

    /// Processor counts for the certificate-cost sweep. The sweep's point
    /// is the growth *shape* (flat vs Θ(n) authenticator bytes per
    /// message), which three octaves already separate cleanly; full adds a
    /// fourth.
    fn certificate_ns(&self) -> Vec<usize> {
        match self {
            ExperimentScale::Quick => vec![4, 16, 64],
            ExperimentScale::Full => vec![4, 16, 64, 256],
        }
    }

    /// Offered client-load rates (txs/sec) for the saturation sweep. The
    /// grid is geometric so the throughput–latency curve shows both the
    /// linear region and the knee: with small batches every protocol's
    /// goodput at the top rate is under 0.8× what is offered.
    fn load_rates(&self) -> Vec<u64> {
        match self {
            ExperimentScale::Quick => vec![200, 800, 3_200, 12_800, 51_200],
            ExperimentScale::Full => vec![
                100, 200, 400, 800, 1_600, 3_200, 6_400, 12_800, 25_600, 51_200,
            ],
        }
    }
}

/// The outcome of one experiment: the rendered report and the persistable
/// grid cells behind it.
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    /// The markdown report (tables, scenario descriptions, timelines).
    pub markdown: String,
    /// One cell per simulation in the grid, in deterministic grid order.
    pub cells: Vec<SweepCell>,
}

/// An experiment entry point: runs its grid at the given scale over at most
/// `threads` worker threads.
pub type Experiment = fn(ExperimentScale, usize) -> ExperimentRun;

/// A named experiment in the registry.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentDef {
    /// Short identifier used in report file names (`"table1_worst"`, ...).
    pub slug: &'static str,
    /// Human-readable title printed when the experiment starts.
    pub title: &'static str,
    /// The entry point.
    pub run: Experiment,
}

/// Named experiments: what `lumiere-bench all` runs, in this order, and what
/// `lumiere-bench <slug>` picks from.
pub const ALL_EXPERIMENTS: &[ExperimentDef] = &[
    ExperimentDef {
        slug: "table1_worst",
        title: "table1_worst_case (E1+E3)",
        run: worst_case_table,
    },
    ExperimentDef {
        slug: "table1_eventual",
        title: "table1_eventual (E2+E4)",
        run: eventual_table,
    },
    ExperimentDef {
        slug: "responsiveness",
        title: "responsiveness (Thm 1.1(3))",
        run: responsiveness_table,
    },
    ExperimentDef {
        slug: "figure1",
        title: "figure1 (LP22 stall)",
        run: figure1_report,
    },
    ExperimentDef {
        slug: "heavy_syncs",
        title: "heavy_syncs (Thm 1.1(4))",
        run: heavy_sync_report,
    },
    ExperimentDef {
        slug: "honest_gap",
        title: "honest_gap (Lemmas 5.9-5.12)",
        run: honest_gap_report,
    },
    ExperimentDef {
        slug: "adversaries",
        title: "adversaries (equivocation / targeted partition / crash-recovery)",
        run: adversary_suite,
    },
    ExperimentDef {
        slug: "scale",
        title: "scale (O(n·f_a + n) vs Θ(n²) separation at large n)",
        run: scale_table,
    },
    ExperimentDef {
        slug: "load",
        title: "load (throughput–latency saturation under open-loop client traffic)",
        run: load_table,
    },
    ExperimentDef {
        slug: "certificates",
        title: "certificates (constant-size aggregates vs naive signature vectors)",
        run: certificates_table,
    },
];

/// Looks up an experiment by slug.
///
/// # Panics
///
/// Panics if the slug is not in [`ALL_EXPERIMENTS`] — for callers that pass
/// compile-time constants (the command line reports an unknown name itself).
pub fn experiment(slug: &str) -> &'static ExperimentDef {
    ALL_EXPERIMENTS
        .iter()
        .find(|def| def.slug == slug)
        .unwrap_or_else(|| panic!("unknown experiment slug `{slug}`"))
}

/// Wraps a finished simulation into its persistable cell.
fn make_cell(
    slug: &str,
    label: String,
    scale: ExperimentScale,
    seed: u64,
    report: SimReport,
    trace: Option<Trace>,
) -> SweepCell {
    SweepCell {
        schema_version: SCHEMA_VERSION,
        experiment: slug.to_string(),
        label,
        protocol: report.protocol.clone(),
        n: report.n,
        f_a: report.f_a,
        seed,
        scale: scale.name().to_string(),
        report,
        trace,
    }
}

/// One experiment grid: the parts every sweep has, so that scattering the
/// jobs over threads, restoring grid order, filling the table and building
/// the persistable cells is written once, in [`Sweep::run`].
#[derive(Debug)]
pub struct Sweep<J> {
    /// The experiment slug the cells are filed under.
    pub slug: &'static str,
    /// Recorded in every cell.
    pub scale: ExperimentScale,
    /// Worker threads for the grid.
    pub threads: usize,
    /// The seed every simulation of the grid runs with.
    pub seed: u64,
    /// Column headers of the rendered table.
    pub header: Vec<&'static str>,
    /// The grid points, in report order.
    pub jobs: Vec<J>,
}

impl<J: Sync> Sweep<J> {
    /// Runs `config(job)` (seeded with [`Sweep::seed`]) for every job and, in
    /// job order, appends one cell labelled `label(job)` to `cells` and the
    /// row `row(job, report)` — when it returns one — to the table. Returns
    /// the rendered table.
    pub fn run(
        self,
        cells: &mut Vec<SweepCell>,
        config: impl Fn(&J) -> SimConfig + Sync,
        label: impl Fn(&J) -> String,
        mut row: impl FnMut(&J, &SimReport) -> Option<Vec<String>>,
    ) -> String {
        let reports = run_grid(self.jobs.iter().collect(), self.threads, |job| {
            config(job).with_seed(self.seed).run()
        });
        let mut table = TextTable::new(self.header);
        for (job, report) in self.jobs.iter().zip(reports) {
            if let Some(row) = row(job, &report) {
                table.push_row(row);
            }
            let label = label(job);
            cells.push(make_cell(
                self.slug, label, self.scale, self.seed, report, None,
            ));
        }
        table.render()
    }
}

/// The protocol-major grid `protocols × values`.
pub fn grid<V: Copy>(protocols: &[ProtocolKind], values: &[V]) -> Vec<(ProtocolKind, V)> {
    protocols
        .iter()
        .flat_map(|&protocol| values.iter().map(move |&value| (protocol, value)))
        .collect()
}

/// A measured duration in milliseconds; NaN when the run never produced it.
fn ms(measure: Option<Duration>) -> f64 {
    measure.map_or(f64::NAN, |d| d.as_millis_f64())
}

/// The protocols compared in the experiments: the Table 1 protocols plus the
/// two ablations implemented in this workspace.
const COMPARED_PROTOCOLS: [ProtocolKind; 7] = [
    ProtocolKind::Cogsworth,
    ProtocolKind::Nk20,
    ProtocolKind::Lp22,
    ProtocolKind::Fever,
    ProtocolKind::BasicLumiere,
    ProtocolKind::Lumiere,
    ProtocolKind::Naive,
];

/// Processor 0's pacemaker for `protocol` at `n` processors under `seed`:
/// the experiments read a protocol's leader schedule from it, for adaptive
/// (worst-case) corruption of the leaders after GST.
fn pacemaker_for(protocol: ProtocolKind, n: usize, seed: u64) -> Box<dyn Pacemaker> {
    let (keys, pki) = keygen(n, seed);
    // No schedule depends on Δ.
    let params = Params::new(n, Duration::from_millis(1));
    protocol.build_pacemaker(params, keys[0].clone(), pki, seed)
}

/// The worst-case adversary corrupts the `f` distinct processors that lead
/// the earliest views, maximizing the time to the first honest-leader QC.
/// (Public for the scale-sweep integration tests; `n ≥ 4`, as in a run.)
pub fn worst_case_byzantine_ids(protocol: ProtocolKind, n: usize, seed: u64) -> Vec<usize> {
    let f = (n - 1) / 3;
    let pacemaker = pacemaker_for(protocol, n, seed);
    let schedule = pacemaker.schedule();
    let mut ids = BTreeSet::new();
    let mut v = 0i64;
    while ids.len() < f && v < (4 * n as i64) {
        ids.insert(schedule.leader(View::new(v)).as_usize());
        v += 1;
        if ids.len() == n {
            break;
        }
    }
    ids.into_iter().take(f).collect()
}

/// E1 + E3: worst-case communication and latency after GST, sweeping `n`.
///
/// Scenario: `f` silent-leader Byzantine processors corrupting the first
/// leaders after GST, the adversarial network (every message takes exactly
/// Δ), and GST > 0 so that pre-GST traffic cannot help.
pub fn worst_case_table(scale: ExperimentScale, threads: usize) -> ExperimentRun {
    let delta = Duration::from_millis(10);
    let gst = Time::from_millis(200);
    let seed = 42;
    let mut cells = Vec::new();
    let table = Sweep {
        slug: "table1_worst",
        scale,
        threads,
        seed,
        header: vec![
            "protocol",
            "n",
            "f_a",
            "worst-case msgs [GST+Δ, t*)",
            "worst-case latency (ms)",
            "msgs / n^2",
            "latency / nΔ",
        ],
        jobs: grid(&COMPARED_PROTOCOLS, &scale.worst_case_ns()),
    }
    .run(
        &mut cells,
        |&(protocol, n)| {
            let byz = worst_case_byzantine_ids(protocol, n, seed);
            let horizon = Duration::from_millis(200 + 10 * (40 * n as i64 + 300));
            SimConfig::new(protocol, n)
                .with_delta(delta)
                .with_adversarial_delay()
                .with_gst(gst)
                .with_faulty_ids(byz, StrategyKind::SilentLeader)
                .with_horizon(horizon)
                .with_max_honest_qcs(3)
        },
        |&(_, n)| format!("n{n:03}"),
        |&(protocol, n), report| {
            let msgs = report.worst_case_communication();
            let latency = ms(report.worst_case_latency());
            Some(vec![
                protocol.name().to_string(),
                n.to_string(),
                report.f_a.to_string(),
                msgs.to_string(),
                format!("{latency:.1}"),
                format!("{:.2}", msgs as f64 / (n * n) as f64),
                format!("{:.2}", latency / (n as f64 * delta.as_millis_f64())),
            ])
        },
    );
    let markdown = format!(
        "## E1 + E3 — worst-case communication and latency after GST\n\n\
         Adversary: f silent leaders placed on the first leader slots, all messages delayed exactly Δ = 10 ms, GST = 200 ms.\n\n{table}"
    );
    ExperimentRun { markdown, cells }
}

/// E2 + E4: eventual (steady-state) communication and latency, sweeping the
/// number of actual faults `f_a` at fixed `n`.
pub fn eventual_table(scale: ExperimentScale, threads: usize) -> ExperimentRun {
    let n = scale.eventual_n();
    let delta = Duration::from_millis(10);
    let actual = Duration::from_millis(1);
    let mut cells = Vec::new();
    let table = Sweep {
        slug: "table1_eventual",
        scale,
        threads,
        seed: 7,
        header: vec![
            "protocol",
            "n",
            "f_a",
            "eventual worst msgs/decision",
            "eventual worst latency (ms)",
            "avg latency (ms)",
            "msgs / n",
            "latency / Δ",
        ],
        jobs: grid(&COMPARED_PROTOCOLS, &scale.eventual_fas()),
    }
    .run(
        &mut cells,
        |&(protocol, f_a)| {
            let horizon = Duration::from_millis(4_000 + 3_500 * f_a as i64);
            SimConfig::new(protocol, n)
                .with_delta(delta)
                .with_actual_delay(actual)
                .with_faults(f_a, StrategyKind::SilentLeader)
                .with_horizon(horizon)
        },
        |&(_, f_a)| format!("fa{f_a}"),
        |&(protocol, f_a), report| {
            let warmup = report.default_warmup();
            let msgs = report.eventual_worst_communication(warmup);
            let worst = ms(report.eventual_worst_latency(warmup));
            let avg = ms(report.average_latency(warmup));
            Some(vec![
                protocol.name().to_string(),
                n.to_string(),
                f_a.to_string(),
                msgs.to_string(),
                format!("{worst:.1}"),
                format!("{avg:.2}"),
                format!("{:.1}", msgs as f64 / n as f64),
                format!("{:.1}", worst / delta.as_millis_f64()),
            ])
        },
    );
    let markdown = format!(
        "## E2 + E4 — eventual worst-case communication and latency vs f_a\n\n\
         Scenario: n = {n}, Δ = 10 ms, actual delay δ = 1 ms, GST = 0, f_a silent leaders; measures are taken over consecutive honest-leader QCs after the warm-up window (4nΔ).\n\n{table}"
    );
    ExperimentRun { markdown, cells }
}

/// Theorem 1.1(3): smooth optimistic responsiveness — steady-state latency as
/// a function of the actual network delay δ with no faults.
pub fn responsiveness_table(scale: ExperimentScale, threads: usize) -> ExperimentRun {
    let n = 10;
    let delta_cap = Duration::from_millis(40);
    let mut cells = Vec::new();
    let table = Sweep {
        slug: "responsiveness",
        scale,
        threads,
        seed: 3,
        header: vec![
            "protocol",
            "δ (ms)",
            "avg latency (ms)",
            "eventual worst latency (ms)",
            "latency / δ",
        ],
        jobs: grid(&COMPARED_PROTOCOLS, &scale.responsiveness_deltas_ms()),
    }
    .run(
        &mut cells,
        |&(protocol, delta_ms)| {
            SimConfig::new(protocol, n)
                .with_delta(delta_cap)
                .with_actual_delay(Duration::from_millis(delta_ms))
                .with_horizon(Duration::from_secs(20))
                .with_max_honest_qcs(3_000)
        },
        |&(_, delta_ms)| format!("delta{delta_ms:03}ms"),
        |&(protocol, delta_ms), report| {
            let warmup = report.default_warmup();
            let avg = ms(report.average_latency(warmup));
            let worst = ms(report.eventual_worst_latency(warmup));
            Some(vec![
                protocol.name().to_string(),
                delta_ms.to_string(),
                format!("{avg:.2}"),
                format!("{worst:.1}"),
                format!("{:.2}", avg / delta_ms as f64),
            ])
        },
    );
    let markdown = format!(
        "## Responsiveness — Theorem 1.1(3): steady-state latency vs actual delay δ (f_a = 0)\n\n\
         Scenario: n = {n}, Δ = 40 ms, no faults. A smoothly optimistically responsive protocol tracks δ (constant latency/δ); LP22 shows Θ(nΔ) epoch-boundary stalls in the eventual-worst column regardless of δ.\n\n{table}"
    );
    ExperimentRun { markdown, cells }
}

/// Figure 1: the LP22 stall caused by a single silent Byzantine leader,
/// compared with Lumiere in the identical scenario.
pub fn figure1_report(scale: ExperimentScale, threads: usize) -> ExperimentRun {
    let n = 13; // f = 4, LP22 epochs of 5 views
    let delta = Duration::from_millis(10);
    let actual = Duration::from_millis(1);
    let seed = 42;
    let mut cells = Vec::new();

    // Part 1 — per-view timelines for LP22 vs Lumiere with one silent leader.
    let trace_jobs = vec![ProtocolKind::Lp22, ProtocolKind::Lumiere];
    let traced = run_grid(trace_jobs.clone(), threads, |protocol| {
        // The fourth leader slot: view 3 for LP22's one-view-per-leader
        // schedule, views 6/7 for Lumiere's two-view-per-leader one.
        let slot = View::new(if protocol == ProtocolKind::Lp22 { 3 } else { 6 });
        let byz = pacemaker_for(protocol, n, seed).schedule().leader(slot);
        let (report, trace) = SimConfig::new(protocol, n)
            .with_delta(delta)
            .with_actual_delay(actual)
            .with_faulty_ids(vec![byz.as_usize()], StrategyKind::SilentLeader)
            .with_horizon(Duration::from_secs(3))
            .with_max_honest_qcs(10)
            .with_seed(seed)
            .with_trace()
            .run_with_trace();
        (byz, report, trace)
    });

    let mut markdown = String::new();
    let _ = writeln!(
        markdown,
        "## Figure 1 — a single Byzantine leader stalls LP22 but not Lumiere\n"
    );
    let _ = writeln!(
        markdown,
        "Scenario: n = {n}, Δ = 10 ms, δ = 1 ms, GST = 0; exactly one Byzantine (silent) leader, \
         placed on the fourth leader slot of the first epoch. The tables show, per view, when the \
         view was first entered and when its QC was produced.\n"
    );
    for (protocol, (byz, report, trace)) in trace_jobs.into_iter().zip(traced) {
        let _ = writeln!(
            markdown,
            "### {} (Byzantine processor {byz})\n",
            protocol.name()
        );
        let _ = writeln!(markdown, "```");
        markdown.push_str(&trace.render_view_timeline(View::new(8)));
        let _ = writeln!(markdown, "```");
        let stall = ms(report.eventual_worst_latency(Time::ZERO));
        let gamma_ms = delta.as_millis_f64()
            * if protocol == ProtocolKind::Lp22 {
                4.0
            } else {
                10.0
            };
        let _ = writeln!(
            markdown,
            "Largest gap between consecutive honest-leader QCs: {stall:.1} ms (view duration Γ = {gamma_ms:.0} ms).\n"
        );
        cells.push(make_cell(
            "figure1",
            "trace".to_string(),
            scale,
            seed,
            report,
            Some(trace),
        ));
    }

    // Part 2 — the stall caused by ONE silent Byzantine leader as a function
    // of n. For LP22 the adversary corrupts the leader of the last view of
    // the first epoch, so the cluster must wait for local clocks to reach the
    // next epoch boundary — a Θ(nΔ) stall. For Lumiere the faulty leader only
    // wastes its own two (or, at a window boundary, four) views: an
    // O(Γ) = O(Δ) stall independent of n.
    let mut stall_jobs = Vec::new();
    for n in [7usize, 13, 22, 31] {
        let f = (n - 1) / 3;
        stall_jobs.push((n, ProtocolKind::Lp22, View::new(f as i64)));
        stall_jobs.push((n, ProtocolKind::Lumiere, View::new(6)));
    }
    // Jobs alternate lp22/lumiere per n: the lumiere job completes the row.
    let mut lp22 = f64::NAN;
    let table = Sweep {
        slug: "figure1",
        scale,
        threads,
        seed,
        header: vec![
            "n",
            "lp22 stall (ms)",
            "lp22 stall / nΔ",
            "lumiere stall (ms)",
            "lumiere stall / Γ",
        ],
        jobs: stall_jobs,
    }
    .run(
        &mut cells,
        |&(n, protocol, byz_slot)| {
            let byz = pacemaker_for(protocol, n, seed).schedule().leader(byz_slot);
            SimConfig::new(protocol, n)
                .with_delta(delta)
                .with_actual_delay(actual)
                .with_faulty_ids(vec![byz.as_usize()], StrategyKind::SilentLeader)
                .with_horizon(Duration::from_secs(8))
                .with_max_honest_qcs(8 * n)
        },
        |&(n, _, _)| format!("stall-n{n:03}"),
        |&(n, protocol, _), report| {
            let stall = ms(report.eventual_worst_latency(Time::ZERO));
            if protocol == ProtocolKind::Lp22 {
                lp22 = stall;
                return None;
            }
            let lumiere = stall;
            Some(vec![
                n.to_string(),
                format!("{lp22:.1}"),
                format!("{:.2}", lp22 / (n as f64 * delta.as_millis_f64())),
                format!("{lumiere:.1}"),
                format!("{:.2}", lumiere / (10.0 * delta.as_millis_f64())),
            ])
        },
    );
    let _ = writeln!(
        markdown,
        "### Stall caused by one silent Byzantine leader, as a function of n\n\n{table}"
    );
    ExperimentRun { markdown, cells }
}

/// Theorem 1.1(4): heavy epoch synchronizations stop after GST for Lumiere
/// but recur forever for Basic Lumiere and LP22.
pub fn heavy_sync_report(scale: ExperimentScale, threads: usize) -> ExperimentRun {
    let n = scale.eventual_n();
    let delta = Duration::from_millis(10);
    let f = (n - 1) / 3;
    let mut cells = Vec::new();
    let table = Sweep {
        slug: "heavy_syncs",
        scale,
        threads,
        seed: 11,
        header: vec![
            "protocol",
            "f_a",
            "heavy-sync epochs after warm-up",
            "heavy msgs after warm-up",
            "decisions",
        ],
        jobs: grid(
            &[
                ProtocolKind::Lumiere,
                ProtocolKind::BasicLumiere,
                ProtocolKind::Lp22,
            ],
            &[0, f],
        ),
    }
    .run(
        &mut cells,
        |&(protocol, f_a)| {
            let horizon = Duration::from_millis(6_000 + 3_000 * f_a as i64);
            SimConfig::new(protocol, n)
                .with_delta(delta)
                .with_actual_delay(Duration::from_millis(1))
                .with_faults(f_a, StrategyKind::SilentLeader)
                .with_horizon(horizon)
        },
        |&(_, f_a)| format!("fa{f_a}"),
        |&(protocol, f_a), report| {
            let warmup = report.default_warmup();
            Some(vec![
                protocol.name().to_string(),
                f_a.to_string(),
                report.heavy_sync_epochs_after(warmup).to_string(),
                report
                    .heavy_messages_between(warmup, report.end_time)
                    .to_string(),
                report.decisions().to_string(),
            ])
        },
    );
    let markdown = format!(
        "## Heavy-sync suppression — Theorem 1.1(4)\n\n\
         Scenario: n = {n}, Δ = 10 ms, δ = 1 ms, GST = 0. After the warm-up window Lumiere should need no further heavy (Θ(n²)) epoch synchronizations, while Basic Lumiere and LP22 keep paying them at every epoch boundary.\n\n{table}"
    );
    ExperimentRun { markdown, cells }
}

/// Lemmas 5.9–5.12: the `(f+1)`-st honest clock gap stays bounded by Γ in the
/// steady state.
pub fn honest_gap_report(scale: ExperimentScale, threads: usize) -> ExperimentRun {
    let n = scale.eventual_n();
    let delta = Duration::from_millis(10);
    let gamma = Duration::from_millis(10) * 10; // 2(x+2)Δ with x = 3
    let f = (n - 1) / 3;
    let mut cells = Vec::new();
    let table = Sweep {
        slug: "honest_gap",
        scale,
        threads,
        seed: 13,
        header: vec![
            "protocol",
            "f_a",
            "max (f+1)-st honest gap after warm-up (ms)",
            "Γ (ms)",
            "gap ≤ Γ + 2Δ?",
        ],
        jobs: grid(
            &[
                ProtocolKind::Lumiere,
                ProtocolKind::Fever,
                ProtocolKind::Lp22,
            ],
            &[0, f],
        ),
    }
    .run(
        &mut cells,
        |&(protocol, f_a)| {
            SimConfig::new(protocol, n)
                .with_delta(delta)
                .with_actual_delay(Duration::from_millis(1))
                .with_faults(f_a, StrategyKind::SilentLeader)
                .with_horizon(Duration::from_millis(6_000 + 3_000 * f_a as i64))
        },
        |&(_, f_a)| format!("fa{f_a}"),
        |&(protocol, f_a), report| {
            let warmup = report.default_warmup();
            let gap = report
                .max_honest_gap_after(warmup)
                .unwrap_or(Duration::ZERO);
            let bound = gamma + delta * 2;
            Some(vec![
                protocol.name().to_string(),
                f_a.to_string(),
                format!("{:.1}", gap.as_millis_f64()),
                format!("{:.0}", gamma.as_millis_f64()),
                if gap <= bound { "yes" } else { "no" }.to_string(),
            ])
        },
    );
    let markdown = format!(
        "## Honest-gap dynamics — Lemmas 5.9–5.12\n\n\
         Scenario: n = {n}, Δ = 10 ms, δ = 1 ms. For clock-bumping protocols (Lumiere, Fever) the (f+1)-st honest gap must stay below Γ (+ small slack) once synchronized; LP22 is shown for contrast (its clocks are never bumped, so the gap is naturally small but its views crawl at clock speed).\n\n{table}"
    );
    ExperimentRun { markdown, cells }
}

/// Adversary-suite sweep: every protocol against the pluggable strategies
/// (equivocation, targeted partition, crash–recovery), all at `f_a = f`.
///
/// The equivocation and targeted-partition adversaries demonstrably degrade
/// the relay/naive baselines (larger eventual worst-case latency and more
/// messages per decision), while Lumiere's honest-commit latency must stay
/// within its Θ-bound envelope (`≤ c·nΔ`, shown as the `lat/nΔ` column).
pub fn adversary_suite(scale: ExperimentScale, threads: usize) -> ExperimentRun {
    let n = scale.eventual_n();
    let f = (n - 1) / 3;
    let delta = Duration::from_millis(10);
    let ids: Vec<usize> = (n - f..n).collect();
    let scenarios: [(&str, AdversarySchedule); 3] = [
        ("equivocate", AdversarySchedule::equivocation(&ids)),
        (
            "partition",
            AdversarySchedule::targeted_partition(&ids, Duration::from_millis(1)),
        ),
        (
            "crashrec",
            AdversarySchedule::crash_recovery(
                &ids,
                Time::from_millis(500),
                Duration::from_millis(1_200),
                Duration::from_millis(400),
            ),
        ),
    ];
    let mut cells = Vec::new();
    let table = Sweep {
        slug: "adversaries",
        scale,
        threads,
        seed: 17,
        header: vec![
            "protocol",
            "adversary",
            "decisions",
            "eventual worst latency (ms)",
            "avg latency (ms)",
            "lat/nΔ",
            "msgs/decision",
            "equivocations seen",
            "safe?",
        ],
        jobs: grid(&COMPARED_PROTOCOLS, &scenarios.iter().collect::<Vec<_>>()),
    }
    .run(
        &mut cells,
        |&(protocol, (_, schedule))| {
            let horizon = Duration::from_millis(4_000 + 2_500 * f as i64);
            SimConfig::new(protocol, n)
                .with_delta(delta)
                .with_actual_delay(Duration::from_millis(1))
                .with_adversary(schedule.clone())
                .with_horizon(horizon)
        },
        |&(_, (label, _))| label.to_string(),
        |&(protocol, (label, _)), report| {
            let warmup = report.default_warmup();
            let worst = ms(report.eventual_worst_latency(warmup));
            let avg = ms(report.average_latency(warmup));
            let decisions = report.decisions().max(1);
            Some(vec![
                protocol.name().to_string(),
                label.to_string(),
                report.decisions().to_string(),
                format!("{worst:.1}"),
                format!("{avg:.2}"),
                format!("{:.2}", worst / (n as f64 * delta.as_millis_f64())),
                format!("{:.0}", report.total_messages() as f64 / decisions as f64),
                report.equivocations_observed.to_string(),
                if report.safety_ok { "yes" } else { "NO" }.to_string(),
            ])
        },
    );
    let markdown = format!(
        "## Adversary suite — pluggable strategies at f_a = f\n\n\
         Scenario: n = {n}, Δ = 10 ms, δ = 1 ms, GST = 0, f = {f} corrupted processors.\n\
         `equivocate`: corrupted leaders send conflicting proposals to disjoint vote sets.\n\
         `partition`: corrupted processors stay silent as leaders while honest→honest sync \
         messages crawl at Δ and adversary edges are fast-pathed (per-edge delay rules).\n\
         `crashrec`: corrupted processors go dark in staggered windows and rejoin mid-epoch.\n\
         Lumiere's eventual worst-case honest-commit latency must stay within its Θ(nΔ) \
         envelope (`lat/nΔ` column) while the relay/naive baselines degrade.\n\n{table}"
    );
    ExperimentRun { markdown, cells }
}

/// The largest `n` each protocol is swept to at the given scale.
///
/// Protocols with a Θ(n²) regime process quadratically many messages per
/// window, so their cells dominate the sweep's wall clock long after they
/// have demonstrated their asymptote. On the full sweep the naive
/// all-to-all pacemaker stops at 512, Basic Lumiere (which additionally
/// heavy-syncs every epoch) at 256, and LP22 (quadratic at every epoch
/// boundary in the steady part) and Cogsworth at 1024; only Lumiere — the
/// protocol whose linearity the sweep certifies — runs uncapped to
/// n = 8192. The quick sweep is the per-PR CI smoke and must stay in
/// minutes: it keeps every quadratic protocol at its historical n = 128
/// ceiling (one LP22 steady cell at n = 1024 alone costs several minutes
/// of Θ(n²) heavy syncs) while still driving the linear protocols —
/// Lumiere, and Cogsworth's worst-case relay path — through the n = 1024
/// symbolic-broadcast machinery. Exclusions are called out in the
/// rendered report rather than applied silently.
fn scale_cap(protocol: ProtocolKind, scale: ExperimentScale) -> usize {
    match (scale, protocol) {
        (ExperimentScale::Quick, ProtocolKind::Lumiere | ProtocolKind::Cogsworth) => usize::MAX,
        (ExperimentScale::Quick, _) => 128,
        (ExperimentScale::Full, ProtocolKind::Naive) => 512,
        (ExperimentScale::Full, ProtocolKind::BasicLumiere) => 256,
        (ExperimentScale::Full, ProtocolKind::Lp22 | ProtocolKind::Cogsworth) => 1024,
        (ExperimentScale::Full, _) => usize::MAX,
    }
}

/// The large-`n` scale sweep: the asymptotic separation the paper's Table 1
/// claims, pushed to `n` in the thousands.
///
/// Two regimes, both with `f_a = min(f, 8)` corrupted processors (a fixed
/// small fault count, so `O(n·f_a + n)` reads as "linear in n" while the
/// quadratic baselines keep paying `Θ(n²)`):
///
/// * **worst** — worst-case communication after GST (E1's scenario at
///   scale): `f_a` silent leaders on the first leader slots, every message
///   delayed exactly Δ. Lumiere and the relay synchronizer stay `O(n)` per
///   measurement window; the naive all-to-all pacemaker pays `Θ(n²)` per
///   view change.
/// * **steady** — fault-free steady state over a horizon covering several
///   epochs: Lumiere performs no heavy synchronization after its initial
///   one, while Basic Lumiere and LP22 pay a `Θ(n²)` heavy sync at every
///   epoch boundary (Theorem 1.1(4) at scale), which shows up directly in
///   the eventual worst-case communication between consecutive honest QCs.
///
/// Every cell asserts [`SimReport::truncated`]` == false` — a truncated run
/// would under-count messages and invalidate the separation plot. The event
/// cap already grows with `n` (`lumiere_sim::runner::event_cap`), so a
/// truncation here means the scenario itself is misconfigured.
pub fn scale_table(scale: ExperimentScale, threads: usize) -> ExperimentRun {
    let delta = Duration::from_millis(10);
    let seed = 42;
    let fault_cap = 8usize;
    let mut cells = Vec::new();
    let mut markdown = String::new();
    let _ = writeln!(
        markdown,
        "## Scale — O(n·f_a + n) vs Θ(n²) at n up to the thousands
"
    );
    // The quadratic baselines are capped (see `scale_cap`); exclusions are
    // called out in the rendered report rather than applied silently.
    let capped_grid = |protocols: &[ProtocolKind]| {
        let mut jobs = grid(protocols, &scale.scale_ns());
        jobs.retain(|&(protocol, n)| n <= scale_cap(protocol, scale));
        jobs
    };
    let assert_complete = |protocol: ProtocolKind, n: usize, report: &SimReport| {
        assert!(
            !report.truncated,
            "scale sweep truncated at {} n={n}; raise the event cap",
            protocol.name()
        );
    };
    // "growth vs previous n" within one protocol's run of rows.
    let growth_since = |prev: Option<(ProtocolKind, usize)>, protocol, msgs: usize| match prev {
        Some((p, m)) if p == protocol && m > 0 => format!("x{:.2}", msgs as f64 / m as f64),
        _ => "-".to_string(),
    };

    // Part 1 — worst-case communication after GST: past their cap the
    // quadratic baselines each pay Θ(n²) wall clock to re-demonstrate an
    // asymptote already visible, while Lumiere alone continues to n = 8192.
    let gst = Time::from_millis(200);
    let mut prev = None;
    let table = Sweep {
        slug: "scale",
        scale,
        threads,
        seed,
        header: vec![
            "protocol",
            "n",
            "f_a",
            "worst-case msgs [GST+Δ, t*)",
            "msgs / n",
            "msgs / n^2",
            "growth vs previous n",
        ],
        jobs: capped_grid(&[
            ProtocolKind::Lumiere,
            ProtocolKind::Cogsworth,
            ProtocolKind::Lp22,
            ProtocolKind::Naive,
        ]),
    }
    .run(
        &mut cells,
        |&(protocol, n)| {
            let f = (n - 1) / 3;
            let byz: Vec<usize> = worst_case_byzantine_ids(protocol, n, seed)
                .into_iter()
                .take(f.min(fault_cap))
                .collect();
            let horizon = Duration::from_millis(200) + delta * (40 * fault_cap as i64 + 400);
            SimConfig::new(protocol, n)
                .with_delta(delta)
                .with_adversarial_delay()
                .with_gst(gst)
                .with_faulty_ids(byz, StrategyKind::SilentLeader)
                .with_horizon(horizon)
                .with_max_honest_qcs(3)
        },
        |&(_, n)| format!("worst-n{n:03}"),
        |&(protocol, n), report| {
            assert_complete(protocol, n, report);
            let msgs = report.worst_case_communication();
            let growth = growth_since(prev, protocol, msgs);
            prev = Some((protocol, msgs));
            Some(vec![
                protocol.name().to_string(),
                n.to_string(),
                report.f_a.to_string(),
                msgs.to_string(),
                format!("{:.1}", msgs as f64 / n as f64),
                format!("{:.2}", msgs as f64 / (n * n) as f64),
                growth,
            ])
        },
    );
    let _ = writeln!(
        markdown,
        "### Worst-case communication after GST (f_a = min(f, {fault_cap}) silent leaders on the first slots, all delays = Δ)\n\n\
         A linear protocol doubles its window communication when n doubles (growth ≈ x2); a \
         quadratic one quadruples it (growth ≈ x4). `msgs / n` flat ⇒ O(n·f_a + n); `msgs / n^2` \
         flat ⇒ Θ(n²). The quadratic baselines stop at their caps (naive 512, LP22/Cogsworth \
         1024) — beyond those sizes their Θ(n²) cells dominate the sweep's wall clock without \
         adding information; only Lumiere is swept to n = 8192.\n\n{table}"
    );

    // Part 2 — fault-free steady state across epoch boundaries. The same
    // per-protocol caps apply: Basic Lumiere (256) heavy-syncs every epoch,
    // and at n = 512 those Θ(n²) syncs (each message costing Θ(n)
    // certificate work) dominate the whole sweep's wall clock while
    // demonstrating the same behaviour LP22 already shows at its own cap
    // (1024).
    let warmup = Time::ZERO + delta * 8;
    let mut prev = None;
    let table = Sweep {
        slug: "scale",
        scale,
        threads,
        seed,
        header: vec![
            "protocol",
            "n",
            "eventual worst msgs/decision",
            "ewc / n",
            "ewc / n^2",
            "heavy-sync epochs after warm-up",
            "growth vs previous n",
        ],
        jobs: capped_grid(&[
            ProtocolKind::Lumiere,
            ProtocolKind::BasicLumiere,
            ProtocolKind::Lp22,
        ]),
    }
    .run(
        &mut cells,
        |&(protocol, n)| {
            // Warm-up: a fixed 8Δ — fault-free, Lumiere's one heavy
            // synchronization is long finished by then. The honest-QC cap
            // stops each run once the measurement windows exist. For the
            // protocols that heavy-sync at epoch boundaries it is max(n, 64):
            // an epoch is ~n/3 views for LP22 and ~n/2 for Basic Lumiere, so n
            // honest QCs cover at least two epoch boundaries. Lumiere needs no
            // epoch crossing — its claim is *zero* heavy syncs after warm-up,
            // independent of run length — so it stops after 64 honest QCs:
            // responsive views (one QC every ~3δ) give dozens of post-warm-up
            // windows at every n, and per-view work grows with n (certificate
            // handling is Θ(n) per recipient), so an n-proportional target
            // would make the n = 8192 cell pay Θ(n³) wall clock for no extra
            // information. The horizon (≈ 2.5 LP22 epochs of ~1.1nΔ each) is
            // the backstop.
            let qc_target = if protocol == ProtocolKind::Lumiere {
                64
            } else {
                n.max(64)
            };
            let horizon = delta * (5 * n as i64 / 2) + Duration::from_millis(500);
            SimConfig::new(protocol, n)
                .with_delta(delta)
                .with_actual_delay(Duration::from_millis(1))
                .with_horizon(horizon)
                .with_max_honest_qcs(qc_target)
        },
        |&(_, n)| format!("steady-n{n:03}"),
        |&(protocol, n), report| {
            assert_complete(protocol, n, report);
            let ewc = report.eventual_worst_communication(warmup);
            let growth = growth_since(prev, protocol, ewc);
            prev = Some((protocol, ewc));
            Some(vec![
                protocol.name().to_string(),
                n.to_string(),
                ewc.to_string(),
                format!("{:.1}", ewc as f64 / n as f64),
                format!("{:.3}", ewc as f64 / (n * n) as f64),
                report.heavy_sync_epochs_after(warmup).to_string(),
                growth,
            ])
        },
    );
    let _ = writeln!(
        markdown,
        "### Fault-free steady state across epoch boundaries (δ = 1 ms, warm-up 8Δ, stop after max(n, 64) honest QCs — 64 for Lumiere)\n\n\
         Lumiere stops heavy-synchronizing after GST, so its eventual worst-case communication \
         between consecutive honest QCs stays O(n); Basic Lumiere and LP22 pay a Θ(n²) heavy \
         sync at every epoch boundary, which dominates their `ewc` column. Basic Lumiere is \
         swept to n = 256 and LP22 to n = 1024: beyond those caps their every-epoch Θ(n²) \
         syncs dominate the sweep's wall clock while showing the asymptote already visible at \
         the cap; only Lumiere continues to n = 8192.\n\n{table}"
    );
    ExperimentRun { markdown, cells }
}

/// Throughput–latency saturation under open-loop client load.
///
/// Every protocol is swept across a geometric grid of offered rates at a
/// small fault-free cluster (n = 4, Δ = 10 ms, δ = 1 ms, constant arrival
/// profile, small batches so the block pipeline saturates inside the grid).
/// Below saturation goodput tracks the offered rate and the submit→commit
/// percentiles stay flat near the commit latency; past the knee goodput
/// plateaus at the pipeline capacity (batch size × view rate), queueing
/// delay inflates the percentiles, and once the mempool overflows the
/// excess is shed.
pub fn load_table(scale: ExperimentScale, threads: usize) -> ExperimentRun {
    let n = 4;
    let delta = Duration::from_millis(10);
    let actual = Duration::from_millis(1);
    let horizon = Duration::from_secs(4);
    let mut cells = Vec::new();
    let table = Sweep {
        slug: "load",
        scale,
        threads,
        seed: 29,
        header: vec![
            "protocol",
            "offered (tx/s)",
            "submitted",
            "committed",
            "shed",
            "goodput (tx/s)",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
        ],
        jobs: grid(&COMPARED_PROTOCOLS, &scale.load_rates()),
    }
    .run(
        &mut cells,
        |&(protocol, rate)| {
            SimConfig::new(protocol, n)
                .with_delta(delta)
                .with_actual_delay(actual)
                .with_horizon(horizon)
                .with_max_honest_qcs(100_000)
                .with_workload(WorkloadConfig::constant(rate).with_batch_txs(32))
        },
        |&(_, rate)| format!("rate{rate:06}"),
        |&(protocol, rate), report| {
            Some(vec![
                protocol.name().to_string(),
                rate.to_string(),
                report.txs_submitted.to_string(),
                report.txs_committed.to_string(),
                report.txs_shed.to_string(),
                format!("{:.0}", report.goodput_tps()),
                format!("{:.1}", report.tx_latency_p50.as_millis_f64()),
                format!("{:.1}", report.tx_latency_p95.as_millis_f64()),
                format!("{:.1}", report.tx_latency_p99.as_millis_f64()),
            ])
        },
    );
    let markdown = format!(
        "## Load — throughput–latency saturation under open-loop client traffic\n\n\
         Scenario: n = {n}, Δ = 10 ms, δ = 1 ms, GST = 0, no faults, horizon 4 s; \
         constant-profile open-loop clients at the offered rate, batches of 32 txs. \
         Goodput tracks the offered rate until the block pipeline saturates; past \
         the knee the submit→commit percentiles inflate with queueing delay and, \
         once the mempool overflows, the excess load is shed.\n\n{table}"
    );
    ExperimentRun { markdown, cells }
}

/// Certificate cost: authenticator bytes and verification work with
/// constant-size aggregates vs naive per-signer signature vectors, swept
/// across `n`.
///
/// Both representations are measured analytically from the *same* run (the
/// simulator ships aggregated certificates; the naive columns are what the
/// identical traffic would have cost as signature vectors), so the two
/// curves are exactly comparable. An aggregated certificate costs
/// `O(κ + n/8)` bytes — 32-byte digest + 48-byte proof + one signer-bitmap
/// bit per processor — and one verification; a naive vector costs
/// `Θ(quorum)` 48-byte signatures and one verification per signer. A second
/// part runs the equivocation adversary to exercise the slashing-evidence
/// pipeline: every conflicting proposal pair witnessed by an honest engine
/// must surface as a canonical [`lumiere_types::SlashEvidence`] record in
/// the report.
pub fn certificates_table(scale: ExperimentScale, threads: usize) -> ExperimentRun {
    let delta = Duration::from_millis(10);
    let actual = Duration::from_millis(1);
    let seed = 23;
    let mut cells = Vec::new();
    let table = Sweep {
        slug: "certificates",
        scale,
        threads,
        seed,
        header: vec![
            "n",
            "auth B/msg (agg)",
            "auth B/msg (naive)",
            "auth B/view (agg)",
            "auth B/view (naive)",
            "verify/commit (agg)",
            "verify/commit (naive)",
            "naive/agg bytes",
        ],
        jobs: scale.certificate_ns(),
    }
    .run(
        &mut cells,
        |&n| {
            SimConfig::new(ProtocolKind::Lumiere, n)
                .with_delta(delta)
                .with_actual_delay(actual)
                .with_horizon(Duration::from_secs(3))
                .with_max_honest_qcs(64)
        },
        |&n| format!("n{n:03}"),
        |&n, report| {
            let blowup = if report.auth_bytes > 0 {
                report.auth_bytes_naive as f64 / report.auth_bytes as f64
            } else {
                f64::NAN
            };
            Some(vec![
                n.to_string(),
                format!("{:.1}", report.auth_bytes_per_message()),
                format!("{:.1}", report.naive_auth_bytes_per_message()),
                format!("{:.0}", report.auth_bytes_per_view()),
                format!("{:.0}", report.naive_auth_bytes_per_view()),
                format!("{:.1}", report.verify_ops_per_commit()),
                format!("{:.1}", report.naive_verify_ops_per_commit()),
                format!("x{blowup:.1}"),
            ])
        },
    );
    let mut markdown = format!(
        "## Certificates — constant-size aggregates vs naive signature vectors\n\n\
         Scenario: Lumiere, Δ = 10 ms, δ = 1 ms, GST = 0, no faults, stop after 64 honest QCs. \
         Both representations are accounted from the same run: per-message authenticator bytes \
         stay O(κ + n/8) with aggregation (flat, plus one bitmap bit per processor) while the \
         naive vector columns grow Θ(quorum) = Θ(n); verifications per commit drop from one \
         per signer to one per certificate.\n\n{table}\n"
    );

    // Part 2 — slashing evidence under the equivocation adversary: one cell,
    // no table, two counters quoted in prose.
    let n = 13;
    let f = (n - 1) / 3;
    let ids: Vec<usize> = (n - f..n).collect();
    Sweep {
        slug: "certificates",
        scale,
        threads,
        seed,
        header: Vec::new(),
        jobs: vec![()],
    }
    .run(
        &mut cells,
        |()| {
            SimConfig::new(ProtocolKind::Lumiere, n)
                .with_delta(delta)
                .with_actual_delay(actual)
                .with_adversary(AdversarySchedule::equivocation(&ids))
                .with_horizon(Duration::from_secs(4))
        },
        |()| "slash".to_string(),
        |(), _| None,
    );
    let slash = &cells.last().expect("the slash cell").report;
    let _ = writeln!(
        markdown,
        "### Slashing evidence under the equivocation adversary\n\n\
         Scenario: n = {n}, f_a = {f} equivocating leaders. Honest engines witnessed \
         {} equivocations and produced {} canonical slashing-evidence records \
         (deduplicated across processors; each names the view, the proposer and the \
         conflicting block-hash pair).",
        slash.equivocations_observed, slash.slash_evidence_total,
    );
    ExperimentRun { markdown, cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_case_byzantine_ids_pick_distinct_early_leaders() {
        let ids = worst_case_byzantine_ids(ProtocolKind::Lp22, 13, 42);
        assert_eq!(ids.len(), 4);
        let set: BTreeSet<_> = ids.iter().collect();
        assert_eq!(set.len(), 4);
        // Round robin: the first four leaders are p0..p3.
        assert_eq!(ids, vec![0, 1, 2, 3]);
        // Lumiere: whatever the permutation, the ids are valid and distinct.
        let ids = worst_case_byzantine_ids(ProtocolKind::Lumiere, 13, 42);
        assert_eq!(ids.len(), 4);
        assert!(ids.iter().all(|&i| i < 13));
    }

    #[test]
    fn scale_is_read_from_the_environment() {
        // Read-only check against the ambient environment (mutating env vars
        // from concurrently running tests is undefined behaviour on glibc):
        // Full exactly when LUMIERE_FULL=1, Quick otherwise.
        let expect_full = std::env::var("LUMIERE_FULL").is_ok_and(|v| v == "1");
        let expected = if expect_full {
            ExperimentScale::Full
        } else {
            ExperimentScale::Quick
        };
        assert_eq!(ExperimentScale::from_env(), expected);
        assert_eq!(ExperimentScale::Quick.name(), "quick");
        assert_eq!(ExperimentScale::Full.name(), "full");
    }

    #[test]
    fn experiment_registry_is_complete() {
        assert_eq!(ALL_EXPERIMENTS.len(), 10);
        let slugs: BTreeSet<_> = ALL_EXPERIMENTS.iter().map(|d| d.slug).collect();
        assert_eq!(slugs.len(), 10, "experiment slugs must be unique");
        assert_eq!(experiment("figure1").title, "figure1 (LP22 stall)");
        assert_eq!(experiment("heavy_syncs").slug, "heavy_syncs");
        assert_eq!(experiment("adversaries").slug, "adversaries");
        assert_eq!(
            experiment("scale").title,
            "scale (O(n·f_a + n) vs Θ(n²) separation at large n)"
        );
        assert_eq!(
            experiment("load").title,
            "load (throughput–latency saturation under open-loop client traffic)"
        );
        assert_eq!(
            experiment("certificates").title,
            "certificates (constant-size aggregates vs naive signature vectors)"
        );
    }

    #[test]
    #[should_panic(expected = "unknown experiment slug")]
    fn unknown_slugs_are_rejected() {
        let _ = experiment("does_not_exist");
    }
}
