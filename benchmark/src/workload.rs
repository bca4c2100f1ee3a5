//! The five workloads: what a unit is, how many make a run, and which
//! deterministic counts every unit must reproduce.
//!
//! A *unit* is one complete bounded simulation (or one complete mesh run,
//! see [`crate::mesh`]) built from the run's `--seed`. Every unit of a run is
//! identical, so its counts must be too — the correctness oracle compares
//! each unit against the run's first.

use lumiere_bench::experiments::worst_case_byzantine_ids;
use lumiere_sim::metrics::SimReport;
use lumiere_sim::runner::Simulation;
use lumiere_sim::{ByzBehavior, ExecOptions, ProtocolKind, SimConfig, WorkloadConfig};
use lumiere_types::{Duration, Time};

/// The known delay bound Δ shared by every workload.
pub const DELTA: Duration = Duration::from_millis(10);

/// The run length `BENCHMARK.json` declares (`run_seconds`); unit counts
/// scale linearly with `--seconds` around it.
pub const NOMINAL_SECONDS: u64 = 12;

/// No run is shorter than this many units: the estimator needs a few
/// hundred chances to catch the machine quiet (see `README.md`).
pub const MIN_UNITS: usize = 300;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// n = 128 optimistic steady state, fixed δ = 1 ms, no faults.
    SimSteady,
    /// n = 64, f silent leaders on the first leader slots, every delivery Δ.
    SimViewchange,
    /// n = 16 under 0.9 × knee client load, jittered delays, drained mempool.
    SimLoad,
    /// n = 4 at 3.5 × knee: a standing mempool backlog.
    SimBacklog,
    /// 16 `ProtocolRuntime`s stepped by hand, every copy through the codec.
    WireMesh,
}

impl Workload {
    /// Every workload, in the order `all` runs them.
    pub const ALL: [Workload; 5] = [
        Workload::SimSteady,
        Workload::SimViewchange,
        Workload::SimLoad,
        Workload::SimBacklog,
        Workload::WireMesh,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimSteady => "sim_steady",
            Workload::SimViewchange => "sim_viewchange",
            Workload::SimLoad => "sim_load",
            Workload::SimBacklog => "sim_backlog",
            Workload::WireMesh => "wire_mesh",
        }
    }

    /// Parses [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Units per second of declared run time, sized from the unit times
    /// measured on the seed state (22 / 22 / 18 / 40 / 16 ms) so every
    /// workload measures for about `--seconds`. Constants, not a
    /// calibration: the count is the same on every commit.
    fn units_per_second(self) -> usize {
        match self {
            Workload::SimSteady => 45,
            Workload::SimViewchange => 45,
            Workload::SimLoad => 55,
            Workload::SimBacklog => 25,
            Workload::WireMesh => 65,
        }
    }

    /// The fixed unit count of a run declared to last `seconds`.
    pub fn units_for(self, seconds: u64) -> usize {
        (self.units_per_second() * seconds as usize).max(MIN_UNITS)
    }

    /// The simulator configuration of one unit (`None` for the mesh).
    pub fn sim_config(self, seed: u64) -> Option<SimConfig> {
        let base = |n: usize| {
            SimConfig::new(ProtocolKind::Lumiere, n)
                .with_delta(DELTA)
                .with_seed(seed)
        };
        let millis = Duration::from_millis;
        Some(match self {
            // 20 QCs, not more: the unit stays near 22 ms. Interference here
            // comes in bursts of tens of milliseconds, and with units
            // interleaved under the same noise the run-to-run spread of
            // `fast5` was 2.9 % at 48 QCs (49 ms), 1.5 % at 24 and 1.1 % at
            // 12 (README, "Method").
            Workload::SimSteady => base(128)
                .with_actual_delay(millis(1))
                .with_max_honest_qcs(20),
            Workload::SimViewchange => {
                let n = 64;
                let byz = worst_case_byzantine_ids(ProtocolKind::Lumiere, n, seed);
                base(n)
                    .with_adversarial_delay()
                    .with_gst(Time::from_millis(200))
                    .with_faulty_ids(byz, ByzBehavior::SilentLeader)
                    .with_max_honest_qcs(60)
            }
            // The jitter is what matters here, not its width: any `Uniform`
            // model makes the queue expand broadcasts per recipient at push
            // time and draw from the RNG per copy. The width is ±10 µs
            // because the driver compares runs made with *different* seeds:
            // at ±500 µs the seed decides how many start-up views fail
            // (55–92 decisions per unit) and `tx_latency_p50` spreads 4.5 %
            // across seeds; at ±10 µs it spreads 0.6 % and the per-commit
            // counts do not move at all (README, "Seeds").
            Workload::SimLoad => base(16)
                .with_uniform_delay(Duration::from_micros(990), Duration::from_micros(1_010))
                .with_horizon(millis(250))
                .with_workload(WorkloadConfig::constant(12_000).with_batch_txs(64)),
            Workload::SimBacklog => base(4)
                .with_actual_delay(millis(1))
                .with_horizon(millis(250))
                .with_workload(WorkloadConfig::constant(48_000).with_batch_txs(64)),
            Workload::WireMesh => return None,
        })
    }
}

/// Every simulation is pinned to one thread: no workload starts a second.
pub fn exec_options() -> ExecOptions {
    ExecOptions::default().with_shards(1)
}

/// Builds one simulator unit (the timed construction step).
pub fn build_sim(cfg: &SimConfig) -> Simulation {
    Simulation::with_exec(cfg.clone(), exec_options())
}

/// The deterministic outcome of one unit: everything here must be identical
/// for every unit of a run, and for every run with the same seed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counts {
    /// The unit's work count: simulator events, or delivered frames.
    pub work: u64,
    /// Consensus decisions (heights committed).
    pub commits: u64,
    /// Honest protocol messages sent (mesh: protocol frames delivered).
    pub msgs: u64,
    /// Authenticator bytes carried by those messages.
    pub auth_bytes: u64,
    /// The workload's median virtual latency, in µs.
    pub vlat_p50_us: i64,
    /// The workload's tail virtual latency, in µs.
    pub vlat_tail_us: i64,
    /// Samples behind the two latencies.
    pub vlat_samples: u64,
    /// Certificate/signature checks recipients perform (one per cert).
    pub verify_ops: u64,
    /// The same checks counted per contributing signer.
    pub verify_ops_naive: u64,
    /// Client transactions injected.
    pub txs_submitted: u64,
    /// Client transactions committed.
    pub txs_committed: u64,
    /// Commits of a transaction a node had already committed (mesh only).
    pub tx_recommits: u64,
    /// Wire bytes put on the codec (mesh only).
    pub frame_bytes: u64,
    /// Σ modelled `wire_size()` of the same frames (mesh only).
    pub wire_size_bytes: u64,
}

/// The correctness oracle for a simulator unit, and its counts.
pub fn check_sim(workload: Workload, report: &SimReport) -> Result<Counts, String> {
    if !report.safety_ok {
        return Err("committed chains are not prefix-ordered (safety_ok = false)".into());
    }
    if report.truncated {
        return Err("run hit the simulator's event cap (truncated)".into());
    }
    if report.decisions() == 0 {
        return Err("no decisions".into());
    }
    if report.txs_committed > report.txs_submitted {
        return Err(format!(
            "{} transactions committed but only {} submitted",
            report.txs_committed, report.txs_submitted
        ));
    }
    let (p50, tail, samples) = match workload {
        Workload::SimLoad | Workload::SimBacklog => {
            if report.txs_committed == 0 {
                return Err("a loaded run committed no transactions".into());
            }
            (
                report.tx_latency_p50.as_micros(),
                report.tx_latency_p99.as_micros(),
                report.txs_committed,
            )
        }
        _ => {
            // The paper's latency measure: gaps between consecutive
            // honest-leader QCs once the network has stabilized.
            let settled = report.gst + report.delta_cap;
            let times: Vec<Time> = report
                .honest_qc_times()
                .into_iter()
                .filter(|t| *t >= settled)
                .collect();
            let mut gaps: Vec<i64> = times
                .windows(2)
                .map(|w| (w[1] - w[0]).as_micros())
                .collect();
            if gaps.is_empty() {
                return Err("fewer than two honest-leader QCs after GST + Δ".into());
            }
            gaps.sort_unstable();
            (
                gaps[(gaps.len() - 1) / 2],
                gaps[gaps.len() - 1],
                gaps.len() as u64,
            )
        }
    };
    Ok(Counts {
        work: report.events_processed,
        commits: report.decisions() as u64,
        msgs: report.total_messages() as u64,
        auth_bytes: report.auth_bytes,
        vlat_p50_us: p50,
        vlat_tail_us: tail,
        vlat_samples: samples,
        verify_ops: report.verify_ops,
        verify_ops_naive: report.verify_ops_naive,
        txs_submitted: report.txs_submitted,
        txs_committed: report.txs_committed,
        ..Counts::default()
    })
}
