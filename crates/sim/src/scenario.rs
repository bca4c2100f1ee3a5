//! Scenario configuration: which protocol, how many processors, which faults,
//! which network adversary.

use crate::metrics::SimReport;
use crate::runner::Simulation;
use crate::trace::Trace;
use crate::workload::WorkloadConfig;
use lumiere_consensus::HotStuffEngine;
use lumiere_core::planted::PlantedBug;
use lumiere_crypto::keygen;
use lumiere_runtime::adversary::{AdversarySchedule, StrategyKind};
use lumiere_runtime::delay::DelayModel;
use lumiere_runtime::ProtocolRuntime;
use lumiere_types::{Duration, Params, Time};
use serde::{Deserialize, Serialize};

/// The view-synchronization protocol under test (re-exported from
/// `lumiere-runtime`, where it moved when the protocol was lifted out of the
/// simulator — the live `lumiere-node` binary selects protocols by the same
/// enum).
pub use lumiere_runtime::ProtocolKind;

/// Configuration of one simulated execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Number of processors.
    pub n: usize,
    /// The known delay bound Δ.
    pub delta_cap: Duration,
    /// The network adversary.
    pub delay: DelayModel,
    /// Global stabilization time.
    pub gst: Time,
    /// Simulated time horizon.
    pub horizon: Duration,
    /// Stop early once this many honest-leader QCs have been produced.
    pub max_honest_qcs: Option<usize>,
    /// Seed for key generation, leader permutation and network jitter.
    pub seed: u64,
    /// The adversary plan: strategy assignments plus per-edge delay
    /// targeting. `None` means every processor is honest.
    pub adversary: Option<AdversarySchedule>,
    /// A deliberately planted protocol bug, used to calibrate the fuzzer
    /// (see [`lumiere_core::planted`]). `None` — the default — is stock
    /// behaviour; setting it in a build without the `planted-bugs` feature
    /// (or a test profile) is rejected by [`SimConfig::build_nodes`] so no
    /// run can silently measure stock code while claiming to be planted.
    pub planted_bug: Option<PlantedBug>,
    /// The open-loop client workload driving the run, plus the mempool
    /// bounds absorbing it (schema v5). `None` — the default — proposes
    /// empty blocks, exactly the pre-v5 behaviour.
    pub workload: Option<WorkloadConfig>,
}

impl SimConfig {
    /// A conservative default configuration: Δ = 10 ms, actual delay 1 ms,
    /// GST = 0, no faults, 10 simulated seconds.
    pub fn new(protocol: ProtocolKind, n: usize) -> Self {
        SimConfig {
            protocol,
            n,
            delta_cap: Duration::from_millis(10),
            delay: DelayModel::Fixed {
                delta: Duration::from_millis(1),
            },
            gst: Time::ZERO,
            horizon: Duration::from_secs(10),
            max_honest_qcs: None,
            seed: 42,
            adversary: None,
            planted_bug: None,
            workload: None,
        }
    }

    /// Drives the run with an open-loop client workload (and the mempool
    /// bounds it carries).
    pub fn with_workload(mut self, workload: WorkloadConfig) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Plants a calibration bug into the protocol under test (see
    /// [`lumiere_core::planted`]).
    pub fn with_planted_bug(mut self, bug: PlantedBug) -> Self {
        self.planted_bug = Some(bug);
        self
    }

    /// The processor count from which metrics are sampled: message-send
    /// instants are quantized down to a `Δ/4` grid (counts stay exact) and
    /// the O(n·views) per-view trace entries are dropped, so
    /// [`SimReport`] stays bounded at large `n`. Below it every send
    /// instant is exact; every Table 1 sweep runs at `n ≤ 43`.
    pub const SAMPLED_FROM_N: usize = 64;

    /// Whether this configuration records sampled (grid-quantized) metrics.
    pub fn sampled_metrics(&self) -> bool {
        self.n >= Self::SAMPLED_FROM_N
    }

    /// The metrics sampling grid in effect: exact ([`Duration::ZERO`])
    /// below the threshold; above it, a quarter of the network's finest
    /// delay scale (itself at most Δ, so the grid is at most Δ/4) — far
    /// below the width of any measurement window the delay model can
    /// produce.
    pub fn metrics_grid(&self) -> Duration {
        if !self.sampled_metrics() {
            return Duration::ZERO;
        }
        self.delay.finest_delay(self.delta_cap) / 4
    }

    /// Sets the delay bound Δ.
    pub fn with_delta(mut self, delta_cap: Duration) -> Self {
        self.delta_cap = delta_cap;
        self
    }

    /// Uses a fixed actual network delay δ (must be ≤ Δ to be meaningful).
    pub fn with_actual_delay(mut self, delta: Duration) -> Self {
        self.delay = DelayModel::Fixed { delta };
        self
    }

    /// Uses the worst-case network adversary (every message takes exactly Δ).
    pub fn with_adversarial_delay(mut self) -> Self {
        self.delay = DelayModel::AdversarialMax;
        self
    }

    /// Uses uniformly random delays in `[min, max]`.
    pub fn with_uniform_delay(mut self, min: Duration, max: Duration) -> Self {
        self.delay = DelayModel::Uniform { min, max };
        self
    }

    /// Sets the global stabilization time.
    pub fn with_gst(mut self, gst: Time) -> Self {
        self.gst = gst;
        self
    }

    /// Sets the simulated horizon.
    pub fn with_horizon(mut self, horizon: Duration) -> Self {
        self.horizon = horizon;
        self
    }

    /// Corrupts the **last** `f_a` processors with the given strategy (the
    /// convention every experiment in the repo uses unless it targets
    /// specific leaders). Shorthand for
    /// [`with_adversary`](Self::with_adversary) +
    /// [`AdversarySchedule::uniform`].
    pub fn with_faults(self, f_a: usize, strategy: StrategyKind) -> Self {
        let ids: Vec<usize> = (self.n.saturating_sub(f_a)..self.n).collect();
        self.with_adversary(AdversarySchedule::uniform(&ids, strategy))
    }

    /// Corrupts exactly the given processors with the given strategy.
    /// Shorthand for [`with_adversary`](Self::with_adversary) +
    /// [`AdversarySchedule::uniform`].
    pub fn with_faulty_ids(self, mut ids: Vec<usize>, strategy: StrategyKind) -> Self {
        ids.sort_unstable();
        self.with_adversary(AdversarySchedule::uniform(&ids, strategy))
    }

    /// Installs an adversary plan (strategy assignments plus per-edge delay
    /// targeting), replacing any previous one.
    pub fn with_adversary(mut self, schedule: AdversarySchedule) -> Self {
        self.adversary = Some(schedule);
        self
    }

    /// The number of corrupted processors: the adversary plan's distinct
    /// corrupted ids (0 when every processor is honest).
    pub fn f_a(&self) -> usize {
        self.adversary
            .as_ref()
            .map_or(0, |schedule| schedule.corrupted_ids().len())
    }

    /// The adversary plan in effect (the empty, all-honest schedule when
    /// none is configured).
    pub fn effective_adversary(&self) -> AdversarySchedule {
        self.adversary.clone().unwrap_or_default()
    }

    /// Stops the run after this many honest-leader QCs.
    pub fn with_max_honest_qcs(mut self, limit: usize) -> Self {
        self.max_honest_qcs = Some(limit);
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The derived protocol parameters.
    pub fn params(&self) -> Params {
        Params::new(self.n, self.delta_cap)
    }

    /// Builds all processors for this configuration: one runtime each, a
    /// corrupted one carrying its schedule's strategy.
    pub fn build_nodes(&self) -> Vec<ProtocolRuntime> {
        let params = self.params();
        let schedule = self.effective_adversary();
        if let Err(message) = schedule.validate(self.n, params.f) {
            panic!("invalid adversary schedule: {message}");
        }
        assert!(
            self.planted_bug.is_none() || lumiere_core::planted::enabled(),
            "planted-bug run requested but this build compiled no planted \
             code paths (enable the `planted-bugs` feature)"
        );
        let (keys, pki) = keygen(self.n, self.seed);
        let pacemakers = self
            .protocol
            .pacemaker_factory(params, &pki, self.seed, self.planted_bug);
        keys.into_iter()
            .map(|k| {
                let id = k.id();
                let pacemaker = pacemakers.build(k.clone());
                let engine = HotStuffEngine::new(id, k, pki.clone(), params);
                ProtocolRuntime::new(id, pacemaker, engine)
                    .with_strategy(schedule.strategy_for(id.as_usize()))
            })
            .collect()
    }

    /// Runs the configured simulation.
    pub fn run(self) -> SimReport {
        Simulation::new(self).run()
    }

    /// Runs the configured simulation with explicit execution options.
    /// Execution options change speed only, never results: same-seed
    /// reports are byte-identical for either broadcast representation.
    pub fn run_with(self, exec: crate::runner::ExecOptions) -> SimReport {
        Simulation::with_exec(self, exec).run()
    }

    /// Runs the configured simulation, recording and returning its
    /// execution trace too (the one way to turn tracing on).
    pub fn run_with_trace(self) -> (SimReport, Trace) {
        Simulation::new(self).run_with_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumiere_core::LeaderSchedule;
    use lumiere_runtime::build_runtime;
    use lumiere_types::View;
    use std::sync::Arc;

    fn quick(protocol: ProtocolKind) -> SimConfig {
        SimConfig::new(protocol, 4)
            .with_delta(Duration::from_millis(10))
            .with_actual_delay(Duration::from_millis(1))
            .with_horizon(Duration::from_secs(3))
            .with_max_honest_qcs(30)
    }

    #[test]
    fn every_protocol_makes_progress_in_the_benign_case() {
        for protocol in ProtocolKind::all() {
            let report = quick(protocol).run();
            assert!(
                report.decisions() > 0,
                "{} produced no decisions",
                protocol.name()
            );
            assert!(
                !report.honest_qc_times().is_empty(),
                "{} produced no honest QCs",
                protocol.name()
            );
        }
    }

    #[test]
    fn every_protocol_survives_silent_leaders() {
        for protocol in ProtocolKind::all() {
            let report = quick(protocol)
                .with_faults(1, StrategyKind::SilentLeader)
                .with_horizon(Duration::from_secs(8))
                .run();
            assert!(
                report.decisions() > 0,
                "{} stalled under a silent leader",
                protocol.name()
            );
        }
    }

    #[test]
    fn every_protocol_survives_crash_faults() {
        for protocol in ProtocolKind::all() {
            let report = quick(protocol)
                .with_faults(1, StrategyKind::Crash)
                .with_horizon(Duration::from_secs(8))
                .run();
            assert!(
                report.decisions() > 0,
                "{} stalled under a crash fault",
                protocol.name()
            );
        }
    }

    #[test]
    fn progress_is_made_even_when_gst_is_late() {
        for protocol in [ProtocolKind::Lumiere, ProtocolKind::Lp22] {
            let report = SimConfig::new(protocol, 4)
                .with_delta(Duration::from_millis(10))
                .with_actual_delay(Duration::from_millis(1))
                .with_gst(Time::from_millis(200))
                .with_horizon(Duration::from_secs(6))
                .with_max_honest_qcs(20)
                .run();
            assert!(
                report.first_honest_qc_after(report.gst).is_some(),
                "{} never recovered after GST",
                protocol.name()
            );
        }
    }

    #[test]
    fn a_cluster_shares_one_leader_order_and_live_nodes_agree_with_it() {
        let (n, seed) = (10, 5);
        let cfg = SimConfig::new(ProtocolKind::Lumiere, n).with_seed(seed);
        let nodes = cfg.build_nodes();
        let order_of = |node: &ProtocolRuntime| match node.schedule() {
            LeaderSchedule::PairedReverse { order } => Arc::clone(order),
            other => panic!("Lumiere runs the paired-reverse schedule, not {other:?}"),
        };
        let shared = order_of(&nodes[0]);
        assert!(nodes
            .iter()
            .all(|node| Arc::ptr_eq(&order_of(node), &shared)));
        // The n replicas and `shared`: the builder kept no copy of its own.
        assert_eq!(Arc::strong_count(&shared), n + 1);
        for (who, node) in nodes.iter().enumerate() {
            let live = build_runtime(ProtocolKind::Lumiere, n, who, cfg.delta_cap, seed);
            for v in (0..4 * n as i64).map(View::new) {
                assert_eq!(
                    live.schedule().leader(v),
                    node.schedule().leader(v),
                    "node {who}, view {v:?}"
                );
            }
        }
    }

    #[test]
    fn fault_builders_corrupt_the_expected_processors() {
        let cfg = SimConfig::new(ProtocolKind::Lumiere, 7).with_faults(2, StrategyKind::Crash);
        let schedule = cfg.effective_adversary();
        assert_eq!(
            schedule.corrupted_ids().into_iter().collect::<Vec<_>>(),
            vec![5, 6],
            "with_faults corrupts the last f_a processors"
        );
        assert_eq!(cfg.f_a(), 2);
        let cfg = cfg.with_faulty_ids(vec![3, 0], StrategyKind::Crash);
        let schedule = cfg.effective_adversary();
        assert_eq!(
            schedule.corrupted_ids().into_iter().collect::<Vec<_>>(),
            vec![0, 3]
        );
        assert_eq!(cfg.f_a(), 2);
        assert_eq!(schedule.strategy_for(3), Some(StrategyKind::Crash));
        assert!(schedule.delay_rules.is_empty());
    }

    #[test]
    fn effective_adversary_defaults_to_all_honest() {
        let cfg = SimConfig::new(ProtocolKind::Lumiere, 7);
        let schedule = cfg.effective_adversary();
        assert!(schedule.corruptions.is_empty());
        assert!(schedule.delay_rules.is_empty());
        // The explicit schedule wins over any earlier fault builder.
        let cfg = cfg
            .with_faults(2, StrategyKind::Crash)
            .with_adversary(AdversarySchedule::equivocation(&[1]));
        assert_eq!(cfg.f_a(), 1);
        assert_eq!(
            cfg.effective_adversary().strategy_for(1),
            Some(StrategyKind::Equivocate)
        );
    }

    #[test]
    #[should_panic(expected = "2 corrupted processors exceed the tolerated f = 1")]
    fn too_many_faults_are_rejected() {
        let _ = SimConfig::new(ProtocolKind::Lumiere, 4)
            .with_faults(2, StrategyKind::Crash)
            .build_nodes();
    }

    #[test]
    fn a_negative_delay_rule_commits_nothing_before_time_zero() {
        use lumiere_runtime::adversary::{DelayRule, EdgeClass, MsgClass};
        use lumiere_types::TimeRange;
        let report = quick(ProtocolKind::Lumiere)
            .with_adversary(AdversarySchedule::new().rule(DelayRule {
                edge: EdgeClass::Any,
                msg: MsgClass::Any,
                window: TimeRange::always(),
                delay: DelayModel::Fixed {
                    delta: Duration::from_millis(-5),
                },
            }))
            .run();
        assert!(report.decisions() > 0);
        assert!(
            report.commit_times.iter().all(|&(t, _)| t >= Time::ZERO),
            "first commit at {:?}",
            report.commit_times.first()
        );
    }

    #[test]
    fn equivocating_leaders_cannot_break_safety_and_are_detected() {
        let report = SimConfig::new(ProtocolKind::Lumiere, 7)
            .with_delta(Duration::from_millis(10))
            .with_actual_delay(Duration::from_millis(1))
            .with_adversary(AdversarySchedule::equivocation(&[5, 6]))
            .with_horizon(Duration::from_secs(8))
            .with_max_honest_qcs(25)
            .run();
        assert!(report.safety_ok, "equivocation must never split the chain");
        assert!(!report.truncated);
        assert!(report.decisions() > 0, "honest views must still commit");
        assert!(
            report.equivocations_observed > 0,
            "honest engines must witness the conflicting proposals"
        );
        assert_eq!(report.f_a, 2);
    }

    #[test]
    fn targeted_partition_slows_sync_but_not_safety() {
        let schedule = AdversarySchedule::targeted_partition(&[5, 6], Duration::from_millis(1));
        let report = SimConfig::new(ProtocolKind::Lumiere, 7)
            .with_delta(Duration::from_millis(10))
            .with_actual_delay(Duration::from_millis(1))
            .with_adversary(schedule)
            .with_horizon(Duration::from_secs(8))
            .with_max_honest_qcs(25)
            .run();
        assert!(report.safety_ok);
        assert!(!report.truncated);
        assert!(
            report.decisions() > 0,
            "Δ-bounded partitions cannot kill liveness after GST"
        );
    }

    #[test]
    fn crash_recovery_nodes_rejoin_mid_run() {
        let schedule = AdversarySchedule::crash_recovery(
            &[5, 6],
            Time::from_millis(100),
            Duration::from_millis(400),
            Duration::from_millis(150),
        );
        let report = SimConfig::new(ProtocolKind::Lumiere, 7)
            .with_delta(Duration::from_millis(10))
            .with_actual_delay(Duration::from_millis(1))
            .with_adversary(schedule)
            .with_horizon(Duration::from_secs(8))
            .with_max_honest_qcs(40)
            .run();
        assert!(report.safety_ok);
        assert!(!report.truncated);
        assert!(report.decisions() > 0);
    }

    #[test]
    #[should_panic(expected = "invalid adversary schedule")]
    fn invalid_adversary_schedules_are_rejected() {
        // Corrupting the same node twice stays within f_a ≤ f (the id set
        // deduplicates) but must fail schedule validation.
        let schedule = AdversarySchedule::equivocation(&[1]).corrupt(1, StrategyKind::Crash);
        let _ = SimConfig::new(ProtocolKind::Lumiere, 4)
            .with_adversary(schedule)
            .build_nodes();
    }

    #[test]
    fn client_load_commits_transactions_end_to_end() {
        use crate::workload::WorkloadConfig;
        let cfg = SimConfig::new(ProtocolKind::Lumiere, 4)
            .with_delta(Duration::from_millis(10))
            .with_actual_delay(Duration::from_millis(1))
            .with_horizon(Duration::from_secs(4))
            .with_workload(WorkloadConfig::constant(200).with_batch_txs(16));
        let report = cfg.clone().run();
        assert!(report.safety_ok && !report.truncated);
        assert!(
            report.txs_submitted > 0,
            "the generator must inject traffic"
        );
        assert!(
            report.txs_committed > 0,
            "committed batches must carry transactions"
        );
        assert!(
            report.txs_committed <= report.txs_submitted,
            "goodput cannot exceed offered load"
        );
        assert!(
            report.tx_latency_p50 > Duration::ZERO,
            "commit latency must be positive"
        );
        assert!(report.tx_latency_p50 <= report.tx_latency_p95);
        assert!(report.tx_latency_p95 <= report.tx_latency_p99);
        assert!(report.goodput_tps() > 0.0);
        assert_eq!(report.workload, cfg.workload);
        // Same seed ⇒ identical report, including the new load metrics.
        assert_eq!(cfg.clone().run(), report);
    }

    #[test]
    fn a_workload_free_run_reports_empty_load_metrics() {
        let report = quick(ProtocolKind::Lumiere).run();
        assert_eq!(report.workload, None);
        assert_eq!(report.txs_submitted, 0);
        assert_eq!(report.txs_committed, 0);
        assert_eq!(report.txs_shed, 0);
        assert_eq!(report.tx_latency_p50, Duration::ZERO);
        assert_eq!(report.goodput_tps(), 0.0);
    }

    #[test]
    fn an_undersized_mempool_sheds_excess_load() {
        use crate::workload::WorkloadConfig;
        let report = SimConfig::new(ProtocolKind::Lumiere, 4)
            .with_delta(Duration::from_millis(10))
            .with_actual_delay(Duration::from_millis(1))
            .with_horizon(Duration::from_secs(2))
            .with_workload(
                WorkloadConfig::constant(2_000)
                    .with_capacity(50)
                    .with_batch_txs(4),
            )
            .run();
        assert!(report.txs_shed > 0, "a 50-deep mempool at 2k tps must shed");
        assert!(report.txs_committed > 0, "shedding must not stop commits");
    }

    #[test]
    fn table1_contains_the_papers_protocols() {
        let names: Vec<_> = ProtocolKind::table1().iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["cogsworth", "lp22", "fever", "lumiere"]);
    }
}
