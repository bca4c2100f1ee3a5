//! The broadcast representation changes speed, never results: the
//! equivalence suite.
//!
//! Symbolic broadcasts (one lazily-expanded group per honesty class,
//! delivered a run of recipients at a time) must give **byte-identical**
//! same-seed [`SimReport`]s to the eager reference (one queue entry per
//! recipient). These properties pin that bar across random protocols,
//! adversary schedules, delay models (including the per-recipient-jitter
//! `Uniform` model, whose RNG stream the symbolic path must consume in
//! exactly the eager order) and GST placements. Equality covers the full
//! report, so it includes the coverage fingerprint's strategy activation
//! windows — the "gated-event counts" of the adversary subsystem — as well
//! as every metric series.

use lumiere_sim::runner::{BroadcastMode, ExecOptions};
use lumiere_sim::scenario::{ProtocolKind, SimConfig};
use lumiere_sim::{AdversarySchedule, StrategyKind};
use lumiere_types::{Duration, Time};
use proptest::prelude::*;

/// Builds one randomized scenario from the raw sampled knobs.
fn scenario(
    n: usize,
    protocol_pick: usize,
    adversary_pick: usize,
    fa_raw: usize,
    delay_pick: usize,
    gst_ms: i64,
    seed: u64,
) -> SimConfig {
    let protocols = [
        ProtocolKind::Lumiere,
        ProtocolKind::Lp22,
        ProtocolKind::Fever,
        ProtocolKind::Cogsworth,
    ];
    let mut cfg = SimConfig::new(protocols[protocol_pick % protocols.len()], n)
        .with_delta(Duration::from_millis(10))
        .with_gst(Time::from_millis(gst_ms))
        .with_horizon(Duration::from_secs(2))
        .with_max_honest_qcs(10)
        .with_seed(seed);
    cfg = match delay_pick % 3 {
        0 => cfg.with_actual_delay(Duration::from_millis(1)),
        1 => cfg.with_adversarial_delay(),
        _ => cfg.with_uniform_delay(Duration::from_millis(1), Duration::from_millis(5)),
    };
    let f = cfg.params().f;
    let f_a = fa_raw.min(f);
    if f_a > 0 {
        let ids: Vec<usize> = (n - f_a..n).collect();
        cfg = match adversary_pick % 4 {
            0 => cfg.with_faulty_ids(ids, StrategyKind::Crash),
            1 => cfg.with_faulty_ids(ids, StrategyKind::SilentLeader),
            2 => cfg.with_adversary(AdversarySchedule::equivocation(&ids)),
            // Per-edge delay rules targeting the honest/corrupt edge
            // classes — the case symbolic broadcasts must split into two
            // delivery groups.
            _ => cfg.with_adversary(AdversarySchedule::targeted_partition(
                &ids,
                Duration::from_millis(1),
            )),
        };
    }
    cfg
}

/// Runs `cfg` with eager and with symbolic broadcasts and asserts the
/// reports are identical — `PartialEq` plus the formatted debug rendering,
/// so a drift in any field shows up byte for byte.
fn assert_exec_invariant(cfg: SimConfig) {
    let run = |broadcast| {
        cfg.clone()
            .run_with(ExecOptions::default().with_broadcast(broadcast))
    };
    let reference = run(BroadcastMode::Eager);
    let report = run(BroadcastMode::Symbolic);
    assert_eq!(
        format!("{reference:?}"),
        format!("{report:?}"),
        "the symbolic report diverged from the eager reference"
    );
    assert_eq!(reference, report);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random scenario ⇒ identical reports under eager and symbolic
    /// broadcasts.
    #[test]
    fn reports_are_invariant_under_exec_options(
        n in 4usize..16,
        protocol_pick in 0usize..4,
        adversary_pick in 0usize..4,
        fa_raw in 0usize..4,
        delay_pick in 0usize..3,
        gst_ms in 0i64..80,
        seed in 0u64..1_000_000,
    ) {
        assert_exec_invariant(scenario(
            n, protocol_pick, adversary_pick, fa_raw, delay_pick, gst_ms, seed,
        ));
    }
}

/// A directed case with large batches (boot, and broadcasts to 95
/// recipients), with faults and jittered delays in play.
#[test]
fn large_mixed_run_is_exec_invariant() {
    let cfg = SimConfig::new(ProtocolKind::Lumiere, 96)
        .with_delta(Duration::from_millis(10))
        .with_uniform_delay(Duration::from_millis(1), Duration::from_millis(4))
        .with_gst(Time::from_millis(50))
        .with_horizon(Duration::from_secs(2))
        .with_faults(8, StrategyKind::SilentLeader)
        .with_max_honest_qcs(12)
        .with_seed(7);
    assert_exec_invariant(cfg);
}

/// The workload path: client arrivals, read from the run's arrival stream,
/// interleave with broadcast copies.
#[test]
fn workload_runs_are_exec_invariant() {
    use lumiere_sim::workload::WorkloadConfig;
    let cfg = SimConfig::new(ProtocolKind::Lumiere, 16)
        .with_delta(Duration::from_millis(10))
        .with_actual_delay(Duration::from_millis(1))
        .with_horizon(Duration::from_secs(2))
        .with_workload(WorkloadConfig::constant(300).with_batch_txs(8))
        .with_seed(11);
    assert_exec_invariant(cfg);
}
