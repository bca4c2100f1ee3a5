//! Determinism regression tests: the simulator must be a pure function of
//! its configuration. Two runs with the same seed have to produce
//! byte-identical reports — this guards the `StdRng` seeding in
//! `lumiere-sim`'s runner and the stability of the vendored generator.

use lumiere::prelude::*;
use lumiere::sim::WorkloadConfig;

/// Renders every field of a report (via the exhaustive `Debug` impl) so two
/// reports compare byte-for-byte.
fn fingerprint(report: &SimReport) -> String {
    format!("{report:#?}")
}

fn run_once(protocol: ProtocolKind, seed: u64) -> SimReport {
    let f = 2; // n = 7 tolerates f = 2
    SimConfig::new(protocol, 7)
        .with_delta(Duration::from_millis(10))
        .with_uniform_delay(Duration::from_millis(1), Duration::from_millis(6))
        .with_faults(f, StrategyKind::SilentLeader)
        .with_horizon(Duration::from_secs(3))
        .with_seed(seed)
        .run()
}

#[test]
fn same_seed_gives_byte_identical_reports() {
    for protocol in ProtocolKind::all() {
        for seed in [0u64, 1, 0xdead_beef] {
            let a = run_once(protocol, seed);
            let b = run_once(protocol, seed);
            assert_eq!(
                fingerprint(&a),
                fingerprint(&b),
                "{protocol:?} with seed {seed} was not reproducible"
            );
        }
    }
}

#[test]
fn different_seeds_change_jittered_executions() {
    // With uniform random delays, distinct seeds must actually steer the
    // execution — otherwise the seed is being ignored somewhere.
    let reports: Vec<String> = (0..4)
        .map(|seed| fingerprint(&run_once(ProtocolKind::Lumiere, seed)))
        .collect();
    assert!(
        reports.windows(2).any(|w| w[0] != w[1]),
        "four different seeds produced identical jittered executions"
    );
}

#[test]
fn trace_runs_are_reproducible_too() {
    let mk = || {
        SimConfig::new(ProtocolKind::Lumiere, 7)
            .with_delta(Duration::from_millis(10))
            .with_uniform_delay(Duration::from_millis(1), Duration::from_millis(6))
            .with_horizon(Duration::from_secs(2))
            .with_seed(7)
            .run_with_trace()
    };
    let (ra, ta) = mk();
    let (rb, tb) = mk();
    assert!(!ta.events().is_empty(), "run_with_trace recorded nothing");
    assert_eq!(fingerprint(&ra), fingerprint(&rb));
    assert_eq!(format!("{ta:#?}"), format!("{tb:#?}"));
}

/// FNV-1a over the report's JSON: any byte that moves, moves the digest.
fn json_digest(report: &SimReport) -> u64 {
    serde::json::to_string(report)
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The benchmark's `sim_backlog` unit: four nodes offered 3.5× what they can
/// commit, so every mempool holds a standing backlog that every commit
/// prunes — once with the default capacity (nothing shed) and once with a
/// capacity the backlog reaches, where the shed count depends on the pool
/// knowing exactly how many transactions it holds. They pin "same batches,
/// same latencies, same shed" byte for byte, for any later change to the
/// mempool or the load path.
///
/// Re-pinned once, when a leader's batch began to skip what the uncommitted
/// chain it extends already carries. Blocks stopped carrying most
/// transactions twice: at capacity 100 000 committed went 3 968 → 6 336; at
/// capacity 2 000 it went 4 528 → 6 336 and shed 25 744 → 18 848.
///
/// Re-pinned again when the report's `workload` echo lost `tx_bytes`,
/// `profile` and `max_block_bytes`: with those three keys deleted from the
/// earlier reports, both are the same bytes as before.
#[test]
fn overloaded_runs_match_their_golden_reports() {
    let golden = [
        (100_000, (12_000, 6_336, 0), 0x0724_b36e_5feb_83a3_u64),
        (2_000, (12_000, 6_336, 18_848), 0xf477_75bf_d040_6c4a),
    ];
    for (capacity, txs, digest) in golden {
        let workload = WorkloadConfig::constant(48_000)
            .with_batch_txs(64)
            .with_capacity(capacity);
        let report = SimConfig::new(ProtocolKind::Lumiere, 4)
            .with_delta(Duration::from_millis(10))
            .with_actual_delay(Duration::from_millis(1))
            .with_horizon(Duration::from_millis(250))
            .with_workload(workload)
            .with_seed(15)
            .run();
        assert!(report.safety_ok);
        assert_eq!(
            (report.txs_submitted, report.txs_committed, report.txs_shed),
            txs,
            "capacity {capacity}: (submitted, committed, shed) moved"
        );
        assert_eq!(
            json_digest(&report),
            digest,
            "capacity {capacity}: the report changed; if that is intended, say why in \
             CHANGES.md and re-pin"
        );
    }
}
