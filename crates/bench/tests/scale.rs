//! Tier-1 guards for the large-`n` scale work:
//!
//! * the asymptotic separation itself — Lumiere's worst-case window
//!   communication grows ~linearly in `n` while the naive baseline's grows
//!   ~quadratically, and the steady-state epoch-boundary cost separates
//!   Lumiere from LP22 the same way (scaled-down mirror of the `scale`
//!   experiment, sized for debug-mode test runs; CI runs the real
//!   `lumiere-bench scale` in release, whose cells assert
//!   `truncated == false` internally);
//! * no silent truncation at this scale, and an event cap that grows with n;
//! * determinism at n = 256 — the same seed yields byte-identical reports,
//!   whether the surrounding grid runs on 2 or 8 worker threads.

use lumiere_bench::experiments::worst_case_byzantine_ids;
use lumiere_bench::run_grid;
use lumiere_sim::runner::{event_cap, BroadcastMode, ExecOptions};
use lumiere_sim::scenario::{ProtocolKind, SimConfig};
use lumiere_sim::StrategyKind;
use lumiere_types::{Duration, Time};

const DELTA: Duration = Duration::from_millis(10);
const SEED: u64 = 42;

/// The scale experiment's worst-case scenario (E1 at scale): `min(f, 8)`
/// silent leaders on the first leader slots, all delays exactly Δ.
fn worst_case_msgs(protocol: ProtocolKind, n: usize) -> usize {
    let f = (n - 1) / 3;
    let byz: Vec<usize> = worst_case_byzantine_ids(protocol, n, SEED)
        .into_iter()
        .take(f.min(8))
        .collect();
    let report = SimConfig::new(protocol, n)
        .with_delta(DELTA)
        .with_adversarial_delay()
        .with_gst(Time::from_millis(200))
        .with_faulty_ids(byz, StrategyKind::SilentLeader)
        .with_horizon(Duration::from_secs(8))
        .with_max_honest_qcs(3)
        .with_seed(SEED)
        .run();
    assert!(!report.truncated, "{} n={n} truncated", protocol.name());
    assert!(report.safety_ok);
    report.worst_case_communication()
}

/// The scale experiment's steady-state scenario: fault-free, δ = 1 ms,
/// stopping after max(n, 64) honest QCs — enough to cross epoch boundaries
/// past the fixed 8Δ warm-up. Returns the eventual worst-case communication
/// between consecutive honest QCs, plus the number of heavy-sync epochs
/// after warm-up.
fn steady_state(protocol: ProtocolKind, n: usize) -> (usize, usize) {
    let report = SimConfig::new(protocol, n)
        .with_delta(DELTA)
        .with_actual_delay(Duration::from_millis(1))
        .with_horizon(DELTA * (5 * n as i64 / 2) + Duration::from_millis(500))
        .with_max_honest_qcs(n.max(64))
        .with_seed(SEED)
        .run();
    assert!(!report.truncated, "{} n={n} truncated", protocol.name());
    let warmup = Time::ZERO + DELTA * 8;
    (
        report.eventual_worst_communication(warmup),
        report.heavy_sync_epochs_after(warmup),
    )
}

#[test]
fn worst_case_communication_separates_linear_from_quadratic() {
    // Doubling n should roughly double Lumiere's worst-case window
    // communication (O(n·f_a + n) with fixed f_a) and roughly quadruple
    // the naive all-to-all baseline's (Θ(n²)). Generous margins: the test
    // pins asymptotics, not constants.
    let lumiere = worst_case_msgs(ProtocolKind::Lumiere, 64) as f64
        / worst_case_msgs(ProtocolKind::Lumiere, 32) as f64;
    let naive = worst_case_msgs(ProtocolKind::Naive, 64) as f64
        / worst_case_msgs(ProtocolKind::Naive, 32) as f64;
    assert!(
        lumiere < 3.0,
        "lumiere worst-case growth {lumiere:.2} is not ~linear"
    );
    assert!(
        naive > 3.0,
        "naive worst-case growth {naive:.2} is not ~quadratic"
    );
}

#[test]
fn steady_state_epoch_cost_separates_lumiere_from_lp22() {
    // LP22 pays a Θ(n²) heavy synchronization at every epoch boundary even
    // without faults; Lumiere stops heavy-syncing after its initial one, so
    // its eventual worst-case communication stays O(n).
    let (lum_32, lum_heavy_32) = steady_state(ProtocolKind::Lumiere, 32);
    let (lum_64, lum_heavy_64) = steady_state(ProtocolKind::Lumiere, 64);
    let (lp_32, lp_heavy_32) = steady_state(ProtocolKind::Lp22, 32);
    let (lp_64, lp_heavy_64) = steady_state(ProtocolKind::Lp22, 64);
    let lum_growth = lum_64 as f64 / lum_32 as f64;
    let lp_growth = lp_64 as f64 / lp_32 as f64;
    assert!(
        lum_growth < 3.0,
        "lumiere steady growth {lum_growth:.2} is not ~linear"
    );
    assert!(
        lp_growth > 3.0,
        "lp22 steady growth {lp_growth:.2} is not ~quadratic"
    );
    assert_eq!(lum_heavy_32, 0, "lumiere must not heavy-sync after GST");
    assert_eq!(lum_heavy_64, 0, "lumiere must not heavy-sync after GST");
    assert!(lp_heavy_32 >= 1 && lp_heavy_64 >= 1);
}

/// Same seed ⇒ byte-identical reports at n = 256, independent of worker
/// thread count. Exercises the sampled-metrics path (n ≥ 64) and the
/// calendar queue's overflow tier on a bounded but large simulation.
#[test]
fn n256_runs_are_deterministic_across_thread_counts() {
    let run_one = |_job: usize| -> String {
        let report = SimConfig::new(ProtocolKind::Lumiere, 256)
            .with_delta(DELTA)
            .with_actual_delay(Duration::from_millis(1))
            .with_horizon(Duration::from_millis(1_200))
            .with_max_honest_qcs(24)
            .with_seed(7)
            .run();
        assert!(!report.truncated);
        assert!(report.decisions() > 0, "n=256 run must make progress");
        assert!(
            report.metrics_grid > Duration::ZERO,
            "n = 256 is above the sampling threshold"
        );
        format!("{report:#?}")
    };
    let two = run_grid(vec![0usize, 1], 2, run_one);
    let four = run_grid((0..4).collect(), 8, run_one);
    assert_eq!(two[0], two[1], "same seed, same thread: reports diverged");
    assert!(
        four.iter().all(|r| *r == two[0]),
        "thread count changed an n=256 report"
    );
}

/// Same seed ⇒ byte-identical reports at n = 1024 across the scale PR's
/// execution options: broadcast representation (eager vs symbolic) and
/// shard count (1 vs 8 scoped workers), with the surrounding grid itself
/// running on multiple worker threads. This is the large-`n` companion to
/// `n256_runs_are_deterministic_across_thread_counts` — at n = 1024 the
/// boot and broadcast batches comfortably exceed the minimum parallel
/// batch size, so the sharded path really runs. Bounded tightly (short
/// horizon, small QC cap) so it stays debug-mode friendly.
#[test]
fn n1024_runs_are_deterministic_across_shards_and_broadcast_modes() {
    let run_one = |exec: ExecOptions| -> String {
        let report = SimConfig::new(ProtocolKind::Lumiere, 1024)
            .with_delta(DELTA)
            .with_actual_delay(Duration::from_millis(1))
            .with_horizon(Duration::from_millis(400))
            .with_max_honest_qcs(6)
            .with_seed(7)
            .run_with(exec);
        assert!(!report.truncated);
        assert!(report.decisions() > 0, "n=1024 run must make progress");
        format!("{report:#?}")
    };
    let combos = vec![
        ExecOptions::default()
            .with_shards(1)
            .with_broadcast(BroadcastMode::Eager),
        ExecOptions::default()
            .with_shards(1)
            .with_broadcast(BroadcastMode::Symbolic),
        ExecOptions::default()
            .with_shards(8)
            .with_broadcast(BroadcastMode::Symbolic),
        ExecOptions::default()
            .with_shards(8)
            .with_broadcast(BroadcastMode::Eager),
    ];
    let reports = run_grid(combos, 4, run_one);
    for (i, report) in reports.iter().enumerate() {
        assert_eq!(
            *report, reports[0],
            "execution-option combo #{i} changed an n=1024 report"
        );
    }
}

#[test]
fn event_cap_scales_with_n() {
    assert_eq!(event_cap(4), 200_000_000);
    assert_eq!(event_cap(64), 200_000_000);
    assert!(event_cap(512) >= 512 * 3_000_000);
    assert!(event_cap(512) > event_cap(128));
}
