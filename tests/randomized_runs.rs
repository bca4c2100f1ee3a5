//! Property-based integration tests: random cluster sizes, delays, fault
//! counts and seeds must never break safety or liveness, and the view
//! synchronization guarantees must hold for every sampled execution.

use lumiere::prelude::*;
use proptest::prelude::*;

fn protocol_from_index(i: usize) -> ProtocolKind {
    let all = ProtocolKind::all();
    all[i % all.len()]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// Any small cluster with any tolerated number of silent leaders, any
    /// actual delay ≤ Δ and any seed stays safe and live.
    #[test]
    fn random_benign_and_faulty_runs_are_safe_and_live(
        n in 4usize..10,
        proto_idx in 0usize..6,
        delay_ms in 1i64..10,
        fault_fraction in 0u32..3,
        seed in 0u64..1000,
    ) {
        let protocol = protocol_from_index(proto_idx);
        let f = (n - 1) / 3;
        let f_a = (f * fault_fraction as usize) / 2; // 0, f/2 or f
        let report = SimConfig::new(protocol, n)
            .with_delta(Duration::from_millis(10))
            .with_actual_delay(Duration::from_millis(delay_ms))
            .with_faults(f_a.min(f), StrategyKind::SilentLeader)
            .with_horizon(Duration::from_secs(8))
            .with_max_honest_qcs(25)
            .with_seed(seed)
            .run();
        prop_assert!(report.safety_ok, "{}: safety violated", report.protocol);
        prop_assert!(!report.truncated, "{}: truncated run", report.protocol);
        prop_assert!(report.decisions() > 0, "{}: no decisions", report.protocol);
    }

    /// Random network jitter (uniform delays) never breaks Lumiere, and the
    /// honest clock gap stays bounded once synchronized.
    #[test]
    fn lumiere_tolerates_random_jitter(
        n in 4usize..10,
        max_ms in 2i64..10,
        seed in 0u64..1000,
    ) {
        let report = SimConfig::new(ProtocolKind::Lumiere, n)
            .with_delta(Duration::from_millis(10))
            .with_uniform_delay(Duration::from_millis(1), Duration::from_millis(max_ms))
            .with_horizon(Duration::from_secs(6))
            .with_max_honest_qcs(40)
            .with_seed(seed)
            .run();
        prop_assert!(report.safety_ok);
        prop_assert!(report.decisions() > 0);
        let warmup = report.default_warmup();
        if let Some(gap) = report.max_honest_gap_after(warmup) {
            // Γ + 2Δ slack, as in Lemma 5.15.
            prop_assert!(
                gap <= Duration::from_millis(10) * 12,
                "honest gap {gap} exceeded Γ + 2Δ"
            );
        }
    }
}
