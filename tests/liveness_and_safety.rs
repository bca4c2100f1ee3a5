//! Cross-crate integration tests: every pacemaker in the workspace drives the
//! underlying SMR substrate to decisions (liveness) without ever splitting
//! the committed chain (safety), across benign, faulty and late-GST
//! executions.

use lumiere::prelude::*;

fn base(protocol: ProtocolKind, n: usize) -> SimConfig {
    SimConfig::new(protocol, n)
        .with_delta(Duration::from_millis(10))
        .with_actual_delay(Duration::from_millis(1))
        .with_horizon(Duration::from_secs(4))
        .with_max_honest_qcs(60)
}

#[test]
fn all_protocols_are_live_and_safe_without_faults() {
    for protocol in ProtocolKind::all() {
        let report = base(protocol, 7).run();
        assert!(report.safety_ok, "{}: safety violated", report.protocol);
        assert!(
            !report.truncated,
            "{}: run hit the event cap",
            report.protocol
        );
        assert!(
            report.decisions() >= 5,
            "{}: only {} decisions",
            report.protocol,
            report.decisions()
        );
    }
}

#[test]
fn all_protocols_tolerate_f_silent_leaders() {
    for protocol in ProtocolKind::all() {
        let n = 7;
        let f = (n - 1) / 3;
        let report = base(protocol, n)
            .with_faults(f, StrategyKind::SilentLeader)
            .with_horizon(Duration::from_secs(12))
            .run();
        assert!(report.safety_ok, "{}: safety violated", report.protocol);
        assert!(
            report.decisions() > 0,
            "{}: no decisions with {f} silent leaders",
            report.protocol
        );
    }
}

#[test]
fn all_protocols_tolerate_f_crashes() {
    for protocol in ProtocolKind::all() {
        let n = 7;
        let f = (n - 1) / 3;
        let report = base(protocol, n)
            .with_faults(f, StrategyKind::Crash)
            .with_horizon(Duration::from_secs(12))
            .run();
        assert!(report.safety_ok, "{}: safety violated", report.protocol);
        assert!(
            report.decisions() > 0,
            "{}: no decisions with {f} crashed processors",
            report.protocol
        );
    }
}

#[test]
fn lumiere_recovers_after_a_late_gst_under_adversarial_delays() {
    let report = SimConfig::new(ProtocolKind::Lumiere, 7)
        .with_delta(Duration::from_millis(10))
        .with_adversarial_delay()
        .with_gst(Time::from_millis(300))
        .with_faults(2, StrategyKind::SilentLeader)
        .with_horizon(Duration::from_secs(20))
        .with_max_honest_qcs(5)
        .run();
    assert!(report.safety_ok);
    assert!(!report.truncated);
    let latency = report
        .worst_case_latency()
        .expect("an honest leader must produce a QC after GST");
    // Theorem 1.1(2): worst-case latency is O(nΔ). Allow a generous constant.
    let bound = Duration::from_millis(10) * (20 * 7);
    assert!(
        latency <= bound,
        "post-GST latency {latency} exceeds the O(nΔ) envelope {bound}"
    );
}

#[test]
fn larger_clusters_remain_live() {
    for protocol in [
        ProtocolKind::Lumiere,
        ProtocolKind::Fever,
        ProtocolKind::Lp22,
    ] {
        let report = base(protocol, 19)
            .with_faults(3, StrategyKind::SilentLeader)
            .with_horizon(Duration::from_secs(10))
            .run();
        assert!(report.safety_ok, "{}: safety violated", report.protocol);
        assert!(!report.truncated, "{}: truncated", report.protocol);
        assert!(
            report.decisions() > 0,
            "{}: no decisions at n = 19",
            report.protocol
        );
    }
}

#[test]
fn sync_silent_byzantine_nodes_cannot_block_synchronization() {
    // Byzantine processors that vote but never help synchronization leave
    // only 2f+1 contributors for every certificate — exactly the threshold.
    let n = 7;
    let f = (n - 1) / 3;
    for protocol in [
        ProtocolKind::Lumiere,
        ProtocolKind::BasicLumiere,
        ProtocolKind::Fever,
    ] {
        let report = base(protocol, n)
            .with_faults(f, StrategyKind::SyncSilent)
            .with_horizon(Duration::from_secs(12))
            .run();
        assert!(report.safety_ok, "{}: safety violated", report.protocol);
        assert!(
            report.decisions() > 0,
            "{}: no decisions with sync-silent faults",
            report.protocol
        );
    }
}

#[test]
fn runs_are_never_silently_truncated() {
    // `Simulation::run_loop` used to break silently past its event cap;
    // `SimReport::truncated` now surfaces it, and every tier-1 scenario must
    // finish well below the cap.
    for protocol in ProtocolKind::all() {
        for f_a in [0usize, 2] {
            let report = base(protocol, 7)
                .with_faults(f_a, StrategyKind::SilentLeader)
                .run();
            assert!(
                !report.truncated,
                "{} (f_a = {f_a}): run hit the event cap",
                report.protocol
            );
        }
    }
}

#[test]
fn reports_are_deterministic_for_a_fixed_seed() {
    let a = base(ProtocolKind::Lumiere, 7).with_seed(9).run();
    let b = base(ProtocolKind::Lumiere, 7).with_seed(9).run();
    assert_eq!(a.total_messages(), b.total_messages());
    assert_eq!(a.decisions(), b.decisions());
    assert_eq!(a.honest_qc_times(), b.honest_qc_times());
    let c = base(ProtocolKind::Lumiere, 7).with_seed(10).run();
    // A different seed shuffles the leader permutation and jitter; the run is
    // still live and safe (contents may or may not differ).
    assert!(c.safety_ok && c.decisions() > 0);
}
