//! Empirical checks of the four properties of Theorem 1.1 and of the
//! Figure 1 comparison, at small scale (the full sweeps are
//! `lumiere-bench`'s experiments).

use lumiere::core::schedule::LeaderSchedule;
use lumiere::prelude::*;

const DELTA: Duration = Duration::from_millis(10);

/// Property (2): worst-case latency after GST is O(nΔ) under the worst-case
/// adversary (f silent leaders on the first slots, adversarial delays).
#[test]
fn worst_case_latency_scales_linearly_in_n() {
    let mut latencies = Vec::new();
    for n in [7usize, 13, 19] {
        let f = (n - 1) / 3;
        // Corrupt the first f leaders of the Lumiere schedule.
        let schedule = LeaderSchedule::lumiere(n, 42);
        let mut byz = Vec::new();
        let mut v = 0;
        while byz.len() < f {
            let id = schedule.leader(View::new(v)).as_usize();
            if !byz.contains(&id) {
                byz.push(id);
            }
            v += 1;
        }
        let report = SimConfig::new(ProtocolKind::Lumiere, n)
            .with_delta(DELTA)
            .with_adversarial_delay()
            .with_gst(Time::from_millis(200))
            .with_faulty_ids(byz, StrategyKind::SilentLeader)
            .with_horizon(Duration::from_secs(40))
            .with_max_honest_qcs(3)
            .with_seed(42)
            .run();
        let latency = report.worst_case_latency().expect("liveness after GST");
        // O(nΔ) with a generous constant (Γ = 10Δ and up to ~2f wasted views).
        assert!(
            latency <= DELTA * (30 * n as i64),
            "n = {n}: latency {latency} is not O(nΔ)"
        );
        latencies.push((n, latency));
    }
    // The latency should grow with n (it is Θ(nΔ) in this adversarial
    // scenario), not stay flat or explode quadratically.
    let (n0, l0) = latencies[0];
    let (n2, l2) = latencies[latencies.len() - 1];
    let growth = l2.as_micros() as f64 / l0.as_micros() as f64;
    let n_growth = n2 as f64 / n0 as f64;
    assert!(
        growth <= n_growth * n_growth,
        "latency grew faster than quadratically in n: {latencies:?}"
    );
}

/// Property (3): with zero faults the steady-state latency tracks the actual
/// delay δ, not the bound Δ.
#[test]
fn smooth_optimistic_responsiveness_with_no_faults() {
    let delta_cap = Duration::from_millis(40);
    let small_delay = Duration::from_millis(1);
    let report = SimConfig::new(ProtocolKind::Lumiere, 7)
        .with_delta(delta_cap)
        .with_actual_delay(small_delay)
        .with_horizon(Duration::from_secs(5))
        .run();
    let warmup = report.default_warmup();
    let avg = report
        .average_latency(warmup)
        .expect("steady state reached");
    // One view needs ~3δ; "network speed" means a small multiple of δ and far
    // below Δ.
    assert!(
        avg <= small_delay * 8,
        "average steady-state latency {avg} does not track δ = {small_delay}"
    );
    assert!(
        avg < delta_cap,
        "average steady-state latency {avg} is not below Δ = {delta_cap}"
    );
}

/// Property (3), smooth version: each additional silent leader adds at most
/// O(Δ) to the worst steady-state gap (it never degenerates to Ω(nΔ)).
#[test]
fn latency_degrades_smoothly_with_faults() {
    let n = 13;
    let gamma = DELTA * 10; // Lumiere's Γ = 2(x+2)Δ with x = 3
    for f_a in [1usize, 2, 4] {
        let report = SimConfig::new(ProtocolKind::Lumiere, n)
            .with_delta(DELTA)
            .with_actual_delay(Duration::from_millis(1))
            .with_faults(f_a, StrategyKind::SilentLeader)
            .with_horizon(Duration::from_secs(10 + 4 * f_a as i64))
            .run();
        let warmup = report.default_warmup();
        let worst = report
            .eventual_worst_latency(warmup)
            .expect("steady state reached");
        // Each faulty leader owns two consecutive views per leader slot, and
        // the paired-reverse schedule deliberately gives the window-boundary
        // leader two adjacent slots (four consecutive views), so a single
        // faulty leader can cost up to ~4Γ; allow 4Γ per fault plus slack.
        let bound = gamma * (4 * f_a as i64 + 1);
        assert!(
            worst <= bound,
            "f_a = {f_a}: worst steady-state gap {worst} exceeds the smooth bound {bound}"
        );
    }
}

/// Property (4): after the warm-up window Lumiere performs no further heavy
/// epoch synchronizations, while Basic Lumiere (the Section 3.4 ablation)
/// keeps performing them at every epoch.
#[test]
fn heavy_synchronizations_stop_in_the_steady_state() {
    let n = 13;
    let run = |protocol| {
        SimConfig::new(protocol, n)
            .with_delta(DELTA)
            .with_actual_delay(Duration::from_millis(1))
            .with_horizon(Duration::from_secs(6))
            .run()
    };
    let lumiere = run(ProtocolKind::Lumiere);
    let basic = run(ProtocolKind::BasicLumiere);
    let warmup = lumiere.default_warmup();
    assert_eq!(
        lumiere.heavy_sync_epochs_after(warmup),
        0,
        "Lumiere must not pay heavy synchronizations in the steady state"
    );
    assert!(
        basic.heavy_sync_epochs_after(warmup) >= 5,
        "Basic Lumiere should keep paying heavy synchronizations (got {})",
        basic.heavy_sync_epochs_after(warmup)
    );
    // And therefore Lumiere's steady-state communication per decision has no
    // Θ(n²) component while Basic Lumiere's does.
    assert_eq!(lumiere.heavy_messages_between(warmup, lumiere.end_time), 0);
    assert!(basic.heavy_messages_between(warmup, basic.end_time) > n * n);
}

/// Figure 1: one silent Byzantine leader stalls LP22 for Θ(nΔ) of clock time,
/// but Lumiere only for O(Δ).
#[test]
fn figure1_lp22_stall_grows_with_n_but_lumiere_stall_does_not() {
    let stall = |protocol: ProtocolKind, n: usize| -> Duration {
        let (slot_view, schedule) = match protocol {
            ProtocolKind::Lp22 => (View::new(3), LeaderSchedule::round_robin(n)),
            _ => (View::new(6), LeaderSchedule::lumiere(n, 42)),
        };
        let byz = schedule.leader(slot_view).as_usize();
        let report = SimConfig::new(protocol, n)
            .with_delta(DELTA)
            .with_actual_delay(Duration::from_millis(1))
            .with_faulty_ids(vec![byz], StrategyKind::SilentLeader)
            .with_horizon(Duration::from_secs(20))
            .with_max_honest_qcs(60)
            .with_seed(42)
            .run();
        report
            .eventual_worst_latency(Time::ZERO)
            .expect("run produced honest QCs")
    };
    // LP22's stall is bounded below by the wait until the next clock time,
    // which grows with the epoch length f+1 = Θ(n).
    let lp22_small = stall(ProtocolKind::Lp22, 7);
    let lp22_large = stall(ProtocolKind::Lp22, 22);
    assert!(
        lp22_large > lp22_small + DELTA * 10,
        "LP22 stall should grow with n: {lp22_small} vs {lp22_large}"
    );
    // Lumiere's stall is bounded by ~2Γ regardless of n.
    let gamma = DELTA * 10;
    for n in [7usize, 22] {
        let s = stall(ProtocolKind::Lumiere, n);
        assert!(
            s <= gamma * 3,
            "Lumiere stall at n = {n} should be O(Γ), got {s}"
        );
    }
}

/// Property (1) flavour: in the steady state with no faults, the per-decision
/// communication of Lumiere is linear in n (no quadratic component), i.e.
/// doubling n roughly doubles messages per decision.
#[test]
fn steady_state_communication_is_linear_in_n() {
    let per_decision = |n: usize| -> f64 {
        let report = SimConfig::new(ProtocolKind::Lumiere, n)
            .with_delta(DELTA)
            .with_actual_delay(Duration::from_millis(1))
            .with_horizon(Duration::from_secs(4))
            .run();
        let warmup = report.default_warmup();
        report.eventual_worst_communication(warmup) as f64
    };
    let small = per_decision(7);
    let large = per_decision(28);
    assert!(small > 0.0 && large > 0.0);
    let ratio = large / small;
    // n quadrupled: a linear protocol lands near 4×, a quadratic one near 16×.
    assert!(
        ratio < 9.0,
        "steady-state communication grew super-linearly: {small} -> {large} (ratio {ratio:.1})"
    );
}
