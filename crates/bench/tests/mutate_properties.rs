//! Property tests for the structural mutators: any chain of mutations of a
//! well-formed `AdversarySchedule` stays well-formed — windows ordered and
//! non-negative, corrupted set distinct / in range / within the tolerated
//! `f`, rule count bounded — and the mutation is a pure function of its
//! RNG. Failing cases shrink to minimal counterexamples under the vendored
//! proptest.

use lumiere_bench::mutate::{mutate, sample_rule, sample_strategy, MAX_RULES};
use lumiere_sim::{AdversarySchedule, ProtocolKind, SimConfig, StrategyKind};
use lumiere_types::{Time, TimeRange};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministically expands compact proptest arguments into a well-formed
/// starting configuration (the same shape the flat sampler emits).
fn config_from(n_pick: usize, f_a: usize, build_seed: u64, rules: usize) -> SimConfig {
    let ns = [4usize, 7, 10, 13];
    let n = ns[n_pick % ns.len()];
    let f = (n - 1) / 3;
    let f_a = f_a.min(f);
    let mut rng = StdRng::seed_from_u64(build_seed);
    let mut schedule = AdversarySchedule::new();
    for slot in 0..f_a {
        // Distinct ids by construction: the first f_a indices.
        schedule = schedule.corrupt(slot, sample_strategy(&mut rng));
    }
    for _ in 0..rules.min(2) {
        schedule = schedule.rule(sample_rule(&mut rng));
    }
    SimConfig::new(ProtocolKind::Lumiere, n).with_adversary(schedule)
}

/// Every well-formedness property the mutators must preserve.
fn assert_well_formed(config: &SimConfig, context: &str) {
    let n = config.n;
    let f = (n - 1) / 3;
    let schedule = config.effective_adversary();
    schedule
        .validate(n, f)
        .unwrap_or_else(|e| panic!("{context}: invalid schedule: {e}"));
    assert!(
        schedule.delay_rules.len() <= MAX_RULES,
        "{context}: rule count {} exceeds the cap",
        schedule.delay_rules.len()
    );
    let ordered = |w: TimeRange, what: &str| {
        assert!(
            w.from >= Time::ZERO && w.from <= w.until,
            "{context}: disordered {what} window {w:?}"
        );
    };
    for rule in &schedule.delay_rules {
        ordered(rule.window, "rule");
    }
    for c in &schedule.corruptions {
        if let StrategyKind::CrashRecovery { down } = c.strategy {
            ordered(down, "crash-recovery");
        }
    }
    assert!(config.gst >= Time::ZERO, "{context}: negative GST");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// A chain of up to 12 mutation steps never breaks well-formedness.
    #[test]
    fn mutation_chains_preserve_well_formedness(
        n_pick in 0usize..4,
        f_a in 0usize..5,
        build_seed in 0u64..1_000_000,
        rules in 0usize..3,
        mutation_seed in 0u64..1_000_000,
        steps in 1usize..12,
    ) {
        let mut config = config_from(n_pick, f_a, build_seed, rules);
        assert_well_formed(&config, "start");
        let mut rng = StdRng::seed_from_u64(mutation_seed);
        for step in 0..steps {
            let (next, op) = mutate(&config, &mut rng);
            assert_well_formed(&next, &format!("step {step} ({op})"));
            config = next;
        }
    }

    /// Mutation is a pure function of (config, rng): same inputs, same
    /// output — the coverage loop's thread-invariance rests on this.
    #[test]
    fn mutation_is_deterministic(
        n_pick in 0usize..4,
        f_a in 0usize..5,
        build_seed in 0u64..1_000_000,
        mutation_seed in 0u64..1_000_000,
    ) {
        let config = config_from(n_pick, f_a, build_seed, 2);
        let (a, op_a) = mutate(&config, &mut StdRng::seed_from_u64(mutation_seed));
        let (b, op_b) = mutate(&config, &mut StdRng::seed_from_u64(mutation_seed));
        prop_assert_eq!(a, b);
        prop_assert_eq!(op_a, op_b);
    }
}
