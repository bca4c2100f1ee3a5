//! Structural mutators over adversary schedules.
//!
//! The coverage-guided fuzzer (`crates/bench/src/corpus.rs`) does not draw
//! every input from scratch: it takes a schedule that already produced a
//! novel behaviour and perturbs its *structure* — add, remove or widen a
//! [`DelayRule`], shift a [`TimeRange`] window, swap a corruption's
//! [`StrategyKind`] — so the search walks outward from interesting regions
//! of the attack space instead of sampling it blindly.
//!
//! Every mutator preserves well-formedness by construction: windows stay
//! ordered (`from ≤ until`, with `from ≥ 0`), corrupted nodes stay distinct
//! and in range, and the corruption count never exceeds the tolerated `f`.
//! `AdversarySchedule::validate` must accept any output whose input it
//! accepted — the property tests in `crates/bench/tests/mutate_properties.rs`
//! pin this down under the vendored proptest's shrinker.

use lumiere_sim::{
    AdversarySchedule, DelayModel, DelayRule, EdgeClass, MsgClass, SimConfig, StrategyKind,
};
use lumiere_types::{Duration, Time, TimeRange};
use rand::rngs::StdRng;
use rand::Rng;

/// Cap on the number of delay rules a mutated schedule may carry; keeps the
/// add-rule mutator from growing schedules without bound over many
/// generations (the sampler starts at ≤ 2).
pub const MAX_RULES: usize = 6;

/// The structural mutation operators, in the order [`mutate`] tries them.
///
/// The first seven perturb the adversary schedule; the last four perturb
/// the run's environment (GST position, network-jitter seed, cluster size,
/// base delay model) while keeping the attack structure intact. Several of
/// them deliberately escape the flat sampler's envelope — schedules with up
/// to [`MAX_RULES`] rules instead of two, windows and GSTs drifted far past
/// the sampler's ranges — which is where the coverage-guided loop finds
/// behaviours random sampling essentially never produces.
pub const MUTATION_NAMES: [&str; 11] = [
    "add-rule",
    "remove-rule",
    "widen-rule",
    "shift-window",
    "swap-strategy",
    "add-corruption",
    "remove-corruption",
    "shift-gst",
    "reseed-jitter",
    "resize-cluster",
    "swap-base-delay",
];

/// How far one shift-window / shift-gst application may move (ms, each
/// direction). Larger than the flat sampler's whole window range, so
/// iterated mutation walks windows into run regions the sampler never
/// touches.
const SHIFT_RANGE_MS: i64 = 800;

/// Samples one per-node strategy, covering every [`StrategyKind::SIMPLE`]
/// kind plus crash–recovery with a random dark window. Shared by the flat
/// sampler (`fuzz::sample_config`) and the swap/add mutators so all three
/// explore the same strategy space.
pub fn sample_strategy(rng: &mut StdRng) -> StrategyKind {
    let simple = StrategyKind::SIMPLE.len() as u32;
    match rng.gen_range(0..=simple) {
        i if i < simple => StrategyKind::SIMPLE[i as usize],
        _ => {
            let from = Time::from_millis(rng.gen_range(0..=400));
            let down_for = Duration::from_millis(rng.gen_range(20..=600));
            StrategyKind::CrashRecovery {
                down: TimeRange::new(from, from + down_for),
            }
        }
    }
}

/// Samples one per-edge delay rule (also shared with the flat sampler).
pub fn sample_rule(rng: &mut StdRng) -> DelayRule {
    let edge = EdgeClass::ALL[rng.gen_range(0..EdgeClass::ALL.len())];
    let msg = MsgClass::ALL[rng.gen_range(0..MsgClass::ALL.len())];
    let window = if rng.gen_range(0..2u32) == 0 {
        TimeRange::always()
    } else {
        let from = Time::from_millis(rng.gen_range(0..=500));
        let len = Duration::from_millis(rng.gen_range(50..=2_000));
        TimeRange::new(from, from + len)
    };
    let delay = match rng.gen_range(0..3u32) {
        0 => DelayModel::AdversarialMax,
        1 => DelayModel::Fixed {
            delta: Duration::from_millis(rng.gen_range(1..=10)),
        },
        _ => DelayModel::Uniform {
            min: Duration::from_millis(rng.gen_range(1..=3)),
            max: Duration::from_millis(rng.gen_range(3..=10)),
        },
    };
    DelayRule {
        edge,
        msg,
        window,
        delay,
    }
}

/// Shifts a window by `shift` while keeping it non-negative and preserving
/// its length ([`TimeRange::always`] is left untouched — shifting the
/// "forever" window would only truncate it).
fn shift_window(window: TimeRange, shift: Duration) -> TimeRange {
    if window == TimeRange::always() || window.is_empty() {
        return window;
    }
    let length = window.length();
    let from = Time::ZERO.max(window.from + shift);
    TimeRange::new(from, from + length)
}

/// Widens a window on both sides (clamping `from` at zero). The always
/// window cannot get any wider.
fn widen_window(window: TimeRange, by: Duration) -> TimeRange {
    if window == TimeRange::always() {
        return window;
    }
    let from = Time::ZERO.max(window.from - by);
    TimeRange::new(from, window.until + by)
}

/// Applies `op` (an index into [`MUTATION_NAMES`]) to the schedule or the
/// run environment in place. Returns `false` when the operator does not
/// apply (e.g. remove-rule with no rules); nothing is changed in that case.
fn apply(
    config: &mut SimConfig,
    schedule: &mut AdversarySchedule,
    op: usize,
    rng: &mut StdRng,
) -> bool {
    let n = config.n;
    let f = (n - 1) / 3;
    match MUTATION_NAMES[op] {
        "shift-gst" => {
            let shift = Duration::from_millis(rng.gen_range(-SHIFT_RANGE_MS..=SHIFT_RANGE_MS));
            config.gst = Time::ZERO.max(config.gst + shift);
            // Keep the run long enough for the liveness oracle's window
            // (exactly how `fuzz::sample_config` sizes horizons).
            config.horizon = (config.gst - Time::ZERO)
                + lumiere_runtime::liveness_envelope(n, config.delta_cap)
                + config.delta_cap * 40;
            true
        }
        "reseed-jitter" => {
            // Same attack structure, different network-jitter draw.
            config.seed = rng.gen_range(0..1_000_000_007u64);
            true
        }
        "resize-cluster" => {
            // Carry the attack to a different cluster size: corruptions
            // outside the new index range (or beyond the new f) are
            // dropped; everything else is preserved. The horizon is resized
            // with the liveness bound, which is O(nΔ).
            let sizes: &[usize] = if n <= 13 {
                &[4, 7, 10, 13]
            } else {
                &[7, 13, 19, 31]
            };
            let choices: Vec<usize> = sizes.iter().copied().filter(|s| *s != n).collect();
            let new_n = choices[rng.gen_range(0..choices.len())];
            let new_f = (new_n - 1) / 3;
            config.n = new_n;
            config.horizon = (config.gst - Time::ZERO)
                + lumiere_runtime::liveness_envelope(new_n, config.delta_cap)
                + config.delta_cap * 40;
            schedule.corruptions.retain(|c| c.node < new_n);
            schedule.corruptions.truncate(new_f);
            true
        }
        "swap-base-delay" => {
            config.delay = match rng.gen_range(0..3u32) {
                0 => DelayModel::AdversarialMax,
                1 => DelayModel::Fixed {
                    delta: Duration::from_millis(rng.gen_range(1..=5)),
                },
                _ => DelayModel::Uniform {
                    min: Duration::from_millis(1),
                    max: Duration::from_millis(8),
                },
            };
            true
        }
        "add-rule" => {
            if schedule.delay_rules.len() >= MAX_RULES {
                return false;
            }
            let rule = sample_rule(rng);
            schedule.delay_rules.push(rule);
            true
        }
        "remove-rule" => {
            if schedule.delay_rules.is_empty() {
                return false;
            }
            let i = rng.gen_range(0..schedule.delay_rules.len());
            schedule.delay_rules.remove(i);
            true
        }
        "widen-rule" => {
            if schedule.delay_rules.is_empty() {
                return false;
            }
            let i = rng.gen_range(0..schedule.delay_rules.len());
            let by = Duration::from_millis(rng.gen_range(10..=300));
            schedule.delay_rules[i].window = widen_window(schedule.delay_rules[i].window, by);
            true
        }
        "shift-window" => {
            // Candidate windows: every delay-rule window plus every
            // crash–recovery dark window, addressed uniformly.
            let rules = schedule.delay_rules.len();
            let crs: Vec<usize> = schedule
                .corruptions
                .iter()
                .enumerate()
                .filter(|(_, c)| matches!(c.strategy, StrategyKind::CrashRecovery { .. }))
                .map(|(i, _)| i)
                .collect();
            if rules + crs.len() == 0 {
                return false;
            }
            let shift = Duration::from_millis(rng.gen_range(-SHIFT_RANGE_MS..=SHIFT_RANGE_MS));
            let pick = rng.gen_range(0..rules + crs.len());
            if pick < rules {
                schedule.delay_rules[pick].window =
                    shift_window(schedule.delay_rules[pick].window, shift);
            } else {
                let c = &mut schedule.corruptions[crs[pick - rules]];
                let StrategyKind::CrashRecovery { down } = c.strategy else {
                    unreachable!("filtered to crash-recovery above");
                };
                c.strategy = StrategyKind::CrashRecovery {
                    down: shift_window(down, shift),
                };
            }
            true
        }
        "swap-strategy" => {
            if schedule.corruptions.is_empty() {
                return false;
            }
            let i = rng.gen_range(0..schedule.corruptions.len());
            schedule.corruptions[i].strategy = sample_strategy(rng);
            true
        }
        "add-corruption" => {
            let corrupted = schedule.corrupted_ids();
            if corrupted.len() >= f {
                return false;
            }
            let free: Vec<usize> = (0..n).filter(|id| !corrupted.contains(id)).collect();
            let node = free[rng.gen_range(0..free.len())];
            let strategy = sample_strategy(rng);
            *schedule = schedule.clone().corrupt(node, strategy);
            true
        }
        "remove-corruption" => {
            if schedule.corruptions.is_empty() {
                return false;
            }
            let i = rng.gen_range(0..schedule.corruptions.len());
            schedule.corruptions.remove(i);
            true
        }
        _ => unreachable!("MUTATION_NAMES is exhaustive"),
    }
}

/// Mutates `config` with a chain of three to seven structural operators and
/// returns the mutated configuration plus the applied operator names
/// (joined with `+`, for corpus provenance). Deterministic in `rng`; the
/// result always passes `AdversarySchedule::validate(n, f)`.
///
/// The chain is deliberately deep: a single operator rarely moves the
/// behavioural fingerprint, while a multi-step walk lands in parts of the
/// enlarged mutation space (rule stacks, drifted windows, resized clusters)
/// that the flat sampler's envelope never reaches — empirically that is
/// what makes the coverage loop out-explore pure random sampling at equal
/// budgets. Each operator is drawn at random; inapplicable operators fall
/// through cyclically, and shift-gst / reseed-jitter are always applicable,
/// so a chain can never get stuck.
pub fn mutate(config: &SimConfig, rng: &mut StdRng) -> (SimConfig, String) {
    let mut next = config.clone();
    let mut schedule = config.effective_adversary();
    let chain = 3 + rng.gen_range(0..5u32);
    let mut applied: Vec<&'static str> = Vec::with_capacity(chain as usize);
    for _ in 0..chain {
        let start = rng.gen_range(0..MUTATION_NAMES.len());
        for step in 0..MUTATION_NAMES.len() {
            let op = (start + step) % MUTATION_NAMES.len();
            if apply(&mut next, &mut schedule, op, rng) {
                debug_assert!(
                    schedule.validate(next.n, (next.n - 1) / 3).is_ok(),
                    "mutator {} broke well-formedness",
                    MUTATION_NAMES[op]
                );
                applied.push(MUTATION_NAMES[op]);
                break;
            }
        }
    }
    (next.with_adversary(schedule), applied.join("+"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumiere_sim::ProtocolKind;
    use rand::SeedableRng;

    fn base() -> SimConfig {
        SimConfig::new(ProtocolKind::Lumiere, 7).with_adversary(
            AdversarySchedule::new()
                .corrupt(5, StrategyKind::Equivocate)
                .rule(sample_rule(&mut StdRng::seed_from_u64(3))),
        )
    }

    #[test]
    fn mutation_is_deterministic_in_the_rng_seed() {
        for seed in 0..20u64 {
            let (a, op_a) = mutate(&base(), &mut StdRng::seed_from_u64(seed));
            let (b, op_b) = mutate(&base(), &mut StdRng::seed_from_u64(seed));
            assert_eq!(a, b);
            assert_eq!(op_a, op_b);
        }
    }

    #[test]
    fn mutations_preserve_validity_over_long_walks() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut config = base();
        for step in 0..200 {
            let (next, op) = mutate(&config, &mut rng);
            let schedule = next.effective_adversary();
            assert!(
                schedule.validate(next.n, (next.n - 1) / 3).is_ok(),
                "step {step} ({op}) produced an invalid schedule"
            );
            assert!(schedule.delay_rules.len() <= MAX_RULES, "step {step}");
            for rule in &schedule.delay_rules {
                assert!(
                    rule.window.from >= Time::ZERO && rule.window.from <= rule.window.until,
                    "step {step} ({op}): disordered window"
                );
            }
            config = next;
        }
    }

    #[test]
    fn window_helpers_clamp_at_zero_and_keep_order() {
        let w = TimeRange::new(Time::from_millis(50), Time::from_millis(100));
        let shifted = shift_window(w, Duration::from_millis(-200));
        assert_eq!(shifted.from, Time::ZERO);
        assert_eq!(shifted.length(), w.length());
        let widened = widen_window(w, Duration::from_millis(80));
        assert_eq!(widened.from, Time::ZERO);
        assert_eq!(widened.until, Time::from_millis(180));
        assert_eq!(
            shift_window(TimeRange::always(), Duration::from_millis(5)),
            TimeRange::always()
        );
        assert_eq!(
            widen_window(TimeRange::always(), Duration::from_millis(5)),
            TimeRange::always()
        );
    }

    #[test]
    fn every_operator_eventually_fires() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = std::collections::BTreeSet::new();
        let mut config = base();
        for _ in 0..300 {
            let (next, ops) = mutate(&config, &mut rng);
            for op in ops.split('+') {
                seen.insert(op.to_string());
            }
            config = next;
        }
        for name in MUTATION_NAMES {
            assert!(seen.contains(name), "operator {name} never fired");
        }
    }
}
