//! The planted-bug detection suite — the calibration proof that the
//! fuzzer, in both settings of its search loop, can actually find protocol
//! bugs.
//!
//! `lumiere_core::planted` plants a deliberately broken pacemaker variant
//! (the view-synchronization timer is not re-armed while the current view
//! lacks a QC) behind `#[cfg(any(test, feature = "planted-bugs"))]`. Benign
//! executions mask the bug completely; the first adversarially wasted view
//! severs the clock-driven recovery path. The suite asserts that the
//! coverage-guided fuzzer reports a liveness finding against the planted
//! variant within a fixed execution budget, while stock Lumiere stays clean
//! over the same budget, and that the flat setting finds it too.

use lumiere_bench::corpus::run_coverage_fuzz;
use lumiere_bench::fuzz::{FuzzOptions, Verdict};
use lumiere_sim::{AdversarySchedule, PlantedBug, ProtocolKind, SimConfig, StrategyKind};
use lumiere_types::Duration;

/// The fixed detection budget. The bug is typically found within the first
/// generation or two; the budget leaves headroom so the assertion is about
/// the subsystem, not about luck.
const BUDGET: u64 = 40;

fn options(planted: Option<PlantedBug>) -> FuzzOptions {
    FuzzOptions {
        seed_start: 0,
        seed_end: BUDGET,
        threads: 2,
        coverage: true,
        planted,
        ..FuzzOptions::default()
    }
}

#[test]
fn planted_code_paths_are_compiled_into_test_builds() {
    // The whole suite is meaningless if the feature plumbing broke and the
    // planted configs silently ran stock behaviour.
    assert!(lumiere_core::planted::enabled());
}

#[test]
fn coverage_fuzzer_finds_the_planted_bug_and_stock_stays_clean() {
    let planted = run_coverage_fuzz(&options(Some(PlantedBug::DropTimeoutRearm)));
    assert!(
        !planted.findings.is_empty(),
        "the planted bug must be detected within {BUDGET} executions:\n{}",
        planted.render()
    );
    assert!(
        planted
            .findings
            .iter()
            .all(|f| f.verdict == Verdict::LivenessStall),
        "the planted timer bug is a liveness bug:\n{}",
        planted.render()
    );
    // Every minimized finding still carries the planted marker, so a replay
    // reproduces the broken variant, not stock.
    for finding in &planted.findings {
        assert_eq!(
            finding.config.planted_bug,
            Some(PlantedBug::DropTimeoutRearm)
        );
        assert_eq!(
            lumiere_bench::fuzz::verdict(&finding.config.clone().run()),
            finding.verdict,
            "minimized finding {} does not reproduce",
            finding.seed
        );
    }
    let stock = run_coverage_fuzz(&options(None));
    assert!(
        stock.findings.is_empty(),
        "stock Lumiere must stay clean over the same budget:\n{}",
        stock.render()
    );
}

#[test]
fn flat_fuzzer_finds_the_planted_bug() {
    // Every candidate fresh, one case per seed: the budget at which the
    // flat sampler has always reported the bug.
    let flat = run_coverage_fuzz(&FuzzOptions {
        seed_end: 60,
        coverage: false,
        ..options(Some(PlantedBug::DropTimeoutRearm))
    });
    let seeds: Vec<u64> = flat.findings.iter().map(|f| f.seed).collect();
    assert_eq!(seeds, [3, 29, 35, 44, 56, 57], "{}", flat.render());
    assert!(
        flat.findings
            .iter()
            .all(|f| f.verdict == Verdict::LivenessStall),
        "{}",
        flat.render()
    );
}

#[test]
fn planted_bug_stalls_exactly_when_a_view_is_wasted() {
    // Direct mechanism check, independent of the fuzzer. Stock Lumiere
    // survives a silent leader (the clock-driven view change recovers);
    // the planted variant — identical except for the dropped timer re-arm —
    // stalls forever on the same scenario.
    let scenario = |planted: bool| {
        let mut config = SimConfig::new(ProtocolKind::Lumiere, 4)
            .with_delta(Duration::from_millis(10))
            .with_actual_delay(Duration::from_millis(1))
            .with_adversary(AdversarySchedule::new().corrupt(1, StrategyKind::SilentLeader))
            .with_horizon(Duration::from_secs(8))
            .with_max_honest_qcs(30);
        if planted {
            config = config.with_planted_bug(PlantedBug::DropTimeoutRearm);
        }
        config.run()
    };
    let stock = scenario(false);
    assert!(stock.safety_ok && !stock.truncated);
    assert!(
        stock.decisions() > 5,
        "stock Lumiere keeps committing past the silent leader's views"
    );
    let broken = scenario(true);
    assert!(broken.safety_ok, "the planted bug is not a safety bug");
    assert!(
        broken.decisions() < stock.decisions(),
        "severed timer re-arm must stall progress at the first wasted view \
         (stock: {} decisions, planted: {})",
        stock.decisions(),
        broken.decisions()
    );
    // And in the benign fault-free case the planted variant is fully masked
    // by the continuous QC flow: same commits as stock.
    let benign = |planted: bool| {
        let mut config = SimConfig::new(ProtocolKind::Lumiere, 4)
            .with_delta(Duration::from_millis(10))
            .with_actual_delay(Duration::from_millis(1))
            .with_horizon(Duration::from_secs(3))
            .with_max_honest_qcs(20);
        if planted {
            config = config.with_planted_bug(PlantedBug::DropTimeoutRearm);
        }
        config.run()
    };
    assert_eq!(
        benign(false).decisions(),
        benign(true).decisions(),
        "without wasted views the planted bug must be invisible"
    );
}
