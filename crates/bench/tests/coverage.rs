//! The coverage-guided setting's acceptance test: at an equal execution
//! budget, the search loop with corpus mutation must reach strictly more
//! distinct coverage fingerprints than the same loop with every candidate
//! fresh — otherwise coverage guidance is decoration. Also pins both
//! settings' counts and the basic shape of the outcome (corpus growth,
//! zero findings on stock Lumiere).

use lumiere_bench::corpus::run_coverage_fuzz;
use lumiere_bench::fuzz::FuzzOptions;

/// The budget at which the separation is asserted. Empirically the
/// coverage-guided setting pulls ahead from ~60 executions on and widens
/// from there (see `docs/ADVERSARIES.md`); 100 keeps the tier-1 runtime
/// small while leaving a solid margin.
const BUDGET: u64 = 100;

fn options(coverage: bool) -> FuzzOptions {
    FuzzOptions {
        seed_start: 0,
        seed_end: BUDGET,
        threads: 2,
        coverage,
        ..FuzzOptions::default()
    }
}

#[test]
fn coverage_loop_beats_the_flat_sampler_at_an_equal_budget() {
    let flat = run_coverage_fuzz(&options(false));
    let coverage = run_coverage_fuzz(&options(true));
    // The counts both settings have always reached at this budget.
    assert_eq!(flat.distinct_fingerprints(), 78, "{}", flat.render());
    assert_eq!(
        coverage.distinct_fingerprints(),
        87,
        "{}",
        coverage.render()
    );
    assert!(
        coverage.distinct_fingerprints() > flat.distinct_fingerprints(),
        "coverage-guided search must out-explore blind sampling at an equal \
         budget: coverage reached {} distinct fingerprints, flat reached {}",
        coverage.distinct_fingerprints(),
        flat.distinct_fingerprints(),
    );
    // Stock Lumiere survives both searches.
    assert!(
        flat.findings.is_empty(),
        "flat sampler found:\n{}",
        flat.render()
    );
    assert!(
        coverage.findings.is_empty(),
        "coverage loop found:\n{}",
        coverage.render()
    );
    // Every execution is accounted for and the corpus actually grew.
    assert_eq!(flat.executions.len() as u64, BUDGET);
    assert_eq!(coverage.executions.len() as u64, BUDGET);
    assert!(coverage.corpus.len() > BUDGET as usize / 2);
    // The flat setting only ever samples; the guided one's mutated entries
    // record their parent and operator chain.
    assert!(flat.corpus.entries().iter().all(|e| e.op == "sample"));
    assert!(
        coverage
            .corpus
            .entries()
            .iter()
            .any(|e| e.parent.is_some() && e.op != "sample"),
        "no mutated entry ever entered the corpus"
    );
}

#[test]
fn corpus_entries_replay_to_their_recorded_fingerprint() {
    // The corpus is only useful if an entry's config reproduces its
    // fingerprint and verdict exactly; spot-check a few live entries.
    let outcome = run_coverage_fuzz(&FuzzOptions {
        seed_end: 24,
        ..options(true)
    });
    for entry in outcome.corpus.entries().iter().take(5) {
        let report = entry.config.clone().run();
        assert_eq!(
            report.coverage.key(),
            entry.fingerprint,
            "entry {} does not replay to its fingerprint",
            entry.id
        );
        assert_eq!(
            lumiere_bench::fuzz::verdict(&report).name(),
            entry.verdict,
            "entry {} does not replay to its verdict",
            entry.id
        );
    }
}
