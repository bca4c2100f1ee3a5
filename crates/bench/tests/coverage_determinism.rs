//! Determinism of the coverage-guided setting of the search loop: fingerprints and the whole
//! corpus evolution are byte-identical across worker-thread counts and
//! across repeated same-seed runs. The loop synchronizes its corpus at
//! generation boundaries precisely so that scheduling can never leak into
//! which parent an execution mutates or which fingerprint counts as novel —
//! these tests pin that down.

use lumiere_bench::corpus::run_coverage_fuzz;
use lumiere_bench::fuzz::FuzzOptions;
use serde::json;

fn options(threads: usize) -> FuzzOptions {
    FuzzOptions {
        seed_start: 0,
        seed_end: 32,
        threads,
        coverage: true,
        generation: 8,
        ..FuzzOptions::default()
    }
}

#[test]
fn corpus_evolution_is_invariant_under_thread_count() {
    let serial = run_coverage_fuzz(&options(1));
    for threads in [2usize, 8] {
        let parallel = run_coverage_fuzz(&options(threads));
        assert_eq!(
            serial.render(),
            parallel.render(),
            "threads={threads} changed the coverage report"
        );
        // The corpus agrees entry by entry — same ids, same parents, same
        // operator chains, same fingerprints, byte-identical configs.
        assert_eq!(serial.corpus.len(), parallel.corpus.len());
        for (a, b) in serial
            .corpus
            .entries()
            .iter()
            .zip(parallel.corpus.entries())
        {
            assert_eq!(a, b, "corpus diverged at entry {}", a.id);
            assert_eq!(
                json::to_string_pretty(a),
                json::to_string_pretty(b),
                "corpus file bytes diverged at entry {}",
                a.id
            );
        }
        // And so do the minimized findings.
        assert_eq!(serial.findings.len(), parallel.findings.len());
        for (a, b) in serial.findings.iter().zip(&parallel.findings) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.verdict, b.verdict);
            assert_eq!(a.config, b.config);
        }
    }
}

#[test]
fn repeated_same_seed_runs_are_byte_identical() {
    let a = run_coverage_fuzz(&options(2));
    let b = run_coverage_fuzz(&options(2));
    assert_eq!(a.render(), b.render());
    assert_eq!(a.corpus.entries(), b.corpus.entries());
}

#[test]
fn generation_size_changes_batching_but_not_per_execution_fingerprints() {
    // Different generation sizes legitimately change corpus evolution (the
    // corpus freezes at different points), but the *fresh* executions of
    // generation zero are pure samples: their fingerprints must agree with
    // any other run regardless of batching.
    let small = run_coverage_fuzz(&FuzzOptions {
        generation: 4,
        ..options(2)
    });
    let large = run_coverage_fuzz(&FuzzOptions {
        generation: 32,
        ..options(2)
    });
    let first_small = small
        .corpus
        .entries()
        .iter()
        .find(|e| e.op == "sample")
        .expect("a fresh sample exists");
    let twin = large
        .corpus
        .entries()
        .iter()
        .find(|e| e.id == first_small.id)
        .expect("the same execution id sampled fresh in both runs");
    assert_eq!(first_small.fingerprint, twin.fingerprint);
}
