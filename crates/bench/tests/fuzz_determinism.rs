//! Determinism of the adversary fuzzer end to end: the same seed expands to
//! the same case, the same case produces a byte-identical `SimReport` JSON
//! rendering, and the search loop's flat setting (every candidate fresh)
//! reports the same for every worker-thread count. Also pins the
//! finding-file writer.

use lumiere_bench::corpus::run_coverage_fuzz;
use lumiere_bench::fuzz::{parse_args, sample_config, Finding, FuzzOptions, Verdict};
use lumiere_bench::report::write_json;
use lumiere_sim::{ProtocolKind, SimReport};
use serde::json;
use std::fs;

#[test]
fn same_seed_and_schedule_give_byte_identical_report_json() {
    for seed in [0u64, 7, 42, 123] {
        let a = sample_config(ProtocolKind::Lumiere, seed, true);
        let b = sample_config(ProtocolKind::Lumiere, seed, true);
        assert_eq!(a, b, "seed {seed}: configs differ");
        let ra: SimReport = a.run();
        let rb: SimReport = b.run();
        assert_eq!(
            json::to_string_pretty(&ra),
            json::to_string_pretty(&rb),
            "seed {seed}: reports are not byte-identical"
        );
        assert!(!ra.truncated, "seed {seed}: run silently truncated");
    }
}

#[test]
fn fuzz_driver_output_is_invariant_under_thread_count() {
    let base = FuzzOptions {
        protocol: ProtocolKind::Lumiere,
        seed_start: 0,
        seed_end: 10,
        threads: 1,
        quick: true,
        out: None,
        ..FuzzOptions::default()
    };
    let serial = run_coverage_fuzz(&base);
    for threads in [2usize, 4, 16] {
        let parallel = run_coverage_fuzz(&FuzzOptions {
            threads,
            ..base.clone()
        });
        assert_eq!(
            serial.render(),
            parallel.render(),
            "threads={threads} changed the fuzz report"
        );
        // The underlying per-execution results agree, not just the rendered
        // summary: verdicts and latencies, and the configs and fingerprints
        // the corpus kept.
        assert_eq!(serial.executions, parallel.executions);
        assert_eq!(serial.corpus.entries(), parallel.corpus.entries());
    }
    assert!(
        serial.findings.is_empty(),
        "Lumiere produced findings:\n{}",
        serial.render()
    );
}

#[test]
fn parsed_cli_options_drive_the_same_deterministic_run() {
    let args: Vec<String> = ["--seeds", "3..6", "--threads", "2", "--quick"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let options = parse_args(&args).unwrap().unwrap();
    assert!(
        !options.coverage,
        "without --coverage every candidate is fresh"
    );
    let a = run_coverage_fuzz(&options);
    let b = run_coverage_fuzz(&options);
    assert_eq!(a.render(), b.render());
    assert_eq!(a.executions.len(), 3);
}

#[test]
fn finding_files_are_deterministic_and_parseable() {
    let dir = std::env::temp_dir().join(format!("lumiere-fuzz-findings-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    // A synthetic finding (the pipeline is exercised even when real fuzz
    // runs stay clean).
    let finding = Finding {
        seed: 9,
        verdict: Verdict::LivenessStall,
        config: sample_config(ProtocolKind::Lumiere, 9, true),
    };
    let write = |findings: &[Finding]| write_json(&dir, findings, |_, f| f.filename()).unwrap();
    let paths = write(std::slice::from_ref(&finding));
    assert_eq!(paths.len(), 1);
    assert!(paths[0].ends_with("finding__seed000009.json"));
    let first = fs::read(&paths[0]).unwrap();
    // Re-writing is byte-identical.
    let paths = write(&[finding]);
    let second = fs::read(&paths[0]).unwrap();
    assert_eq!(first, second);
    // The embedded config parses back and reproduces its simulation.
    let text = String::from_utf8(first).unwrap();
    let value = json::parse(&text).unwrap();
    let rendered = json::to_string(&value);
    assert!(rendered.contains("LivenessStall"));
    fs::remove_dir_all(&dir).unwrap();
}
