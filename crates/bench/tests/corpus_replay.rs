//! Replays the checked-in regression corpus (`tests/corpus/*.json`).
//!
//! Every entry is a real coverage-fuzzer discovery — a configuration that
//! produced a novel behavioural fingerprint, including minimized planted-bug
//! liveness stalls — persisted with the fingerprint and verdict it produced.
//! The tier-1 suite re-runs each entry and asserts both match the recording,
//! so any behavioural drift of the simulator, the adversary layer or the
//! fingerprint definition surfaces as a named, replayable diff instead of a
//! silent change. (An *intentional* behaviour change regenerates the files
//! with `fuzz_adversary --coverage --corpus-out`.)

use lumiere_bench::corpus::CorpusEntry;
use lumiere_bench::fuzz::verdict;
use lumiere_bench::report::read_json;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn every_checked_in_corpus_entry_replays_to_its_recording() {
    let entries: Vec<CorpusEntry> = read_json(&corpus_dir()).unwrap_or_else(|e| panic!("{e}"));
    assert!(
        entries.len() >= 4,
        "the regression corpus lost its entries ({} left)",
        entries.len()
    );
    let mut verdicts = std::collections::BTreeSet::new();
    for (i, entry) in entries.into_iter().enumerate() {
        let report = entry.config.clone().run();
        let at = format!("entry {i} in file-name order (exec {})", entry.id);
        assert_eq!(
            report.coverage.key(),
            entry.fingerprint,
            "{at}: fingerprint drifted"
        );
        assert_eq!(
            verdict(&report).name(),
            entry.verdict,
            "{at}: verdict drifted"
        );
        verdicts.insert(entry.verdict);
    }
    // The corpus deliberately covers both clean and stalled behaviour
    // (planted-bug entries carry their PlantedBug marker in the config).
    assert!(verdicts.contains("ok"), "no clean entry in the corpus");
    assert!(
        verdicts.contains("LIVENESS-STALL"),
        "no liveness-stall entry in the corpus"
    );
}
