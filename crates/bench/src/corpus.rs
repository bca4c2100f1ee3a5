//! The adversary fuzzer's one search loop: corpus, novelty search,
//! generations.
//!
//! 1. every execution produces a deterministic behavioural
//!    [`CoverageFingerprint`](lumiere_sim::CoverageFingerprint)
//!    (`SimReport::coverage`, schema v4);
//! 2. inputs whose fingerprint was never seen before enter the **corpus**;
//! 3. a candidate is either a fresh `fuzz::sample_config(protocol,
//!    exec_id, quick)` or a *mutation* (`crate::mutate`) of a corpus entry,
//!    so a guided search walks outward from behaviourally novel regions.
//!
//! The loop has two settings, chosen by `FuzzOptions::coverage`. Without
//! it every candidate is fresh: one sampled case per seed, blind to the
//! corpus, which then only counts distinct fingerprints. With it
//! (`--coverage`) only `FRESH_SAMPLE_PERCENT` of the candidates are fresh,
//! to keep injecting global diversity, and the rest mutate corpus entries.
//!
//! # Determinism
//!
//! Corpus evolution is inherently sequential, so the loop is batched into
//! **generations**: each generation's candidates are derived (parent pick +
//! mutation) from the corpus state frozen at the generation boundary, the
//! batch is simulated in parallel via [`run_grid`], and the results are
//! folded back in execution order. Scheduling never influences which parent
//! an execution mutated or which fingerprint counts as novel, so the whole
//! outcome — corpus, findings, rendered report — is byte-identical for every
//! `--threads` value and across repeated runs. The per-execution RNG is
//! seeded from the execution id alone, so a fresh candidate is the same
//! case in both settings.
//!
//! Findings are minimized with `fuzz::minimize_config`.

use crate::fuzz::{
    minimize_config, sample_config, verdict, Finding, FuzzOptions, Verdict, FUZZ_DELTA,
};
use crate::grid::run_grid;
use crate::mutate::mutate;
use crate::report::read_json;
use crate::table::TextTable;
use lumiere_runtime::liveness_envelope;
use lumiere_sim::SimConfig;
use lumiere_types::Duration;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;

/// Fraction (percent) of executions of a coverage-guided run that sample a
/// fresh configuration even when the corpus is non-empty, so the loop keeps
/// injecting global diversity alongside local mutation. Without coverage
/// guidance every execution is fresh.
const FRESH_SAMPLE_PERCENT: u32 = 25;

/// How many of the most recent corpus entries the recency-biased parent
/// pick prefers.
const RECENT_WINDOW: usize = 8;

/// One input that produced a novel coverage fingerprint, plus its
/// provenance. Serializable: the regression corpus under
/// `crates/bench/tests/corpus/` and the CI artifacts are files of these.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusEntry {
    /// The execution id that produced this entry.
    pub id: u64,
    /// Corpus id of the parent this input was mutated from (`None` for
    /// fresh samples).
    pub parent: Option<u64>,
    /// How the input was derived: `"sample"` or a mutation-operator name.
    pub op: String,
    /// The novel fingerprint key ([`CoverageFingerprint::key`]).
    ///
    /// [`CoverageFingerprint::key`]: lumiere_sim::CoverageFingerprint::key
    pub fingerprint: String,
    /// The oracle verdict name this input produced (`fuzz::Verdict::name`).
    pub verdict: String,
    /// The full configuration; replaying it reproduces fingerprint and
    /// verdict exactly.
    pub config: SimConfig,
}

impl CorpusEntry {
    /// The file name of the `index`th entry of a persisted corpus. The
    /// leading index keeps names unique even when a preloaded entry (from a
    /// previous run's id space) shares an exec id with a fresh one, and
    /// makes file-name order discovery order, which a preload replays.
    pub fn filename(&self, index: usize) -> String {
        format!("corpus__{index:06}__exec{:06}.json", self.id)
    }
}

/// The set of behaviourally novel inputs discovered so far.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    entries: Vec<CorpusEntry>,
    seen: BTreeSet<String>,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Entries in discovery order.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Number of corpus entries (== number of distinct fingerprints).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entry has been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `fingerprint` has been observed (kept or not).
    pub fn seen(&self, fingerprint: &str) -> bool {
        self.seen.contains(fingerprint)
    }

    /// Offers an entry: admitted (and `true` returned) iff its fingerprint
    /// is novel.
    pub fn observe(&mut self, entry: CorpusEntry) -> bool {
        if !self.seen.insert(entry.fingerprint.clone()) {
            return false;
        }
        self.entries.push(entry);
        true
    }

    /// Picks a mutation parent: biased toward recent entries (novelty begets
    /// novelty) with a uniform fallback over the whole corpus.
    ///
    /// # Panics
    ///
    /// Panics on an empty corpus — callers sample fresh configurations
    /// until the first entry lands.
    pub fn pick<'a>(&'a self, rng: &mut StdRng) -> &'a CorpusEntry {
        assert!(!self.entries.is_empty(), "cannot pick from an empty corpus");
        let len = self.entries.len();
        let index = if rng.gen_range(0..2u32) == 0 {
            len - 1 - rng.gen_range(0..RECENT_WINDOW.min(len))
        } else {
            rng.gen_range(0..len)
        };
        &self.entries[index]
    }
}

/// What one execution concluded (its fingerprint goes to the corpus): the
/// report's per-cluster-size table is summed from these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Execution {
    /// Cluster size of the candidate.
    pub n: usize,
    /// The oracle verdict.
    pub verdict: Verdict,
    /// Worst-case latency after GST, when an honest QC appeared at all.
    pub latency: Option<Duration>,
}

/// The outcome of one fuzzing run.
#[derive(Debug, Clone)]
pub struct CoverageOutcome {
    /// The options the run used.
    pub options: FuzzOptions,
    /// The final corpus: one entry per distinct fingerprint.
    pub corpus: Corpus,
    /// Minimized findings, in execution order.
    pub findings: Vec<Finding>,
    /// Every execution, in execution order.
    pub executions: Vec<Execution>,
}

impl CoverageOutcome {
    /// Number of distinct coverage fingerprints reached.
    pub fn distinct_fingerprints(&self) -> usize {
        self.corpus.len()
    }

    /// Renders the deterministic report (identical for every thread count):
    /// a per-cluster-size table, one line per finding and a summary.
    pub fn render(&self) -> String {
        let options = &self.options;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "## Adversary fuzz — {} seeds {}..{} ({}{}{})\n",
            options.protocol.name(),
            options.seed_start,
            options.seed_end,
            if options.quick { "quick" } else { "deep" },
            if options.coverage {
                format!(", coverage-guided, generation {}", options.generation)
            } else {
                String::new()
            },
            match options.planted {
                Some(bug) => format!(", planted bug: {}", bug.name()),
                None => String::new(),
            },
        );
        let mut table = TextTable::new(vec![
            "n",
            "cases",
            "ok",
            "findings",
            "max latency after GST (ms)",
            "bound (ms)",
        ]);
        let ns: BTreeSet<usize> = self.executions.iter().map(|e| e.n).collect();
        for n in ns {
            let rows: Vec<&Execution> = self.executions.iter().filter(|e| e.n == n).collect();
            let ok = rows.iter().filter(|e| e.verdict == Verdict::Ok).count();
            let max_latency = rows
                .iter()
                .filter_map(|e| e.latency)
                .max()
                .map(|d| format!("{:.1}", d.as_millis_f64()))
                .unwrap_or_else(|| "-".to_string());
            table.push_row(vec![
                n.to_string(),
                rows.len().to_string(),
                ok.to_string(),
                (rows.len() - ok).to_string(),
                max_latency,
                format!("{:.0}", liveness_envelope(n, FUZZ_DELTA).as_millis_f64()),
            ]);
        }
        out.push_str(&table.render());
        let _ = writeln!(out);
        for finding in &self.findings {
            let _ = writeln!(out, "{}", finding.render_line());
        }
        let count = |v: Verdict| self.executions.iter().filter(|e| e.verdict == v).count();
        let _ = writeln!(
            out,
            "fuzz: {} cases, {} distinct fingerprints, {} findings ({} safety, {} stalls, {} truncated)",
            self.executions.len(),
            self.distinct_fingerprints(),
            self.findings.len(),
            count(Verdict::SafetyViolation),
            count(Verdict::LivenessStall),
            count(Verdict::Truncated),
        );
        out
    }
}

/// Derives the deterministic per-execution RNG (independent of thread count
/// and of every other execution).
fn exec_rng(exec: u64) -> StdRng {
    StdRng::seed_from_u64(exec.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0xc0ff_ee00_c0ff_ee00)
}

/// Reads a persisted corpus for `--corpus-in`, in discovery order. A missing
/// directory is an empty corpus: the cache-miss case of a CI corpus restored
/// across runs.
fn preload(dir: &Path) -> Result<Vec<CorpusEntry>, String> {
    if dir.exists() {
        read_json(dir)
    } else {
        Ok(Vec::new())
    }
}

/// Runs the search loop. `options.seed_start..seed_end` is the
/// execution-budget range (execution ids double as sampling seeds),
/// `options.generation` is the batch size between corpus synchronization
/// points, and `options.coverage` picks the share of fresh candidates. See
/// the module docs for the determinism argument.
pub fn run_coverage_fuzz(options: &FuzzOptions) -> CoverageOutcome {
    let mut corpus = Corpus::new();
    if let Some(dir) = &options.corpus_in {
        match preload(dir) {
            Ok(entries) => {
                let preloaded = entries.len();
                let mut admitted = 0usize;
                for entry in entries {
                    admitted += corpus.observe(entry) as usize;
                }
                eprintln!(
                    "preloaded corpus from {}: {admitted} of {preloaded} entries novel",
                    dir.display()
                );
            }
            Err(e) => eprintln!("warning: ignoring corpus preload: {e}"),
        }
    }
    let fresh_percent = if options.coverage {
        FRESH_SAMPLE_PERCENT
    } else {
        100
    };
    let mut findings = Vec::new();
    let mut executions = Vec::new();
    let generation = options.generation.max(1);
    let mut exec = options.seed_start;
    while exec < options.seed_end {
        let batch_end = (exec + generation as u64).min(options.seed_end);
        // Phase 1 (sequential, corpus frozen): derive every candidate of the
        // generation.
        let mut jobs: Vec<(u64, Option<u64>, String, SimConfig)> = Vec::new();
        for id in exec..batch_end {
            let mut rng = exec_rng(id);
            let fresh = corpus.is_empty() || rng.gen_range(0..100u32) < fresh_percent;
            let (parent, op, mut config) = if fresh {
                (
                    None,
                    "sample".to_string(),
                    sample_config(options.protocol, id, options.quick),
                )
            } else {
                let parent = corpus.pick(&mut rng);
                let (config, op) = mutate(&parent.config, &mut rng);
                (Some(parent.id), op, config)
            };
            config.planted_bug = options.planted;
            jobs.push((id, parent, op, config));
        }
        // Phase 2 (parallel): simulate the whole batch.
        let results = run_grid(jobs, options.threads, |(id, parent, op, config)| {
            let report = config.clone().run();
            let execution = Execution {
                n: config.n,
                verdict: verdict(&report),
                latency: report.worst_case_latency(),
            };
            (id, parent, op, config, execution, report.coverage.key())
        });
        // Phase 3 (sequential, execution order): fold into corpus/findings.
        for (id, parent, op, config, execution, fingerprint) in results {
            let verdict = execution.verdict;
            if verdict.is_finding() {
                findings.push(Finding {
                    seed: id,
                    verdict,
                    config: minimize_config(&config, verdict),
                });
            }
            executions.push(execution);
            corpus.observe(CorpusEntry {
                id,
                parent,
                op,
                fingerprint,
                verdict: verdict.name().to_string(),
                config,
            });
        }
        exec = batch_end;
    }
    CoverageOutcome {
        options: options.clone(),
        corpus,
        findings,
        executions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumiere_sim::ProtocolKind;
    use std::path::PathBuf;

    fn entry(id: u64, fingerprint: &str) -> CorpusEntry {
        CorpusEntry {
            id,
            parent: None,
            op: "sample".to_string(),
            fingerprint: fingerprint.to_string(),
            verdict: Verdict::Ok.name().to_string(),
            config: SimConfig::new(ProtocolKind::Lumiere, 4),
        }
    }

    #[test]
    fn corpus_admits_only_novel_fingerprints() {
        let mut corpus = Corpus::new();
        assert!(corpus.observe(entry(0, "a")));
        assert!(corpus.observe(entry(1, "b")));
        assert!(!corpus.observe(entry(2, "a")), "duplicate must be rejected");
        assert_eq!(corpus.len(), 2);
        assert!(corpus.seen("a") && corpus.seen("b") && !corpus.seen("c"));
    }

    #[test]
    fn parent_picks_are_deterministic_and_in_range() {
        let mut corpus = Corpus::new();
        for i in 0..20 {
            corpus.observe(entry(i, &format!("fp{i}")));
        }
        let picks_a: Vec<u64> = (0..50u64)
            .map(|s| corpus.pick(&mut exec_rng(s)).id)
            .collect();
        let picks_b: Vec<u64> = (0..50u64)
            .map(|s| corpus.pick(&mut exec_rng(s)).id)
            .collect();
        assert_eq!(picks_a, picks_b);
        assert!(picks_a.iter().all(|id| *id < 20));
        // The recency bias actually reaches both halves of the corpus.
        assert!(picks_a.iter().any(|id| *id >= 12));
        assert!(picks_a.iter().any(|id| *id < 12));
    }

    /// What `fuzz_adversary --corpus-out` writes.
    fn write_corpus(dir: &Path, corpus: &Corpus) -> Result<Vec<PathBuf>, String> {
        crate::report::write_json(dir, corpus.entries(), |i, entry| entry.filename(i))
    }

    #[test]
    fn corpus_files_round_trip() {
        let dir =
            std::env::temp_dir().join(format!("lumiere-corpus-roundtrip-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut corpus = Corpus::new();
        corpus.observe(entry(3, "abc"));
        let paths = write_corpus(&dir, &corpus).unwrap();
        assert_eq!(paths.len(), 1);
        assert!(paths[0].ends_with("corpus__000000__exec000003.json"));
        let loaded: Vec<CorpusEntry> = read_json(&dir).unwrap();
        assert_eq!(loaded, corpus.entries());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_persisted_corpus_reloads_in_discovery_order() {
        let dir =
            std::env::temp_dir().join(format!("lumiere-corpus-reload-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut corpus = Corpus::new();
        // Ids deliberately out of order: discovery order, not id order, is
        // what must survive the round trip.
        corpus.observe(entry(7, "abc"));
        corpus.observe(entry(2, "def"));
        corpus.observe(entry(5, "ghi"));
        write_corpus(&dir, &corpus).unwrap();
        let loaded: Vec<CorpusEntry> = read_json(&dir).unwrap();
        assert_eq!(loaded, corpus.entries());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loading_a_missing_corpus_directory_is_an_empty_preload() {
        let dir = std::env::temp_dir().join(format!(
            "lumiere-corpus-missing-{}-does-not-exist",
            std::process::id()
        ));
        assert_eq!(preload(&dir).unwrap(), Vec::new());
    }
}
