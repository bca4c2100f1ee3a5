//! Persistent experiment reports: JSON sweep cells on disk.
//!
//! Each cell of an experiment grid (one protocol at one `(n, f_a)` point) is
//! written as one pretty-printed JSON file — a [`SweepCell`] wrapping the
//! full [`SimReport`] (and, for the Figure 1 runs, the execution [`Trace`]).
//! The format is documented field-by-field in `docs/REPORT_SCHEMA.md`.
//!
//! Files are deterministic: the simulator is a pure function of its seeded
//! configuration and the JSON writer preserves field order, so re-running a
//! sweep — with any thread count — reproduces every file byte for byte.
//! That is what makes the on-disk reports diffable across runs:
//! [`load_dir`] + [`diff_cells`] turn two report directories into a
//! regression check.

use lumiere_sim::metrics::SimReport;
use lumiere_sim::trace::Trace;
use serde::{json, Deserialize, Serialize};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Version stamp written into every report file; bump when the cell layout
/// changes incompatibly (see `docs/REPORT_SCHEMA.md` for the history).
///
/// v7: `SimReport` gained the authenticator-cost block — `auth_bytes` /
/// `auth_bytes_naive` (honest wire bytes spent on signatures and bitmaps,
/// aggregated vs. naive signature-vector certificates) and `verify_ops` /
/// `verify_ops_naive` (receiver-side signature checks) — plus the canonical
/// `slash_evidence` list (capped) with its exact `slash_evidence_total`;
/// new `certificates` experiment slug.
///
/// v6: `SimReport` gained `events_processed`, the total number of simulator
/// events the run consumed — deterministic across broadcast representation
/// (part of the byte-identical report guarantee), and the
/// denominator behind the events/sec benchmark gate.
///
/// v5: `SimReport` gained the client-load block — the echoed `workload`
/// config plus `txs_submitted` / `txs_committed` / `txs_shed` and the
/// submit→commit latency percentiles (`tx_latency_p50/p95/p99`); new
/// `load` experiment slug (throughput–latency saturation curves).
///
/// v4: `SimReport` gained `coverage`, the behavioural coverage fingerprint
/// (binned QC-gap latencies, event-mix buckets, per-strategy activation
/// windows) that drives the coverage-guided adversary fuzzer.
///
/// v3: `SimReport`'s message-time series became run-length encoded
/// `(time, count)` pairs and gained `metrics_grid` (the sampling grid
/// applied above the large-`n` threshold); new `scale` experiment slug.
///
/// v2: `SimReport` gained `truncated` (event-cap overflow surfaced instead
/// of silently breaking the run loop) and `equivocations_observed`.
pub const SCHEMA_VERSION: u32 = 7;

/// One grid cell of one experiment: the sweep coordinates plus the complete
/// simulation outcome measured there.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCell {
    /// Layout version of this file ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Experiment slug (`"table1_worst"`, `"figure1"`, ...).
    pub experiment: String,
    /// Position on the experiment's sweep axis (`"n013"`, `"fa2"`,
    /// `"delta005ms"`, ...); unique per `(experiment, protocol)`.
    pub label: String,
    /// Protocol name as reported by `ProtocolKind::name()`.
    pub protocol: String,
    /// Number of processors.
    pub n: usize,
    /// Number of actually corrupted processors.
    pub f_a: usize,
    /// The seed this cell's simulation ran with (fixed per experiment, so a
    /// cell is reproducible from this file alone).
    pub seed: u64,
    /// Sweep scale that produced the cell (`"quick"` or `"full"`).
    pub scale: String,
    /// The full simulation outcome (all times in integer microseconds).
    pub report: SimReport,
    /// The per-processor execution trace, when the experiment recorded one
    /// (only the Figure 1 timeline runs do).
    pub trace: Option<Trace>,
}

impl SweepCell {
    /// The cell's identity within a report set: `experiment__protocol__label`.
    pub fn key(&self) -> String {
        format!("{}__{}__{}", self.experiment, self.protocol, self.label)
    }

    /// The deterministic file name this cell is stored under.
    pub fn filename(&self) -> String {
        format!("{}.json", self.key())
    }
}

/// Checks that `dir` exists (creating it if needed) and is writable, by
/// writing and removing a probe file. Returns a human-readable error naming
/// the directory and the failing operation.
pub fn ensure_writable(dir: &Path) -> Result<(), String> {
    fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create output directory {}: {e}", dir.display()))?;
    let probe = dir.join(".lumiere-write-probe");
    fs::write(&probe, b"probe")
        .map_err(|e| format!("output directory {} is not writable: {e}", dir.display()))?;
    fs::remove_file(&probe)
        .map_err(|e| format!("cannot clean up probe file in {}: {e}", dir.display()))?;
    Ok(())
}

/// Writes every cell under `dir` (one pretty-printed JSON file each) and
/// returns the paths written, in cell order. Two cells with the same
/// [`SweepCell::key`] would share a file, so they are an error and nothing
/// is written.
pub fn write_cells(dir: &Path, cells: &[SweepCell]) -> Result<Vec<PathBuf>, String> {
    let mut keys = std::collections::BTreeSet::new();
    for cell in cells {
        if !keys.insert(cell.key()) {
            return Err(format!("two report cells share the key `{}`", cell.key()));
        }
    }
    ensure_writable(dir)?;
    let mut paths = Vec::with_capacity(cells.len());
    for cell in cells {
        let path = dir.join(cell.filename());
        let mut text = json::to_string_pretty(cell);
        text.push('\n');
        fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        paths.push(path);
    }
    Ok(paths)
}

/// Loads one report file, checking the schema version.
pub fn load_cell(path: &Path) -> Result<SweepCell, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let cell: SweepCell =
        json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    if cell.schema_version != SCHEMA_VERSION {
        return Err(format!(
            "{}: schema version {} is not the supported version {SCHEMA_VERSION}",
            path.display(),
            cell.schema_version
        ));
    }
    Ok(cell)
}

/// Loads every `*.json` report file under `dir`, sorted by file name (which
/// is also cell-key order, so two loads of equal sets align).
pub fn load_dir(dir: &Path) -> Result<Vec<SweepCell>, String> {
    let entries =
        fs::read_dir(dir).map_err(|e| format!("cannot read directory {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .map(|entry| {
            entry
                .map(|e| e.path())
                .map_err(|e| format!("cannot list {}: {e}", dir.display()))
        })
        .collect::<Result<_, _>>()?;
    paths.retain(|p| p.extension().is_some_and(|ext| ext == "json"));
    paths.sort();
    paths.iter().map(|p| load_cell(p)).collect()
}

/// One changed cell in a [`ReportDiff`]: which metrics moved, and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellChange {
    /// The cell's [`SweepCell::key`].
    pub key: String,
    /// Human-readable `metric: left -> right` lines.
    pub details: Vec<String>,
}

/// The difference between two report sets (e.g. two sweep runs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReportDiff {
    /// Cell keys present only in the left set.
    pub only_left: Vec<String>,
    /// Cell keys present only in the right set.
    pub only_right: Vec<String>,
    /// Cells present in both sets with different contents.
    pub changed: Vec<CellChange>,
}

impl ReportDiff {
    /// Whether the two sets were identical.
    pub fn is_empty(&self) -> bool {
        self.only_left.is_empty() && self.only_right.is_empty() && self.changed.is_empty()
    }

    /// Renders the diff as a short human-readable summary.
    pub fn render(&self) -> String {
        if self.is_empty() {
            return "report sets are identical\n".to_string();
        }
        let mut out = String::new();
        for key in &self.only_left {
            let _ = writeln!(out, "- only in left:  {key}");
        }
        for key in &self.only_right {
            let _ = writeln!(out, "- only in right: {key}");
        }
        for change in &self.changed {
            let _ = writeln!(out, "~ changed: {}", change.key);
            for detail in &change.details {
                let _ = writeln!(out, "    {detail}");
            }
        }
        out
    }
}

/// Compares two report sets cell by cell (matched on [`SweepCell::key`]).
///
/// Cells present on both sides compare by full serialized content; when they
/// differ, the headline metrics that moved are spelled out so a regression is
/// readable without opening the files.
pub fn diff_cells(left: &[SweepCell], right: &[SweepCell]) -> ReportDiff {
    let mut diff = ReportDiff::default();
    let right_by_key: std::collections::BTreeMap<String, &SweepCell> =
        right.iter().map(|c| (c.key(), c)).collect();
    let left_keys: std::collections::BTreeSet<String> = left.iter().map(|c| c.key()).collect();
    for cell in left {
        let key = cell.key();
        match right_by_key.get(&key) {
            None => diff.only_left.push(key),
            Some(other) => {
                if cell != *other {
                    diff.changed.push(CellChange {
                        details: change_details(cell, other),
                        key,
                    });
                }
            }
        }
    }
    for (key, _) in right_by_key {
        if !left_keys.contains(&key) {
            diff.only_right.push(key);
        }
    }
    diff
}

fn change_details(left: &SweepCell, right: &SweepCell) -> Vec<String> {
    let mut details = Vec::new();
    let mut compare = |metric: &str, a: String, b: String| {
        if a != b {
            details.push(format!("{metric}: {a} -> {b}"));
        }
    };
    compare("seed", left.seed.to_string(), right.seed.to_string());
    compare("scale", left.scale.clone(), right.scale.clone());
    let (lr, rr) = (&left.report, &right.report);
    compare(
        "decisions",
        lr.decisions().to_string(),
        rr.decisions().to_string(),
    );
    compare(
        "total messages",
        lr.total_messages().to_string(),
        rr.total_messages().to_string(),
    );
    compare(
        "worst-case communication",
        lr.worst_case_communication().to_string(),
        rr.worst_case_communication().to_string(),
    );
    compare(
        "worst-case latency",
        format!("{:?}", lr.worst_case_latency()),
        format!("{:?}", rr.worst_case_latency()),
    );
    compare("end time", lr.end_time.to_string(), rr.end_time.to_string());
    compare("safety", lr.safety_ok.to_string(), rr.safety_ok.to_string());
    if details.is_empty() {
        // The headline metrics agree but the full contents differ (e.g. a
        // message timestamp moved); report it rather than staying silent.
        details.push("full report contents differ (same headline metrics)".to_string());
    }
    details
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumiere_sim::metrics::MetricsCollector;
    use lumiere_types::{Duration, ProcessId, Time, View};

    fn sample_cell(label: &str, decisions: u64) -> SweepCell {
        let mut collector = MetricsCollector::new(
            "lumiere".to_string(),
            4,
            1,
            0,
            Duration::from_millis(10),
            Time::ZERO,
        );
        collector.record_honest_sends(Time::from_millis(1), 3, false);
        collector.record_qc(Time::from_millis(2), View::new(0), ProcessId::new(0), true);
        for height in 1..=decisions {
            collector.record_commit(Time::from_millis(3), height);
        }
        SweepCell {
            schema_version: SCHEMA_VERSION,
            experiment: "unit_test".to_string(),
            label: label.to_string(),
            protocol: "lumiere".to_string(),
            n: 4,
            f_a: 0,
            seed: 42,
            scale: "quick".to_string(),
            report: collector.finish(Time::from_millis(10)),
            trace: None,
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lumiere-report-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cells_round_trip_through_disk() {
        let dir = temp_dir("roundtrip");
        let cells = vec![sample_cell("n004", 1), sample_cell("n007", 2)];
        let paths = write_cells(&dir, &cells).unwrap();
        assert_eq!(paths.len(), 2);
        assert!(paths[0].ends_with("unit_test__lumiere__n004.json"));
        let loaded = load_dir(&dir).unwrap();
        assert_eq!(loaded, cells);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewriting_cells_is_byte_identical() {
        let dir = temp_dir("bytes");
        let cells = vec![sample_cell("n004", 1)];
        let paths = write_cells(&dir, &cells).unwrap();
        let first = fs::read(&paths[0]).unwrap();
        let paths = write_cells(&dir, &cells).unwrap();
        let second = fs::read(&paths[0]).unwrap();
        assert_eq!(first, second);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cells_sharing_a_key_are_refused_before_anything_is_written() {
        let dir = temp_dir("duplicate");
        let cells = vec![
            sample_cell("n004", 1),
            sample_cell("n007", 2),
            sample_cell("n004", 3),
        ];
        let err = write_cells(&dir, &cells).unwrap_err();
        assert!(err.contains("`unit_test__lumiere__n004`"), "{err}");
        assert!(!dir.exists(), "a refused set must leave no files behind");
    }

    #[test]
    fn diff_reports_missing_and_changed_cells() {
        let a = vec![sample_cell("n004", 1), sample_cell("n007", 2)];
        let mut b = vec![sample_cell("n004", 3), sample_cell("n013", 2)];
        b[0].report.safety_ok = false;
        let diff = diff_cells(&a, &b);
        assert_eq!(diff.only_left, vec!["unit_test__lumiere__n007".to_string()]);
        assert_eq!(
            diff.only_right,
            vec!["unit_test__lumiere__n013".to_string()]
        );
        assert_eq!(diff.changed.len(), 1);
        assert!(diff.changed[0]
            .details
            .iter()
            .any(|d| d.starts_with("decisions: 1 -> 3")));
        assert!(diff.changed[0]
            .details
            .iter()
            .any(|d| d.starts_with("safety: true -> false")));
        let rendered = diff.render();
        assert!(rendered.contains("only in left"));
        assert!(rendered.contains("~ changed"));
    }

    #[test]
    fn identical_sets_diff_empty() {
        let a = vec![sample_cell("n004", 1)];
        let diff = diff_cells(&a, &a.clone());
        assert!(diff.is_empty());
        assert_eq!(diff.render(), "report sets are identical\n");
    }

    #[test]
    fn schema_version_mismatch_is_rejected() {
        let dir = temp_dir("schema");
        let mut cell = sample_cell("n004", 1);
        cell.schema_version = 999;
        write_cells(&dir, &[cell]).unwrap();
        let err = load_dir(&dir).unwrap_err();
        assert!(err.contains("schema version 999"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unwritable_out_dir_gives_a_clear_error() {
        let dir = temp_dir("file-in-the-way");
        fs::create_dir_all(dir.parent().unwrap()).unwrap();
        fs::write(&dir, b"not a directory").unwrap();
        let err = ensure_writable(&dir).unwrap_err();
        assert!(
            err.contains("cannot create output directory") || err.contains("is not writable"),
            "{err}"
        );
        fs::remove_file(&dir).unwrap();
    }
}
