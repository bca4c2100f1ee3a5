//! The parallel sweep pipeline must be deterministic end to end: the same
//! grid swept with 2 and with 8 worker threads has to produce byte-identical
//! report files, and the loader must round-trip every one of them. (The
//! release-mode equivalent over the real experiments is exercised in CI via
//! `lumiere-bench all --out ... --threads N`.)

use lumiere_bench::experiments::{grid, ExperimentScale, Sweep};
use lumiere_bench::report::{diff_cells, read_json, write_json, SweepCell};
use lumiere_sim::scenario::{ProtocolKind, SimConfig};
use lumiere_sim::StrategyKind;
use lumiere_types::Duration;
use std::fs;
use std::path::{Path, PathBuf};

fn write_cells(dir: &Path, cells: &[SweepCell]) -> Vec<PathBuf> {
    write_json(dir, cells, |_, cell| cell.filename()).unwrap()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "lumiere-parallel-sweep-{}-{name}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A miniature but real grid through the runner the experiments use: every
/// protocol at n ∈ {4, 7}, one silent leader at n = 7, short horizons so the
/// whole grid finishes in seconds even unoptimized.
fn sweep_cells(threads: usize) -> Vec<SweepCell> {
    let mut cells = Vec::new();
    let table = Sweep {
        slug: "tiny_sweep",
        scale: ExperimentScale::Quick,
        threads,
        seed: 42,
        header: vec!["protocol", "n", "decisions"],
        jobs: grid(&ProtocolKind::all(), &[4usize, 7]),
    }
    .run(
        &mut cells,
        |&(protocol, n)| {
            let f_a = usize::from(n >= 7);
            SimConfig::new(protocol, n)
                .with_delta(Duration::from_millis(10))
                .with_actual_delay(Duration::from_millis(1))
                .with_faults(f_a, StrategyKind::SilentLeader)
                .with_horizon(Duration::from_secs(4))
                .with_max_honest_qcs(12)
        },
        |&(_, n)| format!("n{n:03}"),
        |&(protocol, n), report| {
            Some(vec![
                protocol.name().to_string(),
                n.to_string(),
                report.decisions().to_string(),
            ])
        },
    );
    assert_eq!(table.lines().count(), 2 + cells.len(), "one row per cell");
    cells
}

#[test]
fn two_and_eight_thread_sweeps_write_byte_identical_files() {
    let dir2 = temp_dir("threads2");
    let dir8 = temp_dir("threads8");
    let paths2 = write_cells(&dir2, &sweep_cells(2));
    let paths8 = write_cells(&dir8, &sweep_cells(8));

    assert_eq!(paths2.len(), paths8.len());
    assert!(!paths2.is_empty());
    for (p2, p8) in paths2.iter().zip(&paths8) {
        assert_eq!(p2.file_name(), p8.file_name());
        let bytes2 = fs::read(p2).unwrap();
        let bytes8 = fs::read(p8).unwrap();
        assert_eq!(
            bytes2,
            bytes8,
            "{} differs between 2-thread and 8-thread sweeps",
            p2.display()
        );
    }

    // The loader round-trips every file and sees no difference at all.
    let set2: Vec<SweepCell> = read_json(&dir2).unwrap();
    let set8: Vec<SweepCell> = read_json(&dir8).unwrap();
    assert_eq!(set2.len(), paths2.len());
    let diff = diff_cells(&set2, &set8);
    assert!(diff.is_empty(), "unexpected diff:\n{}", diff.render());

    fs::remove_dir_all(&dir2).unwrap();
    fs::remove_dir_all(&dir8).unwrap();
}

#[test]
fn loaded_cells_match_the_in_memory_sweep() {
    let dir = temp_dir("reload");
    let cells = sweep_cells(4);
    write_cells(&dir, &cells);
    let loaded: Vec<SweepCell> = read_json(&dir).unwrap();
    // `read_json` sorts by file name; align by key before comparing.
    let mut expected = cells;
    expected.sort_by_key(|c| c.filename());
    assert_eq!(loaded, expected);
    fs::remove_dir_all(&dir).unwrap();
}
