//! Determinism and shape of the client-load saturation sweep.
//!
//! The `load` experiment is schema v5's headline: the same seeded loaded
//! grid must serialize byte-identically for every worker-thread count, and
//! its throughput–latency curve must have the saturation shape — goodput
//! tracks the offered rate in the linear region, then plateaus at the
//! pipeline capacity while the submit→commit percentiles inflate.
//!
//! Both tests run miniature grids (short horizons, few protocols): the full
//! quick grid is exercised in release mode by CI's `lumiere-bench all`
//! runs; in debug builds it would dominate the whole suite's wall clock.

use lumiere_bench::experiments::{grid, ExperimentScale, Sweep};
use lumiere_bench::report::{write_json, SweepCell};
use lumiere_sim::metrics::SimReport;
use lumiere_sim::scenario::{ProtocolKind, SimConfig};
use lumiere_sim::WorkloadConfig;
use lumiere_types::Duration;
use std::fs;
use std::path::PathBuf;

const SEED: u64 = 29;

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("lumiere-load-sweep-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The `load` experiment's scenario at one grid point. Small batches pull
/// the pipeline's capacity down into the test's rate grid so saturation is
/// reachable with short horizons.
fn loaded_config(protocol: ProtocolKind, rate: u64, horizon_ms: i64) -> SimConfig {
    SimConfig::new(protocol, 4)
        .with_delta(Duration::from_millis(10))
        .with_actual_delay(Duration::from_millis(1))
        .with_horizon(Duration::from_millis(horizon_ms))
        .with_max_honest_qcs(100_000)
        .with_workload(WorkloadConfig::constant(rate).with_batch_txs(8))
        .with_seed(SEED)
}

fn sweep_cells(threads: usize) -> Vec<SweepCell> {
    let mut cells = Vec::new();
    Sweep {
        slug: "tiny_load",
        scale: ExperimentScale::Quick,
        threads,
        seed: SEED,
        header: Vec::new(),
        jobs: grid(
            &[ProtocolKind::Lumiere, ProtocolKind::Lp22],
            &[400u64, 1_600],
        ),
    }
    .run(
        &mut cells,
        |&(protocol, rate)| loaded_config(protocol, rate, 1_000),
        |&(_, rate)| format!("rate{rate:06}"),
        |_, _| None,
    );
    cells
}

#[test]
fn load_sweep_is_byte_identical_across_thread_counts() {
    let cell_sets: Vec<_> = [1usize, 2, 8].into_iter().map(sweep_cells).collect();
    for (i, cells) in cell_sets.iter().enumerate() {
        assert!(
            cells.iter().all(|c| c.report.txs_committed > 0),
            "thread count #{i}: a loaded cell committed no transactions"
        );
    }

    let dirs: Vec<_> = (0..cell_sets.len())
        .map(|i| temp_dir(&format!("threads{i}")))
        .collect();
    let path_sets: Vec<_> = dirs
        .iter()
        .zip(&cell_sets)
        .map(|(dir, cells)| write_json(dir, cells, |_, cell| cell.filename()).unwrap())
        .collect();
    for paths in &path_sets[1..] {
        assert_eq!(path_sets[0].len(), paths.len());
        for (a, b) in path_sets[0].iter().zip(paths) {
            assert_eq!(a.file_name(), b.file_name());
            assert_eq!(
                fs::read(a).unwrap(),
                fs::read(b).unwrap(),
                "{} differs across thread counts",
                a.display()
            );
        }
    }
    for dir in dirs {
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn saturation_curve_is_monotone_with_a_knee() {
    let rates = [100u64, 400, 1_600, 6_400];
    let reports: Vec<SimReport> = rates
        .iter()
        .map(|&r| loaded_config(ProtocolKind::Lumiere, r, 2_000).run())
        .collect();

    for (rate, report) in rates.iter().zip(&reports) {
        assert!(
            report.txs_submitted > 0 && report.txs_committed > 0,
            "rate {rate}: no transactions moved through the pipeline"
        );
        assert!(
            report.txs_committed <= report.txs_submitted,
            "rate {rate}: committed more than was submitted"
        );
        assert!(
            report.tx_latency_p50 <= report.tx_latency_p95
                && report.tx_latency_p95 <= report.tx_latency_p99,
            "rate {rate}: percentile ordering violated"
        );
    }

    // Monotone rising edge: goodput must not decrease as the offered rate
    // grows (a small tolerance absorbs end-of-horizon boundary effects).
    let goodput: Vec<f64> = reports.iter().map(|r| r.goodput_tps()).collect();
    for (i, pair) in goodput.windows(2).enumerate() {
        assert!(
            pair[1] >= pair[0] * 0.95,
            "goodput fell from {:.0} to {:.0} tx/s between offered rates {} and {}",
            pair[0],
            pair[1],
            rates[i],
            rates[i + 1]
        );
    }

    // The knee: in the linear region goodput tracks the offered rate, but
    // the top of the grid must exceed the pipeline's capacity — goodput
    // stops tracking and queueing delay inflates the tail latency.
    let first = &reports[0];
    assert!(
        first.goodput_tps() >= rates[0] as f64 * 0.8,
        "rate {}: goodput {:.0} tx/s is far below the offered rate — the \
         linear region is missing",
        rates[0],
        first.goodput_tps()
    );
    let last = &reports[reports.len() - 1];
    let saturated = last.goodput_tps() < rates[rates.len() - 1] as f64 * 0.8;
    assert!(
        saturated,
        "rate {}: goodput {:.0} tx/s still tracks the offered rate — the \
         grid never reaches saturation",
        rates[rates.len() - 1],
        last.goodput_tps()
    );
    assert!(
        last.tx_latency_p99 > first.tx_latency_p99,
        "saturation did not inflate the p99 latency ({:?} -> {:?})",
        first.tx_latency_p99,
        last.tx_latency_p99
    );
}
