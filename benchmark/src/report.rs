//! Turns a run into named metrics and prints them.
//!
//! The tables here are the benchmark's contract: `BENCHMARK.json` lists the
//! same names, units, directions and bounds (a unit test holds the two
//! together).

use crate::run::{peak_rss_mb, run_units, RunData, Tracing};
use crate::stats::{self, ratio};
use crate::workload::Workload;
use crate::Options;
use serde::{json, Value};
use std::time::Instant;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric's declaration.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Relative worsening that counts as a regression.
    pub bound: f64,
    /// Whether the value is a pure function of code and seed (virtual time
    /// and counts): two runs with one seed must agree to the last digit.
    pub exact: bool,
}

/// Every end-to-end metric; every workload reports all of them.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.1,
        exact: false,
    },
    EndToEnd {
        name: "vlat_ms_p50",
        unit: "virtual_ms",
        better: Better::Lower,
        bound: 0.05,
        exact: true,
    },
    EndToEnd {
        name: "vlat_ms_tail",
        unit: "virtual_ms",
        better: Better::Lower,
        bound: 0.01,
        exact: true,
    },
    EndToEnd {
        name: "msgs_per_commit",
        unit: "count",
        better: Better::Lower,
        bound: 0.001,
        exact: true,
    },
    EndToEnd {
        name: "auth_bytes_per_commit",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.001,
        exact: true,
    },
];

/// A measured value with its unit.
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value, with all its digits.
    pub value: f64,
}

/// The seven end-to-end metrics of a run, in [`END_TO_END`] order.
pub fn end_to_end(data: &RunData) -> Vec<Metric> {
    let counts = data.counts.clone().unwrap_or_default();
    let values = [
        stats::fast5(&data.column(|s| s.build_ns)) / 1e9,
        counts.work as f64 / (data.run_fast5_ns() / 1e9),
        peak_rss_mb(),
        counts.vlat_p50_us as f64 / 1e3,
        counts.vlat_tail_us as f64 / 1e3,
        ratio(counts.msgs as f64, counts.commits as f64),
        ratio(counts.auth_bytes as f64, counts.commits as f64),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(decl, value)| Metric {
            name: decl.name,
            unit: decl.unit,
            value,
        })
        .collect()
}

/// Diagnostics about the run itself: the estimator beside the statistics it
/// was chosen over, and whether the machine was visibly busy.
pub struct Harness {
    /// `fast5` of unit execution time, ms.
    pub unit_ms_fast5: f64,
    /// Median unit execution time, ms.
    pub unit_ms_p50: f64,
    /// 90th-percentile unit execution time, ms.
    pub unit_ms_p90: f64,
    /// Mean unit execution time, ms.
    pub unit_ms_mean: f64,
    /// `p50 / fast5`: 1.0 on a quiet machine.
    pub noise_ratio: f64,
}

/// Above this `p50 / fast5` the run is flagged `noisy` (still reported).
pub const NOISY_ABOVE: f64 = 1.15;

impl Harness {
    /// Summarizes a run's unit execution times.
    pub fn of(data: &RunData) -> Self {
        let run_ns = data.run_ns();
        let fast5 = stats::fast5(&run_ns);
        let p50 = stats::percentile(&run_ns, 50);
        Harness {
            unit_ms_fast5: fast5 / 1e6,
            unit_ms_p50: p50 / 1e6,
            unit_ms_p90: stats::percentile(&run_ns, 90) / 1e6,
            unit_ms_mean: stats::mean(&run_ns) / 1e6,
            noise_ratio: p50 / fast5,
        }
    }
}

fn float_map(entries: &[(&str, f64)]) -> Value {
    Value::Map(
        entries
            .iter()
            .map(|(k, v)| (k.to_string(), Value::Float(*v)))
            .collect(),
    )
}

/// The diagnostics object printed before the result line.
pub fn diagnostics(data: &RunData, options: &Options, cold_start_s: f64, wall_s: f64) -> Value {
    let harness = Harness::of(data);
    let counts = data.counts.clone().unwrap_or_default();
    let counts = [
        ("work_per_unit", counts.work),
        ("commits_per_unit", counts.commits),
        ("msgs_per_unit", counts.msgs),
        ("auth_bytes_per_unit", counts.auth_bytes),
        ("vlat_samples_per_unit", counts.vlat_samples),
        ("verify_ops_per_unit", counts.verify_ops),
        ("txs_submitted_per_unit", counts.txs_submitted),
        ("txs_committed_per_unit", counts.txs_committed),
        ("tx_recommits_per_unit", counts.tx_recommits),
        ("frame_bytes_per_unit", counts.frame_bytes),
    ];
    Value::Map(vec![
        ("workload".into(), Value::Str(data.workload.name().into())),
        ("seed".into(), Value::UInt(options.seed)),
        ("units".into(), Value::UInt(data.attempted)),
        ("ops_attempted".into(), Value::UInt(data.attempted)),
        ("ops_failed".into(), Value::UInt(data.failed)),
        (
            "first_failure".into(),
            data.first_failure.clone().map_or(Value::Null, Value::Str),
        ),
        (
            "harness".into(),
            float_map(&[
                ("unit_ms_fast5", harness.unit_ms_fast5),
                ("unit_ms_p50", harness.unit_ms_p50),
                ("unit_ms_p90", harness.unit_ms_p90),
                ("unit_ms_mean", harness.unit_ms_mean),
                ("noise_ratio", harness.noise_ratio),
                (
                    "check_ms_fast5",
                    stats::fast5(&data.column(|s| s.check_ns)) / 1e6,
                ),
                ("cold_start_s", cold_start_s),
                ("wall_s", wall_s),
            ]),
        ),
        (
            "noisy".into(),
            Value::Bool(harness.noise_ratio > NOISY_ABOVE),
        ),
        (
            "per_unit_counts".into(),
            Value::Map(
                counts
                    .iter()
                    .map(|(k, v)| (k.to_string(), Value::UInt(*v)))
                    .collect(),
            ),
        ),
    ])
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(data: &RunData, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let entry = Value::Map(vec![
                ("value".into(), Value::Float(m.value)),
                ("unit".into(), Value::Str(m.unit.into())),
            ]);
            (m.name.to_string(), entry)
        })
        .collect();
    json::to_string(&Value::Map(vec![
        ("correct".into(), Value::Bool(data.failed == 0)),
        ("attempted".into(), Value::UInt(data.attempted)),
        ("failed".into(), Value::UInt(data.failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]))
}

/// The fault-free simulator run `wire_mesh` is printed beside: same cluster
/// size, hop delay and client rate. Informational — the simulator delivers
/// in `(time, seq)` order and the mesh host per round, so no equality is
/// asserted.
fn sim_parity(seed: u64) -> Value {
    use crate::workload::{exec_options, DELTA};
    use lumiere_sim::{ProtocolKind, SimConfig, WorkloadConfig};
    use lumiere_types::Duration;
    let report = SimConfig::new(ProtocolKind::Lumiere, crate::mesh::N)
        .with_delta(DELTA)
        .with_actual_delay(Duration::from_millis(1))
        .with_seed(seed)
        .with_max_honest_qcs(crate::mesh::TARGET_COMMITS as usize + 2)
        .with_workload(WorkloadConfig::constant(1_000 * crate::mesh::TXS_PER_ROUND))
        .run_with(exec_options());
    float_map(&[
        (
            "sim_msgs_per_commit",
            ratio(report.total_messages() as f64, report.decisions() as f64),
        ),
        (
            "sim_tx_latency_ms_p50",
            report.tx_latency_p50.as_millis_f64(),
        ),
    ])
}

/// The untraced run: prints diagnostics, then the end-to-end result line.
pub fn plain_run(workload: Workload, options: &Options, started: Instant) -> bool {
    let cold_start_s = started.elapsed().as_secs_f64();
    let data = run_units(
        workload,
        options.seed,
        workload.units_for(options.seconds),
        Tracing::Off,
    );
    let wall_s = started.elapsed().as_secs_f64() - cold_start_s;
    let metrics = end_to_end(&data);
    println!(
        "{}",
        json::to_string(&diagnostics(&data, options, cold_start_s, wall_s))
    );
    if workload == Workload::WireMesh {
        println!("{}", json::to_string(&sim_parity(options.seed)));
    }
    println!("{}", result_line(&data, &metrics));
    data.failed == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables in this crate describe one contract.
    #[test]
    fn benchmark_json_matches_the_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_seq)
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Value::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(
            names("workloads"),
            Workload::ALL.map(|w| w.name().to_string())
        );
        assert_eq!(
            names("per_layer"),
            crate::layers::PER_LAYER.map(|m| m.name.to_string())
        );
        let declared = doc
            .get("end_to_end")
            .and_then(Value::as_seq)
            .expect("end_to_end");
        assert_eq!(declared.len(), END_TO_END.len());
        for (entry, decl) in declared.iter().zip(&END_TO_END) {
            let field = |k: &str| entry.get(k).and_then(Value::as_str).expect("string field");
            assert_eq!(field("name"), decl.name);
            assert_eq!(field("unit"), decl.unit);
            assert_eq!(field("better"), decl.better.name());
            assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(decl.bound));
        }
        for (entry, decl) in doc
            .get("per_layer")
            .and_then(Value::as_seq)
            .expect("per_layer")
            .iter()
            .zip(&crate::layers::PER_LAYER)
        {
            let field = |k: &str| entry.get(k).and_then(Value::as_str).expect("string field");
            assert_eq!(field("unit"), decl.unit, "{}", decl.name);
            assert_eq!(field("better"), decl.better.name(), "{}", decl.name);
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_u64),
            Some(crate::workload::NOMINAL_SECONDS)
        );
    }
}
