//! JSON round-trip property tests: serialize → deserialize must be the
//! identity for every persistable simulation artifact ([`SimReport`],
//! [`Trace`], [`SimConfig`]), in both the compact and the pretty rendering.
//! These guard the vendored serde shim's data model, derive expansion, JSON
//! writer and JSON parser all at once, over randomized inputs. Configs
//! written before the run configuration lost six keys still load.

use lumiere_sim::metrics::{MetricsCollector, SimReport};
use lumiere_sim::scenario::{ProtocolKind, SimConfig};
use lumiere_sim::trace::{Trace, TraceKind};
use lumiere_sim::{
    AdversarySchedule, DelayModel, DelayRule, EdgeClass, MsgClass, StrategyKind, WorkloadConfig,
};
use lumiere_types::{Duration, ProcessId, Time, TimeRange, View};
use proptest::collection;
use proptest::prelude::*;
use serde::json;

fn protocol_from_index(i: usize) -> ProtocolKind {
    let all = ProtocolKind::all();
    all[i % all.len()]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// A `SimReport` assembled from arbitrary event streams survives the
    /// full JSON round trip unchanged.
    #[test]
    fn sim_reports_round_trip(
        n in 4usize..30,
        f_a in 0usize..9,
        delta_us in 1i64..100_000,
        gst_us in 0i64..1_000_000,
        end_us in 0i64..10_000_000,
        sends in collection::vec((0i64..1_000_000, 1usize..5, 0u32..2), 0..30),
        qcs in collection::vec((0i64..1_000_000, -1i64..200, 0usize..30, 0u32..2), 0..20),
        commits in collection::vec((0i64..1_000_000, 0u64..40), 0..20),
        heavies in collection::vec((0i64..1_000_000, 0i64..200), 0..10),
        gaps in collection::vec((0i64..1_000_000, -1_000i64..100_000), 0..10),
        grid_us in 0i64..50_000,
    ) {
        let f = (n - 1) / 3;
        let mut collector = MetricsCollector::new(
            format!("proto-{n}"),
            n,
            f,
            f_a.min(f),
            Duration::from_micros(delta_us),
            Time::from_micros(gst_us),
        )
        .with_time_grid(Duration::from_micros(grid_us));
        for (at, count, heavy) in sends {
            collector.record_honest_sends(Time::from_micros(at), count, heavy == 1);
        }
        for (at, view, leader, honest) in qcs {
            collector.record_qc(
                Time::from_micros(at),
                View::new(view),
                ProcessId::new(leader),
                honest == 1,
            );
        }
        for (at, height) in commits {
            collector.record_commit(Time::from_micros(at), height);
        }
        for (at, view) in heavies {
            collector.record_heavy_sync(Time::from_micros(at), View::new(view));
        }
        for (at, gap_us) in gaps {
            collector.record_gap_sample(Time::from_micros(at), Duration::from_micros(gap_us));
        }
        let report = collector.finish(Time::from_micros(end_us));

        let compact = json::to_string(&report);
        prop_assert_eq!(&json::from_str::<SimReport>(&compact).unwrap(), &report);
        let pretty = json::to_string_pretty(&report);
        prop_assert_eq!(&json::from_str::<SimReport>(&pretty).unwrap(), &report);
        // Both renderings describe the same value tree.
        prop_assert_eq!(json::parse(&compact).unwrap(), json::parse(&pretty).unwrap());
    }

    /// A `Trace` with arbitrary events survives the JSON round trip
    /// unchanged (all four `TraceKind` variants included).
    #[test]
    fn traces_round_trip(
        events in collection::vec((0i64..1_000_000, 0usize..40, 0u32..4, 0i64..300), 0..60),
    ) {
        let mut trace = Trace::new();
        for (at, node, kind, payload) in events {
            let kind = match kind {
                0 => TraceKind::EnteredView(View::new(payload)),
                1 => TraceKind::QcFormed(View::new(payload)),
                2 => TraceKind::HeavySync(View::new(payload)),
                _ => TraceKind::Committed(payload as u64),
            };
            trace.push(Time::from_micros(at), ProcessId::new(node), kind);
        }
        let compact = json::to_string(&trace);
        prop_assert_eq!(&json::from_str::<Trace>(&compact).unwrap(), &trace);
        let pretty = json::to_string_pretty(&trace);
        prop_assert_eq!(&json::from_str::<Trace>(&pretty).unwrap(), &trace);
    }

    /// Scenario configurations (including optional fields and every enum in
    /// the config tree) round-trip unchanged.
    #[test]
    fn sim_configs_round_trip(
        proto_idx in 0usize..6,
        n in 4usize..30,
        behavior_idx in 0u32..3,
        explicit_ids in 0u32..2,
        delay_kind in 0u32..3,
        gst_ms in 0i64..1_000,
        horizon_ms in 1i64..100_000,
        limit in 0usize..100,
        seed in 0u64..1_000_000,
    ) {
        let f = (n - 1) / 3;
        let behavior = match behavior_idx {
            0 => StrategyKind::Crash,
            1 => StrategyKind::SilentLeader,
            _ => StrategyKind::SyncSilent,
        };
        let mut config = SimConfig::new(protocol_from_index(proto_idx), n)
            .with_gst(Time::from_millis(gst_ms))
            .with_horizon(Duration::from_millis(horizon_ms))
            .with_seed(seed);
        config = if explicit_ids == 1 {
            config.with_faulty_ids((0..f).collect(), behavior)
        } else {
            config.with_faults(f, behavior)
        };
        config = match delay_kind {
            0 => config.with_actual_delay(Duration::from_millis(1)),
            1 => config.with_adversarial_delay(),
            _ => config.with_uniform_delay(Duration::from_millis(1), Duration::from_millis(5)),
        };
        if limit > 0 {
            config = config.with_max_honest_qcs(limit);
        }
        if seed % 2 == 0 {
            config = config.with_workload(WorkloadConfig::constant(seed % 5_000).with_batch_txs(n));
        }
        let compact = json::to_string(&config);
        prop_assert_eq!(&json::from_str::<SimConfig>(&compact).unwrap(), &config);
        let pretty = json::to_string_pretty(&config);
        prop_assert_eq!(&json::from_str::<SimConfig>(&pretty).unwrap(), &config);
    }

    /// Adversary schedules — every strategy kind, every edge/message class,
    /// windowed delay rules — round-trip unchanged, standalone and embedded
    /// in a `SimConfig`.
    #[test]
    fn adversary_schedules_round_trip(
        n in 7usize..32,
        corruptions in collection::vec((0u32..5, 0i64..400, 20i64..600), 0..3),
        rules in collection::vec((0u32..5, 0u32..3, 0u32..3, 0i64..500), 0..3),
        seed in 0u64..1_000_000,
    ) {
        let f = (n - 1) / 3;
        let mut schedule = AdversarySchedule::new();
        for (i, (kind, from_ms, len_ms)) in corruptions.into_iter().take(f).enumerate() {
            let strategy = match kind {
                0 => StrategyKind::Crash,
                1 => StrategyKind::SilentLeader,
                2 => StrategyKind::SyncSilent,
                3 => StrategyKind::Equivocate,
                _ => StrategyKind::CrashRecovery {
                    down: TimeRange::new(
                        Time::from_millis(from_ms),
                        Time::from_millis(from_ms + len_ms),
                    ),
                },
            };
            schedule = schedule.corrupt(n - 1 - i, strategy);
        }
        for (edge, msg, delay, window_ms) in rules {
            let edge = EdgeClass::ALL[edge as usize % EdgeClass::ALL.len()];
            let msg = MsgClass::ALL[msg as usize % MsgClass::ALL.len()];
            let delay = match delay {
                0 => DelayModel::AdversarialMax,
                1 => DelayModel::Fixed { delta: Duration::from_millis(2) },
                _ => DelayModel::Uniform {
                    min: Duration::from_millis(1),
                    max: Duration::from_millis(6),
                },
            };
            schedule = schedule.rule(DelayRule {
                edge,
                msg,
                window: TimeRange::new(
                    Time::from_millis(window_ms),
                    Time::from_millis(window_ms + 700),
                ),
                delay,
            });
        }
        let compact = json::to_string(&schedule);
        prop_assert_eq!(&json::from_str::<AdversarySchedule>(&compact).unwrap(), &schedule);
        let pretty = json::to_string_pretty(&schedule);
        prop_assert_eq!(&json::from_str::<AdversarySchedule>(&pretty).unwrap(), &schedule);

        let config = SimConfig::new(ProtocolKind::Lumiere, n)
            .with_seed(seed)
            .with_adversary(schedule);
        let compact = json::to_string(&config);
        prop_assert_eq!(&json::from_str::<SimConfig>(&compact).unwrap(), &config);
    }
}

/// A real (non-synthetic) simulation report also round-trips — the proptest
/// fixtures above could in principle miss a shape the simulator produces.
#[test]
fn a_real_simulation_report_round_trips() {
    let (report, trace) = SimConfig::new(ProtocolKind::Lumiere, 7)
        .with_delta(Duration::from_millis(10))
        .with_actual_delay(Duration::from_millis(1))
        .with_faults(2, StrategyKind::SilentLeader)
        .with_horizon(Duration::from_secs(3))
        .with_max_honest_qcs(20)
        .with_seed(42)
        .run_with_trace();
    assert!(!report.qc_events.is_empty());
    assert!(!trace.events().is_empty());

    let report_json = json::to_string_pretty(&report);
    assert_eq!(json::from_str(&report_json), Ok(report));
    let trace_json = json::to_string_pretty(&trace);
    assert_eq!(json::from_str(&trace_json), Ok(trace));
}

/// A sampled run (`n` at [`SimConfig::SAMPLED_FROM_N`]): its report carries
/// a non-zero metrics grid and its trace no view entries, and both
/// round-trip.
#[test]
fn a_sampled_simulation_report_round_trips() {
    let n = SimConfig::SAMPLED_FROM_N;
    let (report, trace) = SimConfig::new(ProtocolKind::Lumiere, n)
        .with_delta(Duration::from_millis(10))
        .with_actual_delay(Duration::from_millis(1))
        .with_max_honest_qcs(4)
        .run_with_trace();
    assert!(report.metrics_grid > Duration::ZERO, "n = {n} is sampled");
    assert!(!report.honest_msg_times.is_empty());
    assert!(!trace.events().is_empty());
    assert!(trace
        .events()
        .iter()
        .all(|e| !matches!(e.kind, TraceKind::EnteredView(_))));
    let report_json = json::to_string(&report);
    assert_eq!(json::from_str(&report_json), Ok(report));
    let trace_json = json::to_string(&trace);
    assert_eq!(json::from_str(&trace_json), Ok(trace));
}

/// A config as written before `f_a`, `record_trace`, `sample_metrics_above`
/// and the workload's `tx_bytes`, `profile` and `max_block_bytes` were
/// deleted (corpus entries and findings carry it): it loads, the six keys
/// are ignored, and it equals the same config built today, which writes
/// none of them.
#[test]
fn a_config_with_the_deleted_keys_loads_as_its_twin() {
    let old = r#"{
  "protocol": "Lumiere",
  "n": 7,
  "f_a": 2,
  "delta_cap": 10000,
  "delay": {
    "Uniform": {
      "min": 1000,
      "max": 3000
    }
  },
  "gst": 0,
  "horizon": 10000000,
  "max_honest_qcs": 25,
  "seed": 11,
  "record_trace": true,
  "sample_metrics_above": 8,
  "adversary": {
    "corruptions": [
      {
        "node": 5,
        "strategy": "Crash"
      },
      {
        "node": 6,
        "strategy": "Crash"
      }
    ],
    "delay_rules": []
  },
  "planted_bug": null,
  "workload": {
    "rate_tps": 1500,
    "tx_bytes": 256,
    "profile": "Constant",
    "batch_txs": 32,
    "max_block_bytes": 524288,
    "capacity": 100000
  }
}"#;
    let twin = SimConfig::new(ProtocolKind::Lumiere, 7)
        .with_delta(Duration::from_millis(10))
        .with_uniform_delay(Duration::from_millis(1), Duration::from_millis(3))
        .with_faults(2, StrategyKind::Crash)
        .with_max_honest_qcs(25)
        .with_seed(11)
        .with_workload(WorkloadConfig::constant(1_500).with_batch_txs(32));
    let loaded: SimConfig = json::from_str(old).unwrap();
    assert_eq!(loaded, twin);
    assert_eq!(loaded.f_a(), 2);
    let written = json::to_string_pretty(&twin);
    for key in [
        "f_a",
        "record_trace",
        "sample_metrics_above",
        "tx_bytes",
        "profile",
        "max_block_bytes",
    ] {
        assert!(
            !written.contains(&format!("\"{key}\"")),
            "{key} is still written"
        );
    }
}
