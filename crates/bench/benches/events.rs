//! End-to-end simulator throughput in **events per second** — the metric
//! the scale work optimizes. Each benchmark runs one complete bounded
//! simulation and declares its (deterministic) event count as the
//! iteration's throughput, so the shim reports events/sec.
//!
//! Three scenarios, all at n = 256 so a release iteration stays in the
//! tens of milliseconds under CI's reduced measurement budget:
//!
//! * `steady/symbolic` — fault-free steady state under the default
//!   symbolic-broadcast representation (the production configuration);
//! * `steady/eager` — the same simulation with eager per-recipient queue
//!   entries, so the symbolic representation's win (or any regression of
//!   it) is visible as the ratio between the two;
//! * `worst/symbolic` — the scale experiment's worst-case scenario (silent
//!   leaders, all delays = Δ), which stresses view changes and the
//!   adversary's per-edge gating rather than the happy path.
//!
//! `SimReport::events_processed` is identical across execution options
//! (part of the byte-identical report guarantee), so every variant of a
//! scenario shares one element count and the events/sec figures compare
//! directly.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lumiere_bench::experiments::worst_case_byzantine_ids;
use lumiere_sim::runner::{BroadcastMode, ExecOptions};
use lumiere_sim::scenario::{ProtocolKind, SimConfig};
use lumiere_sim::ByzBehavior;
use lumiere_types::{Duration, Time};

const N: usize = 256;
const SEED: u64 = 42;

/// Fault-free steady state: δ = 1 ms, bounded by a QC cap so the run's
/// length (and so its event count) is seed-deterministic.
fn steady_cfg() -> SimConfig {
    SimConfig::new(ProtocolKind::Lumiere, N)
        .with_delta(Duration::from_millis(10))
        .with_actual_delay(Duration::from_millis(1))
        .with_horizon(Duration::from_millis(1_200))
        .with_max_honest_qcs(24)
        .with_seed(SEED)
}

/// The scale experiment's worst case: `min(f, 8)` silent leaders on the
/// first leader slots, every delivery delayed exactly Δ.
fn worst_cfg() -> SimConfig {
    let f = (N - 1) / 3;
    let byz: Vec<usize> = worst_case_byzantine_ids(ProtocolKind::Lumiere, N, SEED)
        .into_iter()
        .take(f.min(8))
        .collect();
    SimConfig::new(ProtocolKind::Lumiere, N)
        .with_delta(Duration::from_millis(10))
        .with_adversarial_delay()
        .with_gst(Time::from_millis(200))
        .with_faulty_ids(byz, ByzBehavior::SilentLeader)
        .with_horizon(Duration::from_secs(8))
        .with_max_honest_qcs(3)
        .with_seed(SEED)
}

fn exec(broadcast: BroadcastMode) -> ExecOptions {
    // Shards left on auto: the bench measures the production configuration
    // of the machine it runs on; the gate normalizes across machines.
    ExecOptions::default().with_broadcast(broadcast)
}

fn bench_events(c: &mut Criterion) {
    let mut group = c.benchmark_group("events");
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_secs(1));
    let cases = [
        ("steady/symbolic", steady_cfg(), BroadcastMode::Symbolic),
        ("steady/eager", steady_cfg(), BroadcastMode::Eager),
        ("worst/symbolic", worst_cfg(), BroadcastMode::Symbolic),
    ];
    for (name, cfg, broadcast) in cases {
        // One pilot run pins the deterministic event count this scenario
        // processes — the element count behind the events/sec figure.
        let pilot = cfg.clone().run_with(exec(broadcast));
        assert!(!pilot.truncated, "{name}: bench scenario truncated");
        assert!(pilot.events_processed > 0, "{name}: no events processed");
        group.throughput(Throughput::Elements(pilot.events_processed));
        group.bench_function(format!("{name}/n{N}"), |b| {
            b.iter(|| {
                let report = cfg.clone().run_with(exec(broadcast));
                assert!(report.safety_ok);
                report.events_processed
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_events);
criterion_main!(benches);
