//! The traced run: per-layer metrics and the "where the time goes" table.
//!
//! `trace --workload W` (or `run --trace 1`) runs W with every second unit
//! recording spans — traced and untraced units alternate, so both see the
//! same machine and the ratio of their `fast5`s is the tracing overhead —
//! then runs the micro-probes, writes
//! `benchmark/out/trace-W.json`, prints the layer table and ends with the
//! result line holding every per-layer metric. End-to-end metrics never
//! come from here.
//!
//! Three kinds of per-layer value:
//! * `_ns` / `_us`: a micro-probe's per-call cost ([`crate::probes`]);
//! * `_busy_ms`: span self time per unit, averaged over the five fastest
//!   traced units (`wire_mesh` only — spans inside `Simulation::run` need
//!   in-program tracing, a later change);
//! * `est_share`: a count taken from the unit × the probe's cost ÷ the
//!   unit's `fast5` — an estimate of the share of `work_per_s` a layer
//!   holds, which is also the most a faster layer could win back, because
//!   every workload is a closed, single-threaded loop.

use crate::mesh::Phase;
use crate::probes;
use crate::report::{result_line, Better, Harness, Metric};
use crate::run::{run_units, RunData, Tracing};
use crate::stats::{self, ratio};
use crate::trace::Tracer;
use crate::workload::{build_sim, Workload};
use crate::Options;
use serde::json;
use std::hint::black_box;
use std::time::Instant;

/// A per-layer metric's declaration.
pub struct PerLayer {
    /// `layer.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric, in the order the traced run reports them.
pub const PER_LAYER: [PerLayer; 50] = [
    lower("crypto.sign_ns", "ns"),
    lower("crypto.verify_ns", "ns"),
    lower("crypto.aggregate_q_ns", "ns"),
    lower("crypto.verify_aggregate_q_ns", "ns"),
    lower("crypto.verify_ops_per_unit", "count"),
    lower("crypto.est_share", "ratio"),
    lower("consensus.on_proposal_ns", "ns"),
    lower("consensus.on_vote_ns", "ns"),
    lower("consensus.qc_aggregate_ns", "ns"),
    lower("consensus.qc_verify_ns", "ns"),
    lower("core.lumiere_on_qc_ns", "ns"),
    lower("core.lumiere_on_msg_ns", "ns"),
    lower("core.lumiere_on_wake_ns", "ns"),
    lower("core.mempool_submit_ns", "ns"),
    lower("core.mempool_next_batch_ns", "ns"),
    lower("core.mempool_mark_committed_drained_ns", "ns"),
    lower("core.mempool_mark_committed_backlog_ns", "ns"),
    lower("types.batch_digest_ns", "ns"),
    lower("runtime.encode_busy_ms", "ms"),
    lower("runtime.decode_busy_ms", "ms"),
    lower("runtime.deliver_consensus_busy_ms", "ms"),
    lower("runtime.deliver_pacemaker_busy_ms", "ms"),
    lower("runtime.deliver_submit_busy_ms", "ms"),
    lower("runtime.wake_busy_ms", "ms"),
    lower("runtime.host_residual_ms", "ms"),
    lower("runtime.frames_per_unit", "count"),
    lower("runtime.encode_ns_per_frame", "ns"),
    lower("runtime.decode_ns_per_frame", "ns"),
    lower("runtime.frame_bytes_per_commit", "bytes"),
    higher("runtime.wire_size_ratio", "ratio"),
    lower("runtime.channel_roundtrip_us", "us"),
    lower("runtime.tcp_roundtrip_us", "us"),
    lower("sim.build_ms", "ms"),
    lower("sim.events_per_unit", "count"),
    lower("sim.queue_push_pop_ns", "ns"),
    lower("sim.queue_broadcast_ns_per_recipient", "ns"),
    lower("sim.metrics_record_ns", "ns"),
    lower("sim.report_finish_ms", "ms"),
    lower("sim.report_json_ms", "ms"),
    lower("sim.arrivals_gen_ms", "ms"),
    lower("sim.est_share_queue", "ratio"),
    lower("sim.est_share_metrics", "ratio"),
    lower("sim.residual_share", "ratio"),
    higher("sim.txs_committed_share", "ratio"),
    lower("harness.unit_ms_fast5", "ms"),
    lower("harness.unit_ms_p50", "ms"),
    lower("harness.unit_ms_p90", "ms"),
    lower("harness.noise_ratio", "ratio"),
    lower("harness.cold_start_s", "s"),
    lower("harness.trace_overhead", "ratio"),
];

/// Per-phase self time of a mesh unit, in ms: the mean over the five
/// fastest traced units (zeros for simulator workloads, whose units have no
/// spans below `run`).
fn phase_busy_ms(traced: &RunData, tracer: &Tracer) -> [f64; Phase::ALL.len()] {
    let mut busy = [0.0; Phase::ALL.len()];
    let fastest = stats::fastest_indices(&traced.run_ns());
    for &sample in &fastest {
        let unit = traced.samples[sample].unit;
        let Some((_, totals)) = tracer.mesh_units.iter().find(|(u, _)| *u == unit) else {
            continue;
        };
        for (slot, ns) in totals.self_ns.iter().enumerate() {
            busy[slot] += *ns as f64 / 1e6 / fastest.len() as f64;
        }
    }
    busy
}

/// Runs the traced measurement of `workload` and reports per-layer metrics.
pub fn traced_run(workload: Workload, options: &Options, started: Instant) -> bool {
    let cold_start_s = started.elapsed().as_secs_f64();
    let seed = options.seed;
    let mut tracer = Tracer::new();
    let units = workload.units_for(options.seconds);
    let both = run_units(workload, seed, units, Tracing::Alternate(&mut tracer));
    let (plain, traced) = (both.only(false), both.only(true));
    let probes = probes::run_all(seed);

    let counts = plain.counts.clone().unwrap_or_default();
    let harness = Harness::of(&plain);
    let unit_ns = plain.run_fast5_ns();
    let busy = phase_busy_ms(&traced, &tracer);
    let phase = |p: Phase| busy[p as usize];
    let sim = workload.sim_config(seed);
    let (mut report_json_ms, mut arrivals_gen_ms) = (0.0, 0.0);
    if let Some(cfg) = &sim {
        let report = build_sim(cfg).run();
        let ms = |probe: probes::Probe| probe.ns / 1e6;
        report_json_ms = ms(probes::batched(1, || {
            black_box(json::to_string(&report));
        }));
        if let Some(load) = &cfg.workload {
            arrivals_gen_ms = ms(probes::batched(1, || {
                black_box(load.arrivals(cfg.seed, cfg.horizon));
            }));
        }
    }
    let events = if sim.is_some() {
        counts.work as f64
    } else {
        0.0
    };
    let frames = if sim.is_some() {
        0.0
    } else {
        counts.work as f64
    };
    let per_signer_ns = ratio(probes.crypto_verify_aggregate_q.ns, probes.quorum as f64);
    let crypto_share = ratio(counts.verify_ops_naive as f64 * per_signer_ns, unit_ns);
    let queue_share = ratio(events * probes.queue_push_pop.ns, unit_ns);
    let metrics_share = ratio(
        events * probes.records_per_event * probes.metrics_record.ns,
        unit_ns,
    );
    let residual = if sim.is_some() {
        1.0 - crypto_share - queue_share - metrics_share
    } else {
        0.0
    };
    // One row per metric: its name (checked against `PER_LAYER` below, so a
    // row can never land under another metric's name), its value, and the
    // number of calls behind it when it comes from a probe.
    let probe = |name, p: probes::Probe, scale: f64| (name, p.ns / scale, Some(p.calls));
    let value = |name, v: f64| (name, v, None);
    let rows = [
        probe("crypto.sign_ns", probes.crypto_sign, 1.0),
        probe("crypto.verify_ns", probes.crypto_verify, 1.0),
        probe("crypto.aggregate_q_ns", probes.crypto_aggregate_q, 1.0),
        probe(
            "crypto.verify_aggregate_q_ns",
            probes.crypto_verify_aggregate_q,
            1.0,
        ),
        value("crypto.verify_ops_per_unit", counts.verify_ops as f64),
        value("crypto.est_share", crypto_share),
        probe("consensus.on_proposal_ns", probes.on_proposal, 1.0),
        probe("consensus.on_vote_ns", probes.on_vote, 1.0),
        probe("consensus.qc_aggregate_ns", probes.qc_aggregate, 1.0),
        probe("consensus.qc_verify_ns", probes.qc_verify, 1.0),
        probe("core.lumiere_on_qc_ns", probes.lumiere_on_qc, 1.0),
        probe("core.lumiere_on_msg_ns", probes.lumiere_on_msg, 1.0),
        probe("core.lumiere_on_wake_ns", probes.lumiere_on_wake, 1.0),
        probe("core.mempool_submit_ns", probes.mempool_submit, 1.0),
        probe("core.mempool_next_batch_ns", probes.mempool_next_batch, 1.0),
        probe(
            "core.mempool_mark_committed_drained_ns",
            probes.mempool_mark_committed_drained,
            1.0,
        ),
        probe(
            "core.mempool_mark_committed_backlog_ns",
            probes.mempool_mark_committed_backlog,
            1.0,
        ),
        probe("types.batch_digest_ns", probes.batch_digest, 1.0),
        value("runtime.encode_busy_ms", phase(Phase::Encode)),
        value("runtime.decode_busy_ms", phase(Phase::Decode)),
        value(
            "runtime.deliver_consensus_busy_ms",
            phase(Phase::DeliverConsensus),
        ),
        value(
            "runtime.deliver_pacemaker_busy_ms",
            phase(Phase::DeliverPacemaker),
        ),
        value(
            "runtime.deliver_submit_busy_ms",
            phase(Phase::DeliverSubmit),
        ),
        value("runtime.wake_busy_ms", phase(Phase::Wake)),
        value(
            "runtime.host_residual_ms",
            phase(Phase::Host) + phase(Phase::Inject),
        ),
        value("runtime.frames_per_unit", frames),
        value(
            "runtime.encode_ns_per_frame",
            ratio(phase(Phase::Encode) * 1e6, frames),
        ),
        value(
            "runtime.decode_ns_per_frame",
            ratio(phase(Phase::Decode) * 1e6, frames),
        ),
        value(
            "runtime.frame_bytes_per_commit",
            ratio(counts.frame_bytes as f64, counts.commits as f64),
        ),
        value(
            "runtime.wire_size_ratio",
            ratio(counts.wire_size_bytes as f64, counts.frame_bytes as f64),
        ),
        probe(
            "runtime.channel_roundtrip_us",
            probes.channel_roundtrip,
            1e3,
        ),
        probe("runtime.tcp_roundtrip_us", probes.tcp_roundtrip, 1e3),
        value(
            "sim.build_ms",
            stats::fast5(&plain.column(|s| s.build_ns)) / 1e6,
        ),
        value("sim.events_per_unit", events),
        probe("sim.queue_push_pop_ns", probes.queue_push_pop, 1.0),
        probe(
            "sim.queue_broadcast_ns_per_recipient",
            probes.queue_broadcast_per_recipient,
            1.0,
        ),
        probe("sim.metrics_record_ns", probes.metrics_record, 1.0),
        value("sim.report_finish_ms", probes.report_finish_ms),
        value("sim.report_json_ms", report_json_ms),
        value("sim.arrivals_gen_ms", arrivals_gen_ms),
        value("sim.est_share_queue", queue_share),
        value("sim.est_share_metrics", metrics_share),
        value("sim.residual_share", residual),
        value(
            "sim.txs_committed_share",
            ratio(counts.txs_committed as f64, counts.txs_submitted as f64),
        ),
        value("harness.unit_ms_fast5", harness.unit_ms_fast5),
        value("harness.unit_ms_p50", harness.unit_ms_p50),
        value("harness.unit_ms_p90", harness.unit_ms_p90),
        value("harness.noise_ratio", harness.noise_ratio),
        value("harness.cold_start_s", cold_start_s),
        value(
            "harness.trace_overhead",
            ratio(traced.run_fast5_ns(), unit_ns) - 1.0,
        ),
    ];
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .zip(&rows)
        .map(|(decl, (name, value, _))| {
            assert_eq!(decl.name, *name, "rows follow PER_LAYER's order");
            Metric {
                name: decl.name,
                unit: decl.unit,
                value: *value,
            }
        })
        .collect();

    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = out_dir.join(format!("trace-{}.json", workload.name()));
    let written = std::fs::create_dir_all(&out_dir).and_then(|()| {
        std::fs::write(
            &path,
            json::to_string(&tracer.to_json(workload.name(), seed)),
        )
    });
    match written {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => println!("warning: could not write {}: {e}", path.display()),
    }
    for warning in &probes.warnings {
        println!("warning: {warning}");
    }
    println!(
        "layer table for {} (as in the result line; then which way is better and, for \
         probes, the calls behind the value)",
        workload.name()
    );
    for ((m, decl), (_, _, calls)) in metrics.iter().zip(&PER_LAYER).zip(&rows) {
        let calls = calls.map_or(String::new(), |c| format!("{c} calls"));
        let better = decl.better.name();
        println!(
            "  {:<44} {:>16.4} {:<6} {better:<6} {calls}",
            m.name, m.value, m.unit
        );
    }
    if workload == Workload::WireMesh {
        print_span_table(&traced, busy);
    }
    if let Some(failure) = &both.first_failure {
        println!("first failure: {failure}");
    }
    println!("{}", result_line(&both, &metrics));
    both.failed == 0
}

/// "Where the time goes" on `wire_mesh`: the phases' self times and shares.
fn print_span_table(traced: &RunData, busy: [f64; Phase::ALL.len()]) {
    let total: f64 = busy.iter().sum();
    println!(
        "where the time goes: span self times of the five fastest traced units \
         (sum {total:.3} ms, traced unit fast5 {:.3} ms)",
        traced.run_fast5_ns() / 1e6
    );
    for p in Phase::ALL {
        let ms = busy[p as usize];
        let share = ratio(ms * 100.0, total);
        println!("  {:<20} {ms:>9.3} ms {share:>6.1} %", p.name());
    }
}
