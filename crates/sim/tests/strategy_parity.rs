//! Strategy gating parity: the channel-mesh transport under adversary
//! strategies must gate *exactly* what the simulator gates.
//!
//! The adversary machinery lives above the transport (a corrupted
//! [`ProtocolRuntime`] gates its own events whether messages arrive over
//! virtual-time calendars, in-process channels or TCP sockets), so the
//! property to pin is count equality: drive a real
//! [`ChannelTransport`](lumiere_runtime::ChannelTransport) cluster through a
//! deterministic tick loop, record every event it processed, replay the
//! byte-identical event sequence into the hosts the simulator builds
//! ([`SimConfig::build_nodes`]) from the same seed, and require the same
//! outputs and the same gated-event counts, event for event. A wall-clock
//! TCP run cannot be replayed this way (its schedule is nondeterministic),
//! but the runtime is the same object — `crates/runtime/tests/
//! live_cluster.rs` covers that side against real processes.

use lumiere_runtime::{channel_mesh, ProtocolRuntime, RuntimeOutput, Transport, WireMessage};
use lumiere_sim::{AdversarySchedule, ProtocolKind, SimConfig, StrategyKind};
use lumiere_types::{Duration, ProcessId, Time, TimeRange};
use std::collections::BTreeSet;
use std::time::Duration as WallDuration;

const N: usize = 4;
const SEED: u64 = 61;
const DELTA: Duration = Duration::from_millis(10);
/// Virtual-time tick granularity and horizon of the deterministic loop.
const TICK_MS: i64 = 1;
const HORIZON_MS: i64 = 400;

/// One event a node processed, with everything needed to replay it.
enum Event {
    Boot,
    Wake,
    Deliver(ProcessId, WireMessage),
}

struct Logged {
    node: usize,
    at: Time,
    event: Event,
    /// Debug rendering of the produced [`RuntimeOutput`] (before flushing).
    output: String,
    /// Gated-event count of this single event.
    gated: u32,
}

fn strategy_node(i: usize, corrupted: usize, kind: StrategyKind) -> ProtocolRuntime {
    lumiere_runtime::build_runtime(ProtocolKind::Lumiere, N, i, DELTA, SEED)
        .with_strategy((i == corrupted).then_some(kind))
}

/// The simulator's own processors for the same cluster.
fn sim_nodes(corrupted: usize, kind: StrategyKind) -> Vec<ProtocolRuntime> {
    SimConfig::new(ProtocolKind::Lumiere, N)
        .with_delta(DELTA)
        .with_seed(SEED)
        .with_adversary(AdversarySchedule::new().corrupt(corrupted, kind))
        .build_nodes()
}

/// Drives a channel-mesh cluster deterministically: single thread, virtual
/// ticks, immediate (same-mesh) delivery one tick after send. Returns the
/// full event log plus the finished nodes.
fn drive_channel_cluster(
    corrupted: usize,
    kind: StrategyKind,
) -> (Vec<Logged>, Vec<ProtocolRuntime>) {
    let mut transports = channel_mesh(N);
    let mut hosts: Vec<ProtocolRuntime> =
        (0..N).map(|i| strategy_node(i, corrupted, kind)).collect();
    let mut wakes: Vec<BTreeSet<i64>> = vec![BTreeSet::new(); N];
    let mut log = Vec::new();

    // Processes one event on node `i`, logging output and gated count, then
    // flushes sends/broadcasts into the real transports and wakes into the
    // local timer sets.
    let process = |i: usize,
                   at: Time,
                   event: Event,
                   hosts: &mut Vec<ProtocolRuntime>,
                   transports: &mut Vec<lumiere_runtime::ChannelTransport>,
                   wakes: &mut Vec<BTreeSet<i64>>,
                   log: &mut Vec<Logged>| {
        let mut out = RuntimeOutput::default();
        match &event {
            Event::Boot => hosts[i].boot(at, &mut out),
            Event::Wake => hosts[i].wake(at, &mut out),
            Event::Deliver(from, msg) => hosts[i].deliver(*from, msg, at, &mut out),
        }
        log.push(Logged {
            node: i,
            at,
            event,
            output: format!("{out:?}"),
            gated: out.gated_events,
        });
        for (to, msg) in out.sends.drain(..) {
            transports[i].send(to, &msg).unwrap();
        }
        for msg in out.broadcasts.drain(..) {
            transports[i].broadcast(&msg).unwrap();
        }
        for wake in out.wakes.drain(..) {
            wakes[i].insert(wake.as_micros());
        }
    };

    for tick in 0..=(HORIZON_MS / TICK_MS) {
        let now = Time::from_millis(tick * TICK_MS);
        for i in 0..N {
            if tick == 0 {
                process(
                    i,
                    now,
                    Event::Boot,
                    &mut hosts,
                    &mut transports,
                    &mut wakes,
                    &mut log,
                );
            }
            // Fire every due timer, then drain the mailbox.
            while let Some(&due) = wakes[i].iter().next() {
                if due > now.as_micros() {
                    break;
                }
                wakes[i].remove(&due);
                process(
                    i,
                    now,
                    Event::Wake,
                    &mut hosts,
                    &mut transports,
                    &mut wakes,
                    &mut log,
                );
            }
            while let Some((from, msg)) = transports[i].recv_timeout(WallDuration::ZERO).unwrap() {
                let event = Event::Deliver(from, msg);
                process(
                    i,
                    now,
                    event,
                    &mut hosts,
                    &mut transports,
                    &mut wakes,
                    &mut log,
                );
            }
        }
    }
    (log, hosts)
}

/// Replays a channel-cluster event log into the simulator's nodes and checks
/// output and gated-count equality per event, then end-state equality.
fn assert_sim_parity(corrupted: usize, kind: StrategyKind) {
    let (log, hosts) = drive_channel_cluster(corrupted, kind);
    let mut nodes = sim_nodes(corrupted, kind);
    for entry in &log {
        let node = &mut nodes[entry.node];
        let mut out = RuntimeOutput::default();
        match &entry.event {
            Event::Boot => node.boot(entry.at, &mut out),
            Event::Wake => node.wake(entry.at, &mut out),
            Event::Deliver(from, msg) => node.deliver(*from, msg, entry.at, &mut out),
        }
        assert_eq!(
            format!("{out:?}"),
            entry.output,
            "node {} diverged from the channel cluster at t = {:?}",
            entry.node,
            entry.at
        );
        assert_eq!(
            out.gated_events, entry.gated,
            "node {} gated differently at t = {:?}",
            entry.node, entry.at
        );
    }
    for i in 0..N {
        assert_eq!(
            nodes[i].committed_chain(),
            hosts[i].committed_chain(),
            "node {i} committed a different chain in the replay"
        );
    }
    // The schedule must have been non-trivial: honest nodes commit...
    let honest_height = (0..N)
        .filter(|&i| i != corrupted)
        .map(|i| nodes[i].committed_height())
        .min()
        .unwrap();
    assert!(
        honest_height > 0,
        "honest nodes must commit under {} within the horizon",
        kind.name()
    );
}

/// FNV-1a over every logged event's output and gated count, in log order.
fn log_digest(log: &[Logged]) -> u64 {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for entry in log {
        for byte in format!("{}:{};", entry.output, entry.gated).bytes() {
            digest = (digest ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    digest
}

/// Each strategy's channel-cluster event log, folded by [`log_digest`]. The
/// simulator and the channel mesh run the same gating code, so parity alone
/// cannot notice a change to it; these pins can. A change that moves one
/// changed what a corrupted node does.
#[test]
fn channel_cluster_event_logs_match_their_pins() {
    let crash_recovery = StrategyKind::CrashRecovery {
        down: TimeRange::new(Time::ZERO, Time::from_millis(40)),
    };
    let pins = [
        (1, StrategyKind::Crash, 0x037b_7c05_84a5_a8b3),
        (1, StrategyKind::SilentLeader, 0x15b1_8edf_13cd_6fe8),
        (1, StrategyKind::SyncSilent, 0x6aa7_eb2c_6b2d_3a26),
        (1, StrategyKind::Equivocate, 0xbd72_1b1e_1b69_e19a),
        (
            1,
            StrategyKind::AdaptiveLeaderTargeting,
            0x08ac_88eb_d106_f5b5,
        ),
        (1, StrategyKind::QcStarvation, 0xee9a_8e7d_938c_c40a),
        (2, crash_recovery, 0xcf2d_90e8_d3fe_031a),
    ];
    assert!(StrategyKind::SIMPLE
        .iter()
        .all(|kind| pins.iter().any(|(_, pinned, _)| pinned == kind)));
    for (corrupted, kind, pin) in pins {
        let (log, _) = drive_channel_cluster(corrupted, kind);
        assert_eq!(
            log_digest(&log),
            pin,
            "{}'s event log moved off its pin",
            kind.name()
        );
    }
}

#[test]
fn crash_recovery_gates_identically_over_channels_and_in_the_simulator() {
    // Dark for the first 40 ms: wakes and deliveries during the window are
    // gated (non-zero counts on both sides), then the node rejoins.
    let kind = StrategyKind::CrashRecovery {
        down: TimeRange::new(Time::ZERO, Time::from_millis(40)),
    };
    assert_sim_parity(2, kind);
    let (log, _) = drive_channel_cluster(2, kind);
    assert!(
        log.iter().any(|e| e.node == 2 && e.gated > 0),
        "the dark window must gate at least one event"
    );
}

#[test]
fn every_simple_strategy_gates_identically_over_channels_and_in_the_simulator() {
    for kind in StrategyKind::SIMPLE {
        assert_sim_parity(1, kind);
    }
}
