//! Node lifecycle tests on the in-process channel mesh: graceful shutdown
//! mid-view, and restart/rejoin of one node while the rest of the cluster
//! keeps committing.
//!
//! These are the behaviours the discrete-event simulator cannot exhibit —
//! its nodes never stop half-way through a run — and the reason the channel
//! transport exists as a middle rung between the simulator and real TCP.
//! With `n = 4` the quorum is 3, so one stopped node must not cost the
//! survivors liveness, and a mailbox outliving its node means the rejoiner
//! finds its backlog waiting.

use lumiere_runtime::channel::channel_mesh;
use lumiere_runtime::driver::{spawn, DriverHandle, DriverOptions};
use lumiere_runtime::{build_runtime, ChannelTransport, ProtocolKind};
use lumiere_types::Duration;
use std::time::{Duration as WallDuration, Instant};

const N: usize = 4;
const SEED: u64 = 11;

fn delta() -> Duration {
    Duration::from_millis(5)
}

/// Options for an open-ended run: no commit target, generous safety-net
/// deadline, tight poll so stop requests land quickly.
fn open_ended() -> DriverOptions {
    DriverOptions {
        target_commits: None,
        deadline: Some(WallDuration::from_secs(60)),
        linger: WallDuration::from_millis(100),
        poll: WallDuration::from_millis(2),
        load_tps: None,
    }
}

/// Blocks until `handle` reports at least `height` commits (or panics after
/// a minute — liveness failure, not a flake).
fn wait_for_height(handle: &DriverHandle<ChannelTransport>, height: u64) {
    let deadline = Instant::now() + WallDuration::from_secs(60);
    while handle.committed_height() < height {
        assert!(
            Instant::now() < deadline,
            "node {} stuck below height {height} (at {})",
            handle.local_id().as_usize(),
            handle.committed_height()
        );
        std::thread::sleep(WallDuration::from_millis(5));
    }
}

/// Stopping every node mid-view is safe: all stop requests land while the
/// cluster is actively committing, and the summaries still agree on the
/// committed prefix.
#[test]
fn graceful_shutdown_mid_view_preserves_agreement() {
    let handles: Vec<_> = channel_mesh(N)
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let rt = build_runtime(ProtocolKind::Lumiere, N, i, delta(), SEED);
            spawn(rt, t, open_ended())
        })
        .collect();

    // Let the cluster get well into the run, then pull the plug on every
    // node at once — with no commit target, each stop necessarily lands
    // mid-view, between whatever events the driver was processing.
    for h in &handles {
        wait_for_height(h, 3);
    }
    for h in &handles {
        h.stop();
    }
    let summaries: Vec<_> = handles.into_iter().map(|h| h.join().unwrap().0).collect();

    let shortest = summaries.iter().map(|s| s.chain.len()).min().unwrap();
    assert!(shortest >= 3, "every node must keep its committed blocks");
    for s in &summaries[1..] {
        assert_eq!(
            s.chain[..shortest],
            summaries[0].chain[..shortest],
            "nodes {} and {} disagree after a mid-view shutdown",
            summaries[0].node,
            s.node
        );
    }
}

/// One node stops, the surviving three keep committing (quorum is 3 of 4),
/// and the stopped node rejoins on its original transport — draining the
/// backlog its mailbox accumulated — and resumes committing past where it
/// left off. Agreement holds across all four at the end.
#[test]
fn one_node_restarts_and_the_cluster_keeps_committing() {
    let mut transports = channel_mesh(N);
    let straggler_transport = transports.pop().unwrap();
    let straggler_id = N - 1;

    let survivors: Vec<_> = transports
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let rt = build_runtime(ProtocolKind::Lumiere, N, i, delta(), SEED);
            spawn(rt, t, open_ended())
        })
        .collect();
    let straggler = spawn(
        build_runtime(ProtocolKind::Lumiere, N, straggler_id, delta(), SEED),
        straggler_transport,
        open_ended(),
    );

    // Run everyone to height 2, then take the straggler down.
    wait_for_height(&straggler, 2);
    straggler.stop();
    let (first_leg, runtime, transport) = straggler.join().unwrap();
    let height_at_stop = first_leg.committed_height;
    assert!(height_at_stop >= 2);

    // The survivors must keep committing without the fourth node.
    let resume_from = survivors[0].committed_height();
    wait_for_height(&survivors[0], resume_from + 3);

    // Rejoin: same protocol state, same transport (same mailbox, now full
    // of everything the cluster sent while the node was down).
    let rejoined = spawn(runtime, transport, open_ended());
    wait_for_height(&rejoined, height_at_stop + 3);

    for h in &survivors {
        h.stop();
    }
    rejoined.stop();
    let mut summaries: Vec<_> = survivors.into_iter().map(|h| h.join().unwrap().0).collect();
    summaries.push(rejoined.join().unwrap().0);

    assert!(
        summaries.last().unwrap().committed_height >= height_at_stop + 3,
        "the rejoined node must commit past its pre-restart height"
    );
    let shortest = summaries.iter().map(|s| s.chain.len()).min().unwrap();
    for s in &summaries[1..] {
        assert_eq!(
            s.chain[..shortest],
            summaries[0].chain[..shortest],
            "nodes {} and {} disagree after the restart",
            summaries[0].node,
            s.node
        );
    }
}
