//! The real-time node driver: the event loop that runs a
//! [`ProtocolRuntime`] against a [`Transport`] on wall-clock time.
//!
//! The simulator advances virtual time by popping a calendar queue; a live
//! node cannot. The driver instead anchors an epoch `Instant` at boot and
//! maps wall time to the protocol's virtual [`Time`] as elapsed microseconds,
//! so the same pacemakers (whose deadlines are all virtual-time arithmetic)
//! run unmodified. Wake-up requests go into a timer heap (with the same
//! dedup the simulator applies) and the loop sleeps on the transport for
//! whichever comes first: the next timer or the next inbound frame.
//!
//! Stop conditions, in priority order:
//!
//! 1. an external [`DriverHandle::stop`] request (graceful shutdown —
//!    mid-view is fine, the protocol is crash-tolerant by construction);
//! 2. the wall-clock `deadline`, if any;
//! 3. `target_commits` reached **and** the `linger` grace period elapsed.
//!    Lingering matters in a cluster where every node stops at a target:
//!    without it, the first node to commit would vanish and could cost the
//!    others their quorum one view short of their own target.

use crate::message::WireMessage;
use crate::output::RuntimeOutput;
use crate::runtime::ProtocolRuntime;
use crate::transport::{Transport, TransportError};
use lumiere_types::hash::{IdMap, IdSet};
use lumiere_types::{percentile, Duration, ProcessId, Time, Transaction, TxId, View};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration as WallDuration, Instant};

/// Knobs for one driver run.
#[derive(Debug, Clone)]
pub struct DriverOptions {
    /// Stop (after `linger`) once this many blocks are committed locally.
    /// `None` runs until `deadline` or an external stop.
    pub target_commits: Option<u64>,
    /// Hard wall-clock cap on the whole run. `None` means no cap.
    pub deadline: Option<WallDuration>,
    /// Grace period to keep serving peers after reaching `target_commits`.
    pub linger: WallDuration,
    /// Upper bound on one transport wait (responsiveness of stop requests).
    pub poll: WallDuration,
    /// Open-loop client load: generate this many transactions per second,
    /// submitting each locally and broadcasting it to every peer as a
    /// [`WireMessage::Submit`] frame. `None` runs without client traffic
    /// (empty blocks), exactly the pre-load behaviour.
    pub load_tps: Option<u64>,
}

impl Default for DriverOptions {
    fn default() -> Self {
        DriverOptions {
            target_commits: None,
            deadline: None,
            linger: WallDuration::from_millis(500),
            poll: WallDuration::from_millis(10),
            load_tps: None,
        }
    }
}

/// One locally committed block, stamped with the wall-clock time (relative
/// to the driver's boot) at which the commit happened. The live harness
/// replays these against the `O(nΔ)` liveness envelope: a commit gap wider
/// than [`liveness_envelope`] flags a stall the same way the simulator's
/// liveness oracle does in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CommitRecord {
    /// Milliseconds since the driver booted.
    pub wall_ms: f64,
    /// Height of the committed block.
    pub height: u64,
}

/// What a finished driver run reports.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriverSummary {
    /// The local processor id.
    pub node: usize,
    /// Short protocol name (see `ProtocolKind::name`).
    pub protocol: String,
    /// Number of blocks committed locally.
    pub committed_height: u64,
    /// The view the node was in when it stopped.
    pub final_view: View,
    /// Block hashes (as heights in this reproduction) in commit order —
    /// compared across nodes to check agreement.
    pub chain: Vec<u64>,
    /// Wall-clock duration of the run in milliseconds.
    pub wall_ms: f64,
    /// Per-commit wall-clock timestamps, in commit order (the liveness
    /// oracle's raw material).
    pub commits: Vec<CommitRecord>,
    /// Strategy-gated events, when the node ran under a `--strategy`
    /// corruption (0 for honest nodes) — the live counterpart of the
    /// simulator's per-strategy activation count.
    pub gated_events: u64,
    /// Client transactions this node generated (under `--load`; 0 without).
    pub txs_submitted: u64,
    /// Distinct transactions observed in blocks this node committed
    /// (including transactions generated by peers).
    pub txs_committed: u64,
    /// Commits of a transaction this node had already committed: 0 unless
    /// some block carried a transaction its own chain already held, which
    /// no honest leader proposes.
    pub tx_recommits: u64,
    /// Median submit→local-commit latency of this node's own transactions,
    /// in wall-clock milliseconds (0 when none committed).
    pub tx_latency_p50_ms: f64,
    /// 95th-percentile latency of this node's own transactions, ms.
    pub tx_latency_p95_ms: f64,
    /// 99th-percentile latency of this node's own transactions, ms.
    pub tx_latency_p99_ms: f64,
}

/// The `O(nΔ)` liveness envelope shared by the simulator's fuzzing oracle
/// and the live-cluster harness: after GST (wall-clock clusters are post-GST
/// from boot), some honest commit must land within this bound, and no two
/// consecutive commits may be further apart. The paper's Theorem 1.1(2)
/// gives worst-case latency `O(nΔ)`; the constant leaves room for a commit
/// (two consecutive honest-leader QCs) on top.
pub fn liveness_envelope(n: usize, delta: Duration) -> Duration {
    delta * (40 * n as i64 + 100)
}

/// Checks agreement across committed chains: every pair must be
/// prefix-ordered. Every pair is iff every chain is a prefix of one longest
/// chain, so that is what is checked, in O(n·h) rather than pairwise.
/// Returns the length of the prefix all chains share — 0 for no chains
/// (agreement over none is vacuous, not a panic) — or the positions, in
/// ascending order, of two chains that diverge.
pub fn chains_agree<C: AsRef<[u64]>>(chains: &[C]) -> Result<usize, (usize, usize)> {
    let chains = || chains.iter().map(AsRef::as_ref).enumerate();
    let Some((at, longest)) = chains().max_by_key(|(_, c)| c.len()) else {
        return Ok(0);
    };
    let mut shared = longest.len();
    for (i, chain) in chains() {
        if !longest.starts_with(chain) {
            return Err((i.min(at), i.max(at)));
        }
        shared = shared.min(chain.len());
    }
    Ok(shared)
}

/// [`chains_agree`] over a cluster's summaries, naming the two nodes of a
/// divergence.
pub fn check_agreement(summaries: &[DriverSummary]) -> Result<usize, String> {
    let chains: Vec<&[u64]> = summaries.iter().map(|s| s.chain.as_slice()).collect();
    chains_agree(&chains).map_err(|(a, b)| {
        format!(
            "nodes {} and {} disagree on the committed prefix",
            summaries[a].node, summaries[b].node
        )
    })
}

/// Book-keeping for the driver's open-loop client load: wall-clock submit
/// instants of locally generated transactions, the set of transactions seen
/// committed, and how many commits named one already in that set.
#[derive(Debug, Default)]
struct TxStats {
    submitted: u64,
    submit_micros: IdMap<TxId, i64>,
    committed: IdSet<TxId>,
    recommits: u64,
    latencies_micros: Vec<i64>,
}

/// The wake-up heap: min-heap on time with the simulator's dedup (a time
/// already pending is not scheduled twice).
#[derive(Debug, Default)]
struct Timers {
    heap: BinaryHeap<Reverse<i64>>,
    pending: IdSet<i64>,
}

impl Timers {
    fn schedule(&mut self, at: Time) {
        if self.pending.insert(at.as_micros()) {
            self.heap.push(Reverse(at.as_micros()));
        }
    }

    /// Pops the earliest timer if it is due at `now`.
    fn pop_due(&mut self, now: Time) -> Option<Time> {
        match self.heap.peek() {
            Some(&Reverse(at)) if at <= now.as_micros() => {
                self.heap.pop();
                self.pending.remove(&at);
                Some(Time::from_micros(at))
            }
            _ => None,
        }
    }

    /// The earliest pending timer, if any.
    fn next(&self) -> Option<Time> {
        self.heap.peek().map(|&Reverse(at)| Time::from_micros(at))
    }
}

/// Runs a [`ProtocolRuntime`] over a [`Transport`] until a stop condition
/// fires, then returns the summary plus the runtime and transport (so tests
/// can inspect protocol state, or rebuild a fresh runtime on the same
/// transport to model a process restart).
///
/// `stop` is the external shutdown flag ([`spawn`] wires it to
/// [`DriverHandle::stop`]); `committed` mirrors the local committed height
/// for observers on other threads.
pub fn run<T: Transport>(
    mut runtime: ProtocolRuntime,
    mut transport: T,
    opts: &DriverOptions,
    stop: &AtomicBool,
    committed: &AtomicU64,
) -> Result<(DriverSummary, ProtocolRuntime, T), TransportError> {
    let epoch = Instant::now();
    // Anchor virtual time at the runtime's resume floor: zero for a fresh
    // node, its last-seen time for one being restarted on live state (its
    // clocks and deadlines must never observe time running backwards).
    let floor = runtime.resume_floor().as_micros();
    let now_virtual =
        |epoch: Instant| Time::from_micros(floor + epoch.elapsed().as_micros() as i64);

    let mut out = RuntimeOutput::default();
    let mut timers = Timers::default();
    let mut commit_log: Vec<CommitRecord> = Vec::new();
    let mut gated_events: u64 = 0;
    let mut txs = TxStats::default();
    // Open-loop client generation state: the next arrival instant (in
    // wall-clock micros since the epoch) and the id counter. Ids are
    // namespaced by the node id so concurrent generators never collide.
    let load_interval_micros = opts
        .load_tps
        .map(|rate| (1_000_000 / rate.max(1)).max(1) as i64);
    let tx_id_base = (runtime.id().as_usize() as u64 + 1) << 40;
    let mut next_arrival_micros: i64 = 0;
    runtime.boot(now_virtual(epoch), &mut out);
    flush(
        &mut out,
        &mut transport,
        &mut timers,
        epoch,
        &mut commit_log,
        &mut gated_events,
        &mut txs,
    )?;

    let mut reached_target_at: Option<Instant> = None;
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        if let Some(cap) = opts.deadline {
            if epoch.elapsed() >= cap {
                break;
            }
        }

        // Generate due client traffic (open loop: the clients do not care
        // how the cluster is doing). Each transaction enters the local
        // mempool and is broadcast so any future leader can carry it.
        if let Some(interval) = load_interval_micros {
            let now_micros = epoch.elapsed().as_micros() as i64;
            while next_arrival_micros <= now_micros {
                let tx = Transaction::new(TxId::new(tx_id_base + txs.submitted));
                txs.submitted += 1;
                txs.submit_micros.insert(tx.id, now_micros);
                runtime.submit_tx(tx);
                transport.broadcast(&WireMessage::Submit(tx))?;
                next_arrival_micros += interval;
            }
        }

        // Fire every due timer before sleeping again.
        let now = now_virtual(epoch);
        while timers.pop_due(now).is_some() {
            runtime.wake(now, &mut out);
            flush(
                &mut out,
                &mut transport,
                &mut timers,
                epoch,
                &mut commit_log,
                &mut gated_events,
                &mut txs,
            )?;
        }

        // Sleep on the transport until the next timer (or the poll bound).
        let timeout = match timers.next() {
            Some(at) => {
                let gap = (at - now_virtual(epoch)).as_micros().max(0) as u64;
                WallDuration::from_micros(gap).min(opts.poll)
            }
            None => opts.poll,
        };
        if let Some((from, msg)) = transport.recv_timeout(timeout)? {
            runtime.deliver(from, &msg, now_virtual(epoch), &mut out);
            flush(
                &mut out,
                &mut transport,
                &mut timers,
                epoch,
                &mut commit_log,
                &mut gated_events,
                &mut txs,
            )?;
        }

        let height = runtime.committed_height();
        committed.store(height, Ordering::SeqCst);
        if let Some(target) = opts.target_commits {
            if height >= target {
                let reached = *reached_target_at.get_or_insert_with(Instant::now);
                if reached.elapsed() >= opts.linger {
                    break;
                }
            }
        }
    }

    committed.store(runtime.committed_height(), Ordering::SeqCst);
    txs.latencies_micros.sort_unstable();
    let summary = DriverSummary {
        node: runtime.id().as_usize(),
        protocol: runtime.protocol_name().to_string(),
        committed_height: runtime.committed_height(),
        final_view: runtime.current_view(),
        chain: runtime.committed_chain(),
        wall_ms: epoch.elapsed().as_secs_f64() * 1_000.0,
        commits: commit_log,
        gated_events,
        txs_submitted: txs.submitted,
        txs_committed: txs.committed.len() as u64,
        tx_recommits: txs.recommits,
        tx_latency_p50_ms: percentile(&txs.latencies_micros, 50) as f64 / 1_000.0,
        tx_latency_p95_ms: percentile(&txs.latencies_micros, 95) as f64 / 1_000.0,
        tx_latency_p99_ms: percentile(&txs.latencies_micros, 99) as f64 / 1_000.0,
    };
    Ok((summary, runtime, transport))
}

/// Applies one event's worth of runtime output to the transport and timers,
/// harvesting commit timestamps and gated-event counts before the buffer is
/// cleared.
fn flush<T: Transport>(
    out: &mut RuntimeOutput,
    transport: &mut T,
    timers: &mut Timers,
    epoch: Instant,
    commit_log: &mut Vec<CommitRecord>,
    gated_events: &mut u64,
    txs: &mut TxStats,
) -> Result<(), TransportError> {
    for height in out.commits.drain(..) {
        commit_log.push(CommitRecord {
            wall_ms: epoch.elapsed().as_secs_f64() * 1_000.0,
            height,
        });
    }
    let now_micros = epoch.elapsed().as_micros() as i64;
    for id in out.committed_txs.drain(..) {
        if !txs.committed.insert(id) {
            txs.recommits += 1;
            continue;
        }
        // Latency is only known for transactions this node generated
        // itself (peers' submit instants live on their clocks).
        if let Some(at) = txs.submit_micros.remove(&id) {
            txs.latencies_micros.push(now_micros - at);
        }
    }
    *gated_events += out.gated_events as u64;
    for (to, msg) in out.sends.drain(..) {
        transport.send(to, &msg)?;
    }
    for msg in out.broadcasts.drain(..) {
        transport.broadcast(&msg)?;
    }
    for at in out.wakes.drain(..) {
        timers.schedule(at);
    }
    out.clear();
    Ok(())
}

/// A handle onto a driver running on its own thread (see [`spawn`]).
#[derive(Debug)]
pub struct DriverHandle<T> {
    stop: Arc<AtomicBool>,
    committed: Arc<AtomicU64>,
    local_id: ProcessId,
    thread: JoinHandle<Result<(DriverSummary, ProtocolRuntime, T), TransportError>>,
}

impl<T> DriverHandle<T> {
    /// The driven node's processor id.
    pub fn local_id(&self) -> ProcessId {
        self.local_id
    }

    /// The node's committed height, as of its latest event.
    pub fn committed_height(&self) -> u64 {
        self.committed.load(Ordering::SeqCst)
    }

    /// Requests a graceful stop; the driver notices within one poll
    /// interval. Safe to call mid-view — that is exactly the lifecycle the
    /// shutdown tests exercise.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Waits for the driver to finish and returns its summary plus the
    /// runtime and transport it ran (the transport can host a restarted
    /// node; see the lifecycle tests).
    ///
    /// A panic on the driver thread is resurfaced as a labelled
    /// [`TransportError`] naming the node and carrying the panic message —
    /// never re-panicked, so one crashed node cannot take the harness that
    /// joins it down with a double panic.
    pub fn join(self) -> Result<(DriverSummary, ProtocolRuntime, T), TransportError> {
        match self.thread.join() {
            Ok(result) => result,
            Err(payload) => {
                let what = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".to_string());
                Err(TransportError(format!(
                    "driver thread for node {} panicked: {what}",
                    self.local_id
                )))
            }
        }
    }
}

/// Spawns [`run`] on a dedicated thread and returns its [`DriverHandle`].
pub fn spawn<T: Transport + 'static>(
    runtime: ProtocolRuntime,
    transport: T,
    opts: DriverOptions,
) -> DriverHandle<T> {
    let stop = Arc::new(AtomicBool::new(false));
    let committed = Arc::new(AtomicU64::new(0));
    let local_id = runtime.id();
    let thread = {
        let stop = Arc::clone(&stop);
        let committed = Arc::clone(&committed);
        std::thread::spawn(move || run(runtime, transport, &opts, &stop, &committed))
    };
    DriverHandle {
        stop,
        committed,
        local_id,
        thread,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::channel_mesh;
    use crate::protocol::{build_runtime, ProtocolKind};
    use lumiere_types::Duration;

    /// Four nodes on the channel mesh, driven in real time, must commit and
    /// agree. This is the whole point of the runtime extraction: the exact
    /// protocol code the simulator exercises, running on wall clocks.
    #[test]
    fn four_channel_nodes_commit_and_agree() {
        let n = 4;
        let delta = Duration::from_millis(5);
        let handles: Vec<_> = channel_mesh(n)
            .into_iter()
            .enumerate()
            .map(|(i, transport)| {
                let rt = build_runtime(ProtocolKind::Lumiere, n, i, delta, 7);
                spawn(
                    rt,
                    transport,
                    DriverOptions {
                        target_commits: Some(5),
                        deadline: Some(WallDuration::from_secs(30)),
                        linger: WallDuration::from_millis(300),
                        poll: WallDuration::from_millis(2),
                        load_tps: None,
                    },
                )
            })
            .collect();
        let summaries: Vec<_> = handles.into_iter().map(|h| h.join().unwrap().0).collect();
        for s in &summaries {
            assert!(
                s.committed_height >= 5,
                "node {} committed only {} blocks",
                s.node,
                s.committed_height
            );
            assert_eq!(
                s.commits.len() as u64,
                s.committed_height,
                "every commit must leave a timestamped record"
            );
            assert!(
                s.commits
                    .windows(2)
                    .all(|w| w[0].wall_ms <= w[1].wall_ms && w[0].height < w[1].height),
                "commit records must be monotone in time and height"
            );
            assert_eq!(s.gated_events, 0, "honest nodes gate nothing");
            assert_eq!(s.txs_submitted, 0, "no --load, no generated traffic");
            assert_eq!(s.txs_committed, 0);
        }
        let agreed = check_agreement(&summaries).expect("chains must agree");
        assert!(agreed >= 5, "agreed prefix shorter than the commit target");
    }

    /// Four loaded channel nodes: client transactions must flow into
    /// committed blocks on every node, with positive measured latency.
    #[test]
    fn loaded_channel_nodes_commit_client_transactions() {
        let n = 4;
        let delta = Duration::from_millis(5);
        let handles: Vec<_> = channel_mesh(n)
            .into_iter()
            .enumerate()
            .map(|(i, transport)| {
                let rt = build_runtime(ProtocolKind::Lumiere, n, i, delta, 7);
                spawn(
                    rt,
                    transport,
                    DriverOptions {
                        target_commits: Some(5),
                        deadline: Some(WallDuration::from_secs(30)),
                        linger: WallDuration::from_millis(300),
                        poll: WallDuration::from_millis(2),
                        load_tps: Some(200),
                    },
                )
            })
            .collect();
        let summaries: Vec<_> = handles.into_iter().map(|h| h.join().unwrap().0).collect();
        check_agreement(&summaries).expect("load must not break agreement");
        for s in &summaries {
            assert!(s.txs_submitted > 0, "node {} generated no load", s.node);
            assert!(
                s.txs_committed > 0,
                "node {} committed no transactions",
                s.node
            );
            assert!(
                s.tx_latency_p50_ms > 0.0,
                "node {} measured no commit latency",
                s.node
            );
            assert!(s.tx_latency_p50_ms <= s.tx_latency_p95_ms);
            assert!(s.tx_latency_p95_ms <= s.tx_latency_p99_ms);
            assert_eq!(
                s.tx_recommits, 0,
                "node {} committed a transaction twice",
                s.node
            );
        }
    }

    /// Regression: agreement over an empty cluster (a 0-node config) is
    /// vacuously true, not a `min().unwrap()` panic.
    #[test]
    fn empty_cluster_agreement_is_vacuous() {
        assert_eq!(check_agreement(&[]), Ok(0));
    }

    #[test]
    fn agreement_rejects_diverging_chains_across_any_pair() {
        let summary = |node: usize, chain: Vec<u64>| DriverSummary {
            node,
            protocol: "lumiere".to_string(),
            committed_height: chain.len() as u64,
            final_view: View::new(0),
            chain,
            wall_ms: 0.0,
            commits: Vec::new(),
            gated_events: 0,
            txs_submitted: 0,
            txs_committed: 0,
            tx_recommits: 0,
            tx_latency_p50_ms: 0.0,
            tx_latency_p95_ms: 0.0,
            tx_latency_p99_ms: 0.0,
        };
        let agreeing = vec![
            summary(0, vec![1, 2, 3]),
            summary(1, vec![1, 2]),
            summary(2, vec![1, 2, 3, 4]),
        ];
        assert_eq!(check_agreement(&agreeing), Ok(2));
        // The short middle chain is compatible with both neighbours, but
        // nodes 0 and 2 contradict each other — adjacent-only comparison
        // would miss this.
        let diverging = vec![
            summary(0, vec![1, 2, 3]),
            summary(1, vec![1]),
            summary(2, vec![1, 2, 9]),
        ];
        let err = check_agreement(&diverging).unwrap_err();
        assert!(err.contains("nodes 0 and 2"), "got: {err}");
    }

    /// A panicking driver thread surfaces as a labelled error naming the
    /// node, instead of a bare `Err(Any)` that callers can only unwrap into
    /// a double panic.
    #[test]
    fn a_panicked_driver_thread_yields_a_labelled_error() {
        struct PanickingTransport;
        impl Transport for PanickingTransport {
            fn local_id(&self) -> ProcessId {
                ProcessId::new(2)
            }
            fn cluster_size(&self) -> usize {
                4
            }
            fn send(&mut self, _: ProcessId, _: &WireMessage) -> Result<(), TransportError> {
                Ok(())
            }
            fn recv_timeout(
                &mut self,
                _: WallDuration,
            ) -> Result<Option<(ProcessId, WireMessage)>, TransportError> {
                panic!("transport wedged");
            }
        }
        let rt = build_runtime(ProtocolKind::Lumiere, 4, 2, Duration::from_millis(5), 7);
        let handle = spawn(rt, PanickingTransport, DriverOptions::default());
        let err = match handle.join() {
            Ok(_) => panic!("join must fail when the driver thread panics"),
            Err(e) => e,
        };
        assert!(
            err.0.contains("node p2") && err.0.contains("transport wedged"),
            "panic must be labelled with the node id and payload, got: {}",
            err.0
        );
    }

    #[test]
    fn stop_requests_interrupt_an_idle_driver() {
        let mut mesh = channel_mesh(4);
        let transport = mesh.remove(0);
        // Keep the peer mailboxes alive but silent: alone, node 0 can never
        // assemble a quorum, so the driver would spin until its deadline.
        let _silent_peers = mesh;
        let rt = build_runtime(
            ProtocolKind::Lumiere,
            4,
            0,
            lumiere_types::Duration::from_millis(5),
            1,
        );
        let handle = spawn(
            rt,
            transport,
            DriverOptions {
                deadline: Some(WallDuration::from_secs(30)),
                ..DriverOptions::default()
            },
        );
        std::thread::sleep(WallDuration::from_millis(50));
        handle.stop();
        let (summary, _, _) = handle.join().unwrap();
        assert!(summary.wall_ms < 10_000.0, "stop request was ignored");
    }
}
