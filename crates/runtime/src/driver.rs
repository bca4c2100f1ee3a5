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
use lumiere_types::runs::IdRuns;
use lumiere_types::{p50_p95_p99, Duration, ProcessId, Time, Transaction, TxId, View};
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
    /// `(time, height)` of each local commit, in commit order, the time in
    /// microseconds since the driver booted: the same form as
    /// `SimReport::commit_times`, judged by the same [`commit_stall`].
    pub commits: Vec<(Time, u64)>,
    /// The node's [`ProtocolRuntime::strategy_name`], `None` if honest.
    pub strategy: Option<String>,
    /// Strategy-gated events, when the node ran under a `--strategy`
    /// corruption (0 for honest nodes) — the live counterpart of the
    /// simulator's per-strategy activation count.
    pub gated_events: u64,
    /// The node's `--load` rate in transactions per second, `None` without.
    pub load_tps: Option<u64>,
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
/// consecutive commits may be further apart ([`commit_stall`]). The paper's
/// Theorem 1.1(2) gives worst-case latency `O(nΔ)`; the constant leaves room
/// for a commit (two consecutive honest-leader QCs) on top.
pub fn liveness_envelope(n: usize, delta: Duration) -> Duration {
    delta * (40 * n as i64 + 100)
}

/// Where a commit series first outlasts the liveness bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stall {
    /// Nothing committed inside the window.
    Silent,
    /// The first commit came this long after the window opened.
    First(Duration),
    /// Two consecutive commits, at these heights, lay this far apart.
    Gap(Duration, u64, u64),
    /// The window closed this long after the last commit.
    Tail(Duration),
}

/// The one liveness rule, for the simulator's fuzzing oracle and the live
/// verdict alike: of the `(time, height)` commits, in time order, those
/// after `start` must begin within `bound` of it, follow one another within
/// `bound`, and end within `bound` of `end`. Returns the first breach.
pub fn commit_stall(
    commits: &[(Time, u64)],
    start: Time,
    end: Time,
    bound: Duration,
) -> Option<Stall> {
    let commits = &commits[commits.partition_point(|(t, _)| *t <= start)..];
    let Some(&(first, _)) = commits.first() else {
        return Some(Stall::Silent);
    };
    if first - start > bound {
        return Some(Stall::First(first - start));
    }
    for w in commits.windows(2) {
        let ((a, from), (b, to)) = (w[0], w[1]);
        if b - a > bound {
            return Some(Stall::Gap(b - a, from, to));
        }
    }
    let tail = end - commits.last()?.0;
    (tail > bound).then_some(Stall::Tail(tail))
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

/// Checks one node's wall-clock commit trace, from boot to shutdown,
/// against [`commit_stall`] with the [`liveness_envelope`] bound, and
/// describes the first violation, if any.
pub fn envelope_violation(s: &DriverSummary, n: usize, delta: Duration) -> Option<String> {
    let bound = liveness_envelope(n, delta);
    let end = Time::from_micros((s.wall_ms * 1_000.0) as i64);
    let what = match commit_stall(&s.commits, Time::ZERO, end, bound)? {
        Stall::Silent => format!("committed nothing in {:.0} ms", s.wall_ms),
        Stall::First(d) => format!("took {:.0} ms to its first commit", d.as_millis_f64()),
        Stall::Gap(d, a, b) => format!(
            "stalled {:.0} ms between heights {a} and {b}",
            d.as_millis_f64()
        ),
        Stall::Tail(d) => format!("stalled {:.0} ms after its last commit", d.as_millis_f64()),
    };
    let (node, bound_ms) = (s.node, bound.as_millis_f64());
    Some(format!("node {node} {what} (bound {bound_ms:.0} ms)"))
}

/// A node the live harness SIGKILLed: its id, and whether it was restarted.
pub type Killed = (usize, bool);

/// Judges a live cluster from its summaries (indexed by node id) into fatal
/// failures and stalls; a run passes with none of the first, and a stall iff
/// one is expected. Only a node `killed` for good may lack a summary, and a
/// restarted one must have left view 0. All chains must agree. A summary's
/// `strategy` marks a corrupted node. An honest, never-killed node stalls
/// below `floor` blocks or outside [`liveness_envelope`]; under load
/// (`load_tps`) it must commit transactions, none twice in a fault-free run.
pub fn cluster_verdict(
    summaries: &[Option<DriverSummary>],
    delta: Duration,
    floor: u64,
    killed: &[Killed],
) -> (Vec<String>, Vec<String>) {
    let n = summaries.len();
    let mut fatal: Vec<String> = (0..n)
        .filter(|&i| summaries[i].is_none() && !killed.contains(&(i, false)))
        .map(|i| format!("node {i} wrote no summary (see its node{i}.log)"))
        .collect();
    let mut stalls = Vec::new();
    let present: Vec<&DriverSummary> = summaries.iter().flatten().collect();
    if let Err((a, b)) = chains_agree(&present.iter().map(|s| &s.chain).collect::<Vec<_>>()) {
        let (a, b) = (present[a].node, present[b].node);
        fatal.push(format!(
            "nodes {a} and {b} disagree on the committed prefix"
        ));
    }
    let faulty = !killed.is_empty() || present.iter().any(|s| s.strategy.is_some());
    let loaded = present.iter().any(|s| s.load_tps.is_some());
    for s in present.into_iter().filter(|s| s.strategy.is_none()) {
        let (i, h, again) = (s.node, s.committed_height, s.tx_recommits);
        if let Some(&(_, restarted)) = killed.iter().find(|k| k.0 == i) {
            if restarted && s.final_view < View::new(1) {
                fatal.push(format!(
                    "restarted node {i} never re-entered a view after recovery"
                ));
            }
            continue;
        }
        if loaded && s.txs_committed == 0 {
            fatal.push(format!("node {i} committed no client transactions"));
        } else if loaded && !faulty && again > 0 {
            fatal.push(format!(
                "node {i} committed {again} transactions it had already committed"
            ));
        }
        let low = (h < floor).then(|| format!("node {i} committed only {h} < {floor} blocks"));
        stalls.extend(low.or_else(|| envelope_violation(s, n, delta)));
    }
    (fatal, stalls)
}

/// Book-keeping for the driver's open-loop client load: wall-clock submit
/// instants of locally generated transactions, the set of transactions seen
/// committed and its size, and how many commits named one already in that
/// set. Each submitter's ids commit in the order it sent them, so the set
/// holds about one run per submitter.
#[derive(Debug, Default)]
struct TxStats {
    submitted: u64,
    submit_micros: IdMap<TxId, i64>,
    committed: IdRuns,
    committed_count: u64,
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
    let mut commit_log: Vec<(Time, u64)> = Vec::new();
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
    let [p50, p95, p99] = p50_p95_p99(&mut txs.latencies_micros);
    let summary = DriverSummary {
        node: runtime.id().as_usize(),
        protocol: runtime.protocol_name().to_string(),
        committed_height: runtime.committed_height(),
        final_view: runtime.current_view(),
        chain: runtime.committed_chain(),
        wall_ms: epoch.elapsed().as_secs_f64() * 1_000.0,
        commits: commit_log,
        strategy: runtime.strategy_name().map(str::to_string),
        gated_events,
        load_tps: opts.load_tps,
        txs_submitted: txs.submitted,
        txs_committed: txs.committed_count,
        tx_recommits: txs.recommits,
        tx_latency_p50_ms: p50 as f64 / 1_000.0,
        tx_latency_p95_ms: p95 as f64 / 1_000.0,
        tx_latency_p99_ms: p99 as f64 / 1_000.0,
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
    commit_log: &mut Vec<(Time, u64)>,
    gated_events: &mut u64,
    txs: &mut TxStats,
) -> Result<(), TransportError> {
    let now_micros = epoch.elapsed().as_micros() as i64;
    let at = Time::from_micros(now_micros);
    commit_log.extend(out.commits.drain(..).map(|height| (at, height)));
    for id in out.committed_txs.drain(..) {
        if !txs.committed.insert(id.as_u64()) {
            txs.recommits += 1;
            continue;
        }
        txs.committed_count += 1;
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
                    .all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1),
                "commit records must be monotone in time and height"
            );
            assert_eq!(s.gated_events, 0, "honest nodes gate nothing");
            assert_eq!(s.strategy, None, "honest nodes run no strategy");
            assert_eq!(s.txs_submitted, 0, "no --load, no generated traffic");
            assert_eq!(s.txs_committed, 0);
        }
        let summaries: Vec<_> = summaries.into_iter().map(Some).collect();
        let (fatal, _) = cluster_verdict(&summaries, delta, 5, &[]);
        assert!(fatal.is_empty(), "chains must agree: {fatal:?}");
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
        let (fatal, _) = cluster_verdict(
            &summaries.iter().cloned().map(Some).collect::<Vec<_>>(),
            delta,
            5,
            &[],
        );
        assert!(fatal.is_empty(), "load must not break agreement: {fatal:?}");
        for s in &summaries {
            assert_eq!(s.load_tps, Some(200));
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

    /// Δ for the verdict cases: at n = 4 the envelope is 5 200 ms.
    const DELTA: Duration = Duration::from_millis(20);

    /// An honest node that committed blocks 1..=`height`, one every 100 ms,
    /// and stopped 100 ms after the last.
    fn healthy(node: usize, height: u64) -> DriverSummary {
        DriverSummary {
            node,
            protocol: "lumiere".to_string(),
            committed_height: height,
            final_view: View::new(height as i64 + 2),
            chain: (1..=height).collect(),
            wall_ms: (height + 1) as f64 * 100.0,
            commits: (1..=height)
                .map(|height| (Time::from_millis(height as i64 * 100), height))
                .collect(),
            strategy: None,
            gated_events: 0,
            load_tps: None,
            txs_submitted: 0,
            txs_committed: 0,
            tx_recommits: 0,
            tx_latency_p50_ms: 0.0,
            tx_latency_p95_ms: 0.0,
            tx_latency_p99_ms: 0.0,
        }
    }

    /// Every node of `c` ran under load and committed transactions.
    fn load(c: &mut [Option<DriverSummary>]) {
        for s in c.iter_mut().flatten() {
            s.load_tps = Some(100);
            (s.txs_submitted, s.txs_committed) = (50, 120);
        }
    }

    fn node(c: &mut [Option<DriverSummary>], i: usize) -> &mut DriverSummary {
        c[i].as_mut().unwrap()
    }

    /// One verdict case: an edit to a healthy 4-node cluster judged at a
    /// floor of 10 blocks, and what the verdict must say about it.
    struct Case {
        name: &'static str,
        edit: fn(&mut Vec<Option<DriverSummary>>),
        killed: &'static [Killed],
        expect_stall: bool,
        fatal: &'static [&'static str],
        stall: Option<&'static str>,
        passes: bool,
    }

    const HEALTHY: Case = Case {
        name: "healthy",
        edit: |_| {},
        killed: &[],
        expect_stall: false,
        fatal: &[],
        stall: None,
        passes: true,
    };

    /// One case per branch of the verdict, plus `--expect-stall` passing
    /// and failing.
    #[test]
    fn the_cluster_verdict_names_each_failure() {
        let below_floor = |c: &mut Vec<Option<DriverSummary>>| c[0] = Some(healthy(0, 9));
        let cases = [
            HEALTHY,
            Case {
                name: "--expect-stall without a stall",
                expect_stall: true,
                passes: false,
                ..HEALTHY
            },
            Case {
                name: "a missing summary",
                edit: |c| c[3] = None,
                fatal: &["node 3 wrote no summary (see its node3.log)"],
                passes: false,
                ..HEALTHY
            },
            Case {
                name: "a node killed for good",
                edit: |c| c[3] = None,
                killed: &[(3, false)],
                ..HEALTHY
            },
            Case {
                name: "a restarted node with no summary",
                edit: |c| c[2] = None,
                killed: &[(2, true), (3, false)],
                fatal: &["node 2 wrote no summary (see its node2.log)"],
                passes: false,
                ..HEALTHY
            },
            Case {
                name: "a diverging pair",
                edit: |c| node(c, 2).chain[4] = 99,
                fatal: &["nodes 2 and 3 disagree on the committed prefix"],
                passes: false,
                ..HEALTHY
            },
            Case {
                name: "a restarted node still in view 0",
                edit: |c| {
                    c[2] = Some(DriverSummary {
                        final_view: View::new(0),
                        ..healthy(2, 0)
                    })
                },
                killed: &[(2, true)],
                fatal: &["restarted node 2 never re-entered a view after recovery"],
                passes: false,
                ..HEALTHY
            },
            Case {
                name: "a restarted node back in a view, with no commits",
                edit: |c| c[2] = Some(healthy(2, 0)),
                killed: &[(2, true)],
                ..HEALTHY
            },
            Case {
                name: "an honest node with no transactions under load",
                edit: |c| {
                    load(c);
                    node(c, 1).txs_committed = 0;
                },
                fatal: &["node 1 committed no client transactions"],
                passes: false,
                ..HEALTHY
            },
            Case {
                name: "load configured, but no node submitted a transaction",
                edit: |c| {
                    load(c);
                    c.iter_mut().flatten().for_each(|s| {
                        (s.txs_submitted, s.txs_committed) = (0, 0);
                    });
                },
                fatal: &[
                    "node 0 committed no client transactions",
                    "node 1 committed no client transactions",
                    "node 2 committed no client transactions",
                    "node 3 committed no client transactions",
                ],
                passes: false,
                ..HEALTHY
            },
            Case {
                name: "a recommit in a fault-free loaded run",
                edit: |c| {
                    load(c);
                    node(c, 1).tx_recommits = 3;
                },
                fatal: &["node 1 committed 3 transactions it had already committed"],
                passes: false,
                ..HEALTHY
            },
            Case {
                name: "a recommit beside a corrupted node",
                edit: |c| {
                    load(c);
                    node(c, 1).tx_recommits = 3;
                    node(c, 3).strategy = Some("crash".to_string());
                },
                ..HEALTHY
            },
            Case {
                name: "an honest node below the floor",
                edit: below_floor,
                stall: Some("node 0 committed only 9 < 10 blocks"),
                passes: false,
                ..HEALTHY
            },
            Case {
                name: "--expect-stall with a stall",
                edit: below_floor,
                expect_stall: true,
                stall: Some("node 0 committed only 9 < 10 blocks"),
                ..HEALTHY
            },
            Case {
                name: "an honest node outside the envelope",
                edit: |c| node(c, 1).wall_ms += 6_000.0,
                stall: Some("node 1 stalled 6100 ms after its last commit (bound 5200 ms)"),
                passes: false,
                ..HEALTHY
            },
            Case {
                name: "a corrupted node that committed nothing",
                edit: |c| {
                    c[3] = Some(DriverSummary {
                        strategy: Some("silent-leader".to_string()),
                        ..healthy(3, 0)
                    })
                },
                ..HEALTHY
            },
        ];
        for case in cases {
            let mut cluster: Vec<_> = (0..4).map(|i| Some(healthy(i, 10))).collect();
            (case.edit)(&mut cluster);
            let (fatal, stalls) = cluster_verdict(&cluster, DELTA, 10, case.killed);
            let name = case.name;
            assert_eq!(fatal, case.fatal, "{name}");
            assert_eq!(stalls.first().map(String::as_str), case.stall, "{name}");
            assert!(stalls.len() <= 1, "{name}: {stalls:?}");
            let passed = fatal.is_empty() && stalls.is_empty() != case.expect_stall;
            assert_eq!(passed, case.passes, "{name}: {fatal:?} {stalls:?}");
        }
    }

    #[test]
    fn the_first_gap_past_the_envelope_is_named() {
        let violation = |edit: fn(&mut DriverSummary)| {
            let mut s = healthy(1, 10);
            edit(&mut s);
            envelope_violation(&s, 4, DELTA)
        };
        assert_eq!(violation(|_| {}), None);
        assert_eq!(
            violation(|s| *s = DriverSummary {
                wall_ms: 6_000.0,
                ..healthy(1, 0)
            })
            .as_deref(),
            Some("node 1 committed nothing in 6000 ms (bound 5200 ms)")
        );
        fn late(commit: &mut (Time, u64)) {
            commit.0 += Duration::from_millis(5_300);
        }
        assert_eq!(
            violation(|s| s.commits.iter_mut().for_each(late)).as_deref(),
            Some("node 1 took 5400 ms to its first commit (bound 5200 ms)")
        );
        assert_eq!(
            violation(|s| s.commits[5..].iter_mut().for_each(late)).as_deref(),
            Some("node 1 stalled 5400 ms between heights 5 and 6 (bound 5200 ms)")
        );
    }

    /// One commit and then silence past the envelope is a stall, whatever
    /// came before: the rule bounds the tail as well as the first commit.
    #[test]
    fn a_stall_after_the_only_commit_is_named() {
        let s = DriverSummary {
            wall_ms: 5_400.0,
            ..healthy(1, 1)
        };
        assert_eq!(
            envelope_violation(&s, 4, DELTA).as_deref(),
            Some("node 1 stalled 5300 ms after its last commit (bound 5200 ms)")
        );
        let bound = liveness_envelope(4, DELTA);
        let end = Time::from_millis(5_400);
        assert_eq!(
            commit_stall(&s.commits, Time::ZERO, end, bound),
            Some(Stall::Tail(Duration::from_millis(5_300)))
        );
        // Commits at or before `start` do not count.
        assert_eq!(
            commit_stall(&s.commits, Time::from_millis(100), end, bound),
            Some(Stall::Silent)
        );
    }

    /// Regression: agreement over an empty cluster (a 0-node config) is
    /// vacuously true, not a `min().unwrap()` panic.
    #[test]
    fn empty_cluster_agreement_is_vacuous() {
        assert_eq!(cluster_verdict(&[], DELTA, 0, &[]), Default::default());
        assert_eq!(chains_agree::<&[u64]>(&[]), Ok(0));
    }

    #[test]
    fn agreement_rejects_diverging_chains_across_any_pair() {
        let fatal = |chains: [&[u64]; 3]| {
            let cluster: Vec<_> = (0..3)
                .map(|i| {
                    Some(DriverSummary {
                        chain: chains[i].to_vec(),
                        ..healthy(i, 0)
                    })
                })
                .collect();
            cluster_verdict(&cluster, DELTA, 0, &[]).0
        };
        let agreeing: [&[u64]; 3] = [&[1, 2, 3], &[1, 2], &[1, 2, 3, 4]];
        assert!(fatal(agreeing).is_empty());
        assert_eq!(chains_agree(&agreeing), Ok(2), "the shared prefix");
        // The short middle chain is compatible with both neighbours, but
        // nodes 0 and 2 contradict each other — adjacent-only comparison
        // would miss this.
        assert_eq!(
            fatal([&[1, 2, 3], &[1], &[1, 2, 9]]),
            ["nodes 0 and 2 disagree on the committed prefix"]
        );
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
