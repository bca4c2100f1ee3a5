//! The runtime boundary: step-on-event, emit-outputs, request timers.
//!
//! A [`ProtocolRuntime`] is one processor's protocol state machine — a
//! [`Pacemaker`] coupled with the underlying [`HotStuffEngine`], and on a
//! corrupted processor the adversary [`Strategy`] it runs — detached from
//! any particular way of delivering its events. The discrete-event
//! simulator, the in-process channel mesh and the TCP mesh all drive the
//! same [`ProtocolRuntime`] bytes; only the host differs.
//!
//! Hosts interact with a runtime through exactly three event kinds (boot,
//! timer wake-up, message delivery) and read back a [`RuntimeOutput`]: sends,
//! broadcasts, requested wake-ups and local notifications (commits, QCs,
//! views entered). Nothing in this module knows about sockets, channels or
//! the simulator's virtual clock.

use crate::adversary::{ProtocolObs, Strategy, StrategyCtx, StrategyKind};
use crate::message::WireMessage;
use crate::output::RuntimeOutput;
use lumiere_consensus::{Block, ConsensusAction, HotStuffEngine};
use lumiere_core::pacemaker::{Pacemaker, PacemakerAction};
use lumiere_core::{LeaderSchedule, Mempool, MempoolConfig};
use lumiere_types::{Duration, ProcessId, Time, Transaction, TxId, View};
use std::collections::VecDeque;

/// Per-event switches deciding which protocol components a step may run.
///
/// An honest runtime runs every event under [`Gates::OPEN`]; a corrupted
/// one under what its [`Strategy`] returns for the event (a crashed node
/// runs nothing; a silent leader runs everything but never proposes).
/// Gates are constant for the duration of one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gates {
    /// Whether the pacemaker handles events (boot, wake-ups, pacemaker
    /// messages, QC notifications).
    pub pacemaker: bool,
    /// Whether the consensus engine handles events (view entries, consensus
    /// messages).
    pub consensus: bool,
    /// Whether the engine proposes when this processor leads a view.
    pub proposes: bool,
}

impl Gates {
    /// The honest configuration: every component runs.
    pub const OPEN: Gates = Gates {
        pacemaker: true,
        consensus: true,
        proposes: true,
    };
}

impl Default for Gates {
    fn default() -> Self {
        Gates::OPEN
    }
}

/// Old name of [`ProtocolRuntime`], kept for the two imports of it in the
/// benchmark crate (`benchmark/src/mesh.rs` and `benchmark/src/probes.rs`),
/// which change only with the benchmark itself.
#[doc(hidden)]
pub type ConsensusRuntime = ProtocolRuntime;

/// A single processor's consensus runtime: a [`Pacemaker`] (Lumiere or any
/// baseline) coupled with the [`HotStuffEngine`], cascading their
/// notifications until quiescence, plus the adversary [`Strategy`] of a
/// corrupted processor ([`ProtocolRuntime::with_strategy`]).
///
/// # Contract
///
/// * [`boot`](ProtocolRuntime::boot) is called once, before any other
///   event.
/// * [`wake`](ProtocolRuntime::wake) fires a timer previously requested
///   through [`RuntimeOutput::wakes`]; spurious wake-ups are allowed.
/// * [`deliver`](ProtocolRuntime::deliver) hands over one network message.
///   Duplicate delivery is tolerated (handlers are idempotent).
/// * `now` is the host's clock reading — virtual time under the simulator,
///   wall-clock-derived under the live drivers. Handlers never block and
///   never read real time themselves.
///
/// The gated entry points ([`ProtocolRuntime::boot_gated`] and friends) run
/// one event under explicit [`Gates`], bypassing the strategy.
#[derive(Debug)]
pub struct ProtocolRuntime {
    id: ProcessId,
    pacemaker: Box<dyn Pacemaker>,
    engine: HotStuffEngine,
    /// The adversary strategy; `None` on an honest node.
    strategy: Option<Strategy>,
    /// Client transactions waiting to commit. On every view entry this node
    /// leads, the next batch not already in flight is staged as the
    /// proposal payload.
    mempool: Mempool,
    /// The ids the uncommitted chain of the next proposal's parent carries,
    /// sorted: what its batch skips. Rebuilt on every view entry this node
    /// leads, in a buffer reused across them.
    in_flight: Vec<TxId>,
    booted: bool,
    /// Latest `now` any event carried — the restart floor (see
    /// [`ProtocolRuntime::resume_floor`]).
    last_event_time: Time,
    /// The cascade's buffers, empty between events and reused across them
    /// (no per-event allocation once warm). The pacemaker's handlers write
    /// into `pm_batch` and the engine's into `cons_batch`; consensus actions
    /// wait in `cons_queue` behind the pacemaker batch one of them set off.
    pm_batch: Vec<PacemakerAction>,
    cons_batch: Vec<ConsensusAction>,
    cons_queue: VecDeque<ConsensusAction>,
}

impl ProtocolRuntime {
    /// Creates a runtime from its pacemaker and consensus engine.
    pub fn new(id: ProcessId, pacemaker: Box<dyn Pacemaker>, engine: HotStuffEngine) -> Self {
        ProtocolRuntime {
            id,
            pacemaker,
            engine,
            strategy: None,
            mempool: Mempool::default(),
            in_flight: Vec::new(),
            booted: false,
            last_event_time: Time::ZERO,
            pm_batch: Vec::new(),
            cons_batch: Vec::new(),
            cons_queue: VecDeque::new(),
        }
    }

    /// Installs the adversary strategy this node runs: `None` keeps it
    /// honest.
    pub fn with_strategy(mut self, strategy: Option<StrategyKind>) -> Self {
        self.strategy = strategy.map(Strategy::new);
        self
    }

    /// Whether the node is honest (runs no strategy).
    pub fn is_honest(&self) -> bool {
        self.strategy.is_none()
    }

    /// The adversary strategy's name, if the node is corrupted.
    pub fn strategy_name(&self) -> Option<&'static str> {
        self.strategy.as_ref().map(|s| s.kind().name())
    }

    /// The processor's identifier.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The pacemaker protocol's short name (e.g. `"lumiere"`).
    pub fn protocol_name(&self) -> &'static str {
        self.pacemaker.name()
    }

    /// Starts the processor, appending its effects to `out`.
    pub fn boot(&mut self, now: Time, out: &mut RuntimeOutput) {
        // A strategy's own wake-up (a crash–recovery rejoin) is scheduled
        // even while the node is dark.
        out.wakes
            .extend(self.strategy.as_ref().and_then(Strategy::boot_wake));
        // A boot is never counted as gated.
        self.step(now, out, |rt, gates, out| {
            rt.boot_gated(now, gates, out);
            true
        });
    }

    /// Fires a timer wake-up, appending its effects to `out`.
    pub fn wake(&mut self, now: Time, out: &mut RuntimeOutput) {
        self.step(now, out, |rt, gates, out| rt.wake_gated(now, gates, out));
    }

    /// Delivers a message from `from`, appending its effects to `out`.
    pub fn deliver(
        &mut self,
        from: ProcessId,
        msg: &WireMessage,
        now: Time,
        out: &mut RuntimeOutput,
    ) {
        self.step(now, out, |rt, gates, out| {
            rt.deliver_gated(from, msg, now, gates, out)
        });
    }

    /// The view this processor is currently in.
    pub fn current_view(&self) -> View {
        self.pacemaker.current_view()
    }

    /// Height of the highest block this processor has committed.
    pub fn committed_height(&self) -> u64 {
        self.engine.committed_height()
    }

    /// Hashes of the blocks this processor has committed, in chain order.
    pub fn committed_chain(&self) -> Vec<u64> {
        self.engine.store().committed_chain().to_vec()
    }

    /// The minimum `now` the next event may carry. Fresh runtimes start at
    /// zero; a runtime that already processed events (one being re-hosted
    /// after a process restart) must never see time run backwards — its
    /// clocks and deadlines all live in virtual time — so hosts anchor
    /// their clock mapping at this floor.
    pub fn resume_floor(&self) -> Time {
        self.last_event_time
    }

    /// Submits a client transaction into this processor's mempool. Returns
    /// `false` when the mempool rejected it (duplicate id or at capacity).
    /// Client traffic is never strategy-gated: a corrupted node accepting a
    /// transaction and then sitting on it is indistinguishable from one that
    /// rejected it.
    pub fn submit_tx(&mut self, tx: Transaction) -> bool {
        self.mempool.submit(tx)
    }

    /// Runs one event through `step`. An honest node goes straight through
    /// under [`Gates::OPEN`]. A corrupted node's strategy reacts to the
    /// start-of-event snapshot and picks the gates; the event counts as
    /// gated when `step` reports its component closed; and the strategy
    /// rewrites the output against a *fresh* snapshot, so an adaptive
    /// rewrite reacts to what the event changed (e.g. the leader of a view
    /// entered moments ago).
    fn step(
        &mut self,
        now: Time,
        out: &mut RuntimeOutput,
        step: impl FnOnce(&mut Self, Gates, &mut RuntimeOutput) -> bool,
    ) {
        let Some(mut strategy) = self.strategy.take() else {
            step(self, Gates::OPEN, out);
            return;
        };
        let ctx = self.strategy_ctx(now);
        strategy.observe(&ctx);
        if !step(self, strategy.gates(&ctx), out) {
            out.gated_events += 1;
        }
        strategy.rewrite(&self.strategy_ctx(now), out);
        self.strategy = Some(strategy);
    }

    /// Snapshots the protocol state a strategy reads (a handful of field
    /// reads plus one scan of the engine's pending-vote pools for the
    /// current view).
    fn strategy_ctx(&self, now: Time) -> StrategyCtx {
        let engine = &self.engine;
        StrategyCtx {
            id: self.id,
            n: engine.params().n,
            now,
            obs: ProtocolObs {
                view: self.current_view(),
                engine_view: engine.current_view(),
                leader: engine.current_leader(),
                locked_view: engine.locked_view(),
                last_voted_view: engine.last_voted_view(),
                high_qc_view: engine.high_qc().view(),
                pending_qc_votes: engine.pending_votes(engine.current_view()),
                clock: self.local_clock_reading(now),
                booted: self.booted,
            },
        }
    }

    /// Replaces the mempool's sizing knobs (batch size, byte budget,
    /// capacity). Call before any transactions are submitted.
    pub fn set_mempool_config(&mut self, cfg: MempoolConfig) {
        self.mempool = Mempool::new(cfg);
    }

    /// Read access to the consensus engine (introspection: locks, votes,
    /// equivocation counters).
    pub fn engine(&self) -> &HotStuffEngine {
        &self.engine
    }

    /// Read access to the mempool (introspection: queue depth, shed count).
    pub fn mempool(&self) -> &Mempool {
        &self.mempool
    }

    /// How many entries this node holds, summed over every per-view record,
    /// message pool, block store and mempool index of its three components.
    /// A node's memory is proportional to it: the oracle for "no input may
    /// grow a node without bound".
    pub fn state_entries(&self) -> usize {
        self.pacemaker.state_entries() + self.engine.state_entries() + self.mempool.state_entries()
    }

    /// Whether the pacemaker has booted (run its first event).
    pub fn booted(&self) -> bool {
        self.booted
    }

    /// The pacemaker's leader schedule.
    pub fn schedule(&self) -> &LeaderSchedule {
        self.pacemaker.schedule()
    }

    /// The pacemaker's local-clock reading (for honest-gap metrics).
    pub fn local_clock_reading(&self, now: Time) -> Duration {
        self.pacemaker.local_clock_reading(now)
    }

    /// Runs the pacemaker's boot once, the first time the node is active.
    fn maybe_boot_pacemaker(&mut self, now: Time, gates: Gates, out: &mut RuntimeOutput) {
        if self.booted || !gates.pacemaker {
            return;
        }
        self.booted = true;
        self.pacemaker.boot_into(now, &mut self.pm_batch);
        self.drain_pacemaker(now, gates, out);
    }

    /// Boots the processor under `gates`. Returns whether the pacemaker ran
    /// (false when its gate was closed).
    pub fn boot_gated(&mut self, now: Time, gates: Gates, out: &mut RuntimeOutput) -> bool {
        self.last_event_time = self.last_event_time.max(now);
        self.engine.set_proposing_enabled(gates.proposes);
        let ran = gates.pacemaker;
        self.maybe_boot_pacemaker(now, gates, out);
        ran
    }

    /// Fires a wake-up under `gates`. Returns whether the pacemaker ran.
    pub fn wake_gated(&mut self, now: Time, gates: Gates, out: &mut RuntimeOutput) -> bool {
        self.last_event_time = self.last_event_time.max(now);
        self.engine.set_proposing_enabled(gates.proposes);
        self.maybe_boot_pacemaker(now, gates, out);
        if !gates.pacemaker {
            return false;
        }
        self.pacemaker.on_wake_into(now, &mut self.pm_batch);
        self.drain_pacemaker(now, gates, out);
        true
    }

    /// Delivers a message under `gates`. Returns whether the component the
    /// message addresses actually ran (false when its gate was closed).
    pub fn deliver_gated(
        &mut self,
        from: ProcessId,
        msg: &WireMessage,
        now: Time,
        gates: Gates,
        out: &mut RuntimeOutput,
    ) -> bool {
        self.last_event_time = self.last_event_time.max(now);
        self.engine.set_proposing_enabled(gates.proposes);
        self.maybe_boot_pacemaker(now, gates, out);
        match msg {
            WireMessage::Pacemaker(m) => {
                if !gates.pacemaker {
                    return false;
                }
                self.pacemaker
                    .on_message_into(from, m, now, &mut self.pm_batch);
                self.drain_pacemaker(now, gates, out);
            }
            WireMessage::Consensus(m) => {
                if !gates.consensus {
                    return false;
                }
                self.engine
                    .on_message_into(from, m, now, &mut self.cons_batch);
                self.drain_consensus(now, gates, out);
            }
            WireMessage::Submit(tx) => {
                if !gates.consensus {
                    return false;
                }
                self.mempool.submit(*tx);
            }
        }
        true
    }

    /// Stages the payload of the proposal this node is about to make: the
    /// first batch of its mempool that the chain being extended does not
    /// already carry. `enter_view_into`, in the same step, proposes on
    /// `high_qc`'s block, so that block's uncommitted ancestry is what is in
    /// flight. A batch staged for a view this node never proposed in is
    /// dropped: its transactions never left the mempool.
    fn stage_batch(&mut self) {
        self.in_flight.clear();
        if !self.mempool.is_empty() {
            let parent = self.engine.high_qc().block_hash();
            for block in self.engine.store().uncommitted_ancestry(parent) {
                self.in_flight.extend(block.payload().tx_ids());
            }
            self.in_flight.sort_unstable();
        }
        let batch = self.mempool.next_batch_excluding(&self.in_flight);
        self.engine.stage_payload(batch);
    }

    /// Reports a committed block to the host, prunes its transactions from
    /// the mempool (the one place either cascade does so) and hands its view,
    /// the commit horizon, to the pacemaker.
    fn on_committed(&mut self, block: Block, out: &mut RuntimeOutput) {
        self.pacemaker.prune_below(block.view());
        out.commits.push(block.height());
        out.committed_txs.extend(block.payload().tx_ids());
        self.mempool.mark_committed(block.payload().tx_ids());
        out.committed_blocks.push(block);
    }

    /// Processes the pacemaker batch, cascading into the consensus engine as
    /// needed (view entries trigger proposals, which may trigger QCs, which
    /// feed back into the pacemaker, and so on until quiescence). A batch
    /// runs to its end before the next consensus action is taken.
    fn drain_pacemaker(&mut self, now: Time, gates: Gates, out: &mut RuntimeOutput) {
        debug_assert!(self.cons_batch.is_empty() && self.cons_queue.is_empty());
        let mut pm = std::mem::take(&mut self.pm_batch);
        loop {
            for action in pm.drain(..) {
                match action {
                    PacemakerAction::SendTo(to, m) => {
                        out.sends.push((to, WireMessage::Pacemaker(m)));
                    }
                    PacemakerAction::Broadcast(m) => {
                        out.broadcasts.push(WireMessage::Pacemaker(m));
                    }
                    PacemakerAction::WakeAt(t) => out.wakes.push(t),
                    PacemakerAction::HeavySyncStarted { view } => out.heavy_syncs.push(view),
                    PacemakerAction::SetQcDeadline { view, deadline } => {
                        self.engine.set_qc_deadline(view, deadline);
                    }
                    PacemakerAction::EnterView { view, leader } => {
                        out.entered_views.push(view);
                        if gates.consensus {
                            if leader == self.id {
                                self.stage_batch();
                            }
                            self.engine
                                .enter_view_into(view, leader, now, &mut self.cons_batch);
                            self.cons_queue.extend(self.cons_batch.drain(..));
                        }
                    }
                }
            }
            let Some(action) = self.cons_queue.pop_front() else {
                break;
            };
            self.apply_consensus(action, now, gates, out, &mut pm);
        }
        self.pm_batch = pm;
    }

    /// Processes the consensus batch, then the pacemaker actions its
    /// certificate notifications set off.
    fn drain_consensus(&mut self, now: Time, gates: Gates, out: &mut RuntimeOutput) {
        let mut cons = std::mem::take(&mut self.cons_batch);
        let mut pm = std::mem::take(&mut self.pm_batch);
        for action in cons.drain(..) {
            self.apply_consensus(action, now, gates, out, &mut pm);
        }
        self.cons_batch = cons;
        self.pm_batch = pm;
        self.drain_pacemaker(now, gates, out);
    }

    /// Executes one consensus action. A certificate notification goes to
    /// the pacemaker, whose actions are appended to `pm`.
    fn apply_consensus(
        &mut self,
        action: ConsensusAction,
        now: Time,
        gates: Gates,
        out: &mut RuntimeOutput,
        pm: &mut Vec<PacemakerAction>,
    ) {
        match action {
            ConsensusAction::Broadcast(m) => out.broadcasts.push(WireMessage::Consensus(m)),
            ConsensusAction::Send(to, m) => out.sends.push((to, WireMessage::Consensus(m))),
            ConsensusAction::Committed(block) => self.on_committed(block, out),
            ConsensusAction::QcFormed(qc) => {
                if gates.pacemaker {
                    self.pacemaker.on_qc_into(&qc, true, now, pm);
                }
                out.qcs_formed.push(qc);
            }
            ConsensusAction::QcObserved(qc) => {
                if gates.pacemaker {
                    self.pacemaker.on_qc_into(&qc, false, now, pm);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ProtocolKind;
    use lumiere_consensus::ConsensusMessage;
    use lumiere_types::TimeRange;

    fn build(n: usize, who: usize) -> ProtocolRuntime {
        crate::build_runtime(ProtocolKind::Lumiere, n, who, Duration::from_millis(10), 7)
    }

    fn host(n: usize, who: usize, strategy: Option<StrategyKind>) -> ProtocolRuntime {
        crate::build_runtime(ProtocolKind::Fever, n, who, Duration::from_millis(10), 2)
            .with_strategy(strategy)
    }

    #[test]
    fn honest_hosts_run_fully_open_and_count_nothing() {
        let mut h = host(4, 0, None);
        let mut out = RuntimeOutput::default();
        h.boot(Time::ZERO, &mut out);
        assert!(h.is_honest());
        assert_eq!(h.strategy_name(), None);
        assert!(out.entered_views.contains(&View::new(0)));
        assert!(
            out.broadcasts
                .iter()
                .any(|m| matches!(m, WireMessage::Consensus(_))),
            "p0 leads Fever view 0 and must propose at boot"
        );
        assert_eq!(out.gated_events, 0);
    }

    #[test]
    fn non_leader_boot_sends_its_view_message() {
        let mut h = host(4, 2, None);
        let mut out = RuntimeOutput::default();
        h.boot(Time::ZERO, &mut out);
        assert!(out
            .sends
            .iter()
            .any(|(to, m)| *to == ProcessId::new(0) && matches!(m, WireMessage::Pacemaker(_))));
    }

    #[test]
    fn silent_leader_enters_views_but_never_proposes() {
        let mut h = host(4, 0, Some(StrategyKind::SilentLeader));
        let mut out = RuntimeOutput::default();
        h.boot(Time::ZERO, &mut out);
        assert!(out.entered_views.contains(&View::new(0)));
        assert!(
            !out.broadcasts
                .iter()
                .any(|m| matches!(m, WireMessage::Consensus(_))),
            "a silent leader must not propose"
        );
        assert_eq!(h.current_view(), View::new(0), "the pacemaker ran");
    }

    #[test]
    fn sync_silent_nodes_skip_the_pacemaker_entirely() {
        let mut h = host(4, 1, Some(StrategyKind::SyncSilent));
        let mut out = RuntimeOutput::default();
        h.boot(Time::ZERO, &mut out);
        assert!(out.sends.is_empty() && out.broadcasts.is_empty());
        assert_eq!(h.current_view(), View::SENTINEL);
    }

    #[test]
    fn equivocating_leader_sends_conflicting_proposals() {
        let mut h = host(4, 0, Some(StrategyKind::Equivocate));
        let mut out = RuntimeOutput::default();
        h.boot(Time::ZERO, &mut out);
        // The proposal broadcast is rewritten into targeted sends carrying
        // two distinct blocks for the same view.
        let hashes: std::collections::BTreeSet<u64> = out
            .sends
            .iter()
            .filter_map(|(_, m)| match m {
                WireMessage::Consensus(ConsensusMessage::Proposal(b)) => Some(b.hash()),
                _ => None,
            })
            .collect();
        assert_eq!(hashes.len(), 2, "expected two conflicting proposals");
        assert!(!out
            .broadcasts
            .iter()
            .any(|m| matches!(m, WireMessage::Consensus(ConsensusMessage::Proposal(_)))));
    }

    #[test]
    fn crashed_hosts_emit_nothing_and_wakes_count_as_gated() {
        let mut h = host(4, 0, Some(StrategyKind::Crash));
        let mut out = RuntimeOutput::default();
        h.boot(Time::ZERO, &mut out);
        assert!(out.is_empty(), "a crashed node must emit nothing at boot");
        // Boot does not count as a gated event (matching the simulator),
        // but every subsequent swallowed wake does.
        assert_eq!(out.gated_events, 0);
        out.clear();
        h.wake(Time::from_millis(10), &mut out);
        assert_eq!(out.gated_events, 1);
        assert_eq!(h.strategy_name(), Some("crash"));
    }

    #[test]
    fn dark_window_wakes_are_gated_and_the_rejoin_wake_is_not() {
        let down = TimeRange::new(Time::ZERO, Time::from_millis(50));
        let mut h = host(4, 2, Some(StrategyKind::CrashRecovery { down }));
        let mut out = RuntimeOutput::default();
        h.boot(Time::ZERO, &mut out);
        assert_eq!(out.wakes, vec![Time::from_millis(50)], "rejoin wake");
        for at in [10, 20] {
            out.clear(); // the live driver clears after every flush
            h.wake(Time::from_millis(at), &mut out);
            assert_eq!(out.gated_events, 1, "a dark-window wake is gated");
        }
        out.clear();
        h.wake(Time::from_millis(50), &mut out);
        assert_eq!(out.gated_events, 0, "the rejoin wake runs ungated");
        assert!(!out.is_empty(), "a rejoined node must resume participating");
    }

    #[test]
    fn booted_runtime_enters_view_zero_and_requests_timers() {
        let mut rt = build(4, 0);
        let mut out = RuntimeOutput::default();
        rt.boot(Time::ZERO, &mut out);
        assert!(rt.booted());
        assert!(!out.wakes.is_empty(), "boot must arm at least one timer");
        assert_eq!(rt.protocol_name(), "lumiere");
        assert_eq!(rt.id(), ProcessId::new(0));
    }

    #[test]
    fn closed_pacemaker_gate_reports_unhandled() {
        let mut rt = build(4, 1);
        let gates = Gates {
            pacemaker: false,
            consensus: true,
            proposes: false,
        };
        let mut out = RuntimeOutput::default();
        assert!(!rt.boot_gated(Time::ZERO, gates, &mut out));
        assert!(!rt.booted());
        assert!(!rt.wake_gated(Time::from_millis(1), gates, &mut out));
        assert!(out.sends.is_empty() && out.broadcasts.is_empty());
    }

    /// A miniature host: synchronous rounds, every message delivered in the
    /// round after it was sent unless the round's filter drops it, the
    /// clock advanced 1 ms per round and a node woken in the first round at
    /// or past one of its timers. Proves the runtime boundary is sufficient
    /// to drive the protocol without the simulator.
    struct Hand {
        nodes: Vec<ProtocolRuntime>,
        now: Time,
        /// Messages sent this round: `(from, to, msg)`.
        pending: Vec<(usize, usize, WireMessage)>,
        timers: Vec<Vec<Time>>,
        /// Every node's committed transaction ids, in commit order.
        committed: Vec<Vec<TxId>>,
        out: RuntimeOutput,
    }

    impl Hand {
        fn boot(n: usize) -> Self {
            let mut hand = Hand {
                nodes: (0..n).map(|i| build(n, i)).collect(),
                now: Time::ZERO,
                pending: Vec::new(),
                timers: vec![Vec::new(); n],
                committed: vec![Vec::new(); n],
                out: RuntimeOutput::default(),
            };
            for i in 0..n {
                hand.step(i, |node, now, out| node.boot(now, out));
            }
            hand
        }

        /// Hands `tx` to every node's mempool, as a client broadcast does.
        fn submit(&mut self, tx: Transaction) {
            for node in &mut self.nodes {
                node.submit_tx(tx);
            }
        }

        /// Runs one call into node `i` and routes what it output.
        fn step(
            &mut self,
            i: usize,
            call: impl FnOnce(&mut ProtocolRuntime, Time, &mut RuntimeOutput),
        ) {
            let out = &mut self.out;
            out.clear();
            call(&mut self.nodes[i], self.now, out);
            // The three views of a commit agree.
            let blocks = &out.committed_blocks;
            let heights: Vec<u64> = blocks.iter().map(|b| b.height()).collect();
            let ids: Vec<TxId> = blocks.iter().flat_map(|b| b.payload().tx_ids()).collect();
            assert_eq!(
                (heights, ids),
                (out.commits.clone(), out.committed_txs.clone())
            );
            self.committed[i].extend(out.committed_txs.iter().copied());
            for (to, msg) in &out.sends {
                self.pending.push((i, to.as_usize(), msg.clone()));
            }
            for msg in &out.broadcasts {
                for to in (0..self.nodes.len()).filter(|&to| to != i) {
                    self.pending.push((i, to, msg.clone()));
                }
            }
            self.timers[i].extend(out.wakes.iter().copied());
        }

        /// Delivers this round's messages, except those `drop(from, msg)`
        /// rejects, then advances the clock and fires the timers due.
        fn round(&mut self, mut drop: impl FnMut(usize, &WireMessage) -> bool) {
            for (from, to, msg) in std::mem::take(&mut self.pending) {
                if !drop(from, &msg) {
                    let from = ProcessId::new(from);
                    self.step(to, |node, now, out| node.deliver(from, &msg, now, out));
                }
            }
            self.now += Duration::from_millis(1);
            for i in 0..self.nodes.len() {
                let now = self.now;
                let before = self.timers[i].len();
                self.timers[i].retain(|t| *t > now);
                if self.timers[i].len() < before {
                    self.step(i, |node, now, out| node.wake(now, out));
                }
            }
        }

        fn min_height(&self) -> u64 {
            let heights = self.nodes.iter().map(|n| n.committed_height());
            heights.min().expect("a cluster has nodes")
        }

        /// Asserts that every pair of committed chains is prefix-ordered.
        fn assert_agreement(&self) {
            let chains: Vec<Vec<u64>> = self.nodes.iter().map(|n| n.committed_chain()).collect();
            let agreed = crate::driver::chains_agree(&chains);
            assert!(agreed.is_ok(), "committed chains diverged: {agreed:?}");
        }
    }

    #[test]
    fn four_runtimes_commit_when_stepped_by_hand() {
        let mut hand = Hand::boot(4);
        for _round in 0..400 {
            if hand.min_height() >= 3 {
                break;
            }
            hand.round(|_, _| false);
        }
        for node in &hand.nodes {
            assert!(
                node.committed_height() >= 3,
                "node {} stalled at height {}",
                node.id(),
                node.committed_height()
            );
        }
        hand.assert_agreement();
    }

    #[test]
    fn submitted_transactions_flow_into_committed_blocks() {
        let n = 4;
        let mut hand = Hand::boot(n);
        for i in 0..n {
            // The same two transactions reach every node: one submitted
            // locally, one arriving over the wire.
            assert!(hand.nodes[i].submit_tx(Transaction::new(TxId::new(1))));
            let from = ProcessId::new((i + 1) % n);
            let submit = WireMessage::Submit(Transaction::new(TxId::new(2)));
            hand.step(i, |node, now, out| {
                node.deliver(from, &submit, now, out);
                assert!(out.is_empty(), "a submission has no immediate effects");
            });
            assert!(
                !hand.nodes[i].submit_tx(Transaction::new(TxId::new(2))),
                "gossip echo must be rejected"
            );
            assert_eq!(hand.nodes[i].mempool().len(), 2);
        }
        for _round in 0..400 {
            if hand.committed.iter().all(|c| c.len() >= 2) {
                break;
            }
            hand.round(|_, _| false);
        }
        for (i, ids) in hand.committed.iter().enumerate() {
            assert_eq!(
                ids.len(),
                2,
                "node {i} must commit each tx exactly once, got {ids:?}"
            );
            assert!(ids.contains(&TxId::new(1)) && ids.contains(&TxId::new(2)));
            assert!(
                hand.nodes[i].mempool().is_empty(),
                "committed txs must be pruned from node {i}'s mempool"
            );
        }
    }

    #[test]
    fn a_loaded_cluster_never_commits_a_transaction_twice_on_one_node() {
        let mut hand = Hand::boot(4);
        let mut next_id = 0;
        for _round in 0..2_000 {
            if hand.min_height() >= 30 {
                break;
            }
            // Enough per round that consecutive leaders both hold
            // transactions the block between them carries.
            for _ in 0..4 {
                hand.submit(Transaction::new(TxId::new(next_id)));
                next_id += 1;
            }
            hand.round(|_, _| false);
        }
        assert!(hand.min_height() >= 30, "the loaded cluster stalled");
        hand.assert_agreement();
        for (i, ids) in hand.committed.iter().enumerate() {
            let distinct: lumiere_types::hash::IdSet<&TxId> = ids.iter().collect();
            assert_eq!(
                distinct.len(),
                ids.len(),
                "node {i} committed a transaction twice"
            );
            assert!(ids.len() >= 100, "node {i} committed only {}", ids.len());
        }
    }

    /// The leader of view `v` proposes the block carrying `t`, and that
    /// block's certificate reaches no other node. The next leader extends
    /// the older parent, whose chain does not carry `t`, so it proposes `t`
    /// again — with no step that gave `t` back to its mempool — and `t`
    /// commits exactly once on every node.
    #[test]
    fn an_abandoned_branch_returns_its_transactions_to_eligibility() {
        use lumiere_consensus::ConsensusMessage;
        use std::collections::BTreeSet;
        let t = TxId::new(77);
        let mut hand = Hand::boot(4);
        for _round in 0..2_000 {
            if hand.min_height() >= 4 {
                break;
            }
            hand.round(|_, _| false);
        }
        assert!(
            hand.min_height() >= 4,
            "the cluster stalled before the test"
        );
        hand.submit(Transaction::new(t));
        // The view whose certificate is hidden, and every block proposed
        // with `t` in it.
        let mut hidden: Option<View> = None;
        let mut carriers = BTreeSet::new();
        for _round in 0..2_000 {
            if hand.committed.iter().all(|ids| ids.contains(&t)) && hand.min_height() >= 12 {
                break;
            }
            hand.round(|_, msg| {
                let WireMessage::Consensus(msg) = msg else {
                    return false;
                };
                match msg {
                    ConsensusMessage::Proposal(block) => {
                        if block.payload().tx_ids().any(|id| id == t) {
                            carriers.insert(block.hash());
                            hidden.get_or_insert(block.view());
                        }
                        Some(block.justify().view()) == hidden
                    }
                    ConsensusMessage::NewQc(qc) => Some(qc.view()) == hidden,
                    ConsensusMessage::Vote { .. } => false,
                }
            });
        }
        assert!(hidden.is_some(), "no leader proposed t");
        assert!(
            carriers.len() >= 2,
            "t was proposed once: the next leader did not carry it again"
        );
        hand.assert_agreement();
        for (i, ids) in hand.committed.iter().enumerate() {
            let times = ids.iter().filter(|&&id| id == t).count();
            assert_eq!(times, 1, "node {i} committed t {times} times");
        }
    }
}
