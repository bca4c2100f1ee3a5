//! The strategy host: a [`ProtocolRuntime`] gated by an adversary
//! [`Strategy`].
//!
//! This is the per-event gating flow the simulator has always run —
//! snapshot a [`StrategyCtx`] before every event, ask the [`Strategy`] for
//! its [`Gates`], drive the runtime's gated entry points under them, and
//! finally let the strategy rewrite the outgoing traffic — extracted behind
//! the runtime boundary so a *live* `lumiere-node` process (`--strategy`)
//! corrupts itself with byte-for-byte the same machinery the simulator uses
//! in virtual time.
//!
//! [`StrategyHost`] implements [`ConsensusRuntime`], so every host that can
//! drive a [`ProtocolRuntime`] (the wall-clock driver, the channel mesh, the
//! TCP mesh) can drive a corrupted one without knowing it; the simulator's
//! processors are `StrategyHost`s too. An honest host (`strategy = None`)
//! adds no overhead beyond a branch per event.

use crate::adversary::{ProtocolObs, Strategy, StrategyCtx, StrategyKind};
use crate::message::WireMessage;
use crate::output::RuntimeOutput;
use crate::runtime::{ConsensusRuntime, Gates, ProtocolRuntime};
use lumiere_types::{ProcessId, Time, Transaction, View};

/// A [`ProtocolRuntime`] plus its (optional) adversary strategy.
///
/// Honest hosts run the runtime fully open. Corrupted hosts are driven
/// through the strategy: it decides, per event, which components run and
/// whether the node proposes, and may rewrite the node's outgoing traffic
/// (equivocation, selective starvation) before it reaches the network.
#[derive(Debug)]
pub struct StrategyHost {
    n: usize,
    runtime: ProtocolRuntime,
    strategy: Option<Strategy>,
}

impl StrategyHost {
    /// Wraps `runtime` in the gating harness. `strategy` is `None` for
    /// honest hosts; `n` is the cluster size (strategies need it to target
    /// recipients and size quorums).
    pub fn new(runtime: ProtocolRuntime, n: usize, strategy: Option<StrategyKind>) -> Self {
        StrategyHost {
            n,
            runtime,
            strategy: strategy.map(Strategy::new),
        }
    }

    /// Whether the host is honest (no strategy installed).
    pub fn is_honest(&self) -> bool {
        self.strategy.is_none()
    }

    /// The adversary strategy's name, if the host is corrupted.
    pub fn strategy_name(&self) -> Option<&'static str> {
        self.strategy.as_ref().map(|s| s.kind().name())
    }

    /// Read access to the wrapped runtime (introspection).
    pub fn runtime(&self) -> &ProtocolRuntime {
        &self.runtime
    }

    /// Replaces the runtime's mempool bounds (hosts configure this before
    /// booting the node).
    pub fn set_mempool_config(&mut self, cfg: lumiere_core::MempoolConfig) {
        self.runtime.set_mempool_config(cfg);
    }

    /// Snapshots the event context once, lets the strategy react to it
    /// (adaptive corruption) and returns the [`Gates`] the runtime's gated
    /// entry points take for this event (fully open for honest hosts, which
    /// never build a snapshot). Called exactly once per event.
    fn gates(&mut self, now: Time) -> Gates {
        match &mut self.strategy {
            Some(strategy) => {
                let ctx = strategy_ctx(&self.runtime, self.n, now);
                strategy.observe(&ctx);
                strategy.gates(&ctx)
            }
            None => Gates::OPEN,
        }
    }

    /// Applies the strategy's output rewrite (nothing for honest hosts). The
    /// rewrite sees a *fresh* post-event snapshot — an adaptive strategy
    /// rewriting its output must react to what the event changed (e.g. the
    /// leader of a view entered moments ago), not to the state the event
    /// started from.
    fn finish(&mut self, now: Time, out: &mut RuntimeOutput) {
        if let Some(strategy) = &mut self.strategy {
            strategy.rewrite(&strategy_ctx(&self.runtime, self.n, now), out);
        }
    }
}

/// Snapshots `runtime`'s protocol state into a [`StrategyCtx`] (cheap: a
/// handful of field reads plus one scan of the engine's pending-vote pools
/// for the current view).
fn strategy_ctx(runtime: &ProtocolRuntime, n: usize, now: Time) -> StrategyCtx {
    let engine = runtime.engine();
    StrategyCtx {
        id: runtime.id(),
        n,
        now,
        obs: ProtocolObs {
            view: runtime.current_view(),
            engine_view: engine.current_view(),
            leader: engine.current_leader(),
            locked_view: engine.locked_view(),
            last_voted_view: engine.last_voted_view(),
            high_qc_view: engine.high_qc().view(),
            pending_qc_votes: engine.pending_votes(engine.current_view()),
            clock: runtime.local_clock_reading(now),
            booted: runtime.booted(),
        },
    }
}

impl ConsensusRuntime for StrategyHost {
    fn id(&self) -> ProcessId {
        self.runtime.id()
    }

    fn protocol_name(&self) -> &'static str {
        self.runtime.protocol_name()
    }

    fn boot(&mut self, now: Time, out: &mut RuntimeOutput) {
        let gates = self.gates(now);
        // Strategy-requested wake-ups (e.g. crash-recovery rejoin) are
        // scheduled even while the node is dark.
        out.wakes
            .extend(self.strategy.as_ref().and_then(Strategy::boot_wake));
        self.runtime.boot_gated(now, gates, out);
        self.finish(now, out);
    }

    fn wake(&mut self, now: Time, out: &mut RuntimeOutput) {
        let gates = self.gates(now);
        if !self.runtime.wake_gated(now, gates, out) && self.strategy.is_some() {
            out.gated_events += 1;
        }
        self.finish(now, out);
    }

    fn deliver(&mut self, from: ProcessId, msg: &WireMessage, now: Time, out: &mut RuntimeOutput) {
        let gates = self.gates(now);
        if !self.runtime.deliver_gated(from, msg, now, gates, out) && self.strategy.is_some() {
            out.gated_events += 1;
        }
        self.finish(now, out);
    }

    fn current_view(&self) -> View {
        self.runtime.current_view()
    }

    fn committed_height(&self) -> u64 {
        self.runtime.committed_height()
    }

    fn committed_chain(&self) -> Vec<u64> {
        self.runtime.committed_chain()
    }

    fn resume_floor(&self) -> Time {
        ConsensusRuntime::resume_floor(&self.runtime)
    }

    fn submit_tx(&mut self, tx: Transaction) -> bool {
        // Client traffic is not strategy-gated: a corrupted node accepting a
        // transaction and then sitting on it is indistinguishable from one
        // that rejected it, so gating here would add nothing.
        self.runtime.submit_tx(tx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{build_runtime, ProtocolKind};
    use lumiere_consensus::ConsensusMessage;
    use lumiere_types::{Duration, TimeRange};

    fn host(n: usize, who: usize, strategy: Option<StrategyKind>) -> StrategyHost {
        let rt = build_runtime(ProtocolKind::Fever, n, who, Duration::from_millis(10), 2);
        StrategyHost::new(rt, n, strategy)
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
}
