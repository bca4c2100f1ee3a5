//! The pluggable adversary subsystem.
//!
//! The paper's headline claims (`O(n·f_a + n)` view-synchronization cost,
//! bounded latency after GST) are worst-case *over all Byzantine
//! adversaries*, so the harness must be able to express far more than a
//! fixed menu of behaviours. This module splits the adversary into three
//! pieces:
//!
//! * [`StrategyKind`] — the serializable *name* of a per-node behaviour.
//!   This is what fuzzer findings, report files and the
//!   `lumiere-node --strategy` flag persist.
//! * [`Strategy`] — what a corrupted processor runs: a [`StrategyKind`] plus
//!   the state the forging and adaptive kinds carry. It decides which of the
//!   node's components run for an event and whether it proposes as leader
//!   (its [`Gates`]), and rewrites the node's outgoing traffic before it
//!   reaches the network (equivocation, selective starvation). Each answer
//!   is one `match` on the kind, so every adversary rule lives in one place.
//! * [`AdversarySchedule`] — the *global* plan: which processors are
//!   corrupted with which strategy, plus time-windowed, per-edge
//!   [`DelayRule`]s that drive the [`DelayModel`]
//!   per message instead of globally. Every rule still respects the
//!   partial-synchrony envelope (delivery by `max(GST, send) + Δ`): the
//!   adversary chooses delays, it cannot break the model.
//!
//! The subsystem used to live inside `lumiere-sim`; it moved here so that
//! the *same* strategy machinery can corrupt a live `lumiere-node` process
//! (via [`StrategyHost`](crate::strategy::StrategyHost)) that the simulator
//! gates in virtual time. The simulator re-exports every type from its old
//! paths.
//!
//! The concrete strategies implemented here are the ones the paper's attack
//! arguments use (see `docs/ADVERSARIES.md` for the mapping):
//!
//! * crash / silent-leader / sync-silent — the static faults the paper's
//!   worst-case arguments use;
//! * **equivocation** — a corrupted leader sends *conflicting proposals to
//!   disjoint vote sets*, trying to split the quorum;
//! * **targeted partition** — expressed as delay rules: honest→honest
//!   synchronization messages are delayed the full Δ while edges touching
//!   the adversary are fast-pathed;
//! * **crash–recovery** — processors go dark for a window of time and rejoin
//!   mid-epoch.

use crate::delay::DelayModel;
use crate::message::WireMessage;
use crate::output::RuntimeOutput;
use crate::runtime::Gates;
use lumiere_consensus::{Block, ConsensusMessage};
use lumiere_types::{Batch, Duration, ProcessId, Time, TimeRange, View};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Read-only protocol observations a corrupted processor may react to.
///
/// A snapshot of the node's own pacemaker and consensus-engine state, taken
/// at the start of the event being processed. Strategies that consult it can
/// corrupt *adaptively mid-run* — e.g. target whichever processor currently
/// leads, or stall exactly when one more vote would complete a QC — which a
/// static schedule cannot express. All fields are derived deterministically
/// from host state, so adaptive strategies keep the simulator's same-seed ⇒
/// byte-identical-report guarantee.
#[derive(Debug, Clone, Copy)]
pub struct ProtocolObs {
    /// The pacemaker's current view (`View::SENTINEL` before the first).
    pub view: View,
    /// The consensus engine's current view (may trail the pacemaker).
    pub engine_view: View,
    /// Leader of the engine's current view, once a view has been entered.
    pub leader: Option<ProcessId>,
    /// The engine's lock (highest QC'd view it is locked on).
    pub locked_view: View,
    /// The highest view this node has voted in.
    pub last_voted_view: View,
    /// View of the highest QC known to this node.
    pub high_qc_view: View,
    /// Most votes collected toward any single pending QC of the engine's
    /// current view (non-zero only while this node leads and collects).
    pub pending_qc_votes: usize,
    /// The pacemaker's local-clock reading (timer status).
    pub clock: Duration,
    /// Whether the pacemaker's timer chain has been booted yet.
    pub booted: bool,
}

/// Context handed to a strategy on every event: identity, cluster size, the
/// host's event time and a read-only [`ProtocolObs`] snapshot.
#[derive(Debug, Clone, Copy)]
pub struct StrategyCtx {
    /// The corrupted processor's identifier.
    pub id: ProcessId,
    /// Total number of processors.
    pub n: usize,
    /// Event time as the host sees it (virtual under the simulator,
    /// wall-clock-derived under the live driver).
    pub now: Time,
    /// Protocol state at the start of the event.
    pub obs: ProtocolObs,
}

impl StrategyCtx {
    /// The quorum size `2f + 1` of the cluster this strategy corrupts.
    pub fn quorum(&self) -> usize {
        2 * ((self.n - 1) / 3) + 1
    }
}

/// Serializable name of a per-node behaviour: what a [`Strategy`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StrategyKind {
    /// Sends nothing at all (never boots): the other `n − f_a` processors
    /// must synchronize without its signatures.
    Crash,
    /// Participates fully except it never proposes as leader, so its views
    /// never produce a QC while it stays undetectable — the behaviour behind
    /// Figure 1 and the `Ω(nΔ)` latency attack on LP22.
    SilentLeader,
    /// Votes but sends no view, epoch-view or wish messages and never
    /// proposes: stresses the synchronizers' `f+1` / `2f+1` thresholds.
    SyncSilent,
    /// Proposes *conflicting* blocks to disjoint halves of the processors,
    /// attempting to split the vote and waste its views (and, against a
    /// broken quorum rule, to break safety).
    Equivocate,
    /// Behaves honestly except it is completely dark during `down`,
    /// dropping every incoming and outgoing message, then rejoins.
    CrashRecovery {
        /// The window during which the processor is dark.
        down: TimeRange,
    },
    /// *Adaptive*: participates everywhere except that it silently drops
    /// every unicast it would send to the **current leader** — votes and
    /// view messages — retargeting as the leader rotates, and never proposes
    /// itself. To everyone but the leader under attack it is
    /// indistinguishable from an honest processor.
    AdaptiveLeaderTargeting,
    /// *Adaptive*: proposes as leader to bait votes, then goes deaf to
    /// consensus traffic exactly when one more vote would complete its
    /// pending QC (observed via [`ProtocolObs::pending_qc_votes`]), starving
    /// the QC; it recovers when its pacemaker moves past the starved view.
    /// Any QC it does complete is withheld from the network.
    QcStarvation,
}

impl StrategyKind {
    /// Short name used in labels and reports.
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::Crash => "crash",
            StrategyKind::SilentLeader => "silent-leader",
            StrategyKind::SyncSilent => "sync-silent",
            StrategyKind::Equivocate => "equivocate",
            StrategyKind::CrashRecovery { .. } => "crash-recovery",
            StrategyKind::AdaptiveLeaderTargeting => "adaptive-leader-targeting",
            StrategyKind::QcStarvation => "qc-starvation",
        }
    }

    /// Every parameter-free strategy kind — samplers and mutators index into
    /// this so a new variant is picked up everywhere at once
    /// (crash–recovery, which needs a window, is sampled separately).
    pub const SIMPLE: [StrategyKind; 6] = [
        StrategyKind::Crash,
        StrategyKind::SilentLeader,
        StrategyKind::SyncSilent,
        StrategyKind::Equivocate,
        StrategyKind::AdaptiveLeaderTargeting,
        StrategyKind::QcStarvation,
    ];

    /// Parses a [`StrategyKind::name`] back into the kind (the
    /// `lumiere-node --strategy` flag accepts short names for the
    /// parameter-free strategies; crash–recovery needs the JSON form).
    pub fn from_name(name: &str) -> Option<StrategyKind> {
        StrategyKind::SIMPLE.into_iter().find(|k| k.name() == name)
    }
}

/// A corrupted processor's behaviour: the [`StrategyKind`] it runs plus the
/// state the forging and adaptive kinds carry (the kind stays `Copy` and
/// serializable, so the state sits beside it rather than in its variants).
///
/// Every method is a deterministic function of its arguments and this
/// state — the simulator's reproducibility (same seed + same schedule ⇒
/// byte-identical report) depends on it.
#[derive(Debug)]
pub struct Strategy {
    kind: StrategyKind,
    /// Conflicting blocks forged so far ([`StrategyKind::Equivocate`]).
    forged: u64,
    /// The pacemaker view at which the current starvation window began;
    /// `None` while the node participates ([`StrategyKind::QcStarvation`]).
    starving_since: Option<View>,
    /// Views whose QCs this node formed but withheld from the network
    /// ([`StrategyKind::QcStarvation`]).
    withheld: BTreeSet<i64>,
}

impl Strategy {
    /// A fresh strategy of the given kind.
    pub fn new(kind: StrategyKind) -> Self {
        Strategy {
            kind,
            forged: 0,
            starving_since: None,
            withheld: BTreeSet::new(),
        }
    }

    /// The kind this strategy runs.
    pub fn kind(&self) -> StrategyKind {
        self.kind
    }

    /// Reacts to the start-of-event snapshot (adaptive corruption); called
    /// once per event, before [`Strategy::gates`]. Only
    /// [`StrategyKind::QcStarvation`] reacts: it flips into the starving
    /// state exactly when one more vote would complete the QC it is
    /// collecting, and back out once its pacemaker has moved past the view
    /// it starved (the clock-driven view change re-arms the attack for the
    /// next time it leads).
    pub fn observe(&mut self, ctx: &StrategyCtx) {
        if self.kind != StrategyKind::QcStarvation {
            return;
        }
        match self.starving_since {
            None => {
                if ctx.obs.pending_qc_votes + 1 >= ctx.quorum() && ctx.obs.pending_qc_votes > 0 {
                    self.starving_since = Some(ctx.obs.view);
                }
            }
            Some(since) => {
                if ctx.obs.view > since {
                    self.starving_since = None;
                }
            }
        }
    }

    /// Which of the node's components run for this event and whether it
    /// proposes as leader: the whole gate table.
    pub fn gates(&self, ctx: &StrategyCtx) -> Gates {
        let (pacemaker, consensus, proposes) = match self.kind {
            StrategyKind::Crash => (false, false, false),
            StrategyKind::SilentLeader | StrategyKind::AdaptiveLeaderTargeting => {
                (true, true, false)
            }
            StrategyKind::SyncSilent => (false, true, false),
            StrategyKind::Equivocate => (true, true, true),
            StrategyKind::CrashRecovery { down } => {
                let up = !down.contains(ctx.now);
                (up, up, up)
            }
            StrategyKind::QcStarvation => (true, self.starving_since.is_none(), true),
        };
        Gates {
            pacemaker,
            consensus,
            proposes,
        }
    }

    /// The extra wake-up requested at boot: a crash–recovery window's rejoin
    /// instant. Without it the node would stay silent until the next message
    /// reaches it (its own timer chain broke while dark).
    pub fn boot_wake(&self) -> Option<Time> {
        match self.kind {
            StrategyKind::CrashRecovery { down } if !down.is_empty() => Some(down.until),
            _ => None,
        }
    }

    /// Rewrites the node's outgoing traffic in place before it reaches the
    /// network, bumping [`RuntimeOutput::gated_events`] for every message
    /// suppressed, forged or redirected — the simulator's runner turns those
    /// marks into the coverage fingerprint's per-strategy activation
    /// windows. Only the equivocating and adaptive kinds rewrite anything.
    pub fn rewrite(&mut self, ctx: &StrategyCtx, out: &mut RuntimeOutput) {
        match self.kind {
            StrategyKind::Equivocate => self.equivocate(ctx, out),
            StrategyKind::AdaptiveLeaderTargeting => starve_leader(ctx, out),
            StrategyKind::QcStarvation => self.withhold_qcs(out),
            _ => {}
        }
    }

    /// Splits every broadcast proposal into *two* conflicting proposals.
    /// Every recipient gets both blocks, but the delivery order is flipped
    /// between the even and the odd half, so under symmetric delays each
    /// half votes for a different block (replicas vote for the first
    /// proposal of a view they see). With an honest quorum rule neither
    /// disjoint vote set can reach `2f + 1`, so the view is wasted — and
    /// any protocol whose quorum intersection were broken would commit
    /// both, which is exactly what the fuzzer's safety oracle watches for.
    /// Because both blocks reach everyone, honest engines also *witness*
    /// the equivocation (`SimReport::equivocations_observed`).
    fn equivocate(&mut self, ctx: &StrategyCtx, out: &mut RuntimeOutput) {
        let RuntimeOutput {
            sends,
            broadcasts,
            gated_events,
            ..
        } = out;
        broadcasts.retain(|msg| {
            let WireMessage::Consensus(ConsensusMessage::Proposal(block)) = msg else {
                return true;
            };
            self.forged += 1;
            let forged = forge_conflicting(block, self.forged);
            *gated_events += 1;
            for to in ProcessId::all(ctx.n) {
                if to == ctx.id {
                    continue;
                }
                let (first, second) = if to.as_usize() % 2 == 0 {
                    (block, &forged)
                } else {
                    (&forged, block)
                };
                for b in [first, second] {
                    sends.push((
                        to,
                        WireMessage::Consensus(ConsensusMessage::Proposal(b.clone())),
                    ));
                }
            }
            false
        });
    }

    /// Suppresses any QC broadcast that slips out (a quorum can complete in
    /// the same event that crosses the threshold) and every later message
    /// that would reveal a withheld QC as a proposal's justification. Deaf
    /// periods are marked by the hosting node when it gates an incoming
    /// message, so only actual suppressions count here.
    fn withhold_qcs(&mut self, out: &mut RuntimeOutput) {
        let withheld = &mut self.withheld;
        let mut dropped = 0u32;
        let mut suppress = |msg: &WireMessage| -> bool {
            let drop = match msg {
                WireMessage::Consensus(ConsensusMessage::NewQc(qc)) => {
                    withheld.insert(qc.view().as_i64());
                    true
                }
                WireMessage::Consensus(ConsensusMessage::Proposal(block)) => {
                    withheld.contains(&block.justify().view().as_i64())
                }
                _ => false,
            };
            dropped += drop as u32;
            drop
        };
        out.broadcasts.retain(|m| !suppress(m));
        out.sends.retain(|(_, m)| !suppress(m));
        out.gated_events += dropped;
    }
}

/// A well-formed block conflicting with `block`: same parent, height, view,
/// proposer and justify, different payload (salted by the strategy's
/// `forged`-th forgery) — hence a different hash competing for the same
/// view.
fn forge_conflicting(block: &Block, forged: u64) -> Block {
    Block::new(
        block.parent(),
        block.height(),
        block.view(),
        block.proposer(),
        Batch::tag(block.payload_digest() ^ (0x4551_5549_564f_4321 + forged)),
        block.justify().clone(),
    )
}

/// Drops every unicast addressed to the leader of the view this node is
/// currently in — its vote and its view message, the two certificates the
/// leader needs — while every other send and broadcast goes out untouched.
/// The target follows [`ProtocolObs::leader`], so the attack retargets
/// itself as views rotate: a static schedule cannot express "always starve
/// whoever leads right now".
fn starve_leader(ctx: &StrategyCtx, out: &mut RuntimeOutput) {
    let Some(target) = ctx.obs.leader.filter(|&leader| leader != ctx.id) else {
        return;
    };
    let before = out.sends.len();
    out.sends.retain(|(to, _)| *to != target);
    out.gated_events += (before - out.sends.len()) as u32;
}

/// One corrupted processor and how it behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Corruption {
    /// The corrupted processor's index.
    pub node: usize,
    /// Its behaviour.
    pub strategy: StrategyKind,
}

/// Which directed edges a [`DelayRule`] applies to, classified by the
/// honesty of the two endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EdgeClass {
    /// Every edge.
    Any,
    /// Both endpoints honest — the edges a partitioning adversary slows.
    HonestToHonest,
    /// At least one endpoint corrupted — the edges it fast-paths.
    AdversaryInvolved,
    /// The sender is corrupted.
    FromAdversary,
    /// The recipient is corrupted.
    ToAdversary,
}

impl EdgeClass {
    /// Every edge class — samplers and exhaustive tests index into this so
    /// a new variant is picked up everywhere at once.
    pub const ALL: [EdgeClass; 5] = [
        EdgeClass::Any,
        EdgeClass::HonestToHonest,
        EdgeClass::AdversaryInvolved,
        EdgeClass::FromAdversary,
        EdgeClass::ToAdversary,
    ];

    /// Whether the class covers an edge with the given endpoint honesty.
    pub fn matches(&self, from_honest: bool, to_honest: bool) -> bool {
        match self {
            EdgeClass::Any => true,
            EdgeClass::HonestToHonest => from_honest && to_honest,
            EdgeClass::AdversaryInvolved => !from_honest || !to_honest,
            EdgeClass::FromAdversary => !from_honest,
            EdgeClass::ToAdversary => !to_honest,
        }
    }
}

/// Which messages a [`DelayRule`] applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MsgClass {
    /// Every message.
    Any,
    /// View-synchronization (pacemaker) messages only.
    Sync,
    /// Underlying-protocol (consensus) messages only.
    Consensus,
}

impl MsgClass {
    /// Every message class (see [`EdgeClass::ALL`]).
    pub const ALL: [MsgClass; 3] = [MsgClass::Any, MsgClass::Sync, MsgClass::Consensus];

    /// Whether the class covers a message.
    pub fn matches(&self, msg: &WireMessage) -> bool {
        match self {
            MsgClass::Any => true,
            MsgClass::Sync => matches!(msg, WireMessage::Pacemaker(_)),
            MsgClass::Consensus => matches!(msg, WireMessage::Consensus(_)),
        }
    }
}

/// A time-windowed, per-edge delay directive: while `window` contains the
/// send time and the edge/message classes match, the message's delay is
/// drawn from `delay` instead of the scenario's base
/// [`DelayModel`].
///
/// Every [`DelayModel`] clamps its samples to `[0, Δ]`, so no rule can push a
/// delivery past the `max(GST, send) + Δ` envelope.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DelayRule {
    /// Edges the rule applies to.
    pub edge: EdgeClass,
    /// Messages the rule applies to.
    pub msg: MsgClass,
    /// Send-time window during which the rule is active.
    pub window: TimeRange,
    /// The delay model used when the rule matches.
    pub delay: DelayModel,
}

/// The global adversary plan: corruption assignments plus per-edge delay
/// targeting. The first matching [`DelayRule`] wins.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AdversarySchedule {
    /// Which processors are corrupted, and how.
    pub corruptions: Vec<Corruption>,
    /// Per-edge delay directives, first match wins.
    pub delay_rules: Vec<DelayRule>,
}

impl AdversarySchedule {
    /// An empty schedule (no corruptions, no delay rules).
    pub fn new() -> Self {
        Self::default()
    }

    /// Corrupts `node` with `strategy`.
    pub fn corrupt(mut self, node: usize, strategy: StrategyKind) -> Self {
        self.corruptions.push(Corruption { node, strategy });
        self
    }

    /// Appends a delay rule (first match wins).
    pub fn rule(mut self, rule: DelayRule) -> Self {
        self.delay_rules.push(rule);
        self
    }

    /// The uniform adversary: every id corrupted with the same strategy,
    /// no delay targeting.
    pub fn uniform(ids: &[usize], strategy: StrategyKind) -> Self {
        AdversarySchedule {
            corruptions: ids
                .iter()
                .map(|&node| Corruption { node, strategy })
                .collect(),
            delay_rules: Vec::new(),
        }
    }

    /// The equivocation adversary: every id proposes conflicting blocks to
    /// disjoint vote sets.
    pub fn equivocation(ids: &[usize]) -> Self {
        Self::uniform(ids, StrategyKind::Equivocate)
    }

    /// The targeted-partition adversary: its processors stay silent as
    /// leaders while the network delays honest→honest synchronization
    /// messages the full Δ and fast-paths every edge the adversary touches
    /// (delay `fast`).
    pub fn targeted_partition(ids: &[usize], fast: Duration) -> Self {
        AdversarySchedule {
            corruptions: ids
                .iter()
                .map(|&node| Corruption {
                    node,
                    strategy: StrategyKind::SilentLeader,
                })
                .collect(),
            delay_rules: vec![
                DelayRule {
                    edge: EdgeClass::AdversaryInvolved,
                    msg: MsgClass::Any,
                    window: TimeRange::always(),
                    delay: DelayModel::Fixed { delta: fast },
                },
                DelayRule {
                    edge: EdgeClass::HonestToHonest,
                    msg: MsgClass::Sync,
                    window: TimeRange::always(),
                    delay: DelayModel::AdversarialMax,
                },
            ],
        }
    }

    /// The crash–recovery adversary: node `ids[i]` is dark during
    /// `[start + i·stagger, start + i·stagger + down_for)` and rejoins
    /// mid-epoch.
    pub fn crash_recovery(
        ids: &[usize],
        start: Time,
        down_for: Duration,
        stagger: Duration,
    ) -> Self {
        AdversarySchedule {
            corruptions: ids
                .iter()
                .enumerate()
                .map(|(i, &node)| {
                    let from = start + stagger * i as i64;
                    Corruption {
                        node,
                        strategy: StrategyKind::CrashRecovery {
                            down: TimeRange::new(from, from + down_for),
                        },
                    }
                })
                .collect(),
            delay_rules: Vec::new(),
        }
    }

    /// The set of corrupted processor indices, deduplicated.
    pub fn corrupted_ids(&self) -> BTreeSet<usize> {
        self.corruptions.iter().map(|c| c.node).collect()
    }

    /// The strategy corrupting `node`, if any (first entry wins).
    pub fn strategy_for(&self, node: usize) -> Option<StrategyKind> {
        self.corruptions
            .iter()
            .find(|c| c.node == node)
            .map(|c| c.strategy)
    }

    /// The delay model for a message on the edge `from → to` sent at
    /// `send`, or `None` when no rule matches (use the scenario's base
    /// model).
    pub fn delay_for(
        &self,
        from_honest: bool,
        to_honest: bool,
        msg: &WireMessage,
        send: Time,
    ) -> Option<DelayModel> {
        self.delay_rules
            .iter()
            .find(|r| {
                r.window.contains(send)
                    && r.edge.matches(from_honest, to_honest)
                    && r.msg.matches(msg)
            })
            .map(|r| r.delay)
    }

    /// Checks the schedule against a cluster of `n` processors tolerating
    /// `f` faults: indices in range, no duplicate corruption of one node,
    /// and at most `f` corrupted processors.
    pub fn validate(&self, n: usize, f: usize) -> Result<(), String> {
        let mut seen = BTreeSet::new();
        for c in &self.corruptions {
            if c.node >= n {
                return Err(format!("corrupted node {} out of range (n = {n})", c.node));
            }
            if !seen.insert(c.node) {
                return Err(format!("node {} corrupted more than once", c.node));
            }
        }
        if seen.len() > f {
            return Err(format!(
                "{} corrupted processors exceed the tolerated f = {f}",
                seen.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumiere_consensus::QuorumCert;
    use lumiere_types::View;

    /// A neutral observation snapshot for driving strategies directly.
    fn obs() -> ProtocolObs {
        ProtocolObs {
            view: View::SENTINEL,
            engine_view: View::SENTINEL,
            leader: None,
            locked_view: View::SENTINEL,
            last_voted_view: View::SENTINEL,
            high_qc_view: View::SENTINEL,
            pending_qc_votes: 0,
            clock: Duration::ZERO,
            booted: false,
        }
    }

    fn ctx_at(now: Time) -> StrategyCtx {
        StrategyCtx {
            id: ProcessId::new(0),
            n: 7,
            now,
            obs: obs(),
        }
    }

    #[test]
    fn strategy_kinds_build_their_runtime_objects() {
        for (kind, name) in [
            (StrategyKind::Crash, "crash"),
            (StrategyKind::SilentLeader, "silent-leader"),
            (StrategyKind::SyncSilent, "sync-silent"),
            (StrategyKind::Equivocate, "equivocate"),
            (
                StrategyKind::CrashRecovery {
                    down: TimeRange::new(Time::ZERO, Time::from_millis(5)),
                },
                "crash-recovery",
            ),
            (
                StrategyKind::AdaptiveLeaderTargeting,
                "adaptive-leader-targeting",
            ),
            (StrategyKind::QcStarvation, "qc-starvation"),
        ] {
            assert_eq!(kind.name(), name);
            assert_eq!(Strategy::new(kind).kind(), kind);
        }
        for kind in StrategyKind::SIMPLE {
            assert!(!matches!(kind, StrategyKind::CrashRecovery { .. }));
            assert_eq!(StrategyKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(StrategyKind::from_name("crash-recovery"), None);
    }

    #[test]
    fn strategy_kinds_round_trip_through_json() {
        use serde::json;
        for kind in StrategyKind::SIMPLE {
            let text = json::to_string(&kind);
            let back: StrategyKind = json::from_str(&text).unwrap();
            assert_eq!(back, kind);
        }
        let windowed = StrategyKind::CrashRecovery {
            down: TimeRange::new(Time::from_millis(10), Time::from_millis(30)),
        };
        let text = json::to_string(&windowed);
        let back: StrategyKind = json::from_str(&text).unwrap();
        assert_eq!(back, windowed);
    }

    #[test]
    fn uniform_corrupts_every_id_with_the_one_strategy() {
        let schedule = AdversarySchedule::uniform(&[1, 3], StrategyKind::Crash);
        assert_eq!(
            schedule.corrupted_ids().into_iter().collect::<Vec<_>>(),
            [1, 3]
        );
        assert_eq!(schedule.strategy_for(3), Some(StrategyKind::Crash));
        assert_eq!(schedule.strategy_for(2), None);
    }

    #[test]
    fn edge_classes_match_by_endpoint_honesty() {
        assert!(EdgeClass::Any.matches(true, true));
        assert!(EdgeClass::HonestToHonest.matches(true, true));
        assert!(!EdgeClass::HonestToHonest.matches(false, true));
        assert!(EdgeClass::AdversaryInvolved.matches(false, true));
        assert!(EdgeClass::AdversaryInvolved.matches(true, false));
        assert!(!EdgeClass::AdversaryInvolved.matches(true, true));
        assert!(EdgeClass::FromAdversary.matches(false, true));
        assert!(!EdgeClass::FromAdversary.matches(true, false));
        assert!(EdgeClass::ToAdversary.matches(true, false));
        assert!(!EdgeClass::ToAdversary.matches(false, true));
    }

    fn sync_msg() -> WireMessage {
        WireMessage::Consensus(ConsensusMessage::NewQc(QuorumCert::genesis()))
    }

    #[test]
    fn delay_rules_match_first_wins_and_respect_windows() {
        let schedule = AdversarySchedule::new()
            .rule(DelayRule {
                edge: EdgeClass::HonestToHonest,
                msg: MsgClass::Consensus,
                window: TimeRange::new(Time::from_millis(10), Time::from_millis(20)),
                delay: DelayModel::AdversarialMax,
            })
            .rule(DelayRule {
                edge: EdgeClass::Any,
                msg: MsgClass::Any,
                window: TimeRange::always(),
                delay: DelayModel::Fixed {
                    delta: Duration::from_millis(1),
                },
            });
        // Inside the window, first rule wins on honest→honest consensus.
        assert_eq!(
            schedule.delay_for(true, true, &sync_msg(), Time::from_millis(15)),
            Some(DelayModel::AdversarialMax)
        );
        // Outside the window, the catch-all second rule applies.
        assert_eq!(
            schedule.delay_for(true, true, &sync_msg(), Time::from_millis(25)),
            Some(DelayModel::Fixed {
                delta: Duration::from_millis(1)
            })
        );
        // Adversary edges skip the first rule even inside the window.
        assert_eq!(
            schedule.delay_for(false, true, &sync_msg(), Time::from_millis(15)),
            Some(DelayModel::Fixed {
                delta: Duration::from_millis(1)
            })
        );
        // An empty schedule matches nothing.
        assert_eq!(
            AdversarySchedule::new().delay_for(true, true, &sync_msg(), Time::ZERO),
            None
        );
    }

    #[test]
    fn targeted_partition_slows_honest_sync_and_fast_paths_the_adversary() {
        let schedule = AdversarySchedule::targeted_partition(&[5, 6], Duration::from_millis(1));
        assert_eq!(schedule.corrupted_ids().len(), 2);
        let pm = WireMessage::Pacemaker(lumiere_core::messages::PacemakerMessage::ViewMsg {
            view: View::new(0),
            signature: lumiere_crypto::Signature::new(ProcessId::new(0), 0),
        });
        // Honest→honest sync crawls at Δ.
        assert_eq!(
            schedule.delay_for(true, true, &pm, Time::ZERO),
            Some(DelayModel::AdversarialMax)
        );
        // Any edge touching the adversary is fast.
        assert_eq!(
            schedule.delay_for(false, true, &pm, Time::ZERO),
            Some(DelayModel::Fixed {
                delta: Duration::from_millis(1)
            })
        );
        // Honest→honest consensus traffic is untouched (base model).
        assert_eq!(
            schedule.delay_for(true, true, &sync_msg(), Time::ZERO),
            None
        );
    }

    #[test]
    fn crash_recovery_windows_are_staggered() {
        let schedule = AdversarySchedule::crash_recovery(
            &[2, 4],
            Time::from_millis(100),
            Duration::from_millis(50),
            Duration::from_millis(30),
        );
        let StrategyKind::CrashRecovery { down: w0 } = schedule.strategy_for(2).unwrap() else {
            panic!("expected crash-recovery");
        };
        let StrategyKind::CrashRecovery { down: w1 } = schedule.strategy_for(4).unwrap() else {
            panic!("expected crash-recovery");
        };
        assert_eq!(
            w0,
            TimeRange::new(Time::from_millis(100), Time::from_millis(150))
        );
        assert_eq!(
            w1,
            TimeRange::new(Time::from_millis(130), Time::from_millis(180))
        );
        // The strategy is dark exactly inside its window and asks for a
        // rejoin wake at the end of it.
        let strategy = Strategy::new(schedule.strategy_for(2).unwrap());
        assert!(strategy.gates(&ctx_at(Time::from_millis(99))).consensus);
        assert!(!strategy.gates(&ctx_at(Time::from_millis(100))).consensus);
        assert!(!strategy.gates(&ctx_at(Time::from_millis(149))).pacemaker);
        assert!(strategy.gates(&ctx_at(Time::from_millis(150))).pacemaker);
        assert_eq!(strategy.boot_wake(), Some(Time::from_millis(150)));
    }

    #[test]
    fn schedule_validation_rejects_bad_plans() {
        let ok = AdversarySchedule::equivocation(&[5, 6]);
        assert!(ok.validate(7, 2).is_ok());
        assert!(ok.validate(7, 1).is_err(), "too many corruptions");
        assert!(AdversarySchedule::equivocation(&[9])
            .validate(7, 2)
            .is_err());
        assert!(AdversarySchedule::equivocation(&[3, 3])
            .validate(7, 2)
            .is_err());
    }

    #[test]
    fn equivocation_splits_a_proposal_into_conflicting_halves() {
        let mut strategy = Strategy::new(StrategyKind::Equivocate);
        let parent = Block::genesis();
        let block = Block::new(
            parent.hash(),
            1,
            View::new(0),
            ProcessId::new(2),
            Batch::empty(),
            QuorumCert::genesis(),
        );
        let mut out = RuntimeOutput {
            broadcasts: vec![WireMessage::Consensus(ConsensusMessage::Proposal(
                block.clone(),
            ))],
            ..RuntimeOutput::default()
        };
        let ctx = StrategyCtx {
            id: ProcessId::new(2),
            n: 7,
            now: Time::ZERO,
            obs: obs(),
        };
        strategy.rewrite(&ctx, &mut out);
        assert!(out.broadcasts.is_empty(), "the broadcast must be rewritten");
        assert!(out.gated_events > 0, "forging marks an activation");
        assert_eq!(out.sends.len(), 12, "both blocks go to every other node");
        // first_seen[recipient] = hash of the first proposal that recipient
        // receives (under symmetric delays, the one it votes for).
        let mut first_seen: std::collections::BTreeMap<usize, u64> = Default::default();
        let mut all_hashes = BTreeSet::new();
        for (to, msg) in &out.sends {
            let WireMessage::Consensus(ConsensusMessage::Proposal(b)) = msg else {
                panic!("expected a proposal");
            };
            assert!(b.well_formed(), "forged blocks must still be well-formed");
            assert_eq!(b.view(), block.view());
            assert_eq!(b.proposer(), block.proposer());
            assert_ne!(*to, ctx.id);
            first_seen.entry(to.as_usize()).or_insert(b.hash());
            all_hashes.insert(b.hash());
        }
        assert_eq!(all_hashes.len(), 2, "exactly two conflicting blocks");
        // The first-delivered block is consistent per half and differs
        // between halves: disjoint vote sets.
        let halves: BTreeSet<(usize, u64)> =
            first_seen.iter().map(|(id, h)| (id % 2, *h)).collect();
        assert_eq!(halves.len(), 2, "each half votes for its own block");
    }

    #[test]
    fn adaptive_leader_targeting_drops_exactly_the_leaders_mail() {
        let mut strategy = Strategy::new(StrategyKind::AdaptiveLeaderTargeting);
        let leader = ProcessId::new(3);
        let mut ctx = ctx_at(Time::ZERO);
        ctx.obs.leader = Some(leader);
        let mut out = RuntimeOutput {
            sends: vec![
                (leader, sync_msg()),
                (ProcessId::new(1), sync_msg()),
                (leader, sync_msg()),
            ],
            broadcasts: vec![sync_msg()],
            ..RuntimeOutput::default()
        };
        strategy.rewrite(&ctx, &mut out);
        assert_eq!(out.sends.len(), 1, "only the non-leader unicast survives");
        assert_eq!(out.sends[0].0, ProcessId::new(1));
        assert_eq!(out.broadcasts.len(), 1, "broadcasts are untouched");
        assert_eq!(out.gated_events, 2);
        // The target follows the observation: a different leader next view.
        ctx.obs.leader = Some(ProcessId::new(1));
        let mut out = RuntimeOutput {
            sends: vec![(leader, sync_msg()), (ProcessId::new(1), sync_msg())],
            ..RuntimeOutput::default()
        };
        strategy.rewrite(&ctx, &mut out);
        assert_eq!(out.sends.len(), 1);
        assert_eq!(out.sends[0].0, leader, "the old leader is safe again");
        // With no leader known (or itself leading) nothing is dropped.
        ctx.obs.leader = None;
        let mut out = RuntimeOutput {
            sends: vec![(leader, sync_msg())],
            ..RuntimeOutput::default()
        };
        strategy.rewrite(&ctx, &mut out);
        assert_eq!(out.sends.len(), 1);
    }

    #[test]
    fn qc_starvation_goes_deaf_one_vote_short_of_quorum_and_recovers() {
        let mut strategy = Strategy::new(StrategyKind::QcStarvation);
        let mut ctx = ctx_at(Time::ZERO); // n = 7, quorum = 5
        ctx.obs.view = View::new(2);
        ctx.obs.pending_qc_votes = 3;
        strategy.observe(&ctx);
        assert!(
            strategy.gates(&ctx).consensus,
            "two votes short: still collecting"
        );
        ctx.obs.pending_qc_votes = 4;
        strategy.observe(&ctx);
        assert!(
            !strategy.gates(&ctx).consensus,
            "one vote short of quorum: deaf"
        );
        assert!(strategy.gates(&ctx).pacemaker, "the pacemaker stays alive");
        // Still deaf while the pacemaker sits in the starved view.
        strategy.observe(&ctx);
        assert!(!strategy.gates(&ctx).consensus);
        // The clock-driven view change re-arms the attack.
        ctx.obs.view = View::new(3);
        strategy.observe(&ctx);
        assert!(strategy.gates(&ctx).consensus, "recovers in the next view");
    }

    #[test]
    fn qc_starvation_withholds_qcs_and_their_justifying_proposals() {
        let mut strategy = Strategy::new(StrategyKind::QcStarvation);
        let ctx = ctx_at(Time::ZERO);
        // A QC the node failed to prevent slips into its output: withheld.
        let digest = QuorumCert::vote_digest(View::new(4), 0xBB);
        let params = lumiere_types::Params::new(7, Duration::from_millis(10));
        let (keys, _) = lumiere_crypto::keygen(7, 1);
        let votes: Vec<_> = keys.iter().take(5).map(|k| k.sign(digest)).collect();
        let qc = QuorumCert::aggregate(View::new(4), 0xBB, &votes, &params).unwrap();
        let mut out = RuntimeOutput {
            broadcasts: vec![WireMessage::Consensus(ConsensusMessage::NewQc(qc.clone()))],
            ..RuntimeOutput::default()
        };
        strategy.rewrite(&ctx, &mut out);
        assert!(out.broadcasts.is_empty(), "the QC broadcast is withheld");
        assert!(out.gated_events > 0);
        // A later proposal justified by the withheld QC is suppressed too;
        // proposals justified by public QCs pass.
        let hidden = Block::new(0, 1, View::new(5), ProcessId::new(0), Batch::tag(1), qc);
        let public = Block::new(
            0,
            1,
            View::new(5),
            ProcessId::new(0),
            Batch::tag(1),
            QuorumCert::genesis(),
        );
        let mut out = RuntimeOutput {
            broadcasts: vec![
                WireMessage::Consensus(ConsensusMessage::Proposal(hidden)),
                WireMessage::Consensus(ConsensusMessage::Proposal(public)),
            ],
            ..RuntimeOutput::default()
        };
        strategy.rewrite(&ctx, &mut out);
        assert_eq!(out.broadcasts.len(), 1, "only the public proposal leaks");
    }
}
