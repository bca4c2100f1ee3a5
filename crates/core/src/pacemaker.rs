//! The Byzantine View Synchronization (pacemaker) interface.
//!
//! A pacemaker decides *when each processor enters each view* (the BVS task
//! of Section 2). It is driven by four kinds of events — boot, an incoming
//! pacemaker message, a QC notification from the underlying protocol, and a
//! timer wake-up — and responds with [`PacemakerAction`]s that the hosting
//! node executes (network sends, view entries for the consensus engine,
//! wake-up requests, metric markers).
//!
//! A handler appends its actions to a buffer the host owns (`out`), in the
//! order they are to be executed, and leaves what is already there alone.
//! The host drains and reuses the one buffer across events, so handling an
//! event allocates no action list.
//!
//! The parts the paper builds its protocols from are written here once:
//! every pacemaker holds its [`Processor`] (keys, schedule, current view and
//! per-view ledger); Fever, Basic Lumiere and Lumiere run Fever's view
//! messages through a [`ViewMsgs`] (Section 3.3), and LP22, Basic Lumiere
//! and Lumiere run LP22's epoch-view messages through an [`EpochMsgs`]
//! (Section 3.2).

use crate::certs::{epoch_view_digest, view_msg_digest, ViewCert};
use crate::ledger::{
    SenderPool, SigPool, ViewLedger, FORMED_VC, SEEN_VC, SENT_EPOCH_MSG, SENT_VIEW_MSG,
};
use crate::messages::PacemakerMessage;
use crate::schedule::LeaderSchedule;
use lumiere_consensus::QuorumCert;
use lumiere_crypto::{DigestValue, KeyPair, Pki, Signature};
use lumiere_types::{Duration, Params, ProcessId, Time, View};
use std::fmt::Debug;

/// Instructions emitted by a pacemaker in response to an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacemakerAction {
    /// Send a message to a single processor.
    SendTo(ProcessId, PacemakerMessage),
    /// Send a message to every other processor.
    Broadcast(PacemakerMessage),
    /// Enter `view`; the hosting node forwards this to the consensus engine,
    /// which will propose if this processor is `leader`.
    EnterView {
        /// The view to enter.
        view: View,
        /// The leader of that view under the pacemaker's schedule.
        leader: ProcessId,
    },
    /// Lumiere's leader rule (Section 4): the engine must not form a QC for
    /// `view` after `deadline`.
    SetQcDeadline {
        /// The view the deadline applies to.
        view: View,
        /// Latest time at which the QC may be produced.
        deadline: Time,
    },
    /// Ask the hosting node to call [`Pacemaker::on_wake_into`] at (or
    /// after) the given time.
    WakeAt(Time),
    /// Metric marker: this processor is participating in a heavy (Θ(n²))
    /// epoch synchronization for the epoch starting at `view`.
    HeavySyncStarted {
        /// The epoch view being synchronized.
        view: View,
    },
}

/// A Byzantine View Synchronization protocol instance for one processor.
///
/// # Contract
///
/// * Handlers **append** their actions to `out`, in execution order, and
///   never read, reorder or remove what `out` already holds: the host may
///   pass a buffer carrying earlier actions.
/// * Handlers must be **idempotent** with respect to duplicate events: the
///   hosting node may deliver the same QC or message more than once.
/// * Handlers never block and never interact with real time; `now` is the
///   simulated time of the event.
/// * `current_view` must be monotonically non-decreasing over a processor's
///   lifetime (condition (1) of the view synchronization task).
///
/// Implementations provide the `_into` handlers. The `Vec`-returning
/// `boot` / `on_message` / `on_qc` / `on_wake` wrap them for callers that
/// step one pacemaker by hand.
pub trait Pacemaker: Debug + Send {
    /// A short protocol name used in reports (e.g. `"lumiere"`, `"lp22"`).
    fn name(&self) -> &'static str;

    /// What this pacemaker holds about its own processor.
    fn processor(&self) -> &Processor;

    /// The schedule naming each view's leader.
    fn schedule(&self) -> &LeaderSchedule {
        &self.processor().schedule
    }

    /// The view this processor is currently in (`-1` before the first view).
    fn current_view(&self) -> View {
        self.processor().view()
    }

    /// Called once when the processor starts, before any other event.
    fn boot_into(&mut self, now: Time, out: &mut Vec<PacemakerAction>);

    /// Handles a pacemaker message from `from`.
    fn on_message_into(
        &mut self,
        from: ProcessId,
        msg: &PacemakerMessage,
        now: Time,
        out: &mut Vec<PacemakerAction>,
    );

    /// Handles a quorum certificate notification from the underlying
    /// protocol. `formed_locally` is true when this processor, acting as
    /// leader, aggregated the QC itself.
    fn on_qc_into(
        &mut self,
        qc: &QuorumCert,
        formed_locally: bool,
        now: Time,
        out: &mut Vec<PacemakerAction>,
    );

    /// Handles a timer wake-up previously requested with
    /// [`PacemakerAction::WakeAt`]. Spurious wake-ups are allowed.
    fn on_wake_into(&mut self, now: Time, out: &mut Vec<PacemakerAction>);

    /// [`Pacemaker::boot_into`] into a fresh list.
    fn boot(&mut self, now: Time) -> Vec<PacemakerAction> {
        filled(|out| self.boot_into(now, out))
    }

    /// [`Pacemaker::on_message_into`] into a fresh list.
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &PacemakerMessage,
        now: Time,
    ) -> Vec<PacemakerAction> {
        filled(|out| self.on_message_into(from, msg, now, out))
    }

    /// [`Pacemaker::on_qc_into`] into a fresh list.
    fn on_qc(&mut self, qc: &QuorumCert, formed_locally: bool, now: Time) -> Vec<PacemakerAction> {
        filled(|out| self.on_qc_into(qc, formed_locally, now, out))
    }

    /// [`Pacemaker::on_wake_into`] into a fresh list.
    fn on_wake(&mut self, now: Time) -> Vec<PacemakerAction> {
        filled(|out| self.on_wake_into(now, out))
    }

    /// The processor's local-clock reading at `now` (protocols without local
    /// clocks report elapsed time); used by the honest-gap metrics.
    fn local_clock_reading(&self, now: Time) -> Duration;

    /// How many entries this pacemaker holds across its [`ViewLedger`]
    /// records and the senders in its [`SigPool`]s and [`SenderPool`]s:
    /// what its memory is proportional to.
    fn state_entries(&self) -> usize;
}

/// What every pacemaker holds about its own processor: the system
/// parameters, the leader schedule, its keys and the PKI, the view it is in
/// and what it did in and saw for each view.
#[derive(Debug)]
pub struct Processor {
    /// System parameters (n, f, Δ, x).
    pub params: Params,
    /// The schedule naming each view's leader.
    pub schedule: LeaderSchedule,
    /// This processor's signing key.
    pub keys: KeyPair,
    /// Every processor's public key.
    pub pki: Pki,
    view: View,
    /// One record of flags per view reached.
    pub views: ViewLedger,
    booted: bool,
}

impl Processor {
    /// The processor owning `keys`, before its first view.
    pub fn new(params: Params, schedule: LeaderSchedule, keys: KeyPair, pki: Pki) -> Self {
        Processor {
            params,
            schedule,
            keys,
            pki,
            view: View::SENTINEL,
            views: ViewLedger::default(),
            booted: false,
        }
    }

    /// The view this processor is in (`-1` before the first); it moves only
    /// up, through [`Processor::enter`].
    pub fn view(&self) -> View {
        self.view
    }

    /// This processor's identifier.
    pub fn id(&self) -> ProcessId {
        self.keys.id()
    }

    /// The leader of `view` under the schedule.
    pub fn leader(&self, view: View) -> ProcessId {
        self.schedule.leader(view)
    }

    /// Whether this is the first boot: `true` on the first call only.
    pub fn boot(&mut self) -> bool {
        !std::mem::replace(&mut self.booted, true)
    }

    /// Enters `view` if it is above the current view, pushing the
    /// [`PacemakerAction::EnterView`] that names its leader. Returns whether
    /// the view was entered.
    pub fn enter(&mut self, view: View, out: &mut Vec<PacemakerAction>) -> bool {
        if view <= self.view {
            return false;
        }
        self.view = view;
        out.push(PacemakerAction::EnterView {
            view,
            leader: self.leader(view),
        });
        true
    }

    /// Whether `signature` is `from`'s own and verifies over `digest`: the
    /// intake check of every signed pacemaker message.
    pub fn signed_by(&self, from: ProcessId, signature: &Signature, digest: DigestValue) -> bool {
        signature.signer() == from && self.pki.verify(signature, digest).is_ok()
    }
}

/// Fever's view messages (Section 3.3), which Fever, Basic Lumiere and
/// Lumiere all run: on entering an initial view each processor sends one to
/// the view's leader, and the leader aggregates `f+1` into a VC.
#[derive(Debug)]
pub struct ViewMsgs(SigPool);

impl ViewMsgs {
    /// No view messages yet, for an `n`-processor system.
    pub fn new(n: usize) -> Self {
        ViewMsgs(SigPool::new(n))
    }

    /// Signs this processor's view message for `view`, once per view, and
    /// sends it to the view's leader. When this processor leads the view it
    /// sends nothing and returns the signature, for the caller to
    /// [`record`](ViewMsgs::record).
    pub fn send(
        &mut self,
        me: &mut Processor,
        view: View,
        out: &mut Vec<PacemakerAction>,
    ) -> Option<Signature> {
        if !me.views.mark(view, SENT_VIEW_MSG) {
            return None;
        }
        let signature = me.keys.sign(view_msg_digest(view));
        let leader = me.leader(view);
        if leader == me.id() {
            return Some(signature);
        }
        out.push(PacemakerAction::SendTo(
            leader,
            PacemakerMessage::ViewMsg { view, signature },
        ));
        None
    }

    /// Pools a verified view message for `view`. The leader rule: when this
    /// processor leads the view, `open` holds, the view is not below the
    /// current one and no VC was formed for it yet, `f+1` signers form the
    /// VC, which is broadcast. Returns whether it was; the caller then
    /// catches up to the view, as the broadcast reaches the leader too.
    pub fn record(
        &mut self,
        me: &mut Processor,
        view: View,
        signature: Signature,
        open: bool,
        out: &mut Vec<PacemakerAction>,
    ) -> bool {
        let count = self.0.add(view, signature);
        if me.leader(view) != me.id()
            || !open
            || view < me.view()
            || me.views.has(view, FORMED_VC)
            || count < me.params.small_quorum()
        {
            return false;
        }
        let Ok(vc) = ViewCert::aggregate(view, self.0.signatures(view), &me.params) else {
            return false;
        };
        me.views.mark(view, FORMED_VC | SEEN_VC);
        out.push(PacemakerAction::Broadcast(PacemakerMessage::ViewCert(vc)));
        true
    }

    /// Signatures held across every view.
    pub fn entries(&self) -> usize {
        self.0.entries()
    }
}

/// LP22's epoch-view messages (Section 3.2), which LP22, Basic Lumiere and
/// Lumiere all run: every processor broadcasts one for an epoch view, and
/// each counts the senders toward its certificates.
#[derive(Debug)]
pub struct EpochMsgs(SenderPool);

impl EpochMsgs {
    /// No epoch-view messages yet, for an `n`-processor system.
    pub fn new(n: usize) -> Self {
        EpochMsgs(SenderPool::new(n))
    }

    /// Broadcasts this processor's epoch-view message for `view`, once per
    /// view (a heavy synchronization starts), and counts it. Returns how
    /// many senders `view` now has, or `None` if the message went out
    /// before.
    pub fn broadcast(
        &mut self,
        me: &mut Processor,
        view: View,
        out: &mut Vec<PacemakerAction>,
    ) -> Option<usize> {
        if !me.views.mark(view, SENT_EPOCH_MSG) {
            return None;
        }
        let signature = me.keys.sign(epoch_view_digest(view));
        out.push(PacemakerAction::HeavySyncStarted { view });
        out.push(PacemakerAction::Broadcast(PacemakerMessage::EpochViewMsg {
            view,
            signature,
        }));
        Some(self.record(me.id(), view))
    }

    /// Counts `from`'s verified epoch-view message for `view`. Returns how
    /// many senders the view now has.
    pub fn record(&mut self, from: ProcessId, view: View) -> usize {
        self.0.add(view, from)
    }

    /// Senders held across every view.
    pub fn entries(&self) -> usize {
        self.0.entries()
    }
}

/// The list `fill` appends to an empty buffer.
fn filled<A>(fill: impl FnOnce(&mut Vec<A>)) -> Vec<A> {
    let mut out = Vec::new();
    fill(&mut out);
    out
}

/// Convenience helpers shared by pacemaker implementations and tests.
pub mod actions {
    use super::*;

    /// Extracts all views entered by a batch of actions.
    pub fn entered_views(actions: &[PacemakerAction]) -> Vec<View> {
        actions
            .iter()
            .filter_map(|a| match a {
                PacemakerAction::EnterView { view, .. } => Some(*view),
                _ => None,
            })
            .collect()
    }

    /// Counts how many network sends (unicast or broadcast) a batch implies,
    /// with broadcasts counted as `n - 1` point-to-point messages.
    pub fn message_count(actions: &[PacemakerAction], n: usize) -> usize {
        actions
            .iter()
            .map(|a| match a {
                PacemakerAction::SendTo(..) => 1,
                PacemakerAction::Broadcast(_) => n.saturating_sub(1),
                _ => 0,
            })
            .sum()
    }

    /// The earliest wake-up requested by the batch, if any.
    pub fn earliest_wake(actions: &[PacemakerAction]) -> Option<Time> {
        actions
            .iter()
            .filter_map(|a| match a {
                PacemakerAction::WakeAt(t) => Some(*t),
                _ => None,
            })
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::actions::*;
    use super::*;
    use lumiere_crypto::keygen;

    fn sample_actions() -> Vec<PacemakerAction> {
        let (keys, _) = keygen(4, 0);
        let msg = PacemakerMessage::ViewMsg {
            view: View::new(2),
            signature: keys[0].sign(view_msg_digest(View::new(2))),
        };
        vec![
            PacemakerAction::SendTo(ProcessId::new(1), msg.clone()),
            PacemakerAction::Broadcast(msg),
            PacemakerAction::EnterView {
                view: View::new(2),
                leader: ProcessId::new(1),
            },
            PacemakerAction::WakeAt(Time::from_millis(50)),
            PacemakerAction::WakeAt(Time::from_millis(20)),
            PacemakerAction::HeavySyncStarted { view: View::new(0) },
        ]
    }

    #[test]
    fn entered_views_extracts_enter_actions() {
        assert_eq!(entered_views(&sample_actions()), vec![View::new(2)]);
    }

    #[test]
    fn message_count_expands_broadcasts() {
        // 1 unicast + broadcast to 3 others.
        assert_eq!(message_count(&sample_actions(), 4), 4);
        assert_eq!(message_count(&[], 4), 0);
    }

    /// Processor `who` of four under the two-views-per-leader schedule, in
    /// view 2.
    fn in_view_two(who: usize) -> Processor {
        let (keys, pki) = keygen(4, 0);
        let params = Params::new(4, Duration::from_millis(10));
        let schedule = LeaderSchedule::half_round_robin(4);
        let mut me = Processor::new(params, schedule, keys[who].clone(), pki);
        assert!(me.boot() && !me.boot(), "only the first boot counts");
        assert!(me.enter(View::new(2), &mut Vec::new()));
        me
    }

    #[test]
    fn a_processor_enters_only_higher_views_and_names_their_leader() {
        let mut me = in_view_two(0);
        let mut out = Vec::new();
        assert!(!me.enter(View::new(2), &mut out));
        assert!(!me.enter(View::new(1), &mut out));
        assert!(!me.enter(View::SENTINEL, &mut out));
        assert!(out.is_empty());
        assert_eq!(me.view(), View::new(2));
        assert!(me.enter(View::new(5), &mut out));
        let leader = ProcessId::new(2);
        assert_eq!(me.leader(View::new(5)), leader);
        let entered = PacemakerAction::EnterView {
            view: View::new(5),
            leader,
        };
        assert_eq!((out, me.view()), (vec![entered], View::new(5)));
    }

    #[test]
    fn a_view_message_goes_once_to_the_leader_and_stays_with_a_leader() {
        // View 2's leader is processor 1.
        let view = View::new(2);
        let mut follower = in_view_two(0);
        let mut leader = in_view_two(1);
        let mut msgs = ViewMsgs::new(4);
        let mut out = Vec::new();
        assert_eq!(msgs.send(&mut follower, view, &mut out), None);
        let signature = follower.keys.sign(view_msg_digest(view));
        let sent = PacemakerAction::SendTo(
            ProcessId::new(1),
            PacemakerMessage::ViewMsg { view, signature },
        );
        assert_eq!(out, vec![sent]);
        assert_eq!(msgs.send(&mut follower, view, &mut out), None);
        assert_eq!(out.len(), 1, "sent once per view");
        // The leader sends nothing: its own signature comes back, once.
        let own = msgs.send(&mut leader, view, &mut out);
        assert_eq!(own, Some(leader.keys.sign(view_msg_digest(view))));
        assert_eq!(msgs.send(&mut leader, view, &mut out), None);
        assert_eq!(out.len(), 1);
        assert!(follower.views.has(view, SENT_VIEW_MSG) && leader.views.has(view, SENT_VIEW_MSG));
        // Its own message and the follower's are f+1 = 2: the VC forms once.
        assert!(!msgs.record(&mut leader, view, own.unwrap(), true, &mut out));
        assert!(msgs.record(&mut leader, view, signature, true, &mut out));
        assert!(matches!(
            &out[1],
            PacemakerAction::Broadcast(PacemakerMessage::ViewCert(vc)) if vc.view() == view
        ));
        assert!(leader.views.has(view, FORMED_VC) && leader.views.has(view, SEEN_VC));
        assert!(!msgs.record(&mut leader, view, signature, true, &mut out));
        assert_eq!((out.len(), msgs.entries()), (2, 2));
    }

    #[test]
    fn an_epoch_view_message_is_broadcast_once_and_counts_its_sender() {
        let view = View::new(4);
        let mut me = in_view_two(3);
        let mut msgs = EpochMsgs::new(4);
        let mut out = Vec::new();
        assert_eq!(msgs.record(ProcessId::new(0), view), 1);
        assert_eq!(msgs.broadcast(&mut me, view, &mut out), Some(2));
        let signature = me.keys.sign(epoch_view_digest(view));
        let broadcast = PacemakerMessage::EpochViewMsg { view, signature };
        assert_eq!(
            out,
            vec![
                PacemakerAction::HeavySyncStarted { view },
                PacemakerAction::Broadcast(broadcast),
            ]
        );
        assert_eq!(msgs.broadcast(&mut me, view, &mut out), None);
        assert_eq!(out.len(), 2, "broadcast once per view");
        assert_eq!(msgs.record(me.id(), view), 2, "a repeat is not counted");
        assert_eq!(msgs.entries(), 2);
    }

    #[test]
    fn earliest_wake_picks_minimum() {
        assert_eq!(
            earliest_wake(&sample_actions()),
            Some(Time::from_millis(20))
        );
        assert_eq!(earliest_wake(&[]), None);
    }
}
