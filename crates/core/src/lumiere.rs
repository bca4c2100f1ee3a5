//! The full Lumiere protocol (Algorithm 1, Sections 3.5 and 4).
//!
//! Lumiere batches views into epochs of `10n` views, gives every leader two
//! consecutive views, and intertwines two synchronization procedures:
//!
//! * a **heavy** epoch synchronization — an all-to-all broadcast of
//!   *epoch view* messages whose `Θ(n²)` cost is amortized over the epoch —
//!   which is *skipped* whenever the previous epoch satisfied the success
//!   criterion (at least `2f+1` leaders each produced QCs for all 10 of
//!   their views), and
//! * a **light** per-view synchronization in the style of Fever: on entering
//!   an initial (even) view each processor sends one *view* message to the
//!   leader, the leader aggregates `f+1` of them into a VC, and processors
//!   bump their local clocks forward on QCs and VCs so that honest leaders
//!   keep producing QCs at network speed.
//!
//! The combination achieves all four properties of Theorem 1.1.

use crate::certs::{epoch_view_digest, view_msg_digest, EpochCert, TimeoutCert, ViewCert};
use crate::clock::LocalClock;
use crate::ledger::*;
use crate::messages::PacemakerMessage;
use crate::pacemaker::{EpochMsgs, Pacemaker, PacemakerAction, Processor, ViewMsgs};
use crate::planted::PlantedBug;
use crate::schedule::LeaderSchedule;
use lumiere_consensus::QuorumCert;
use lumiere_crypto::{KeyPair, Pki, Signature};
use lumiere_types::view::{EpochLayout, ViewWindow};
use lumiere_types::{Duration, Epoch, Params, ProcessId, Time, View};

/// Static configuration of a Lumiere instance.
#[derive(Debug, Clone)]
pub struct LumiereConfig {
    /// System parameters (n, f, Δ, x).
    pub params: Params,
    /// Epoch layout: `10n` views per epoch.
    pub layout: EpochLayout,
    /// View duration `Γ = 2(x+2)Δ`.
    pub gamma: Duration,
    /// Leader schedule (paired-reverse permutation).
    pub schedule: LeaderSchedule,
    /// QCs each leader must produce within an epoch for the success
    /// criterion (10). A leader's tally stops at this bar, so one byte
    /// holds it.
    pub success_qcs_per_leader: u8,
    /// A deliberately planted bug, for fuzzer calibration only. Inert unless
    /// the `planted-bugs` feature (or a test build) compiled the broken code
    /// path in — see [`crate::planted`].
    pub planted: Option<crate::planted::PlantedBug>,
}

impl LumiereConfig {
    /// Builds the canonical configuration of Section 4 for the given
    /// parameters; `seed` randomizes the leader permutation.
    pub fn new(params: Params, seed: u64) -> Self {
        LumiereConfig {
            params,
            layout: params.lumiere_epoch_layout(),
            gamma: params.gamma(),
            schedule: LeaderSchedule::lumiere(params.n, seed),
            success_qcs_per_leader: params.success_qcs_per_leader(),
            planted: None,
        }
    }

    /// Plants `bug` into this configuration (fuzzer calibration).
    pub fn with_planted_bug(mut self, bug: crate::planted::PlantedBug) -> Self {
        self.planted = Some(bug);
        self
    }
}

/// State of a paused local clock waiting at an epoch boundary (lines 9–11 of
/// Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EpochPause {
    epoch_view: View,
    paused_at: Time,
}

/// One epoch's success-criterion bookkeeping.
#[derive(Debug, Clone, Default)]
struct EpochState {
    /// Whether this processor has observed the success criterion.
    success: bool,
    /// Distinct views with a QC, per leader (indexed by processor id),
    /// counted up to the criterion's per-leader bar and no further.
    qcs_by_leader: Vec<u8>,
    /// Leaders whose count has reached the criterion's per-leader bar.
    leaders_done: usize,
}

/// A processor's Lumiere pacemaker.
///
/// See the crate-level documentation for an overview and
/// [`Pacemaker`] for the event interface.
#[derive(Debug)]
pub struct Lumiere {
    me: Processor,
    layout: EpochLayout,
    gamma: Duration,
    success_qcs_per_leader: u8,
    /// Read only where the planted-bug code path is compiled in.
    #[cfg_attr(not(any(test, feature = "planted-bugs")), allow(dead_code))]
    planted: Option<PlantedBug>,

    clock: LocalClock,
    /// Per-epoch success tallies, from epoch 0; extended only by QCs.
    epochs: ViewWindow<EpochState>,

    /// View messages collected as leader.
    view_msgs: ViewMsgs,
    /// Senders of epoch-view messages (broadcast by everyone), counted
    /// toward a TC and an EC.
    epoch_msgs: EpochMsgs,

    pause: Option<EpochPause>,
}

impl Lumiere {
    /// Creates the pacemaker for the processor owning `keys`.
    pub fn new(cfg: LumiereConfig, keys: KeyPair, pki: Pki) -> Self {
        let LumiereConfig {
            params,
            layout,
            gamma,
            schedule,
            success_qcs_per_leader,
            planted,
        } = cfg;
        Lumiere {
            me: Processor::new(params, schedule, keys, pki),
            layout,
            gamma,
            success_qcs_per_leader,
            planted,
            clock: LocalClock::new(Time::ZERO),
            epochs: ViewWindow::new(0),
            view_msgs: ViewMsgs::new(params.n),
            epoch_msgs: EpochMsgs::new(params.n),
            pause: None,
        }
    }

    /// The epoch this processor is currently in.
    pub fn epoch(&self) -> Epoch {
        self.layout.epoch_of(self.me.view())
    }

    /// Whether the local clock is currently paused at an epoch boundary.
    pub fn is_paused(&self) -> bool {
        self.pause.is_some()
    }

    /// Epochs whose success criterion this processor has observed.
    pub fn successful_epochs(&self) -> Vec<i64> {
        let done = self.epochs.iter().filter(|(_, state)| state.success);
        done.map(|(epoch, _)| epoch).collect()
    }

    /// The epoch layout (`10n` views per epoch).
    pub fn layout(&self) -> EpochLayout {
        self.layout
    }

    fn c(&self, view: View) -> Duration {
        view.clock_time(self.gamma)
    }

    fn unpause_if(&mut self, condition: impl Fn(View) -> bool, now: Time) {
        if let Some(pause) = self.pause {
            if condition(pause.epoch_view) {
                self.clock.unpause(now);
                self.pause = None;
            }
        }
    }

    /// Lines 18 / 38 / 46: send (not-yet-sent) view messages for every
    /// initial view in `[view(p), upto)`.
    fn send_skipped_view_msgs(&mut self, upto: View, now: Time, out: &mut Vec<PacemakerAction>) {
        let start = self.me.view().as_i64().max(0);
        for v in start..upto.as_i64() {
            let view = View::new(v);
            if view.is_initial() {
                self.send_view_msg(view, now, out);
            }
        }
    }

    fn send_view_msg(&mut self, view: View, now: Time, out: &mut Vec<PacemakerAction>) {
        if let Some(signature) = self.view_msgs.send(&mut self.me, view, out) {
            // Self-delivery: fold our own message into the pool directly.
            self.record_view_msg(view, signature, now, out);
        }
    }

    fn broadcast_epoch_msg(&mut self, view: View, now: Time, out: &mut Vec<PacemakerAction>) {
        if let Some(count) = self.epoch_msgs.broadcast(&mut self.me, view, out) {
            self.count_epoch_msgs(view, count, now, out);
        }
    }

    /// Lines 32–34: the leader of an initial view `v ≥ view(p)` aggregates
    /// f+1 view messages into a VC and broadcasts it.
    fn record_view_msg(
        &mut self,
        view: View,
        signature: Signature,
        now: Time,
        out: &mut Vec<PacemakerAction>,
    ) {
        let open = view.is_initial();
        if self
            .view_msgs
            .record(&mut self.me, view, signature, open, out)
        {
            // Leader rule (Section 4): the QC for this view must be produced
            // within Γ/2 − 2Δ of sending the VC.
            out.push(PacemakerAction::SetQcDeadline {
                view,
                deadline: now + self.me.params.leader_qc_window(),
            });
            // "Send to all processors" includes the leader itself (line 36):
            // if the leader's own clock is behind, its VC catches it up too.
            self.catch_up_to(view, now, out);
        }
    }

    /// Lines 37–40, on a VC for initial view `v`: if `v > view(p)`, send the
    /// skipped view messages, bump the clock to `c_v` and enter `v`.
    fn catch_up_to(&mut self, view: View, now: Time, out: &mut Vec<PacemakerAction>) {
        if view > self.me.view() {
            self.unpause_if(|pv| view >= pv, now);
            if self.clock.reading(now) < self.c(view) {
                self.send_skipped_view_msgs(view, now, out);
                self.clock.bump_to(self.c(view), now);
            }
            self.me.enter(view, out);
        }
    }

    /// Acts on `count` senders of epoch-view messages for `view`: a TC at
    /// f+1, an EC at 2f+1.
    fn count_epoch_msgs(
        &mut self,
        view: View,
        count: usize,
        now: Time,
        out: &mut Vec<PacemakerAction>,
    ) {
        if count >= self.me.params.small_quorum() && self.me.views.mark(view, SEEN_TC) {
            self.handle_tc(view, now, out);
        }
        if count >= self.me.params.quorum() && self.me.views.mark(view, SEEN_EC) {
            self.handle_ec(view, now, out);
        }
    }

    /// Lines 16–21: reaction to the first TC (f+1 epoch-view messages) for
    /// epoch view `v`.
    fn handle_tc(&mut self, view: View, now: Time, out: &mut Vec<PacemakerAction>) {
        if self.layout.epoch_of(view) < self.epoch() {
            return;
        }
        // The pause condition releases on a TC for a *strictly greater* view.
        self.unpause_if(|pv| view > pv, now);
        if self.clock.reading(now) < self.c(view) {
            self.send_skipped_view_msgs(view, now, out);
            self.clock.bump_to(self.c(view), now);
        }
        // Enter the last view of the previous epoch (line 20).
        self.me.enter(view.prev(), out);
        self.broadcast_epoch_msg(view, now, out);
    }

    /// Lines 23–24: reaction to the first EC (2f+1 epoch-view messages) for
    /// epoch view `v`.
    fn handle_ec(&mut self, view: View, now: Time, out: &mut Vec<PacemakerAction>) {
        if self.layout.epoch_of(view) <= self.epoch() {
            return;
        }
        self.unpause_if(|pv| view >= pv, now);
        self.clock.bump_to(self.c(view), now);
        self.me.enter(view, out);
    }

    /// Records a QC for the success criterion and returns whether the
    /// epoch's criterion newly became satisfied.
    fn track_success(&mut self, qc: &QuorumCert) -> Option<i64> {
        let v = qc.view();
        if v.as_i64() < 0 {
            return None;
        }
        // Each view counts once toward its leader, whatever the copies.
        let fresh = self.me.views.mark(v, TALLIED_QC);
        let epoch = self.layout.epoch_of(v).as_i64();
        let leader = self.me.leader(v).as_usize();
        // A bar of zero is met by a leader's first QC, as any bar is.
        let bar = self.success_qcs_per_leader.max(1);
        let (n, quorum) = (self.me.params.n, self.me.params.quorum());
        let state = self.epochs.get_or_insert(epoch)?;
        if fresh {
            if state.qcs_by_leader.is_empty() {
                // Allocated once at n bytes: grown by leader id, its
                // capacity would double to about 2n.
                state.qcs_by_leader = vec![0; n];
            }
            let count = &mut state.qcs_by_leader[leader];
            if *count < bar {
                *count += 1;
                if *count == bar {
                    state.leaders_done += 1;
                }
            }
        }
        if state.success || state.leaders_done < quorum {
            return None;
        }
        state.success = true;
        Some(epoch)
    }

    /// Clock-driven triggers: entering epoch views (lines 9–14) and initial
    /// views (lines 28–30), then scheduling of the next wake-up.
    fn sweep(&mut self, now: Time, out: &mut Vec<PacemakerAction>) {
        loop {
            let mut progressed = false;

            // --- Epoch-view trigger (lines 9–14) ---
            let next_epoch_view = self.layout.next_epoch_view_after(self.me.view());
            let reached = self.clock.reading(now) >= self.c(next_epoch_view);
            if self.me.view() < next_epoch_view && reached {
                let prev_epoch = self.layout.epoch_of(next_epoch_view).prev().as_i64();
                if self.epochs.get(prev_epoch).is_some_and(|e| e.success) {
                    // Line 13–14: treat the epoch view as a standard initial
                    // view and enter directly.
                    self.unpause_if(|pv| pv == next_epoch_view, now);
                    self.me.enter(next_epoch_view, out);
                    progressed = true;
                } else if self.pause.is_none()
                    && self.me.views.mark(next_epoch_view, EPOCH_PAUSE_TAKEN)
                {
                    // Lines 9–11: pause and, if still paused Δ later,
                    // broadcast the epoch-view message.
                    self.clock.pause(now);
                    self.pause = Some(EpochPause {
                        epoch_view: next_epoch_view,
                        paused_at: now,
                    });
                    out.push(PacemakerAction::WakeAt(now + self.me.params.delta_cap));
                }
            }

            // --- Initial-view trigger (lines 28–30) ---
            let reading = self.clock.reading(now);
            if reading >= Duration::ZERO {
                let max_view = reading.as_micros() / self.gamma.as_micros();
                let start = self.me.view().as_i64().max(0);
                for v in start..=max_view {
                    let view = View::new(v);
                    if !view.is_initial()
                        || view < self.me.view()
                        || self.me.views.has(view, INITIAL_TRIGGER_FIRED)
                        || self.layout.epoch_of(view) != self.epoch()
                    {
                        continue;
                    }
                    self.me.views.mark(view, INITIAL_TRIGGER_FIRED);
                    self.me.enter(view, out);
                    self.send_view_msg(view, now, out);
                    progressed = true;
                }
            }

            if !progressed {
                break;
            }
        }

        // --- Schedule the next clock-driven wake-up ---
        #[cfg(any(test, feature = "planted-bugs"))]
        if self.planted == Some(PlantedBug::DropTimeoutRearm)
            && self.me.view().as_i64() >= 0
            && !self.me.views.has(self.me.view(), OBSERVED_QC)
        {
            // PLANTED BUG (fuzzer calibration, never compiled into release
            // builds without the `planted-bugs` feature): while the current
            // view has no QC yet, the view-synchronization timer is not
            // re-armed. Continuous QC flow masks this completely; the first
            // adversarially wasted view severs the clock-driven recovery
            // path and the node can only ever act on incoming messages.
            return;
        }
        if let Some(at) = self.clock.next_tick(self.gamma * 2, now) {
            out.push(PacemakerAction::WakeAt(at));
        }
    }

    fn handle_view_msg(
        &mut self,
        from: ProcessId,
        view: View,
        signature: Signature,
        now: Time,
        out: &mut Vec<PacemakerAction>,
    ) {
        if !self.me.signed_by(from, &signature, view_msg_digest(view)) || !view.is_initial() {
            return;
        }
        self.record_view_msg(view, signature, now, out);
        self.sweep(now, out);
    }

    fn handle_epoch_view_msg(
        &mut self,
        from: ProcessId,
        view: View,
        signature: Signature,
        now: Time,
        out: &mut Vec<PacemakerAction>,
    ) {
        if !self.me.signed_by(from, &signature, epoch_view_digest(view))
            || !self.layout.is_epoch_view(view)
        {
            return;
        }
        let count = self.epoch_msgs.record(from, view);
        self.count_epoch_msgs(view, count, now, out);
        self.sweep(now, out);
    }

    /// Lines 36–40: reaction to a VC for an initial view.
    fn handle_view_cert(&mut self, vc: &ViewCert, now: Time, out: &mut Vec<PacemakerAction>) {
        let view = vc.view();
        let verify = || vc.verify(&self.me.pki, &self.me.params).is_ok();
        if !view.is_initial() || !self.me.views.admit(view, SEEN_VC, verify) {
            return;
        }
        self.catch_up_to(view, now, out);
        self.sweep(now, out);
    }

    /// Handles an explicitly relayed EC (equivalent to assembling one from
    /// individual epoch-view messages).
    fn handle_epoch_cert(&mut self, ec: &EpochCert, now: Time, out: &mut Vec<PacemakerAction>) {
        let view = ec.view();
        if !self.layout.is_epoch_view(view) {
            return;
        }
        // An EC for a marked view has nothing left to do (`seen_ec` implies
        // `seen_tc`), so it is not checked again.
        if !self.me.views.has(view, SEEN_EC) {
            if ec.verify(&self.me.pki, &self.me.params).is_err() {
                return;
            }
            if self.me.views.mark(view, SEEN_TC) {
                self.handle_tc(view, now, out);
            }
            // `handle_tc` may itself have completed the EC from the pool.
            if self.me.views.mark(view, SEEN_EC) {
                self.handle_ec(view, now, out);
            }
        }
        self.sweep(now, out);
    }

    fn handle_timeout_cert(&mut self, tc: &TimeoutCert, now: Time, out: &mut Vec<PacemakerAction>) {
        let view = tc.view();
        if !self.layout.is_epoch_view(view) {
            return;
        }
        // A TC for a marked view has nothing left to do but the sweep.
        if !self.me.views.has(view, SEEN_TC) {
            let verify = || tc.verify(&self.me.pki, &self.me.params).is_ok();
            if !self.me.views.admit(view, SEEN_TC, verify) {
                return;
            }
            self.handle_tc(view, now, out);
        }
        self.sweep(now, out);
    }
}

impl Pacemaker for Lumiere {
    fn name(&self) -> &'static str {
        "lumiere"
    }

    fn processor(&self) -> &Processor {
        &self.me
    }

    fn boot_into(&mut self, now: Time, out: &mut Vec<PacemakerAction>) {
        if self.me.boot() {
            self.clock = LocalClock::new(now);
            self.sweep(now, out);
        }
    }

    fn on_message_into(
        &mut self,
        from: ProcessId,
        msg: &PacemakerMessage,
        now: Time,
        out: &mut Vec<PacemakerAction>,
    ) {
        match msg {
            PacemakerMessage::ViewMsg { view, signature } => {
                self.handle_view_msg(from, *view, *signature, now, out)
            }
            PacemakerMessage::EpochViewMsg { view, signature } => {
                self.handle_epoch_view_msg(from, *view, *signature, now, out)
            }
            PacemakerMessage::ViewCert(vc) => self.handle_view_cert(vc, now, out),
            PacemakerMessage::EpochCert(ec) => self.handle_epoch_cert(ec, now, out),
            PacemakerMessage::TimeoutCert(tc) => self.handle_timeout_cert(tc, now, out),
            // Messages belonging to other protocol families are ignored.
            _ => {}
        }
    }

    fn on_qc_into(
        &mut self,
        qc: &QuorumCert,
        formed_locally: bool,
        now: Time,
        out: &mut Vec<PacemakerAction>,
    ) {
        let v = qc.view();
        if v.as_i64() < 0 {
            return;
        }
        // Success-criterion bookkeeping happens for every QC we hear about.
        if let Some(epoch) = self.track_success(qc) {
            // The pause condition releases when success(E(v)−1) flips to 1.
            let boundary = self.layout.first_view(Epoch::new(epoch + 1));
            self.unpause_if(|pv| pv == boundary, now);
        }

        // Lines 44–49, guarded by "first seeing a QC for view v ≥ view(p)".
        if v >= self.me.view() && self.me.views.mark(v, OBSERVED_QC) {
            let next = v.next();
            self.unpause_if(|pv| v >= pv, now);
            if self.clock.reading(now) < self.c(next) {
                self.send_skipped_view_msgs(next, now, out);
                self.clock.bump_to(self.c(next), now);
            }
            if !self.layout.is_epoch_view(next) {
                self.me.enter(next, out);
            } else if self.me.view() < v {
                self.me.enter(v, out);
            }
        }

        // Leader rule: chain the QC deadline into the leader's second view.
        if formed_locally {
            let next = v.next();
            if !next.is_initial()
                && self.me.leader(next) == self.me.id()
                && !self.layout.is_epoch_view(next)
            {
                out.push(PacemakerAction::SetQcDeadline {
                    view: next,
                    deadline: now + self.me.params.leader_qc_window(),
                });
            }
        }

        self.sweep(now, out);
    }

    fn on_wake_into(&mut self, now: Time, out: &mut Vec<PacemakerAction>) {
        // Line 11: if still paused Δ after pausing, broadcast the epoch-view
        // message.
        if let Some(pause) = self.pause {
            if now >= pause.paused_at + self.me.params.delta_cap {
                self.broadcast_epoch_msg(pause.epoch_view, now, out);
            } else {
                out.push(PacemakerAction::WakeAt(
                    pause.paused_at + self.me.params.delta_cap,
                ));
            }
        }
        self.sweep(now, out);
    }

    fn local_clock_reading(&self, now: Time) -> Duration {
        self.clock.reading(now)
    }

    fn state_entries(&self) -> usize {
        self.me.views.len()
            + self.epochs.len()
            + self.view_msgs.entries()
            + self.epoch_msgs.entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certs::forged;
    use crate::pacemaker::actions;
    use lumiere_crypto::keygen;

    fn config(n: usize) -> (LumiereConfig, Vec<KeyPair>, Pki) {
        let params = Params::new(n, Duration::from_millis(10));
        let (keys, pki) = keygen(n, 1);
        (LumiereConfig::new(params, 7), keys, pki)
    }

    fn make(n: usize, who: usize) -> Lumiere {
        let (cfg, keys, pki) = config(n);
        Lumiere::new(cfg, keys[who].clone(), pki)
    }

    #[test]
    fn boot_pauses_at_the_epoch_zero_boundary() {
        let mut pm = make(4, 0);
        let out = pm.boot(Time::ZERO);
        assert!(pm.is_paused(), "epoch 0 has no prior success: must pause");
        assert_eq!(pm.current_view(), View::SENTINEL);
        // A wake-up is scheduled Δ later for the deferred epoch-view message.
        assert_eq!(
            actions::earliest_wake(&out),
            Some(Time::ZERO + Duration::from_millis(10))
        );
        // Nothing is broadcast yet.
        assert_eq!(actions::message_count(&out, 4), 0);
    }

    #[test]
    fn epoch_view_message_is_broadcast_delta_after_pausing() {
        let mut pm = make(4, 0);
        pm.boot(Time::ZERO);
        let out = pm.on_wake(Time::from_millis(10));
        assert!(out.iter().any(|a| matches!(
            a,
            PacemakerAction::Broadcast(PacemakerMessage::EpochViewMsg { view, .. }) if *view == View::new(0)
        )));
        assert!(out
            .iter()
            .any(|a| matches!(a, PacemakerAction::HeavySyncStarted { .. })));
        // Still paused until an EC (or equivalent) appears.
        assert!(pm.is_paused());
    }

    #[test]
    fn quorum_of_epoch_view_messages_enters_epoch_zero() {
        let (cfg, keys, pki) = config(4);
        let mut pm = Lumiere::new(cfg, keys[0].clone(), pki);
        pm.boot(Time::ZERO);
        pm.on_wake(Time::from_millis(10)); // own epoch-view message
        let t = Time::from_millis(11);
        let mut all = Vec::new();
        for k in keys.iter().skip(1) {
            let msg = PacemakerMessage::EpochViewMsg {
                view: View::new(0),
                signature: k.sign(epoch_view_digest(View::new(0))),
            };
            all.extend(pm.on_message(k.id(), &msg, t));
        }
        assert_eq!(pm.current_view(), View::new(0));
        assert_eq!(pm.epoch(), Epoch::new(0));
        assert!(!pm.is_paused());
        // Entering view 0 (initial) also sends a view message toward the
        // leader of view 0 (possibly folded into the local pool if this node
        // is itself the leader).
        let entered = actions::entered_views(&all);
        assert!(entered.contains(&View::new(0)));
    }

    /// Drives a full 4-node "network" of Lumiere pacemakers with instant
    /// delivery and no underlying protocol, and checks that the heavy epoch-0
    /// synchronization completes for every processor.
    #[test]
    fn four_nodes_synchronize_epoch_zero_with_instant_delivery() {
        let (cfg, keys, pki) = config(4);
        let mut nodes: Vec<Lumiere> = keys
            .iter()
            .map(|k| Lumiere::new(cfg.clone(), k.clone(), pki.clone()))
            .collect();
        let mut pending: Vec<(usize, usize, PacemakerMessage)> = Vec::new();
        let route = |from: usize,
                     acts: Vec<PacemakerAction>,
                     pending: &mut Vec<(usize, usize, PacemakerMessage)>| {
            for a in acts {
                match a {
                    PacemakerAction::SendTo(to, m) => pending.push((from, to.as_usize(), m)),
                    PacemakerAction::Broadcast(m) => {
                        for to in 0..4 {
                            if to != from {
                                pending.push((from, to, m.clone()));
                            }
                        }
                    }
                    _ => {}
                }
            }
        };
        let t0 = Time::ZERO;
        for (i, n) in nodes.iter_mut().enumerate() {
            let acts = n.boot(t0);
            route(i, acts, &mut pending);
        }
        let t1 = Time::from_millis(10);
        for (i, n) in nodes.iter_mut().enumerate() {
            let acts = n.on_wake(t1);
            route(i, acts, &mut pending);
        }
        // Deliver everything that is queued until quiescence.
        let mut guard = 0;
        while let Some((from, to, msg)) = pending.pop() {
            guard += 1;
            assert!(guard < 10_000, "message storm");
            let acts = nodes[to].on_message(ProcessId::new(from), &msg, Time::from_millis(12));
            route(to, acts, &mut pending);
        }
        for n in &nodes {
            assert_eq!(
                n.current_view(),
                View::new(0),
                "{} lagging",
                n.processor().id()
            );
            assert!(!n.is_paused());
        }
        // The leader of view 0 must have formed and broadcast a VC: everyone
        // has seen it (seen_vc) or formed it.
        let leader = cfg.schedule.leader(View::new(0));
        assert!(nodes[leader.as_usize()]
            .me
            .views
            .has(View::new(0), FORMED_VC));
    }

    #[test]
    fn qc_bumps_clock_and_enters_next_view() {
        let (cfg, keys, pki) = config(4);
        let params = cfg.params;
        let mut pm = Lumiere::new(cfg, keys[0].clone(), pki);
        pm.boot(Time::ZERO);
        // Short-circuit into epoch 0 by injecting an EC.
        let t = Time::from_millis(5);
        let sigs: Vec<_> = keys
            .iter()
            .map(|k| k.sign(epoch_view_digest(View::new(0))))
            .collect();
        let ec = EpochCert::aggregate(View::new(0), &sigs, &params).unwrap();
        pm.on_message(keys[1].id(), &PacemakerMessage::EpochCert(ec), t);
        assert_eq!(pm.current_view(), View::new(0));
        // Now a QC for view 0 arrives: the clock is bumped to c_1 and the
        // processor enters view 1.
        let digest = QuorumCert::vote_digest(View::new(0), 0xAA);
        let votes: Vec<_> = keys.iter().take(3).map(|k| k.sign(digest)).collect();
        let qc = QuorumCert::aggregate(View::new(0), 0xAA, &votes, &params).unwrap();
        let t2 = Time::from_millis(6);
        let out = pm.on_qc(&qc, false, t2);
        assert_eq!(pm.current_view(), View::new(1));
        assert_eq!(
            pm.local_clock_reading(t2),
            View::new(1).clock_time(params.gamma())
        );
        assert!(actions::entered_views(&out).contains(&View::new(1)));
        // Duplicate delivery is harmless.
        let before = pm.current_view();
        pm.on_qc(&qc, false, Time::from_millis(7));
        assert_eq!(pm.current_view(), before);
    }

    #[test]
    fn leader_sets_qc_deadline_when_forming_a_vc() {
        let (cfg, keys, pki) = config(4);
        let params = cfg.params;
        let leader_of_v0 = cfg.schedule.leader(View::new(0));
        let mut pm = Lumiere::new(cfg, keys[leader_of_v0.as_usize()].clone(), pki);
        pm.boot(Time::ZERO);
        // Enter epoch 0 via an EC.
        let sigs: Vec<_> = keys
            .iter()
            .map(|k| k.sign(epoch_view_digest(View::new(0))))
            .collect();
        let ec = EpochCert::aggregate(View::new(0), &sigs, &params).unwrap();
        let t = Time::from_millis(3);
        let mut out = pm.on_message(keys[0].id(), &PacemakerMessage::EpochCert(ec), t);
        // Other processors report entering view 0.
        for k in keys.iter().filter(|k| k.id() != leader_of_v0) {
            let msg = PacemakerMessage::ViewMsg {
                view: View::new(0),
                signature: k.sign(view_msg_digest(View::new(0))),
            };
            out.extend(pm.on_message(k.id(), &msg, Time::from_millis(4)));
        }
        let deadline = out.iter().find_map(|a| match a {
            PacemakerAction::SetQcDeadline { view, deadline } if *view == View::new(0) => {
                Some(*deadline)
            }
            _ => None,
        });
        let expected = Time::from_millis(4) + params.leader_qc_window();
        assert_eq!(deadline, Some(expected));
        assert!(out.iter().any(|a| matches!(
            a,
            PacemakerAction::Broadcast(PacemakerMessage::ViewCert(vc)) if vc.view() == View::new(0)
        )));
    }

    #[test]
    fn success_criterion_suppresses_the_next_heavy_sync() {
        let (cfg, keys, pki) = config(4);
        let params = cfg.params;
        let epoch_len = cfg.layout.epoch_len() as i64;
        let mut pm = Lumiere::new(cfg.clone(), keys[0].clone(), pki);
        pm.boot(Time::ZERO);
        // Enter epoch 0.
        let sigs: Vec<_> = keys
            .iter()
            .map(|k| k.sign(epoch_view_digest(View::new(0))))
            .collect();
        let ec = EpochCert::aggregate(View::new(0), &sigs, &params).unwrap();
        let mut now = Time::from_millis(1);
        pm.on_message(keys[1].id(), &PacemakerMessage::EpochCert(ec), now);
        // Feed a QC for every view of epoch 0 (so *every* leader trivially
        // reaches 10 QCs and the success criterion holds).
        for v in 0..epoch_len {
            now += Duration::from_micros(200);
            let digest = QuorumCert::vote_digest(View::new(v), v as u64 + 1);
            let votes: Vec<_> = keys.iter().take(3).map(|k| k.sign(digest)).collect();
            let qc = QuorumCert::aggregate(View::new(v), v as u64 + 1, &votes, &params).unwrap();
            pm.on_qc(&qc, false, now);
        }
        assert!(pm.successful_epochs().contains(&0));
        // The processor crossed into epoch 1 without pausing or broadcasting
        // an epoch-view message for view `epoch_len`.
        assert_eq!(pm.epoch(), Epoch::new(1));
        assert!(!pm.is_paused());
        assert!(!pm.me.views.has(View::new(epoch_len), SENT_EPOCH_MSG));
    }

    #[test]
    fn without_success_the_next_epoch_requires_a_heavy_sync_again() {
        let (cfg, keys, pki) = config(4);
        let params = cfg.params;
        let epoch_len = cfg.layout.epoch_len() as i64;
        let gamma = cfg.gamma;
        let mut pm = Lumiere::new(cfg, keys[0].clone(), pki);
        pm.boot(Time::ZERO);
        let sigs: Vec<_> = keys
            .iter()
            .map(|k| k.sign(epoch_view_digest(View::new(0))))
            .collect();
        let ec = EpochCert::aggregate(View::new(0), &sigs, &params).unwrap();
        pm.on_message(
            keys[1].id(),
            &PacemakerMessage::EpochCert(ec),
            Time::from_millis(1),
        );
        // No QCs at all: let the local clock run to the end of the epoch.
        let end_of_epoch = Time::from_millis(1) + gamma * epoch_len;
        let out = pm.on_wake(end_of_epoch);
        assert!(
            pm.is_paused(),
            "no success: the clock pauses at the boundary"
        );
        assert!(actions::earliest_wake(&out).is_some());
        // Δ later the epoch-view message for V(1) goes out.
        let out = pm.on_wake(end_of_epoch + params.delta_cap);
        assert!(out.iter().any(|a| matches!(
            a,
            PacemakerAction::Broadcast(PacemakerMessage::EpochViewMsg { view, .. })
                if view.as_i64() == epoch_len
        )));
    }

    /// A pacemaker (p0 of n = 4) admitted into epoch 0 by an EC.
    fn in_epoch_zero() -> (Lumiere, Vec<KeyPair>, Params, EpochCert) {
        let (cfg, keys, pki) = config(4);
        let params = cfg.params;
        let mut pm = Lumiere::new(cfg, keys[0].clone(), pki);
        pm.boot(Time::ZERO);
        let sigs: Vec<_> = keys
            .iter()
            .map(|k| k.sign(epoch_view_digest(View::new(0))))
            .collect();
        let ec = EpochCert::aggregate(View::new(0), &sigs, &params).unwrap();
        pm.on_message(
            keys[1].id(),
            &PacemakerMessage::EpochCert(ec.clone()),
            Time::from_millis(1),
        );
        assert_eq!(pm.current_view(), View::new(0));
        (pm, keys, params, ec)
    }

    #[test]
    fn a_forged_vc_does_not_use_up_the_view() {
        // Regression: the view was marked seen before the certificate was
        // verified, so one forged VC made the replica drop the genuine one.
        let (mut pm, keys, params, _) = in_epoch_zero();
        let v = View::new(2);
        let sigs: Vec<_> = keys
            .iter()
            .take(2)
            .map(|k| k.sign(view_msg_digest(v)))
            .collect();
        let vc = ViewCert::aggregate(v, &sigs, &params).unwrap();
        let t = Time::from_millis(2);
        let out = pm.on_message(keys[3].id(), &PacemakerMessage::ViewCert(forged(&vc)), t);
        assert!(out.is_empty());
        assert_eq!(pm.current_view(), View::new(0));
        let out = pm.on_message(keys[1].id(), &PacemakerMessage::ViewCert(vc.clone()), t);
        assert_eq!(pm.current_view(), v);
        assert!(actions::entered_views(&out).contains(&v));
        // A second copy of the genuine VC is dropped as before.
        assert!(pm
            .on_message(keys[1].id(), &PacemakerMessage::ViewCert(vc), t)
            .is_empty());
    }

    #[test]
    fn a_marked_epoch_view_spends_no_check_on_further_certificates() {
        let (mut pm, keys, params, ec) = in_epoch_zero();
        let t = Time::from_millis(2);
        let sigs: Vec<_> = keys
            .iter()
            .take(2)
            .map(|k| k.sign(epoch_view_digest(View::new(0))))
            .collect();
        let tc = TimeoutCert::aggregate(View::new(0), &sigs, &params).unwrap();
        // Genuine or forged, a certificate for the marked view 0 does what a
        // duplicate always did: nothing but the trailing sweep.
        for msg in [
            PacemakerMessage::EpochCert(ec.clone()),
            PacemakerMessage::EpochCert(forged(&ec)),
            PacemakerMessage::TimeoutCert(tc.clone()),
            PacemakerMessage::TimeoutCert(forged(&tc)),
        ] {
            let out = pm.on_message(keys[3].id(), &msg, t);
            assert!(actions::earliest_wake(&out).is_some(), "swept");
            assert_eq!(actions::message_count(&out, 4), 0);
            assert_eq!(pm.current_view(), View::new(0));
        }
        // For an unmarked epoch view the check runs first: forged copies are
        // dropped whole, and leave the view open for the genuine one.
        let next = View::new(pm.layout().epoch_len() as i64);
        let sigs: Vec<_> = keys
            .iter()
            .map(|k| k.sign(epoch_view_digest(next)))
            .collect();
        let ec = EpochCert::aggregate(next, &sigs, &params).unwrap();
        let tc = TimeoutCert::aggregate(next, &sigs, &params).unwrap();
        for msg in [
            PacemakerMessage::EpochCert(forged(&ec)),
            PacemakerMessage::TimeoutCert(forged(&tc)),
        ] {
            assert!(pm.on_message(keys[3].id(), &msg, t).is_empty());
        }
        pm.on_message(keys[3].id(), &PacemakerMessage::EpochCert(ec), t);
        assert_eq!(pm.current_view(), next);
    }

    #[test]
    fn views_one_peer_names_are_read_but_never_indexed() {
        let (mut pm, keys, _, _) = in_epoch_zero();
        let epoch_len = pm.layout().epoch_len() as i64;
        let records = (pm.me.views.len(), pm.epochs.len());
        let entries = pm.state_entries();
        let t = Time::from_millis(2);
        let peer = &keys[3];
        let far = [i64::MAX - 1, 1 << 40, -2, epoch_len << 35];
        for v in far.map(View::new) {
            for msg in [
                PacemakerMessage::ViewMsg {
                    view: v,
                    signature: peer.sign(view_msg_digest(v)),
                },
                PacemakerMessage::EpochViewMsg {
                    view: v,
                    signature: peer.sign(epoch_view_digest(v)),
                },
            ] {
                let out = pm.on_message(peer.id(), &msg, t);
                assert_eq!(actions::message_count(&out, 4), 0);
                assert!(actions::entered_views(&out).is_empty());
            }
        }
        assert_eq!((pm.me.views.len(), pm.epochs.len()), records);
        // Three initial views and one epoch view were pooled; `-2` and the
        // mismatched classes were dropped at the door.
        assert_eq!(pm.state_entries(), entries + 4);
        assert_eq!(pm.current_view(), View::new(0));
    }

    /// A QC for view `v` signed by three of the four keys.
    fn qc_of(v: i64, keys: &[KeyPair], params: &Params) -> QuorumCert {
        let digest = QuorumCert::vote_digest(View::new(v), v as u64 + 1);
        let votes: Vec<_> = keys.iter().take(3).map(|k| k.sign(digest)).collect();
        QuorumCert::aggregate(View::new(v), v as u64 + 1, &votes, params).unwrap()
    }

    #[test]
    fn copies_of_a_qc_count_once_toward_the_success_criterion() {
        // Three schedule windows of `2n` views — six views per leader — with
        // every QC delivered twice (as a leader sees its own: formed, then
        // observed): twelve deliveries per leader. Under the bar of ten that
        // is six distinct views, below it; under a bar of four each leader
        // stops at the bar and counts once toward the quorum.
        for (bar, tally, done) in [(10, 6, 0), (4, 4, 4)] {
            let (mut pm, keys, params, _) = in_epoch_zero();
            pm.success_qcs_per_leader = bar;
            let epoch_len = pm.layout().epoch_len() as i64;
            let mut now = Time::from_millis(1);
            assert!(epoch_len >= 24);
            for v in 0..24 {
                let qc = qc_of(v, &keys, &params);
                for formed_locally in [true, false] {
                    now += Duration::from_micros(100);
                    pm.on_qc(&qc, formed_locally, now);
                }
            }
            assert_eq!(pm.successful_epochs().is_empty(), done == 0);
            let state = pm.epochs.get(0).unwrap();
            assert_eq!(state.qcs_by_leader, [tally; 4], "bar {bar}");
            assert_eq!(state.leaders_done, done, "bar {bar}");
        }
    }

    #[test]
    fn an_epoch_succeeds_at_the_quorum_th_leader_to_reach_the_bar() {
        let (mut pm, keys, params, _) = in_epoch_zero();
        let bar = 2;
        pm.success_qcs_per_leader = bar;
        // Epoch 0's views grouped by leader, leaders in schedule order: each
        // leader's whole run of QCs (ten, five times the bar) arrives before
        // the next leader's first.
        let epoch_len = pm.layout().epoch_len() as i64;
        let mut by_leader: Vec<(ProcessId, Vec<i64>)> = Vec::new();
        for v in 0..epoch_len {
            let leader = pm.me.leader(View::new(v));
            match by_leader.iter_mut().find(|(l, _)| *l == leader) {
                Some((_, views)) => views.push(v),
                None => by_leader.push((leader, vec![v])),
            }
        }
        let quorum = params.quorum();
        assert_eq!((by_leader.len(), quorum), (4, 3));
        let mut now = Time::from_millis(1);
        for (rank, (_, views)) in by_leader.iter().enumerate() {
            for (i, &v) in views.iter().enumerate() {
                now += Duration::from_micros(100);
                pm.on_qc(&qc_of(v, &keys, &params), false, now);
                let reached = rank + usize::from(i + 1 >= usize::from(bar));
                let state = pm.epochs.get(0).unwrap();
                assert_eq!(state.leaders_done, reached, "view {v}");
                assert_eq!(
                    pm.successful_epochs().contains(&0),
                    reached >= quorum,
                    "view {v}: success comes with the {quorum}th leader at the bar"
                );
            }
        }
        let state = pm.epochs.get(0).unwrap();
        assert_eq!(state.qcs_by_leader, [bar; 4]);
    }

    #[test]
    fn view_messages_with_bad_signatures_are_ignored() {
        let (cfg, keys, pki) = config(4);
        let mut pm = Lumiere::new(cfg, keys[0].clone(), pki);
        pm.boot(Time::ZERO);
        // Signature by key 2 but claimed from processor 3.
        let msg = PacemakerMessage::ViewMsg {
            view: View::new(0),
            signature: keys[2].sign(view_msg_digest(View::new(0))),
        };
        let out = pm.on_message(ProcessId::new(3), &msg, Time::from_millis(1));
        assert!(out.is_empty());
        // Epoch-view message for a non-epoch view is ignored.
        let msg = PacemakerMessage::EpochViewMsg {
            view: View::new(2),
            signature: keys[2].sign(epoch_view_digest(View::new(2))),
        };
        let out = pm.on_message(ProcessId::new(2), &msg, Time::from_millis(1));
        assert!(out.is_empty());
    }

    #[test]
    fn view_never_decreases_under_arbitrary_message_interleavings() {
        // Property-style test with a fixed pseudo-random interleaving of
        // messages and QCs: condition (1) of the BVS task.
        let (cfg, keys, pki) = config(4);
        let params = cfg.params;
        let mut pm = Lumiere::new(cfg, keys[0].clone(), pki);
        pm.boot(Time::ZERO);
        let mut last_view = pm.current_view();
        let mut state = 0x12345u64;
        let mut now = Time::ZERO;
        for step in 0..400u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            now += Duration::from_micros((state % 900) as i64 + 1);
            let v = View::new((state >> 20) as i64 % 90);
            match state % 4 {
                0 => {
                    let k = &keys[(state % 4) as usize];
                    let msg = PacemakerMessage::ViewMsg {
                        view: if v.is_initial() { v } else { v.next() },
                        signature: k.sign(view_msg_digest(if v.is_initial() {
                            v
                        } else {
                            v.next()
                        })),
                    };
                    pm.on_message(k.id(), &msg, now);
                }
                1 => {
                    let k = &keys[(state % 4) as usize];
                    let ev = View::new(0);
                    let msg = PacemakerMessage::EpochViewMsg {
                        view: ev,
                        signature: k.sign(epoch_view_digest(ev)),
                    };
                    pm.on_message(k.id(), &msg, now);
                }
                2 => {
                    let digest = QuorumCert::vote_digest(v, step);
                    let votes: Vec<_> = keys.iter().take(3).map(|k| k.sign(digest)).collect();
                    let qc = QuorumCert::aggregate(v, step, &votes, &params).unwrap();
                    pm.on_qc(&qc, false, now);
                }
                _ => {
                    pm.on_wake(now);
                }
            }
            assert!(
                pm.current_view() >= last_view,
                "view moved backwards at step {step}"
            );
            last_view = pm.current_view();
        }
    }
}
