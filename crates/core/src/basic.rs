//! Basic Lumiere (Section 3.4): LP22 epochs + Fever clock bumping.
//!
//! Basic Lumiere combines the two ingredients of the full protocol but keeps
//! a **heavy synchronization at the start of every epoch**: epochs are
//! `2(f+1)` views long, every processor broadcasts an *epoch view* message
//! the moment its local clock reaches the epoch boundary, and entry into the
//! epoch requires an EC (`2f+1` such messages). Within the epoch the
//! Fever-style machinery (view messages, VCs, clock bumping on QCs) provides
//! smooth optimistic responsiveness.
//!
//! The protocol already achieves properties (1)–(3) of Theorem 1.1; it serves
//! as the ablation showing why the success criterion of Section 3.5 is needed
//! for property (4) — its eventual worst-case communication remains `Θ(n²)`
//! because every epoch change is heavy.

use crate::certs::view_msg_digest;
use crate::clock::LocalClock;
use crate::ledger::*;
use crate::messages::PacemakerMessage;
use crate::pacemaker::{EpochMsgs, Pacemaker, PacemakerAction, Processor, ViewMsgs};
use crate::schedule::LeaderSchedule;
use lumiere_consensus::QuorumCert;
use lumiere_crypto::{KeyPair, Pki, Signature};
use lumiere_types::view::EpochLayout;
use lumiere_types::{Duration, Epoch, Params, ProcessId, Time, View};

/// A processor's Basic Lumiere pacemaker (Section 3.4).
#[derive(Debug)]
pub struct BasicLumiere {
    me: Processor,
    layout: EpochLayout,
    gamma: Duration,
    clock: LocalClock,

    view_msgs: ViewMsgs,
    epoch_msgs: EpochMsgs,

    /// Epoch view at which the local clock is paused, if any.
    paused_at_boundary: Option<View>,
}

impl BasicLumiere {
    /// Creates the pacemaker for the processor owning `keys`.
    pub fn new(params: Params, keys: KeyPair, pki: Pki) -> Self {
        BasicLumiere {
            me: Processor::new(
                params,
                LeaderSchedule::half_round_robin(params.n),
                keys,
                pki,
            ),
            layout: params.basic_lumiere_epoch_layout(),
            gamma: params.fever_gamma(),
            clock: LocalClock::new(Time::ZERO),
            view_msgs: ViewMsgs::new(params.n),
            epoch_msgs: EpochMsgs::new(params.n),
            paused_at_boundary: None,
        }
    }

    /// The epoch this processor is currently in.
    pub fn epoch(&self) -> Epoch {
        self.layout.epoch_of(self.me.view())
    }

    /// Whether the local clock is paused at an epoch boundary.
    pub fn is_paused(&self) -> bool {
        self.paused_at_boundary.is_some()
    }

    /// The epoch layout (2(f+1) views per epoch).
    pub fn layout(&self) -> EpochLayout {
        self.layout
    }

    fn c(&self, view: View) -> Duration {
        view.clock_time(self.gamma)
    }

    /// Bumps the clock to `view`'s clock time and enters it.
    fn catch_up_to(&mut self, view: View, now: Time, out: &mut Vec<PacemakerAction>) {
        self.clock.bump_to(self.c(view), now);
        self.me.enter(view, out);
    }

    fn record_view_msg(
        &mut self,
        view: View,
        signature: Signature,
        now: Time,
        out: &mut Vec<PacemakerAction>,
    ) {
        // Epoch views are entered by an EC only, never by a VC.
        let open = view.is_initial() && !self.layout.is_epoch_view(view);
        // The broadcast includes the leader itself: catch up if behind.
        let formed = self
            .view_msgs
            .record(&mut self.me, view, signature, open, out);
        if formed && view > self.me.view() {
            self.catch_up_to(view, now, out);
        }
    }

    /// Acts on `count` senders of epoch-view messages for `view`.
    fn count_epoch_msgs(
        &mut self,
        view: View,
        count: usize,
        now: Time,
        out: &mut Vec<PacemakerAction>,
    ) {
        if count >= self.me.params.quorum() && self.me.views.mark(view, SEEN_EC) {
            self.handle_ec(view, now, out);
        }
    }

    fn handle_ec(&mut self, view: View, now: Time, out: &mut Vec<PacemakerAction>) {
        if self.layout.epoch_of(view) <= self.epoch() {
            return;
        }
        if self.paused_at_boundary.is_some_and(|pv| view >= pv) {
            self.clock.unpause(now);
            self.paused_at_boundary = None;
        }
        self.catch_up_to(view, now, out);
    }

    fn sweep(&mut self, now: Time, out: &mut Vec<PacemakerAction>) {
        loop {
            let mut progressed = false;

            // Heavy synchronization at *every* epoch boundary.
            let next_epoch_view = self.layout.next_epoch_view_after(self.me.view());
            if self.me.view() < next_epoch_view
                && self.clock.reading(now) >= self.c(next_epoch_view)
                && self.me.views.mark(next_epoch_view, EPOCH_PAUSE_TAKEN)
            {
                self.clock.pause(now);
                self.paused_at_boundary = Some(next_epoch_view);
                if let Some(count) = self
                    .epoch_msgs
                    .broadcast(&mut self.me, next_epoch_view, out)
                {
                    self.count_epoch_msgs(next_epoch_view, count, now, out);
                }
                progressed = true;
            }

            // Light synchronization for initial non-epoch views.
            let reading = self.clock.reading(now);
            if reading >= Duration::ZERO {
                let max_view = reading.as_micros() / self.gamma.as_micros();
                let start = self.me.view().as_i64().max(0);
                for v in start..=max_view {
                    let view = View::new(v);
                    if !view.is_initial()
                        || view < self.me.view()
                        || self.me.views.has(view, INITIAL_TRIGGER_FIRED)
                        || self.layout.is_epoch_view(view)
                        || self.layout.epoch_of(view) != self.epoch()
                    {
                        continue;
                    }
                    self.me.views.mark(view, INITIAL_TRIGGER_FIRED);
                    self.me.enter(view, out);
                    if let Some(signature) = self.view_msgs.send(&mut self.me, view, out) {
                        self.record_view_msg(view, signature, now, out);
                    }
                    progressed = true;
                }
            }

            if !progressed {
                break;
            }
        }

        if let Some(at) = self.clock.next_tick(self.gamma * 2, now) {
            out.push(PacemakerAction::WakeAt(at));
        }
    }
}

impl Pacemaker for BasicLumiere {
    fn name(&self) -> &'static str {
        "basic-lumiere"
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
            PacemakerMessage::ViewMsg { view, signature }
                if view.is_initial()
                    && self.me.signed_by(from, signature, view_msg_digest(*view)) =>
            {
                self.record_view_msg(*view, *signature, now, out);
            }
            PacemakerMessage::EpochViewMsg { view, signature }
                if self.layout.is_epoch_view(*view) =>
            {
                if let Some(count) = self.epoch_msgs.accept(&self.me, from, *view, signature) {
                    self.count_epoch_msgs(*view, count, now, out);
                }
            }
            PacemakerMessage::ViewCert(vc) => {
                let view = vc.view();
                let verify = || vc.verify(&self.me.pki, &self.me.params).is_ok();
                if view.is_initial()
                    && !self.layout.is_epoch_view(view)
                    && self.me.views.admit(view, SEEN_VC, verify)
                    && view > self.me.view()
                {
                    self.catch_up_to(view, now, out);
                }
            }
            PacemakerMessage::EpochCert(ec) => {
                let view = ec.view();
                let verify = || ec.verify(&self.me.pki, &self.me.params).is_ok();
                if self.layout.is_epoch_view(view) && self.me.views.admit(view, SEEN_EC, verify) {
                    self.handle_ec(view, now, out);
                }
            }
            _ => {}
        }
        self.sweep(now, out);
    }

    fn on_qc_into(
        &mut self,
        qc: &QuorumCert,
        _formed_locally: bool,
        now: Time,
        out: &mut Vec<PacemakerAction>,
    ) {
        let v = qc.view();
        if v.as_i64() < 0 {
            return;
        }
        if v >= self.me.view() && self.me.views.mark(v, OBSERVED_QC) {
            let next = v.next();
            self.clock.bump_to(self.c(next), now);
            if !self.layout.is_epoch_view(next) {
                self.me.enter(next, out);
            } else if self.me.view() < v {
                self.me.enter(v, out);
            }
        }
        self.sweep(now, out);
    }

    fn on_wake_into(&mut self, now: Time, out: &mut Vec<PacemakerAction>) {
        self.sweep(now, out);
    }

    fn local_clock_reading(&self, now: Time) -> Duration {
        self.clock.reading(now)
    }

    fn state_entries(&self) -> usize {
        self.me.views.len() + self.view_msgs.entries() + self.epoch_msgs.entries()
    }

    fn prune_below(&mut self, committed: View) {
        // Nothing below the current view is read; the previous epoch is kept
        // as Lumiere keeps it.
        let floor = committed.min(self.layout.first_view(self.epoch().prev()));
        self.me.views.prune_below(floor);
        self.view_msgs.prune_below(floor);
        self.epoch_msgs.prune_below(floor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certs::{epoch_view_digest, forged, EpochCert, ViewCert};
    use crate::pacemaker::actions;
    use lumiere_crypto::keygen;

    fn make(n: usize, who: usize) -> (BasicLumiere, Vec<KeyPair>, Params) {
        let params = Params::new(n, Duration::from_millis(10));
        let (keys, pki) = keygen(n, 3);
        (
            BasicLumiere::new(params, keys[who].clone(), pki),
            keys,
            params,
        )
    }

    #[test]
    fn boot_immediately_starts_a_heavy_sync_for_epoch_zero() {
        let (mut pm, _, _) = make(4, 0);
        let out = pm.boot(Time::ZERO);
        assert!(pm.is_paused());
        assert!(out.iter().any(|a| matches!(
            a,
            PacemakerAction::Broadcast(PacemakerMessage::EpochViewMsg { view, .. })
                if *view == View::new(0)
        )));
        assert!(out
            .iter()
            .any(|a| matches!(a, PacemakerAction::HeavySyncStarted { .. })));
    }

    #[test]
    fn ec_admits_the_processor_into_the_epoch() {
        let (mut pm, keys, _) = make(4, 0);
        pm.boot(Time::ZERO);
        let t = Time::from_millis(2);
        for k in keys.iter().skip(1) {
            let msg = PacemakerMessage::EpochViewMsg {
                view: View::new(0),
                signature: k.sign(epoch_view_digest(View::new(0))).into(),
            };
            pm.on_message(k.id(), &msg, t);
        }
        assert_eq!(pm.current_view(), View::new(0));
        assert_eq!(pm.epoch(), Epoch::new(0));
        assert!(!pm.is_paused());
    }

    #[test]
    fn every_epoch_boundary_is_heavy() {
        let (mut pm, keys, params) = make(4, 0);
        let epoch_len = pm.layout().epoch_len() as i64;
        pm.boot(Time::ZERO);
        // Enter epoch 0 via an EC.
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
        // Provide QCs for every view of epoch 0 — unlike full Lumiere this
        // does NOT suppress the next heavy sync.
        let mut now = Time::from_millis(1);
        for v in 0..epoch_len {
            now += Duration::from_micros(100);
            let digest = QuorumCert::vote_digest(View::new(v), v as u64 + 1);
            let votes: Vec<_> = keys.iter().take(3).map(|k| k.sign(digest)).collect();
            let qc = QuorumCert::aggregate(View::new(v), v as u64 + 1, &votes, &params).unwrap();
            pm.on_qc(&qc, false, now);
        }
        // The QC for the last view bumped the clock to the boundary, so the
        // heavy synchronization for epoch 1 has already been broadcast.
        assert!(pm.is_paused());
        assert!(pm.me.views.has(View::new(epoch_len), EPOCH_PAUSE_TAKEN));
    }

    #[test]
    fn qcs_advance_views_responsively() {
        let (mut pm, keys, params) = make(4, 0);
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
        let digest = QuorumCert::vote_digest(View::new(0), 9);
        let votes: Vec<_> = keys.iter().take(3).map(|k| k.sign(digest)).collect();
        let qc = QuorumCert::aggregate(View::new(0), 9, &votes, &params).unwrap();
        let out = pm.on_qc(&qc, false, Time::from_millis(2));
        assert_eq!(pm.current_view(), View::new(1));
        assert!(actions::entered_views(&out).contains(&View::new(1)));
    }

    #[test]
    fn view_certificates_for_epoch_views_are_ignored() {
        let (mut pm, keys, params) = make(4, 0);
        pm.boot(Time::ZERO);
        // A VC for view 0 (an epoch view) must not admit the processor; only
        // an EC may.
        let sigs: Vec<_> = keys
            .iter()
            .take(2)
            .map(|k| k.sign(view_msg_digest(View::new(0))))
            .collect();
        let vc = ViewCert::aggregate(View::new(0), &sigs, &params).unwrap();
        pm.on_message(
            keys[1].id(),
            &PacemakerMessage::ViewCert(vc),
            Time::from_millis(1),
        );
        assert_eq!(pm.current_view(), View::SENTINEL);
    }

    #[test]
    fn a_forged_vc_does_not_use_up_the_view() {
        // Regression: the view was marked seen before the certificate was
        // verified, so one forged VC made the replica drop the genuine one.
        let (mut pm, keys, params) = make(4, 0);
        pm.boot(Time::ZERO);
        let sigs: Vec<_> = keys
            .iter()
            .map(|k| k.sign(epoch_view_digest(View::new(0))))
            .collect();
        let ec = EpochCert::aggregate(View::new(0), &sigs, &params).unwrap();
        let t = Time::from_millis(1);
        pm.on_message(keys[1].id(), &PacemakerMessage::EpochCert(ec), t);
        assert_eq!(pm.current_view(), View::new(0));
        let v = View::new(2);
        let sigs: Vec<_> = keys
            .iter()
            .take(2)
            .map(|k| k.sign(view_msg_digest(v)))
            .collect();
        let vc = ViewCert::aggregate(v, &sigs, &params).unwrap();
        pm.on_message(keys[3].id(), &PacemakerMessage::ViewCert(forged(&vc)), t);
        assert_eq!(pm.current_view(), View::new(0));
        let out = pm.on_message(keys[1].id(), &PacemakerMessage::ViewCert(vc), t);
        assert_eq!(pm.current_view(), v);
        assert!(actions::entered_views(&out).contains(&v));
    }

    #[test]
    fn wake_without_progress_reschedules() {
        let (mut pm, keys, params) = make(4, 0);
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
        let out = pm.on_wake(Time::from_millis(3));
        assert!(actions::earliest_wake(&out).is_some());
    }
}
