//! The Fever pacemaker (Section 3.3 of the paper).
//!
//! Fever has no epochs at all. Initial (even) views are entered when the
//! local clock reaches `c_v`; on entry the processor sends a *view* message
//! to the leader, which aggregates `f+1` of them into a VC. Non-initial
//! views are entered on a QC for the preceding view. Clocks are bumped
//! forward on QCs and VCs, which keeps the `(f+1)`-st honest gap below Γ —
//! **provided it starts below Γ**, which is Fever's non-standard assumption.
//! The simulator grants the assumption by booting all processors at the same
//! instant with clocks reading zero.

use lumiere_consensus::QuorumCert;
use lumiere_core::certs::view_msg_digest;
use lumiere_core::clock::LocalClock;
use lumiere_core::ledger::{INITIAL_TRIGGER_FIRED, OBSERVED_QC, SEEN_VC};
use lumiere_core::messages::PacemakerMessage;
use lumiere_core::pacemaker::{Pacemaker, PacemakerAction, Processor, ViewMsgs};
use lumiere_core::schedule::LeaderSchedule;
use lumiere_crypto::{KeyPair, Pki, Signature};
use lumiere_types::{Duration, Params, ProcessId, Time, View};

/// A processor's Fever pacemaker.
#[derive(Debug)]
pub struct Fever {
    me: Processor,
    gamma: Duration,
    clock: LocalClock,
    view_msgs: ViewMsgs,
}

impl Fever {
    /// Creates the pacemaker for the processor owning `keys`.
    pub fn new(params: Params, keys: KeyPair, pki: Pki) -> Self {
        Fever {
            me: Processor::new(
                params,
                LeaderSchedule::half_round_robin(params.n),
                keys,
                pki,
            ),
            gamma: params.fever_gamma(),
            clock: LocalClock::new(Time::ZERO),
            view_msgs: ViewMsgs::new(params.n),
        }
    }

    fn c(&self, view: View) -> Duration {
        view.clock_time(self.gamma)
    }

    fn record_view_msg(
        &mut self,
        view: View,
        signature: Signature,
        now: Time,
        out: &mut Vec<PacemakerAction>,
    ) {
        let open = view.is_initial();
        // The broadcast includes the leader itself: catch up if behind.
        let formed = self
            .view_msgs
            .record(&mut self.me, view, signature, open, out);
        if formed && view > self.me.view() {
            self.catch_up_to(view, now, out);
        }
    }

    fn catch_up_to(&mut self, view: View, now: Time, out: &mut Vec<PacemakerAction>) {
        self.clock.bump_to(self.c(view), now);
        self.me.enter(view, out);
    }

    fn sweep(&mut self, now: Time, out: &mut Vec<PacemakerAction>) {
        let reading = self.clock.reading(now);
        if reading >= Duration::ZERO {
            let max_view = reading.as_micros() / self.gamma.as_micros();
            let start = self.me.view().as_i64().max(0);
            for v in start..=max_view {
                let view = View::new(v);
                if !view.is_initial()
                    || view < self.me.view()
                    || !self.me.views.mark(view, INITIAL_TRIGGER_FIRED)
                {
                    continue;
                }
                self.me.enter(view, out);
                if let Some(signature) = self.view_msgs.send(&mut self.me, view, out) {
                    self.record_view_msg(view, signature, now, out);
                }
            }
        }
        if let Some(at) = self.clock.next_tick(self.gamma * 2, now) {
            out.push(PacemakerAction::WakeAt(at));
        }
    }
}

impl Pacemaker for Fever {
    fn name(&self) -> &'static str {
        "fever"
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
            PacemakerMessage::ViewCert(vc) => {
                let view = vc.view();
                let verify = || vc.verify(&self.me.pki, &self.me.params).is_ok();
                if view.is_initial()
                    && self.me.views.admit(view, SEEN_VC, verify)
                    && view > self.me.view()
                {
                    self.catch_up_to(view, now, out);
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
            self.catch_up_to(v.next(), now, out);
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
        self.me.views.len() + self.view_msgs.entries()
    }

    fn prune_below(&mut self, committed: View) {
        // Nothing below the current view is read.
        let floor = committed.min(self.me.view());
        self.me.views.prune_below(floor);
        self.view_msgs.prune_below(floor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumiere_core::certs::ViewCert;
    use lumiere_core::pacemaker::actions;
    use lumiere_crypto::keygen;

    fn make(n: usize, who: usize) -> (Fever, Vec<KeyPair>, Params) {
        let params = Params::new(n, Duration::from_millis(10));
        let (keys, pki) = keygen(n, 9);
        (Fever::new(params, keys[who].clone(), pki), keys, params)
    }

    #[test]
    fn boot_enters_view_zero_and_sends_a_view_message() {
        let (mut pm, _, _) = make(4, 1);
        let out = pm.boot(Time::ZERO);
        assert_eq!(pm.current_view(), View::new(0));
        // Processor 1 is not the leader of view 0 (leader is 0), so it sends
        // a view message to it.
        assert!(out.iter().any(|a| matches!(
            a,
            PacemakerAction::SendTo(to, PacemakerMessage::ViewMsg { view, .. })
                if *to == ProcessId::new(0) && *view == View::new(0)
        )));
    }

    #[test]
    fn leader_forms_a_vc_from_f_plus_one_view_messages() {
        let (mut pm, keys, _) = make(4, 0); // p0 leads view 0
        pm.boot(Time::ZERO); // own view message folded into the pool
        let msg = PacemakerMessage::ViewMsg {
            view: View::new(0),
            signature: keys[1].sign(view_msg_digest(View::new(0))),
        };
        let out = pm.on_message(keys[1].id(), &msg, Time::from_millis(1));
        assert!(out.iter().any(|a| matches!(
            a,
            PacemakerAction::Broadcast(PacemakerMessage::ViewCert(vc)) if vc.view() == View::new(0)
        )));
    }

    #[test]
    fn qcs_bump_the_clock_and_advance_views() {
        let (mut pm, keys, params) = make(4, 1);
        pm.boot(Time::ZERO);
        let digest = QuorumCert::vote_digest(View::new(0), 5);
        let votes: Vec<_> = keys.iter().take(3).map(|k| k.sign(digest)).collect();
        let qc = QuorumCert::aggregate(View::new(0), 5, &votes, &params).unwrap();
        let t = Time::from_millis(1);
        let out = pm.on_qc(&qc, false, t);
        assert_eq!(pm.current_view(), View::new(1));
        assert_eq!(
            pm.local_clock_reading(t),
            View::new(1).clock_time(params.fever_gamma())
        );
        assert!(actions::entered_views(&out).contains(&View::new(1)));
    }

    #[test]
    fn a_vc_catches_a_lagging_processor_up() {
        let (mut pm, keys, params) = make(4, 3);
        pm.boot(Time::ZERO);
        let v = View::new(2);
        let sigs: Vec<_> = keys
            .iter()
            .take(2)
            .map(|k| k.sign(view_msg_digest(v)))
            .collect();
        let vc = ViewCert::aggregate(v, &sigs, &params).unwrap();
        pm.on_message(
            keys[1].id(),
            &PacemakerMessage::ViewCert(vc),
            Time::from_millis(1),
        );
        assert_eq!(pm.current_view(), v);
        assert_eq!(
            pm.local_clock_reading(Time::from_millis(1)),
            v.clock_time(params.fever_gamma())
        );
    }

    #[test]
    fn a_forged_vc_does_not_use_up_the_view() {
        // Regression: the view was marked seen before the certificate was
        // verified, so one forged VC made the replica drop the genuine one.
        use lumiere_types::wire::Wire;
        let (mut pm, keys, params) = make(4, 3);
        pm.boot(Time::ZERO);
        let v = View::new(2);
        let sigs: Vec<_> = keys
            .iter()
            .take(2)
            .map(|k| k.sign(view_msg_digest(v)))
            .collect();
        let vc = ViewCert::aggregate(v, &sigs, &params).unwrap();
        // The forgery: one proof bit flipped on the wire (view 8 bytes,
        // covered digest 8, then the proof).
        let mut bytes = Vec::new();
        vc.encode_into(&mut bytes);
        bytes[16] ^= 1;
        let forged = ViewCert::decode_exact(&bytes).unwrap();
        let t = Time::from_millis(1);
        pm.on_message(keys[2].id(), &PacemakerMessage::ViewCert(forged), t);
        assert_eq!(pm.current_view(), View::new(0));
        let out = pm.on_message(keys[1].id(), &PacemakerMessage::ViewCert(vc), t);
        assert_eq!(pm.current_view(), v);
        assert!(actions::entered_views(&out).contains(&v));
    }

    #[test]
    fn without_qcs_the_clock_paces_view_entry() {
        let (mut pm, _, params) = make(4, 2);
        pm.boot(Time::ZERO);
        let gamma = params.fever_gamma();
        pm.on_wake(Time::ZERO + gamma);
        assert_eq!(pm.current_view(), View::new(0), "view 1 is not initial");
        pm.on_wake(Time::ZERO + gamma * 2);
        assert_eq!(pm.current_view(), View::new(2));
    }

    #[test]
    fn view_never_decreases() {
        let (mut pm, keys, params) = make(4, 0);
        pm.boot(Time::ZERO);
        let mut last = pm.current_view();
        let mut now = Time::ZERO;
        for i in 0..200i64 {
            now += Duration::from_micros(500);
            let v = View::new(i % 40);
            let digest = QuorumCert::vote_digest(v, i as u64);
            let votes: Vec<_> = keys.iter().take(3).map(|k| k.sign(digest)).collect();
            let qc = QuorumCert::aggregate(v, i as u64, &votes, &params).unwrap();
            pm.on_qc(&qc, false, now);
            assert!(pm.current_view() >= last);
            last = pm.current_view();
        }
    }
}
