//! The LP22 pacemaker (Section 3.2 of the paper).
//!
//! Views are grouped into epochs of `f+1` views with round-robin leaders.
//! Each epoch begins with a heavy all-to-all synchronization: when a
//! processor's local clock reaches the epoch boundary it pauses the clock and
//! broadcasts an *epoch view* message; an EC (`2f+1` such messages) admits it
//! into the epoch and resets its local clock to the boundary's clock time.
//! Within the epoch a processor enters non-epoch view `v` when its local
//! clock reaches `c_v` **or** when it sees a QC for view `v−1` (the
//! optimistic-responsiveness trick) — but, crucially, seeing a QC does *not*
//! bump the local clock, which is exactly why a single Byzantine leader can
//! force an `Ω(nΔ)` stall (Figure 1) and why every epoch stays heavy.

use lumiere_consensus::QuorumCert;
use lumiere_core::clock::LocalClock;
use lumiere_core::ledger::{EPOCH_PAUSE_TAKEN, OBSERVED_QC, SEEN_EC};
use lumiere_core::messages::PacemakerMessage;
use lumiere_core::pacemaker::{EpochMsgs, Pacemaker, PacemakerAction, Processor};
use lumiere_core::schedule::LeaderSchedule;
use lumiere_crypto::{KeyPair, Pki};
use lumiere_types::view::EpochLayout;
use lumiere_types::{Duration, Epoch, Params, ProcessId, Time, View};

/// A processor's LP22 pacemaker.
#[derive(Debug)]
pub struct Lp22 {
    me: Processor,
    layout: EpochLayout,
    gamma: Duration,
    clock: LocalClock,
    epoch_msgs: EpochMsgs,
    paused_at_boundary: Option<View>,
}

impl Lp22 {
    /// Creates the pacemaker for the processor owning `keys`.
    pub fn new(params: Params, keys: KeyPair, pki: Pki) -> Self {
        Lp22 {
            me: Processor::new(params, LeaderSchedule::round_robin(params.n), keys, pki),
            layout: params.lp22_epoch_layout(),
            gamma: params.lp22_gamma(),
            clock: LocalClock::new(Time::ZERO),
            epoch_msgs: EpochMsgs::new(params.n),
            paused_at_boundary: None,
        }
    }

    /// The epoch this processor is currently in.
    pub fn epoch(&self) -> Epoch {
        self.layout.epoch_of(self.me.view())
    }

    /// Whether the clock is paused at an epoch boundary.
    pub fn is_paused(&self) -> bool {
        self.paused_at_boundary.is_some()
    }

    /// The epoch layout (`f+1` views per epoch).
    pub fn layout(&self) -> EpochLayout {
        self.layout
    }

    fn c(&self, view: View) -> Duration {
        view.clock_time(self.gamma)
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
            self.paused_at_boundary = None;
        }
        // "sets lc(p) := c_v, unpauses its local clock if paused, and then
        // enters epoch e and view v."
        self.clock.unpause(now);
        self.clock.bump_to(self.c(view), now);
        self.me.enter(view, out);
    }

    fn sweep(&mut self, now: Time, out: &mut Vec<PacemakerAction>) {
        loop {
            let mut progressed = false;

            // Epoch boundary: pause and broadcast.
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

            // Non-epoch views are entered when the local clock reaches c_v.
            let reading = self.clock.reading(now);
            if reading >= Duration::ZERO {
                let max_view = reading.as_micros() / self.gamma.as_micros();
                let start = self.me.view().as_i64().max(0);
                for v in start..=max_view {
                    let view = View::new(v);
                    if view <= self.me.view()
                        || self.layout.is_epoch_view(view)
                        || self.layout.epoch_of(view) != self.epoch()
                    {
                        continue;
                    }
                    self.me.enter(view, out);
                    progressed = true;
                }
            }

            if !progressed {
                break;
            }
        }

        if let Some(at) = self.clock.next_tick(self.gamma, now) {
            out.push(PacemakerAction::WakeAt(at));
        }
    }
}

impl Pacemaker for Lp22 {
    fn name(&self) -> &'static str {
        "lp22"
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
            PacemakerMessage::EpochViewMsg { view, signature }
                if self.layout.is_epoch_view(*view) =>
            {
                if let Some(count) = self.epoch_msgs.accept(&self.me, from, *view, signature) {
                    self.count_epoch_msgs(*view, count, now, out);
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
            // Responsive entry into the next view — but NO clock bump: this
            // is the LP22 weakness that Lumiere fixes.
            if !self.layout.is_epoch_view(next) && self.layout.epoch_of(next) == self.epoch() {
                self.me.enter(next, out);
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
        self.me.views.len() + self.epoch_msgs.entries()
    }

    fn prune_below(&mut self, committed: View) {
        // Nothing below the current view is read; the previous epoch is kept
        // as Lumiere keeps it.
        let floor = committed.min(self.layout.first_view(self.epoch().prev()));
        self.me.views.prune_below(floor);
        self.epoch_msgs.prune_below(floor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumiere_core::certs::{epoch_view_digest, EpochCert};
    use lumiere_core::pacemaker::actions;
    use lumiere_crypto::keygen;

    fn make(n: usize, who: usize) -> (Lp22, Vec<KeyPair>, Params) {
        let params = Params::new(n, Duration::from_millis(10));
        let (keys, pki) = keygen(n, 5);
        (Lp22::new(params, keys[who].clone(), pki), keys, params)
    }

    fn enter_epoch_zero(pm: &mut Lp22, keys: &[KeyPair], t: Time) {
        for k in keys {
            let msg = PacemakerMessage::EpochViewMsg {
                view: View::new(0),
                signature: k.sign(epoch_view_digest(View::new(0))).into(),
            };
            pm.on_message(k.id(), &msg, t);
        }
    }

    #[test]
    fn boot_starts_a_heavy_sync_immediately() {
        let (mut pm, _, _) = make(4, 0);
        let out = pm.boot(Time::ZERO);
        assert!(pm.is_paused());
        assert!(out.iter().any(|a| matches!(
            a,
            PacemakerAction::Broadcast(PacemakerMessage::EpochViewMsg { view, .. })
                if *view == View::new(0)
        )));
    }

    #[test]
    fn ec_enters_the_epoch_and_resets_the_clock() {
        let (mut pm, keys, _) = make(4, 0);
        pm.boot(Time::ZERO);
        enter_epoch_zero(&mut pm, &keys, Time::from_millis(7));
        assert_eq!(pm.current_view(), View::new(0));
        assert_eq!(pm.epoch(), Epoch::new(0));
        assert!(!pm.is_paused());
        assert_eq!(pm.local_clock_reading(Time::from_millis(7)), Duration::ZERO);
    }

    #[test]
    fn qc_advances_the_view_but_does_not_bump_the_clock() {
        let (mut pm, keys, params) = make(4, 0);
        pm.boot(Time::ZERO);
        enter_epoch_zero(&mut pm, &keys, Time::from_millis(1));
        let digest = QuorumCert::vote_digest(View::new(0), 1);
        let votes: Vec<_> = keys.iter().take(3).map(|k| k.sign(digest)).collect();
        let qc = QuorumCert::aggregate(View::new(0), 1, &votes, &params).unwrap();
        let t = Time::from_millis(2);
        let out = pm.on_qc(&qc, false, t);
        assert_eq!(pm.current_view(), View::new(1));
        assert!(actions::entered_views(&out).contains(&View::new(1)));
        // The clock still reads roughly the elapsed time, far below c_1.
        assert!(pm.local_clock_reading(t) < View::new(1).clock_time(params.lp22_gamma()));
    }

    #[test]
    fn without_qcs_views_advance_only_at_clock_speed() {
        let (mut pm, keys, params) = make(4, 0);
        let gamma = params.lp22_gamma();
        pm.boot(Time::ZERO);
        let t0 = Time::from_millis(1);
        enter_epoch_zero(&mut pm, &keys, t0);
        // Just before c_1 nothing happens.
        pm.on_wake(t0 + gamma - Duration::from_micros(1));
        assert_eq!(pm.current_view(), View::new(0));
        // At c_1 view 1 is entered.
        pm.on_wake(t0 + gamma);
        assert_eq!(pm.current_view(), View::new(1));
    }

    #[test]
    fn end_of_epoch_requires_another_heavy_sync() {
        let (mut pm, keys, params) = make(4, 0);
        let epoch_len = pm.layout().epoch_len() as i64;
        let gamma = params.lp22_gamma();
        pm.boot(Time::ZERO);
        let t0 = Time::from_millis(1);
        enter_epoch_zero(&mut pm, &keys, t0);
        let boundary = t0 + gamma * epoch_len;
        let out = pm.on_wake(boundary);
        assert!(pm.is_paused());
        assert!(out.iter().any(|a| matches!(
            a,
            PacemakerAction::Broadcast(PacemakerMessage::EpochViewMsg { view, .. })
                if view.as_i64() == epoch_len
        )));
    }

    #[test]
    fn explicit_epoch_cert_is_accepted() {
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
        assert_eq!(pm.current_view(), View::new(0));
    }

    #[test]
    fn a_forged_ec_does_not_use_up_the_view() {
        // Marked only once verified: one forged EC must not make the replica
        // drop the genuine one.
        use lumiere_types::wire::Wire;
        let (mut pm, keys, params) = make(4, 0);
        pm.boot(Time::ZERO);
        let sigs: Vec<_> = keys
            .iter()
            .map(|k| k.sign(epoch_view_digest(View::new(0))))
            .collect();
        let ec = EpochCert::aggregate(View::new(0), &sigs, &params).unwrap();
        // The forgery: one proof bit flipped on the wire (view 8 bytes,
        // covered digest 8, then the proof).
        let mut bytes = Vec::new();
        ec.encode_into(&mut bytes);
        bytes[16] ^= 1;
        let forged = EpochCert::decode_exact(&bytes).unwrap();
        let t = Time::from_millis(1);
        pm.on_message(keys[3].id(), &PacemakerMessage::EpochCert(forged), t);
        assert_eq!(pm.current_view(), View::SENTINEL);
        assert!(pm.is_paused());
        let ec = PacemakerMessage::EpochCert(ec);
        let out = pm.on_message(keys[1].id(), &ec, t);
        assert_eq!(pm.current_view(), View::new(0));
        assert!(actions::entered_views(&out).contains(&View::new(0)));
        // A second copy of the genuine EC is dropped as before.
        let out = pm.on_message(keys[1].id(), &ec, t);
        assert!(actions::entered_views(&out).is_empty());
    }

    #[test]
    fn foreign_message_kinds_are_ignored() {
        let (mut pm, keys, _) = make(4, 0);
        pm.boot(Time::ZERO);
        let msg = PacemakerMessage::Wish {
            view: View::new(3),
            signature: keys[1].sign(epoch_view_digest(View::new(3))),
        };
        let before = pm.current_view();
        pm.on_message(keys[1].id(), &msg, Time::from_millis(1));
        assert_eq!(pm.current_view(), before);
    }
}
