//! Cogsworth / NK20 style relay-based view synchronization.
//!
//! These protocols synchronize views by *relaying through leaders* instead of
//! all-to-all broadcast: when a processor gives up on its current view it
//! sends a **wish** for the next view to that view's leader; a leader that
//! collects `f+1` wishes broadcasts a synchronization certificate, and every
//! processor that receives the certificate enters the view. If the contacted
//! leader is faulty and no certificate arrives, the wish *walks* to the
//! following leader after a relay timeout.
//!
//! With benign failures this costs `O(n)` messages and `O(Δ)` time per view
//! change (Cogsworth's headline result). Under `f_a` Byzantine leaders,
//! however, a single view change can require up to `f_a` relay hops, so
//! between two consecutive decisions the protocol can spend `O(f_a²Δ)` time
//! and `O(n + n·f_a²)` messages — and in the worst case (`f_a = f = Θ(n)`)
//! `O(n²Δ)` time and `O(n³)` messages. This reproduces the Cogsworth / NK20
//! column of Table 1.
//!
//! The difference between the two published protocols (Cogsworth relays
//! echoed signature sets, NK20 validates wishes and aggregates threshold
//! signatures, improving the Byzantine-case expectation) does not affect the
//! message/latency *shape* measured here, so one protocol models both: the
//! [`RelayVariant`] only selects the reported protocol name.

use lumiere_consensus::QuorumCert;
use lumiere_core::certs::{wish_digest, WishCert};
use lumiere_core::ledger::{SigPool, FORMED_SYNC, OBSERVED_QC};
use lumiere_core::messages::PacemakerMessage;
use lumiere_core::pacemaker::{Pacemaker, PacemakerAction, Processor};
use lumiere_core::schedule::LeaderSchedule;
use lumiere_crypto::{KeyPair, Pki, Signature};
use lumiere_types::{Duration, Params, ProcessId, Time, View};

/// Which published protocol this instance reports itself as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelayVariant {
    /// Cogsworth (Naor, Baudet, Malkhi, Spiegelman 2021).
    Cogsworth,
    /// NK20 (Naor–Keidar 2020, expected-linear round synchronization).
    Nk20,
}

/// A processor's relay-based pacemaker.
#[derive(Debug)]
pub struct RelayPacemaker {
    me: Processor,
    variant: RelayVariant,
    /// Time allotted to a view before the processor asks to advance.
    view_timeout: Duration,
    /// Time allotted to each relay leader before the wish walks onward.
    relay_timeout: Duration,

    boot_time: Time,
    view_entered_at: Time,
    /// Relay attempts made for the wish toward `view + 1`: the only target
    /// a wish ever has, so entering a view resets it.
    relay_attempts: usize,
    /// Deadline for the current relay attempt of the pending target view.
    relay_deadline: Option<(View, Time)>,
    wish_pool: SigPool,
}

impl RelayPacemaker {
    /// Creates a Cogsworth-flavoured instance.
    pub fn cogsworth(params: Params, keys: KeyPair, pki: Pki) -> Self {
        Self::new(params, keys, pki, RelayVariant::Cogsworth)
    }

    /// Creates an NK20-flavoured instance.
    pub fn nk20(params: Params, keys: KeyPair, pki: Pki) -> Self {
        Self::new(params, keys, pki, RelayVariant::Nk20)
    }

    fn new(params: Params, keys: KeyPair, pki: Pki, variant: RelayVariant) -> Self {
        RelayPacemaker {
            me: Processor::new(params, LeaderSchedule::round_robin(params.n), keys, pki),
            variant,
            view_timeout: params.fever_gamma(),
            relay_timeout: params.delta_cap * 3,
            boot_time: Time::ZERO,
            view_entered_at: Time::ZERO,
            relay_attempts: 0,
            relay_deadline: None,
            wish_pool: SigPool::new(params.n),
        }
    }

    /// Which published protocol this instance models.
    pub fn variant(&self) -> RelayVariant {
        self.variant
    }

    fn enter(&mut self, view: View, now: Time, out: &mut Vec<PacemakerAction>) {
        if self.me.enter(view, out) {
            self.view_entered_at = now;
            self.relay_attempts = 0;
            self.relay_deadline = None;
            out.push(PacemakerAction::WakeAt(now + self.view_timeout));
        }
    }

    fn send_wish(&mut self, target: View, now: Time, out: &mut Vec<PacemakerAction>) {
        let attempt = self.relay_attempts;
        if attempt > self.me.params.n {
            return;
        }
        self.relay_attempts += 1;
        // The wish for view `target` is addressed to the leader of
        // `target + attempt`: attempt 0 is the view's own leader, later
        // attempts walk down the round-robin schedule, so attempts 0..n reach
        // n distinct leaders. Attempt n would reach the first one again: it
        // sends nothing, but still waits out one more relay timeout.
        if attempt < self.me.params.n {
            let relay_leader = self.me.leader(View::new(target.as_i64() + attempt as i64));
            let signature = self.me.keys.sign(wish_digest(target));
            if relay_leader == self.me.id() {
                self.record_wish(target, signature, now, out);
            } else {
                out.push(PacemakerAction::SendTo(
                    relay_leader,
                    PacemakerMessage::Wish {
                        view: target,
                        signature,
                    },
                ));
            }
        }
        self.relay_deadline = Some((target, now + self.relay_timeout));
        out.push(PacemakerAction::WakeAt(now + self.relay_timeout));
    }

    fn record_wish(
        &mut self,
        target: View,
        signature: Signature,
        now: Time,
        out: &mut Vec<PacemakerAction>,
    ) {
        let count = self.wish_pool.add(target, signature);
        if count < self.me.params.small_quorum() || self.me.views.has(target, FORMED_SYNC) {
            return;
        }
        let sigs = self.wish_pool.signatures(target);
        let Ok(cert) = WishCert::aggregate(target, sigs, &self.me.params) else {
            return;
        };
        self.me.views.mark(target, FORMED_SYNC);
        out.push(PacemakerAction::Broadcast(PacemakerMessage::SyncCert(cert)));
        // The broadcast includes the aggregator itself (Section 4's "sends to
        // all processors" convention): enter the view locally too.
        self.enter(target, now, out);
    }
}

impl Pacemaker for RelayPacemaker {
    fn name(&self) -> &'static str {
        match self.variant {
            RelayVariant::Cogsworth => "cogsworth",
            RelayVariant::Nk20 => "nk20",
        }
    }

    fn processor(&self) -> &Processor {
        &self.me
    }

    fn boot_into(&mut self, now: Time, out: &mut Vec<PacemakerAction>) {
        if self.me.boot() {
            self.boot_time = now;
            self.enter(View::new(0), now, out);
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
            PacemakerMessage::Wish { view, signature }
                if self.me.signed_by(from, signature, wish_digest(*view)) && view.as_i64() >= 0 =>
            {
                self.record_wish(*view, *signature, now, out);
            }
            PacemakerMessage::SyncCert(cert)
                if cert.view() > self.me.view()
                    && cert.verify(&self.me.pki, &self.me.params).is_ok() =>
            {
                self.enter(cert.view(), now, out);
            }
            _ => {}
        }
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
            self.enter(v.next(), now, out);
        }
    }

    fn on_wake_into(&mut self, now: Time, out: &mut Vec<PacemakerAction>) {
        if self.me.view().as_i64() < 0 {
            return;
        }
        let target = self.me.view().next();
        // View timeout: start (or continue) wishing for the next view.
        let view_expired = now >= self.view_entered_at + self.view_timeout;
        let relay_expired = match self.relay_deadline {
            Some((t, deadline)) => t == target && now >= deadline,
            None => true,
        };
        if view_expired && relay_expired {
            self.send_wish(target, now, out);
        } else if view_expired {
            if let Some((_, deadline)) = self.relay_deadline {
                out.push(PacemakerAction::WakeAt(deadline));
            }
        } else {
            out.push(PacemakerAction::WakeAt(
                self.view_entered_at + self.view_timeout,
            ));
        }
    }

    fn local_clock_reading(&self, now: Time) -> Duration {
        now - self.boot_time
    }

    fn state_entries(&self) -> usize {
        self.me.views.len() + self.wish_pool.entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumiere_crypto::keygen;

    fn make(n: usize, who: usize) -> (RelayPacemaker, Vec<KeyPair>, Params) {
        let params = Params::new(n, Duration::from_millis(10));
        let (keys, pki) = keygen(n, 4);
        (
            RelayPacemaker::cogsworth(params, keys[who].clone(), pki),
            keys,
            params,
        )
    }

    #[test]
    fn boot_enters_view_zero_and_schedules_a_timeout() {
        let (mut pm, _, params) = make(4, 0);
        let out = pm.boot(Time::ZERO);
        assert_eq!(pm.current_view(), View::new(0));
        assert!(out.iter().any(
            |a| matches!(a, PacemakerAction::WakeAt(t) if *t == Time::ZERO + params.fever_gamma())
        ));
    }

    #[test]
    fn timeout_sends_a_wish_to_the_next_leader() {
        let (mut pm, _, params) = make(4, 0);
        pm.boot(Time::ZERO);
        let out = pm.on_wake(Time::ZERO + params.fever_gamma());
        // View 1's leader is p1 under round robin.
        assert!(out.iter().any(|a| matches!(
            a,
            PacemakerAction::SendTo(to, PacemakerMessage::Wish { view, .. })
                if *to == ProcessId::new(1) && *view == View::new(1)
        )));
    }

    #[test]
    fn unresponsive_relay_leader_makes_the_wish_walk_onward() {
        let (mut pm, _, params) = make(7, 0);
        pm.boot(Time::ZERO);
        let t1 = Time::ZERO + params.fever_gamma();
        pm.on_wake(t1);
        // First relay deadline passes with no progress: the wish goes to the
        // leader of view 2 next.
        let t2 = t1 + params.delta_cap * 3;
        let out = pm.on_wake(t2);
        assert!(out.iter().any(|a| matches!(
            a,
            PacemakerAction::SendTo(to, PacemakerMessage::Wish { view, .. })
                if *to == ProcessId::new(2) && *view == View::new(1)
        )));
        // And then to the leader of view 3.
        let t3 = t2 + params.delta_cap * 3;
        let out = pm.on_wake(t3);
        assert!(out.iter().any(|a| matches!(
            a,
            PacemakerAction::SendTo(to, PacemakerMessage::Wish { view, .. })
                if *to == ProcessId::new(3) && *view == View::new(1)
        )));
    }

    #[test]
    fn a_leader_with_f_plus_one_wishes_broadcasts_a_sync_cert() {
        let (mut pm, keys, _) = make(4, 1); // p1 leads view 1
        pm.boot(Time::ZERO);
        let mut out = Vec::new();
        for k in keys.iter().take(2) {
            let msg = PacemakerMessage::Wish {
                view: View::new(1),
                signature: k.sign(wish_digest(View::new(1))),
            };
            out.extend(pm.on_message(k.id(), &msg, Time::from_millis(1)));
        }
        assert!(out.iter().any(|a| matches!(
            a,
            PacemakerAction::Broadcast(PacemakerMessage::SyncCert(c)) if c.view() == View::new(1)
        )));
    }

    #[test]
    fn sync_certs_advance_lagging_processors() {
        let (mut pm, keys, params) = make(4, 3);
        pm.boot(Time::ZERO);
        let sigs: Vec<_> = keys
            .iter()
            .take(2)
            .map(|k| k.sign(wish_digest(View::new(5))))
            .collect();
        let cert = WishCert::aggregate(View::new(5), &sigs, &params).unwrap();
        pm.on_message(
            keys[1].id(),
            &PacemakerMessage::SyncCert(cert),
            Time::from_millis(3),
        );
        assert_eq!(pm.current_view(), View::new(5));
    }

    #[test]
    fn qcs_advance_views_responsively() {
        let (mut pm, keys, params) = make(4, 0);
        pm.boot(Time::ZERO);
        let digest = QuorumCert::vote_digest(View::new(0), 2);
        let votes: Vec<_> = keys.iter().take(3).map(|k| k.sign(digest)).collect();
        let qc = QuorumCert::aggregate(View::new(0), 2, &votes, &params).unwrap();
        pm.on_qc(&qc, false, Time::from_millis(1));
        assert_eq!(pm.current_view(), View::new(1));
    }

    #[test]
    fn variants_report_their_names() {
        let params = Params::new(4, Duration::from_millis(10));
        let (keys, pki) = keygen(4, 4);
        let c = RelayPacemaker::cogsworth(params, keys[0].clone(), pki.clone());
        let n = RelayPacemaker::nk20(params, keys[0].clone(), pki);
        assert_eq!(c.name(), "cogsworth");
        assert_eq!(n.name(), "nk20");
        assert_eq!(c.variant(), RelayVariant::Cogsworth);
        assert_eq!(n.variant(), RelayVariant::Nk20);
    }
}
