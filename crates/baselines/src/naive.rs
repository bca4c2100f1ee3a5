//! A naive PBFT-style all-to-all timeout pacemaker.
//!
//! Every processor that gives up on a view broadcasts a signed *timeout*
//! message; collecting `2f+1` of them (locally, like a TC) admits the
//! processor into the next view. QCs advance views responsively. Every view
//! change therefore costs `Θ(n²)` messages regardless of how many faults
//! actually occur — the behaviour that the entire line of work from Cogsworth
//! to Lumiere set out to eliminate. It is included as an additional ablation
//! baseline for the benchmark harness.

use lumiere_consensus::QuorumCert;
use lumiere_core::certs::timeout_digest;
use lumiere_core::ledger::{SenderPool, OBSERVED_QC, SENT_TIMEOUT};
use lumiere_core::messages::PacemakerMessage;
use lumiere_core::pacemaker::{Pacemaker, PacemakerAction, Processor};
use lumiere_core::schedule::LeaderSchedule;
use lumiere_crypto::{KeyPair, Pki};
use lumiere_types::{Duration, Params, ProcessId, Time, View};

/// A processor's naive quadratic pacemaker.
#[derive(Debug)]
pub struct NaiveQuadratic {
    me: Processor,
    view_timeout: Duration,

    boot_time: Time,
    view_entered_at: Time,
    timeout_pool: SenderPool,
}

impl NaiveQuadratic {
    /// Creates the pacemaker for the processor owning `keys`.
    pub fn new(params: Params, keys: KeyPair, pki: Pki) -> Self {
        NaiveQuadratic {
            me: Processor::new(params, LeaderSchedule::round_robin(params.n), keys, pki),
            view_timeout: params.fever_gamma(),
            boot_time: Time::ZERO,
            view_entered_at: Time::ZERO,
            timeout_pool: SenderPool::new(params.n),
        }
    }

    fn enter(&mut self, view: View, now: Time, out: &mut Vec<PacemakerAction>) {
        if self.me.enter(view, out) {
            self.view_entered_at = now;
            out.push(PacemakerAction::WakeAt(now + self.view_timeout));
        }
    }

    fn record_timeout(
        &mut self,
        from: ProcessId,
        view: View,
        now: Time,
        out: &mut Vec<PacemakerAction>,
    ) {
        let count = self.timeout_pool.add(view, from);
        if count >= self.me.params.quorum() && view >= self.me.view() {
            self.enter(view.next(), now, out);
        }
    }
}

impl Pacemaker for NaiveQuadratic {
    fn name(&self) -> &'static str {
        "naive-quadratic"
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
        if let PacemakerMessage::Timeout { view, signature } = msg {
            if view.as_i64() >= 0 && self.me.signed_by(from, signature, timeout_digest(*view)) {
                self.record_timeout(from, *view, now, out);
            }
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
        let view = self.me.view();
        if view.as_i64() < 0 {
            return;
        }
        if now >= self.view_entered_at + self.view_timeout {
            if self.me.views.mark(view, SENT_TIMEOUT) {
                let signature = self.me.keys.sign(timeout_digest(view));
                out.push(PacemakerAction::Broadcast(PacemakerMessage::Timeout {
                    view,
                    signature,
                }));
                self.record_timeout(self.me.id(), view, now, out);
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
        self.me.views.len() + self.timeout_pool.entries()
    }

    fn prune_below(&mut self, committed: View) {
        // Nothing below the current view is read.
        let floor = committed.min(self.me.view());
        self.me.views.prune_below(floor);
        self.timeout_pool.prune_below(floor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumiere_crypto::keygen;

    fn make(n: usize, who: usize) -> (NaiveQuadratic, Vec<KeyPair>, Params) {
        let params = Params::new(n, Duration::from_millis(10));
        let (keys, pki) = keygen(n, 6);
        (
            NaiveQuadratic::new(params, keys[who].clone(), pki),
            keys,
            params,
        )
    }

    #[test]
    fn boot_enters_view_zero() {
        let (mut pm, _, _) = make(4, 0);
        pm.boot(Time::ZERO);
        assert_eq!(pm.current_view(), View::new(0));
    }

    #[test]
    fn timeout_is_broadcast_to_everyone() {
        let (mut pm, _, params) = make(4, 0);
        pm.boot(Time::ZERO);
        let out = pm.on_wake(Time::ZERO + params.fever_gamma());
        assert!(out.iter().any(|a| matches!(
            a,
            PacemakerAction::Broadcast(PacemakerMessage::Timeout { view, .. })
                if *view == View::new(0)
        )));
    }

    #[test]
    fn quorum_of_timeouts_advances_the_view() {
        let (mut pm, keys, params) = make(4, 0);
        pm.boot(Time::ZERO);
        // Own timeout.
        pm.on_wake(Time::ZERO + params.fever_gamma());
        let t = Time::ZERO + params.fever_gamma() + Duration::from_millis(1);
        for k in keys.iter().skip(1).take(2) {
            let msg = PacemakerMessage::Timeout {
                view: View::new(0),
                signature: k.sign(timeout_digest(View::new(0))),
            };
            pm.on_message(k.id(), &msg, t);
        }
        assert_eq!(pm.current_view(), View::new(1));
    }

    #[test]
    fn qcs_advance_views_without_timeouts() {
        let (mut pm, keys, params) = make(4, 0);
        pm.boot(Time::ZERO);
        let digest = QuorumCert::vote_digest(View::new(0), 4);
        let votes: Vec<_> = keys.iter().take(3).map(|k| k.sign(digest)).collect();
        let qc = QuorumCert::aggregate(View::new(0), 4, &votes, &params).unwrap();
        pm.on_qc(&qc, false, Time::from_millis(2));
        assert_eq!(pm.current_view(), View::new(1));
    }

    #[test]
    fn bad_timeout_signatures_are_ignored() {
        let (mut pm, keys, _) = make(4, 0);
        pm.boot(Time::ZERO);
        let msg = PacemakerMessage::Timeout {
            view: View::new(0),
            signature: keys[2].sign(timeout_digest(View::new(7))),
        };
        pm.on_message(keys[2].id(), &msg, Time::from_millis(1));
        assert_eq!(pm.timeout_pool.entries(), 0);
    }

    #[test]
    fn premature_wake_reschedules_instead_of_timing_out() {
        let (mut pm, _, params) = make(4, 0);
        pm.boot(Time::ZERO);
        let out = pm.on_wake(Time::from_millis(1));
        assert!(out
            .iter()
            .all(|a| !matches!(a, PacemakerAction::Broadcast(_))));
        assert!(out.iter().any(
            |a| matches!(a, PacemakerAction::WakeAt(t) if *t == Time::ZERO + params.fever_gamma())
        ));
    }
}
