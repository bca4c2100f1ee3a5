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

use crate::messages::PacemakerMessage;
use crate::schedule::LeaderSchedule;
use lumiere_consensus::QuorumCert;
use lumiere_types::{Duration, ProcessId, Time, View};
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

    /// The schedule naming each view's leader.
    fn schedule(&self) -> &LeaderSchedule;

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

    /// The view this processor is currently in (`-1` before the first view).
    fn current_view(&self) -> View;

    /// The processor's local-clock reading at `now` (protocols without local
    /// clocks report elapsed time); used by the honest-gap metrics.
    fn local_clock_reading(&self, now: Time) -> Duration;

    /// How many entries this pacemaker holds across its
    /// [`ViewLedger`](crate::ledger::ViewLedger) records and the senders in
    /// its [`SigPool`](crate::ledger::SigPool)s and
    /// [`SenderPool`](crate::ledger::SenderPool)s: what its memory is
    /// proportional to.
    fn state_entries(&self) -> usize;
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
    use crate::certs::view_msg_digest;
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

    #[test]
    fn earliest_wake_picks_minimum() {
        assert_eq!(
            earliest_wake(&sample_actions()),
            Some(Time::from_millis(20))
        );
        assert_eq!(earliest_wake(&[]), None);
    }
}
