//! The simulator's network adversary on a live transport.
//!
//! An [`AdversarySchedule`]'s [`DelayRule`](crate::adversary::DelayRule)s
//! pick each message's delivery time per edge and message class; the
//! simulator applies them in virtual time, and [`FaultedTransport`] applies
//! the same rules to any inner [`Transport`] in wall time, so a live node
//! takes the schedule JSON a `SimConfig` or a fuzz corpus entry holds
//! (`lumiere-node --schedule <json>`).
//!
//! Rules are evaluated on send, against the microseconds elapsed since the
//! transport was wrapped (the node's boot, in practice). A matching rule's
//! message is held until its [`DelayModel`](crate::delay::DelayModel)'s
//! delivery time and then handed to the inner transport; everything else
//! passes straight through. A live cluster is post-GST from boot, so GST is
//! [`Time::ZERO`] and every hold is at most Δ: links stay reliable and
//! bounded, as the paper's model (§2) demands. The schedule's corruptions
//! decide which endpoints count as honest for each rule's
//! [`EdgeClass`](crate::adversary::EdgeClass); what a corrupted node itself
//! runs is its [`Strategy`](crate::adversary::Strategy).

use crate::adversary::AdversarySchedule;
use crate::message::WireMessage;
use crate::transport::{Transport, TransportError};
use lumiere_types::{Duration, ProcessId, Time};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration as WallDuration, Instant};

/// A [`Transport`] decorator applying an [`AdversarySchedule`]'s delay
/// rules to the messages an inner transport sends.
///
/// Held messages wait in a queue sorted by delivery time and are released
/// on the next call that is due: `send`, `broadcast`, or `recv_timeout`,
/// whose wait never extends past the next release.
#[derive(Debug)]
pub struct FaultedTransport<T> {
    inner: T,
    schedule: AdversarySchedule,
    delta: Duration,
    rng: StdRng,
    epoch: Instant,
    held: Vec<(Time, ProcessId, WireMessage)>,
    delayed: u64,
}

impl<T: Transport> FaultedTransport<T> {
    /// Wraps `inner`, anchoring the schedule's windows at the current
    /// instant. `delta` is the cluster's Δ, which caps every hold; `seed`
    /// drives the jittered delay models.
    pub fn new(inner: T, schedule: AdversarySchedule, delta: Duration, seed: u64) -> Self {
        FaultedTransport {
            inner,
            schedule,
            delta,
            rng: StdRng::seed_from_u64(seed),
            epoch: Instant::now(),
            held: Vec::new(),
            delayed: 0,
        }
    }

    /// Messages held back by delay rules so far.
    pub fn delayed(&self) -> u64 {
        self.delayed
    }

    fn now(&self) -> Time {
        Time::from_micros(self.epoch.elapsed().as_micros() as i64)
    }

    fn honest(&self, p: ProcessId) -> bool {
        self.schedule.strategy_for(p.as_usize()).is_none()
    }

    /// Holds `msg` until the first matching rule's delivery time, or sends
    /// it now when no rule matches.
    fn route(&mut self, to: ProcessId, msg: &WireMessage) -> Result<(), TransportError> {
        let now = self.now();
        let from_honest = self.honest(self.inner.local_id());
        let Some(model) = self
            .schedule
            .delay_for(from_honest, self.honest(to), msg, now)
        else {
            return self.inner.send(to, msg);
        };
        let due = model.delivery_time(now, Time::ZERO, self.delta, &mut self.rng);
        let at = self.held.partition_point(|(t, _, _)| *t <= due);
        self.held.insert(at, (due, to, msg.clone()));
        self.delayed += 1;
        Ok(())
    }

    /// Hands every due held message to the inner transport, in due order.
    fn release_due(&mut self) -> Result<(), TransportError> {
        let now = self.now();
        let due = self.held.partition_point(|(t, _, _)| *t <= now);
        for (_, to, msg) in self.held.drain(..due) {
            self.inner.send(to, &msg)?;
        }
        Ok(())
    }
}

impl<T: Transport> Transport for FaultedTransport<T> {
    fn local_id(&self) -> ProcessId {
        self.inner.local_id()
    }

    fn cluster_size(&self) -> usize {
        self.inner.cluster_size()
    }

    fn send(&mut self, to: ProcessId, msg: &WireMessage) -> Result<(), TransportError> {
        self.release_due()?;
        self.route(to, msg)
    }

    fn broadcast(&mut self, msg: &WireMessage) -> Result<(), TransportError> {
        // No rule can match, so the inner transport's own broadcast (the
        // TCP mesh encodes a frame once for all peers) keeps its fast path.
        if self.schedule.delay_rules.is_empty() {
            return self.inner.broadcast(msg);
        }
        self.release_due()?;
        let me = self.local_id();
        for to in ProcessId::all(self.cluster_size()) {
            if to != me {
                self.route(to, msg)?;
            }
        }
        Ok(())
    }

    fn recv_timeout(
        &mut self,
        timeout: WallDuration,
    ) -> Result<Option<(ProcessId, WireMessage)>, TransportError> {
        let deadline = Instant::now() + timeout;
        loop {
            self.release_due()?;
            let mut wait = deadline.saturating_duration_since(Instant::now());
            if let Some((due, _, _)) = self.held.first() {
                let until_due = due.since(self.now()).as_micros().max(0) as u64;
                wait = wait.min(WallDuration::from_micros(until_due));
            }
            let got = self.inner.recv_timeout(wait)?;
            if got.is_some() || Instant::now() >= deadline {
                return Ok(got);
            }
        }
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{DelayRule, EdgeClass, MsgClass};
    use crate::channel::channel_mesh;
    use crate::delay::DelayModel;
    use lumiere_consensus::{ConsensusMessage, QuorumCert};
    use lumiere_core::messages::PacemakerMessage;
    use lumiere_crypto::Signature;
    use lumiere_types::{TimeRange, View};

    fn consensus_msg() -> WireMessage {
        WireMessage::Consensus(ConsensusMessage::NewQc(QuorumCert::genesis()))
    }

    fn sync_msg() -> WireMessage {
        WireMessage::Pacemaker(PacemakerMessage::ViewMsg {
            view: View::new(0),
            signature: Signature::new(ProcessId::new(0), 0),
        })
    }

    /// An inner transport that records what reaches it: each `send` as its
    /// recipient and instant, and a count of whole `broadcast`s.
    struct Recorder {
        n: usize,
        sends: Vec<(ProcessId, Instant)>,
        broadcasts: usize,
    }

    impl Recorder {
        fn new(n: usize) -> Recorder {
            Recorder {
                n,
                sends: Vec::new(),
                broadcasts: 0,
            }
        }

        fn sent_to(&self) -> Vec<usize> {
            self.sends.iter().map(|(to, _)| to.as_usize()).collect()
        }
    }

    impl Transport for Recorder {
        fn local_id(&self) -> ProcessId {
            ProcessId::new(0)
        }

        fn cluster_size(&self) -> usize {
            self.n
        }

        fn send(&mut self, to: ProcessId, _: &WireMessage) -> Result<(), TransportError> {
            self.sends.push((to, Instant::now()));
            Ok(())
        }

        fn broadcast(&mut self, _: &WireMessage) -> Result<(), TransportError> {
            self.broadcasts += 1;
            Ok(())
        }

        fn recv_timeout(
            &mut self,
            timeout: WallDuration,
        ) -> Result<Option<(ProcessId, WireMessage)>, TransportError> {
            std::thread::sleep(timeout);
            Ok(None)
        }
    }

    fn delay_all(delay: DelayModel) -> AdversarySchedule {
        AdversarySchedule::new().rule(DelayRule {
            edge: EdgeClass::Any,
            msg: MsgClass::Any,
            window: TimeRange::always(),
            delay,
        })
    }

    #[test]
    fn delay_rules_hold_messages_and_release_them_in_due_order() {
        let schedule = delay_all(DelayModel::Uniform {
            min: Duration::from_millis(100),
            max: Duration::from_millis(300),
        });
        let mut faulted =
            FaultedTransport::new(Recorder::new(4), schedule, Duration::from_millis(150), 7);
        let start = Instant::now();
        faulted.send(ProcessId::new(1), &consensus_msg()).unwrap();
        faulted.broadcast(&consensus_msg()).unwrap();
        assert_eq!(faulted.delayed(), 4);
        assert!(faulted.held.windows(2).all(|w| w[0].0 <= w[1].0));
        let due_order: Vec<_> = faulted.held.iter().map(|h| h.1.as_usize()).collect();
        // A short poll releases nothing: every hold is at least 100 ms.
        faulted.recv_timeout(WallDuration::from_millis(5)).unwrap();
        assert!(faulted.inner.sends.is_empty());
        // A long wait releases all four, in due order, and none before the
        // 100 ms minimum (the 300 ms maximum is clamped to Δ = 150 ms).
        faulted
            .recv_timeout(WallDuration::from_millis(400))
            .unwrap();
        assert_eq!(faulted.inner.sent_to(), due_order);
        assert_eq!(faulted.inner.broadcasts, 0);
        let first = faulted.inner.sends[0].1.duration_since(start);
        assert!(
            first >= WallDuration::from_millis(100),
            "released {first:?} after send, before the 100 ms minimum"
        );
    }

    #[test]
    fn first_matching_rule_wins() {
        // Node 2 is corrupted: edges touching it take 1 ms (the first rule),
        // honest→honest sync messages take Δ, and honest→honest consensus
        // messages match no rule.
        let schedule = AdversarySchedule::targeted_partition(&[2], Duration::from_millis(1));
        let delta = Duration::from_secs(60);
        let mut faulted = FaultedTransport::new(Recorder::new(4), schedule, delta, 7);
        faulted.send(ProcessId::new(1), &consensus_msg()).unwrap();
        faulted.send(ProcessId::new(1), &sync_msg()).unwrap();
        faulted.send(ProcessId::new(2), &sync_msg()).unwrap();
        assert_eq!(faulted.inner.sent_to(), vec![1]);
        assert_eq!(faulted.delayed(), 2);
        let dues: Vec<_> = faulted
            .held
            .iter()
            .map(|(t, to, _)| (*t, to.as_usize()))
            .collect();
        assert_eq!(dues[0].1, 2, "the 1 ms edge is due first");
        assert!(dues[0].0 <= Time::ZERO + Duration::from_secs(1));
        assert_eq!(dues[1].1, 1);
        assert!(dues[1].0 >= Time::ZERO + delta);
        faulted.recv_timeout(WallDuration::from_millis(50)).unwrap();
        assert_eq!(faulted.inner.sent_to(), vec![1, 2]);
    }

    #[test]
    fn an_empty_schedule_forwards_broadcasts_whole() {
        let mut faulted = FaultedTransport::new(
            Recorder::new(4),
            AdversarySchedule::new(),
            Duration::from_millis(20),
            7,
        );
        faulted.broadcast(&consensus_msg()).unwrap();
        assert_eq!(faulted.inner.broadcasts, 1);
        assert!(faulted.inner.sends.is_empty());
    }

    #[test]
    fn an_empty_schedule_is_transparent() {
        let mut mesh = channel_mesh(2);
        let mut t1 = mesh.pop().unwrap();
        let t0 = mesh.pop().unwrap();
        let mut faulted =
            FaultedTransport::new(t0, AdversarySchedule::new(), Duration::from_millis(20), 7);
        assert_eq!(faulted.local_id(), ProcessId::new(0));
        assert_eq!(faulted.cluster_size(), 2);
        faulted.send(ProcessId::new(1), &consensus_msg()).unwrap();
        faulted.broadcast(&sync_msg()).unwrap();
        for _ in 0..2 {
            assert!(t1
                .recv_timeout(WallDuration::from_millis(500))
                .unwrap()
                .is_some());
        }
        t1.send(ProcessId::new(0), &consensus_msg()).unwrap();
        assert!(faulted
            .recv_timeout(WallDuration::from_millis(500))
            .unwrap()
            .is_some());
        assert_eq!(faulted.delayed(), 0);
    }
}
