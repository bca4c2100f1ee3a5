//! Deterministic per-peer link faults for live transports.
//!
//! The simulator's network adversary picks delivery times per edge in
//! virtual time; a live cluster needs the same power over real sockets. A
//! [`FaultPlan`] is a serializable list of [`LinkFault`] rules — drop
//! windows, partitions, added delay, each scoped to a peer (or all peers), a
//! direction and a wall-clock window — and [`FaultedTransport`] applies the
//! plan to any inner [`Transport`] without that transport's cooperation.
//! `lumiere-node --fault-plan <json>` installs one on the TCP mesh; tests
//! install them on the channel mesh.
//!
//! Faults are evaluated against the milliseconds elapsed since the transport
//! was wrapped (the node's boot, in practice), so a plan is reproducible
//! run-to-run up to wall-clock jitter: the same plan always drops the same
//! windows of traffic. The first matching rule wins, mirroring
//! [`AdversarySchedule`](crate::adversary::AdversarySchedule) delay rules.
//!
//! Unlike a [`Strategy`](crate::adversary::Strategy)
//! (which corrupts the *protocol* — what runs, what is forged), a fault plan
//! corrupts the *network*: messages vanish or arrive late, but the node
//! behind the transport stays honest. Partitions, asymmetric links and flaky
//! peers compose from these rules; the protocol under test cannot tell a
//! planned drop from a genuine outage, which is the point.

use crate::message::WireMessage;
use crate::transport::{Transport, TransportError};
use lumiere_types::ProcessId;
use serde::{Deserialize, Serialize};
use std::time::{Duration as WallDuration, Instant};

/// Which direction of traffic a [`LinkFault`] affects, from the local
/// node's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultDirection {
    /// Messages arriving from the peer.
    Inbound,
    /// Messages sent to the peer.
    Outbound,
    /// Both directions (a symmetric partition).
    Both,
}

impl FaultDirection {
    fn covers_outbound(&self) -> bool {
        matches!(self, FaultDirection::Outbound | FaultDirection::Both)
    }

    fn covers_inbound(&self) -> bool {
        matches!(self, FaultDirection::Inbound | FaultDirection::Both)
    }
}

/// What happens to a message matched by a [`LinkFault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultAction {
    /// The message is silently discarded.
    Drop,
    /// The message is held back and released after the given delay.
    Delay {
        /// Added latency in milliseconds.
        delay_ms: u64,
    },
}

/// One fault rule: during `[from_ms, until_ms)` (milliseconds since the
/// transport was wrapped), traffic in `direction` to/from `peer` (all peers
/// when `None`) suffers `action`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkFault {
    /// The affected peer, or `None` for every peer (isolation).
    pub peer: Option<usize>,
    /// Which direction of traffic is affected.
    pub direction: FaultDirection,
    /// Window start, in milliseconds since the transport was wrapped.
    pub from_ms: u64,
    /// Window end (exclusive), in milliseconds.
    pub until_ms: u64,
    /// What happens to matched messages.
    pub action: FaultAction,
}

impl LinkFault {
    fn matches(&self, peer: ProcessId, elapsed_ms: u64) -> bool {
        self.peer.map(|p| p == peer.as_usize()).unwrap_or(true)
            && elapsed_ms >= self.from_ms
            && elapsed_ms < self.until_ms
    }
}

/// A serializable set of [`LinkFault`] rules; the first matching rule wins.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The fault rules, in priority order.
    pub faults: Vec<LinkFault>,
}

impl FaultPlan {
    /// An empty plan (no faults — the wrapped transport is transparent).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a rule (first match wins).
    pub fn fault(mut self, fault: LinkFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// A symmetric partition from `peer` during `[from_ms, until_ms)`.
    pub fn partition(self, peer: usize, from_ms: u64, until_ms: u64) -> Self {
        self.fault(LinkFault {
            peer: Some(peer),
            direction: FaultDirection::Both,
            from_ms,
            until_ms,
            action: FaultAction::Drop,
        })
    }

    /// Full isolation (every peer, both directions) during
    /// `[from_ms, until_ms)` — a crash window without killing the process.
    pub fn blackout(self, from_ms: u64, until_ms: u64) -> Self {
        self.fault(LinkFault {
            peer: None,
            direction: FaultDirection::Both,
            from_ms,
            until_ms,
            action: FaultAction::Drop,
        })
    }

    /// Checks the plan against a cluster of `n` processors: peers in range
    /// and windows well-formed.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        for f in &self.faults {
            if let Some(peer) = f.peer {
                if peer >= n {
                    return Err(format!("faulted peer {peer} out of range (n = {n})"));
                }
            }
            if f.until_ms <= f.from_ms {
                return Err(format!(
                    "empty fault window [{}, {})",
                    f.from_ms, f.until_ms
                ));
            }
        }
        Ok(())
    }

    fn action_for(&self, peer: ProcessId, elapsed_ms: u64, outbound: bool) -> Option<FaultAction> {
        self.faults
            .iter()
            .find(|f| {
                (if outbound {
                    f.direction.covers_outbound()
                } else {
                    f.direction.covers_inbound()
                }) && f.matches(peer, elapsed_ms)
            })
            .map(|f| f.action)
    }
}

/// A message held back by a `Delay` rule, due for release at an instant.
#[derive(Debug)]
struct Held {
    due: Instant,
    peer: ProcessId,
    msg: WireMessage,
}

/// A [`Transport`] decorator applying a [`FaultPlan`] to an inner transport.
///
/// Dropped messages vanish; delayed ones are parked in small in-memory
/// queues (linear scans — plans hold a handful of messages at a time) and
/// released when due: outbound ones are handed to the inner transport on the
/// next call, inbound ones returned from [`Transport::recv_timeout`] in due
/// order, ahead of fresh traffic.
#[derive(Debug)]
pub struct FaultedTransport<T> {
    inner: T,
    plan: FaultPlan,
    epoch: Instant,
    held_in: Vec<Held>,
    held_out: Vec<Held>,
    dropped: u64,
    delayed: u64,
}

impl<T: Transport> FaultedTransport<T> {
    /// Wraps `inner`, anchoring the plan's fault windows at the current
    /// instant.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        FaultedTransport {
            inner,
            plan,
            epoch: Instant::now(),
            held_in: Vec::new(),
            held_out: Vec::new(),
            dropped: 0,
            delayed: 0,
        }
    }

    /// Messages discarded by `Drop` rules so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Messages held back by `Delay` rules so far.
    pub fn delayed(&self) -> u64 {
        self.delayed
    }

    /// Read access to the inner transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    fn elapsed_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Hands every due outbound message to the inner transport.
    fn release_due_outbound(&mut self) -> Result<(), TransportError> {
        let now = Instant::now();
        let mut i = 0;
        while i < self.held_out.len() {
            if self.held_out[i].due <= now {
                let held = self.held_out.swap_remove(i);
                self.inner.send(held.peer, &held.msg)?;
            } else {
                i += 1;
            }
        }
        Ok(())
    }

    /// Pops the due inbound message with the earliest deadline, if any.
    fn pop_due_inbound(&mut self) -> Option<(ProcessId, WireMessage)> {
        let now = Instant::now();
        let idx = self
            .held_in
            .iter()
            .enumerate()
            .filter(|(_, h)| h.due <= now)
            .min_by_key(|(_, h)| h.due)
            .map(|(i, _)| i)?;
        let held = self.held_in.swap_remove(idx);
        Some((held.peer, held.msg))
    }

    /// The earliest instant any held message becomes due.
    fn next_due(&self) -> Option<Instant> {
        self.held_in
            .iter()
            .chain(self.held_out.iter())
            .map(|h| h.due)
            .min()
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
        self.release_due_outbound()?;
        match self.plan.action_for(to, self.elapsed_ms(), true) {
            None => self.inner.send(to, msg),
            Some(FaultAction::Drop) => {
                self.dropped += 1;
                Ok(())
            }
            Some(FaultAction::Delay { delay_ms }) => {
                self.delayed += 1;
                self.held_out.push(Held {
                    due: Instant::now() + WallDuration::from_millis(delay_ms),
                    peer: to,
                    msg: msg.clone(),
                });
                Ok(())
            }
        }
    }

    fn recv_timeout(
        &mut self,
        timeout: WallDuration,
    ) -> Result<Option<(ProcessId, WireMessage)>, TransportError> {
        let deadline = Instant::now() + timeout;
        loop {
            self.release_due_outbound()?;
            if let Some(due) = self.pop_due_inbound() {
                return Ok(Some(due));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            // Wait no further than the next held-message release, so delayed
            // traffic is not stuck behind a quiet socket.
            let mut wait = deadline - now;
            if let Some(due) = self.next_due() {
                wait = wait.min(due.saturating_duration_since(now));
            }
            match self.inner.recv_timeout(wait)? {
                None => continue,
                Some((from, msg)) => match self.plan.action_for(from, self.elapsed_ms(), false) {
                    None => return Ok(Some((from, msg))),
                    Some(FaultAction::Drop) => {
                        self.dropped += 1;
                        continue;
                    }
                    Some(FaultAction::Delay { delay_ms }) => {
                        self.delayed += 1;
                        self.held_in.push(Held {
                            due: Instant::now() + WallDuration::from_millis(delay_ms),
                            peer: from,
                            msg,
                        });
                        continue;
                    }
                },
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
    use crate::channel::channel_mesh;
    use lumiere_consensus::{ConsensusMessage, QuorumCert};

    fn msg() -> WireMessage {
        WireMessage::Consensus(ConsensusMessage::NewQc(QuorumCert::genesis()))
    }

    #[test]
    fn fault_plans_round_trip_through_json_and_validate() {
        use serde::json;
        let plan = FaultPlan::new().partition(2, 100, 500).fault(LinkFault {
            peer: None,
            direction: FaultDirection::Inbound,
            from_ms: 0,
            until_ms: 50,
            action: FaultAction::Delay { delay_ms: 20 },
        });
        let text = json::to_string(&plan);
        let back: FaultPlan = json::from_str(&text).unwrap();
        assert_eq!(back, plan);
        assert!(plan.validate(4).is_ok());
        assert!(plan.validate(2).is_err(), "peer 2 out of range for n = 2");
        assert!(
            FaultPlan::new().partition(0, 50, 50).validate(4).is_err(),
            "empty window"
        );
    }

    #[test]
    fn first_matching_rule_wins() {
        let plan = FaultPlan::new()
            .fault(LinkFault {
                peer: Some(1),
                direction: FaultDirection::Outbound,
                from_ms: 0,
                until_ms: 1_000,
                action: FaultAction::Drop,
            })
            .blackout(0, 1_000);
        // Outbound to peer 1: the first (Drop) rule shadows the blackout.
        assert_eq!(
            plan.action_for(ProcessId::new(1), 10, true),
            Some(FaultAction::Drop)
        );
        // Inbound from peer 1: the first rule is outbound-only, blackout
        // applies.
        assert_eq!(
            plan.action_for(ProcessId::new(1), 10, false),
            Some(FaultAction::Drop)
        );
        // Outside every window: transparent.
        assert_eq!(plan.action_for(ProcessId::new(1), 2_000, true), None);
    }

    #[test]
    fn drop_rules_discard_both_directions() {
        let mut mesh = channel_mesh(3);
        let t2 = mesh.pop().unwrap();
        let t1 = mesh.pop().unwrap();
        let t0 = mesh.pop().unwrap();
        let mut faulted = FaultedTransport::new(t0, FaultPlan::new().partition(1, 0, 60_000));
        let mut t1 = t1;
        let mut t2 = t2;

        // Outbound to the partitioned peer vanishes; to others it flows.
        faulted.broadcast(&msg()).unwrap();
        assert!(t1
            .recv_timeout(WallDuration::from_millis(100))
            .unwrap()
            .is_none());
        assert!(t2
            .recv_timeout(WallDuration::from_millis(500))
            .unwrap()
            .is_some());

        // Inbound from the partitioned peer vanishes; from others it flows.
        t1.send(ProcessId::new(0), &msg()).unwrap();
        t2.send(ProcessId::new(0), &msg()).unwrap();
        let mut seen = Vec::new();
        while let Some((from, _)) = faulted
            .recv_timeout(WallDuration::from_millis(200))
            .unwrap()
        {
            seen.push(from.as_usize());
        }
        assert_eq!(seen, vec![2], "only the unpartitioned peer gets through");
        assert_eq!(faulted.dropped(), 2, "one outbound + one inbound drop");
    }

    #[test]
    fn delay_rules_hold_messages_and_release_them_in_due_order() {
        let mut mesh = channel_mesh(2);
        let mut t1 = mesh.pop().unwrap();
        let t0 = mesh.pop().unwrap();
        let plan = FaultPlan::new().fault(LinkFault {
            peer: Some(1),
            direction: FaultDirection::Inbound,
            from_ms: 0,
            until_ms: 60_000,
            action: FaultAction::Delay { delay_ms: 80 },
        });
        let mut faulted = FaultedTransport::new(t0, plan);
        t1.send(ProcessId::new(0), &msg()).unwrap();
        let start = Instant::now();
        // A short poll parks the message instead of delivering it early.
        assert!(faulted
            .recv_timeout(WallDuration::from_millis(10))
            .unwrap()
            .is_none());
        assert_eq!(faulted.delayed(), 1);
        // A long enough wait releases it after the configured delay.
        let got = faulted
            .recv_timeout(WallDuration::from_millis(500))
            .unwrap();
        assert!(got.is_some(), "the delayed message must be released");
        assert!(
            start.elapsed() >= WallDuration::from_millis(80),
            "released {}ms after send, before the 80ms delay",
            start.elapsed().as_millis()
        );
    }

    #[test]
    fn an_empty_plan_is_transparent() {
        let mut mesh = channel_mesh(2);
        let mut t1 = mesh.pop().unwrap();
        let t0 = mesh.pop().unwrap();
        let mut faulted = FaultedTransport::new(t0, FaultPlan::new());
        assert_eq!(faulted.local_id(), ProcessId::new(0));
        assert_eq!(faulted.cluster_size(), 2);
        faulted.send(ProcessId::new(1), &msg()).unwrap();
        assert!(t1
            .recv_timeout(WallDuration::from_millis(500))
            .unwrap()
            .is_some());
        t1.send(ProcessId::new(0), &msg()).unwrap();
        assert!(faulted
            .recv_timeout(WallDuration::from_millis(500))
            .unwrap()
            .is_some());
        assert_eq!(faulted.dropped() + faulted.delayed(), 0);
    }
}
