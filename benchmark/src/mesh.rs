//! The `wire_mesh` workload: the live path on one thread.
//!
//! Sixteen [`ProtocolRuntime`]s from [`build_runtime`] are stepped by a
//! miniature host in the shape of the runtime crate's
//! `four_runtimes_commit_when_stepped_by_hand` test: synchronous rounds, a
//! virtual clock advanced 1 ms per hop. What makes it the *live* path is
//! that every delivered copy crosses the wire codec — `encode_frame` on the
//! sender's side (once per recipient, as `Transport::broadcast` does),
//! bytes in flight, `decode_frame` on the recipient's — so the unit costs
//! codec + runtime step + engine + pacemaker + mempool, with no simulator
//! queue, no metrics collector and no OS threads.
//!
//! A round works in passes — decode every arriving frame, deliver them,
//! encode every output — and the host reads a [`Clock`] at each boundary
//! between its own code and a pass into a layer. Untraced units use
//! [`NoClock`] (compiled away); traced units use
//! [`crate::trace::SpanClock`], which attributes each interval to the span
//! that just ended.
//!
//! The oracle: frames round-trip through the codec byte for byte, every
//! pair of nodes ends with prefix-ordered committed chains, every node
//! commits the target height, and no node commits a transaction that was
//! never submitted. A node committing the same transaction *again* is
//! counted ([`Counts::tx_recommits`]) rather than failed: every node holds
//! every transaction and a leader prunes only what has committed, so
//! consecutive leaders re-propose what is still in flight — it happens in
//! every unit, and the count must repeat exactly like any other.

use crate::stats::percentile;
use crate::workload::{Counts, DELTA};
use lumiere_runtime::{
    build_runtime, decode_frame, encode_frame, ConsensusRuntime, ProtocolKind, ProtocolRuntime,
    RuntimeOutput, WireMessage,
};
use lumiere_types::{Duration, ProcessId, Time, Transaction, TxId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Cluster size.
pub const N: usize = 16;
/// A unit ends when every node has committed this many blocks.
pub const TARGET_COMMITS: u64 = 40;
/// Client transactions injected (to all nodes) per round.
pub const TXS_PER_ROUND: u64 = 2;
/// A unit that has not finished after this many rounds has stalled.
const MAX_ROUNDS: u64 = 5_000;

/// What the host was doing between two clock readings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Generating client transactions (the host's own work).
    Inject,
    /// `decode_frame`.
    Decode,
    /// `ProtocolRuntime::deliver` of a consensus message.
    DeliverConsensus,
    /// `ProtocolRuntime::deliver` of a pacemaker message.
    DeliverPacemaker,
    /// `ProtocolRuntime::deliver` of a client submission.
    DeliverSubmit,
    /// `encode_frame`.
    Encode,
    /// `ProtocolRuntime::boot` / `wake`.
    Wake,
    /// The host's own bookkeeping: in-flight lists, timers, commit tracking.
    Host,
}

impl Phase {
    /// Every phase, in layer-table order.
    pub const ALL: [Phase; 8] = [
        Phase::Inject,
        Phase::Decode,
        Phase::DeliverConsensus,
        Phase::DeliverPacemaker,
        Phase::DeliverSubmit,
        Phase::Encode,
        Phase::Wake,
        Phase::Host,
    ];

    /// Span name in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Inject => "inject",
            Phase::Decode => "decode",
            Phase::DeliverConsensus => "deliver.consensus",
            Phase::DeliverPacemaker => "deliver.pacemaker",
            Phase::DeliverSubmit => "deliver.submit",
            Phase::Encode => "encode",
            Phase::Wake => "wake",
            Phase::Host => "host",
        }
    }
}

/// The host's view of a span recorder: `mark(phase)` closes the interval
/// since the previous reading and attributes it to `phase`.
pub trait Clock {
    /// Starts a unit's run (the first reading).
    fn start(&mut self);
    /// Opens a new round span.
    fn round(&mut self);
    /// Attributes the time since the last reading to `phase`.
    fn mark(&mut self, phase: Phase);
}

/// The untraced clock: every call compiles to nothing.
pub struct NoClock;

impl Clock for NoClock {
    #[inline(always)]
    fn start(&mut self) {}
    #[inline(always)]
    fn round(&mut self) {}
    #[inline(always)]
    fn mark(&mut self, _: Phase) {}
}

/// Builds the sixteen runtimes of one unit (the timed construction step).
pub fn build(seed: u64) -> Vec<ProtocolRuntime> {
    (0..N)
        .map(|who| build_runtime(ProtocolKind::Lumiere, N, who, DELTA, seed))
        .collect()
}

/// What one mesh unit produced: the oracle's inputs.
pub struct Outcome {
    counts: Counts,
    chains: Vec<Vec<u64>>,
    violation: Option<String>,
}

struct TxState {
    submitted: Time,
    /// Bit `i` set once node `i` committed the transaction.
    committed_on: u16,
}

struct Host {
    now: Time,
    /// Frames arriving in the next round: `(from, to, bytes)`.
    in_flight: Vec<(usize, usize, Vec<u8>)>,
    /// One output buffer per node, filled by the deliver/wake passes and
    /// drained by [`Host::ship`].
    outs: Vec<RuntimeOutput>,
    timers: Vec<BinaryHeap<Reverse<Time>>>,
    txs: HashMap<TxId, TxState>,
    /// Submit → committed-on-all-nodes latencies, in µs.
    latencies: Vec<f64>,
    counts: Counts,
    violation: Option<String>,
}

impl Host {
    fn flag(&mut self, violation: impl FnOnce() -> String) {
        self.violation.get_or_insert_with(violation);
    }

    /// Books every node's pending outputs (timers, commits) and puts its
    /// messages on the wire, one `encode_frame` per recipient — what
    /// `Transport::broadcast` does on a live node.
    fn ship<C: Clock>(&mut self, clock: &mut C) {
        let mut outbound: Vec<(usize, Option<usize>, WireMessage)> = Vec::new();
        for from in 0..N {
            let out = &mut self.outs[from];
            outbound.extend(
                out.sends
                    .drain(..)
                    .map(|(to, m)| (from, Some(to.as_usize()), m)),
            );
            outbound.extend(out.broadcasts.drain(..).map(|m| (from, None, m)));
            self.timers[from].extend(out.wakes.drain(..).map(Reverse));
            for id in std::mem::take(&mut out.committed_txs) {
                let Some(tx) = self.txs.get_mut(&id) else {
                    self.flag(|| format!("node {from} committed unsubmitted {id}"));
                    continue;
                };
                let bit = 1u16 << from;
                if tx.committed_on & bit != 0 {
                    // Every node holds every transaction, and a leader only
                    // prunes what has *committed*, so consecutive leaders
                    // re-propose what is still in flight: the chain carries
                    // most transactions twice. Counted, not failed — the
                    // count is part of what every unit must reproduce.
                    self.counts.tx_recommits += 1;
                    continue;
                }
                tx.committed_on |= bit;
                if tx.committed_on == u16::MAX {
                    self.latencies
                        .push((self.now - tx.submitted).as_micros() as f64);
                }
            }
            self.outs[from].clear();
        }
        clock.mark(Phase::Host);
        for (from, to, msg) in &outbound {
            let recipients = match to {
                Some(to) => *to..*to + 1,
                None => 0..N,
            };
            for to in recipients.filter(|to| to != from) {
                self.in_flight.push((*from, to, encode_frame(msg)));
            }
        }
        clock.mark(Phase::Encode);
    }
}

/// Runs one unit to completion.
///
/// A round is: inject client transactions → decode every arriving frame →
/// deliver them in arrival order → ship the outputs → advance the clock one
/// hop → fire due timers → ship. Each step is one pass, so the host reads
/// the clock a few times per round rather than per frame (a per-frame span
/// would cost ~10 % of the 2 µs a frame takes; see `README.md`).
pub fn run<C: Clock>(mut nodes: Vec<ProtocolRuntime>, seed: u64, clock: &mut C) -> Outcome {
    const _: () = assert!(N == u16::BITS as usize, "committed_on is one bit per node");
    let mut host = Host {
        now: Time::ZERO,
        in_flight: Vec::new(),
        outs: (0..N).map(|_| RuntimeOutput::default()).collect(),
        timers: (0..N).map(|_| BinaryHeap::new()).collect(),
        txs: HashMap::new(),
        latencies: Vec::new(),
        counts: Counts::default(),
        violation: None,
    };
    let tx_base = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    clock.start();
    clock.round();
    for (node, out) in nodes.iter_mut().zip(&mut host.outs) {
        node.boot(host.now, out);
    }
    clock.mark(Phase::Wake);
    host.ship(clock);
    let mut rounds = 0u64;
    while nodes.iter().any(|n| n.committed_height() < TARGET_COMMITS) {
        if rounds == MAX_ROUNDS {
            host.flag(|| format!("stalled: {MAX_ROUNDS} rounds without finishing"));
            break;
        }
        clock.round();
        // Clients hand each new transaction to every node, as the live
        // driver's `WireMessage::Submit` broadcast does.
        let mut submits = Vec::with_capacity(TXS_PER_ROUND as usize);
        for k in 0..TXS_PER_ROUND {
            let serial = rounds * TXS_PER_ROUND + k;
            let tx = Transaction::new(TxId::new(tx_base.wrapping_add(serial)));
            let submitted = host.now;
            host.txs.insert(
                tx.id,
                TxState {
                    submitted,
                    committed_on: 0,
                },
            );
            host.counts.txs_submitted += 1;
            submits.push((serial as usize % N, WireMessage::Submit(tx)));
        }
        clock.mark(Phase::Inject);
        for (from, msg) in &submits {
            for to in 0..N {
                host.in_flight.push((*from, to, encode_frame(msg)));
            }
        }
        clock.mark(Phase::Encode);

        let mut arrived = Vec::with_capacity(host.in_flight.len());
        for (from, to, frame) in host.in_flight.drain(..) {
            match decode_frame(&frame) {
                Ok((msg, used)) if used == frame.len() => {
                    host.counts.frame_bytes += frame.len() as u64;
                    arrived.push((from, to, msg));
                }
                other => {
                    let failure = format!("frame did not round-trip: {other:?}");
                    host.violation.get_or_insert(failure);
                }
            }
        }
        clock.mark(Phase::Decode);

        let mut current = None;
        for (from, to, msg) in &arrived {
            let phase = match msg {
                WireMessage::Consensus(_) => Phase::DeliverConsensus,
                WireMessage::Pacemaker(_) => Phase::DeliverPacemaker,
                WireMessage::Submit(_) => Phase::DeliverSubmit,
            };
            // One span per run of same-class frames, not per frame.
            if current != Some(phase) {
                if let Some(done) = current {
                    clock.mark(done);
                }
                current = Some(phase);
            }
            nodes[*to].deliver(ProcessId::new(*from), msg, host.now, &mut host.outs[*to]);
        }
        if let Some(done) = current {
            clock.mark(done);
        }
        for (_, _, msg) in &arrived {
            host.counts.work += 1;
            host.counts.wire_size_bytes += msg.wire_size() as u64;
            if !matches!(msg, WireMessage::Submit(_)) {
                host.counts.msgs += 1;
                host.counts.auth_bytes += msg.auth_bytes() as u64;
                host.counts.verify_ops += msg.verify_ops();
                host.counts.verify_ops_naive += msg.naive_verify_ops();
            }
        }
        drop(arrived);
        host.ship(clock);

        host.now += Duration::from_millis(1);
        for (i, node) in nodes.iter_mut().enumerate() {
            let mut due = false;
            while host.timers[i].peek().is_some_and(|t| t.0 <= host.now) {
                host.timers[i].pop();
                due = true;
            }
            if due {
                clock.mark(Phase::Host);
                node.wake(host.now, &mut host.outs[i]);
                clock.mark(Phase::Wake);
            }
        }
        host.ship(clock);
        rounds += 1;
    }
    let chains: Vec<Vec<u64>> = nodes.iter().map(|n| n.committed_chain()).collect();
    host.counts.commits = nodes
        .iter()
        .map(|n| n.committed_height())
        .min()
        .unwrap_or(0);
    host.counts.txs_committed = host.latencies.len() as u64;
    if host.latencies.is_empty() {
        host.flag(|| "no transaction committed on all nodes".into());
    }
    host.counts.vlat_p50_us = percentile(&host.latencies, 50) as i64;
    host.counts.vlat_tail_us = percentile(&host.latencies, 95) as i64;
    host.counts.vlat_samples = host.latencies.len() as u64;
    clock.mark(Phase::Host);
    Outcome {
        counts: host.counts,
        chains,
        violation: host.violation,
    }
}

/// The correctness oracle for a mesh unit, and its counts.
pub fn check(outcome: Outcome) -> Result<Counts, String> {
    if let Some(violation) = outcome.violation {
        return Err(violation);
    }
    // Prefix agreement is not transitive, so every pair is compared.
    for (i, a) in outcome.chains.iter().enumerate() {
        for (j, b) in outcome.chains.iter().enumerate().skip(i + 1) {
            let len = a.len().min(b.len());
            if a[..len] != b[..len] {
                return Err(format!("committed chains of nodes {i} and {j} diverge"));
            }
        }
    }
    if outcome.counts.commits < TARGET_COMMITS {
        return Err(format!(
            "only {} of {TARGET_COMMITS} blocks committed on every node",
            outcome.counts.commits
        ));
    }
    Ok(outcome.counts)
}
