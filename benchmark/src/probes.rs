//! Micro-probes: what one call into a layer costs, on inputs captured from
//! real units.
//!
//! A probe times a *batch* of calls with one pair of clock readings and
//! reports the [`fast5`](crate::stats::fast5) of the per-call means over its
//! batches — the same estimator the workloads use — together with the total
//! call count. Inputs are not synthetic: [`Capture`] steps real
//! [`ProtocolRuntime`] clusters by hand (no codec, virtual clock, 1 ms per
//! hop) and keeps what flowed through them — a vote, a proposal carrying a
//! full 64-transaction batch, an `n = 128` quorum certificate with the votes
//! behind it, epoch-view messages, the push/pop schedule the simulator's
//! queue would have seen, the calls its metrics collector would have
//! received, and the complete event script of one node.
//!
//! Stateful layers (engine, pacemaker) cannot be probed by repeating one
//! call — the second delivery of a proposal takes the duplicate path. They
//! are probed by **replay** instead: one batch replays the node's whole
//! captured script against a fresh engine + pacemaker + mempool
//! ([`SplitNode`], which makes the same calls in the same order as
//! `ProtocolRuntime`'s cascade but reads the clock around each one). The
//! replay must reproduce the captured node's committed chain; if the
//! runtime's cascade ever changes shape and the mirror no longer follows it,
//! the affected metrics are reported as 0 with a warning instead of being
//! silently wrong.

use crate::stats::fast5;
use crate::workload::DELTA;
use lumiere_consensus::{Block, ConsensusAction, ConsensusMessage, HotStuffEngine, QuorumCert};
use lumiere_core::pacemaker::{Pacemaker, PacemakerAction};
use lumiere_core::{Mempool, MempoolConfig, PacemakerMessage};
use lumiere_crypto::{keygen, Signature, ThresholdSignature};
use lumiere_runtime::{
    build_runtime, channel_mesh, ConsensusRuntime, Gates, ProtocolKind, ProtocolRuntime,
    RuntimeOutput, TcpMeshConfig, TcpTransport, Transport, WireMessage,
};
use lumiere_sim::event::{ClassDelay, Event, EventQueue};
use lumiere_sim::metrics::MetricsCollector;
use lumiere_types::{Batch, Duration, Params, ProcessId, Time, Transaction, TxId, View};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration as WallDuration, Instant};

/// One probe's outcome.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    /// `fast5` of the per-call time over the probe's batches, in ns.
    pub ns: f64,
    /// Calls made in total.
    pub calls: u64,
}

/// Batches per probe; with the per-batch counts below every probe makes at
/// least 2 000 calls.
const BATCHES: usize = 40;

/// Times [`BATCHES`] batches of `per_batch` calls each.
pub fn batched(per_batch: usize, mut call: impl FnMut()) -> Probe {
    let mut per_call = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..per_batch {
            call();
        }
        per_call.push(start.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    Probe {
        ns: fast5(&per_call),
        calls: (BATCHES * per_batch) as u64,
    }
}

/// Like [`batched`] for calls that consume prepared state: `prepare` builds
/// one batch's inputs untimed, `call` consumes them timed and returns how
/// many calls it made.
fn batched_with<S>(mut prepare: impl FnMut() -> S, mut call: impl FnMut(S) -> usize) -> Probe {
    let mut per_call = Vec::with_capacity(BATCHES);
    let mut calls = 0;
    for _ in 0..BATCHES {
        let state = prepare();
        let start = Instant::now();
        let made = call(state);
        let spent = start.elapsed().as_nanos() as f64;
        per_call.push(spent / made.max(1) as f64);
        calls += made as u64;
    }
    Probe {
        ns: fast5(&per_call),
        calls,
    }
}

// ---------------------------------------------------------------- capture

/// One event a host handed to a node.
#[derive(Debug, Clone)]
enum Input {
    Boot(Time),
    Wake(Time),
    Deliver(ProcessId, WireMessage, Time),
}

/// One push into the (virtual) event queue.
#[derive(Debug, Clone, Copy)]
enum Push {
    /// A point-to-point delivery or a timer, due at the given instant.
    One(Time),
    /// A broadcast from the given node, due at the given instant.
    Broadcast(usize, Time),
}

/// A call the simulator's runner would have made on its metrics collector.
#[derive(Debug, Clone, Copy)]
enum Record {
    /// `record_honest_sends` + `record_auth_message` for one message.
    Send {
        now: Time,
        copies: usize,
        heavy: bool,
        auth: [u64; 4],
    },
    Qc(Time, View, ProcessId),
    Commit(Time, u64),
    Wake,
    Submission(Time, TxId),
    TxCommit(Time, TxId),
}

/// Settings of one capture run.
#[derive(Clone)]
struct CaptureSpec {
    n: usize,
    seed: u64,
    /// Nodes that run the protocol but never propose (`SilentLeader`).
    silent: Vec<usize>,
    txs_per_round: u64,
    batch_txs: usize,
    rounds: u64,
    /// The node whose inputs are recorded.
    probe: usize,
}

/// Everything kept from one hand-stepped cluster run.
#[derive(Default)]
struct Capture {
    script: Vec<Input>,
    chain: Vec<u64>,
    /// Events the host processed (boots, deliveries, wakes).
    events: u64,
    /// The host clock when the run stopped, in µs.
    end_us: i64,
    /// Every queue push, with the instant it was made.
    schedule: Vec<(Time, Push)>,
    records: Vec<Record>,
    /// Votes seen per `(view, block)`, for re-aggregation.
    votes: BTreeMap<(i64, u64), Vec<Signature>>,
    qc: Option<QuorumCert>,
    /// The proposal with the largest payload.
    proposal: Option<Block>,
    vote: Option<WireMessage>,
    epoch_view_msg: Option<WireMessage>,
}

type Timers = Vec<BinaryHeap<Reverse<Time>>>;

/// The capture host's state between events.
struct CaptureHost {
    n: usize,
    now: Time,
    in_flight: Vec<(usize, usize, Arc<WireMessage>)>,
    timers: Timers,
    cap: Capture,
}

/// One network hop of the capture host's virtual clock.
const HOP: Duration = Duration::from_millis(1);

impl CaptureHost {
    /// Books one node's output the way the simulator's `apply_output` does:
    /// messages go in flight (and into the queue schedule), timers are
    /// armed, and every metrics-collector call is written down.
    fn apply(&mut self, from: usize, out: &mut RuntimeOutput) {
        let (n, now) = (self.n, self.now);
        let sends = out.sends.drain(..).map(|(to, m)| (Some(to.as_usize()), m));
        let outbound: Vec<_> = sends
            .chain(out.broadcasts.drain(..).map(|m| (None, m)))
            .collect();
        for (to, msg) in outbound {
            self.cap.keep_sample(&msg);
            self.cap.records.push(Record::Send {
                now,
                copies: if to.is_some() { 1 } else { n - 1 },
                heavy: msg.is_heavy_sync(),
                auth: [
                    msg.auth_bytes() as u64,
                    msg.naive_auth_bytes() as u64,
                    msg.verify_ops(),
                    msg.naive_verify_ops(),
                ],
            });
            let msg = Arc::new(msg);
            match to {
                Some(to) => {
                    self.cap.schedule.push((now, Push::One(now + HOP)));
                    self.in_flight.push((from, to, msg));
                }
                None => {
                    self.cap
                        .schedule
                        .push((now, Push::Broadcast(from, now + HOP)));
                    let others = (0..n).filter(|&to| to != from);
                    self.in_flight
                        .extend(others.map(|to| (from, to, Arc::clone(&msg))));
                }
            }
        }
        for at in out.wakes.drain(..) {
            self.cap.schedule.push((now, Push::One(at.max(now))));
            self.timers[from].push(Reverse(at));
        }
        let who = ProcessId::new(from);
        let records = &mut self.cap.records;
        records.extend(
            out.qcs_formed
                .drain(..)
                .map(|qc| Record::Qc(now, qc.view(), who)),
        );
        records.extend(out.commits.drain(..).map(|h| Record::Commit(now, h)));
        records.extend(
            out.committed_txs
                .drain(..)
                .map(|id| Record::TxCommit(now, id)),
        );
        out.clear();
    }
}

fn capture(spec: CaptureSpec) -> Capture {
    let n = spec.n;
    let mut nodes: Vec<ProtocolRuntime> = (0..n)
        .map(|who| build_runtime(ProtocolKind::Lumiere, n, who, DELTA, spec.seed))
        .collect();
    for node in &mut nodes {
        node.set_mempool_config(spec.mempool());
    }
    let gates: Vec<Gates> = (0..n)
        .map(|i| Gates {
            proposes: !spec.silent.contains(&i),
            ..Gates::OPEN
        })
        .collect();
    let mut host = CaptureHost {
        n,
        now: Time::ZERO,
        in_flight: Vec::new(),
        timers: (0..n).map(|_| BinaryHeap::new()).collect(),
        cap: Capture::default(),
    };
    let mut out = RuntimeOutput::default();
    for i in 0..n {
        if i == spec.probe {
            host.cap.script.push(Input::Boot(host.now));
        }
        host.cap.events += 1;
        nodes[i].boot_gated(host.now, gates[i], &mut out);
        host.apply(i, &mut out);
    }
    let tx_base = spec.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for round in 0..spec.rounds {
        let now = host.now;
        for k in 0..spec.txs_per_round {
            let serial = round * spec.txs_per_round + k;
            let tx = Transaction::new(TxId::new(tx_base.wrapping_add(serial)));
            host.cap.records.push(Record::Submission(now, tx.id));
            let msg = Arc::new(WireMessage::Submit(tx));
            host.in_flight
                .extend((0..n).map(|to| (to, to, Arc::clone(&msg))));
        }
        for (from, to, msg) in std::mem::take(&mut host.in_flight) {
            let from = ProcessId::new(from);
            if to == spec.probe {
                host.cap
                    .script
                    .push(Input::Deliver(from, (*msg).clone(), now));
            }
            host.cap.events += 1;
            nodes[to].deliver_gated(from, &msg, now, gates[to], &mut out);
            host.apply(to, &mut out);
        }
        host.now += HOP;
        let now = host.now;
        for i in 0..n {
            let mut due = false;
            while host.timers[i].peek().is_some_and(|t| t.0 <= now) {
                host.timers[i].pop();
                due = true;
            }
            if due {
                if i == spec.probe {
                    host.cap.script.push(Input::Wake(now));
                }
                host.cap.events += 1;
                host.cap.records.push(Record::Wake);
                nodes[i].wake_gated(now, gates[i], &mut out);
                host.apply(i, &mut out);
            }
        }
    }
    host.cap.chain = nodes[spec.probe].committed_chain();
    host.cap.end_us = host.now.as_micros();
    host.cap
}

impl CaptureSpec {
    fn mempool(&self) -> MempoolConfig {
        MempoolConfig {
            batch_txs: self.batch_txs,
            ..MempoolConfig::default()
        }
    }
}

impl Capture {
    fn keep_sample(&mut self, msg: &WireMessage) {
        match msg {
            WireMessage::Consensus(ConsensusMessage::Vote {
                view,
                block_hash,
                signature,
            }) => {
                self.votes
                    .entry((view.as_i64(), *block_hash))
                    .or_default()
                    .push(*signature);
                self.vote.get_or_insert_with(|| msg.clone());
            }
            WireMessage::Consensus(ConsensusMessage::Proposal(block)) => {
                if !block.justify().is_genesis() {
                    self.qc.get_or_insert_with(|| block.justify().clone());
                }
                let fuller = self
                    .proposal
                    .as_ref()
                    .is_none_or(|kept| block.payload().len() > kept.payload().len());
                if fuller {
                    self.proposal = Some(block.clone());
                }
            }
            WireMessage::Pacemaker(PacemakerMessage::EpochViewMsg { .. }) => {
                self.epoch_view_msg.get_or_insert_with(|| msg.clone());
            }
            _ => {}
        }
    }

    /// The votes behind the captured QC (a full quorum, by construction).
    fn qc_votes(&self) -> Option<(&QuorumCert, &[Signature])> {
        let qc = self.qc.as_ref()?;
        let votes = self.votes.get(&(qc.view().as_i64(), qc.block_hash()))?;
        Some((qc, votes))
    }
}

// ------------------------------------------------------------ split replay

/// The layer calls the replay distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    OnProposal,
    OnVote,
    OnNewQc,
    EnterView,
    LumiereOnMsg,
    LumiereOnQc,
    LumiereOnWake,
}
const CALLS: usize = 7;

/// One node's engine, pacemaker and mempool, cascaded exactly as
/// `ProtocolRuntime` does with every gate open — but with a clock reading
/// around each call into a layer.
struct SplitNode {
    id: ProcessId,
    pacemaker: Box<dyn Pacemaker>,
    engine: HotStuffEngine,
    mempool: Mempool,
    booted: bool,
    ns: [f64; CALLS],
    calls: [u64; CALLS],
}

impl SplitNode {
    fn new(n: usize, who: usize, seed: u64, mempool: MempoolConfig) -> Self {
        let params = Params::new(n, DELTA);
        let (keys, pki) = keygen(n, seed);
        let key = keys[who].clone();
        SplitNode {
            id: key.id(),
            pacemaker: ProtocolKind::Lumiere.build_pacemaker(
                params,
                key.clone(),
                pki.clone(),
                seed,
            ),
            engine: HotStuffEngine::new(key.id(), key, pki, params),
            mempool: Mempool::new(mempool),
            booted: false,
            ns: [0.0; CALLS],
            calls: [0; CALLS],
        }
    }

    fn tally(&mut self, call: Call, since: Instant) {
        self.ns[call as usize] += since.elapsed().as_nanos() as f64;
        self.calls[call as usize] += 1;
    }

    fn input(&mut self, input: &Input) {
        let now = match input {
            Input::Boot(now) | Input::Wake(now) | Input::Deliver(_, _, now) => *now,
        };
        if !self.booted {
            self.booted = true;
            let actions = self.pacemaker.boot(now);
            self.drain(actions, Vec::new(), now);
        }
        match input {
            Input::Boot(_) => {}
            Input::Wake(_) => {
                let t = Instant::now();
                let actions = self.pacemaker.on_wake(now);
                self.tally(Call::LumiereOnWake, t);
                self.drain(actions, Vec::new(), now);
            }
            Input::Deliver(from, WireMessage::Pacemaker(m), _) => {
                let t = Instant::now();
                let actions = self.pacemaker.on_message(*from, m, now);
                self.tally(Call::LumiereOnMsg, t);
                self.drain(actions, Vec::new(), now);
            }
            Input::Deliver(from, WireMessage::Consensus(m), _) => {
                let call = match m {
                    ConsensusMessage::Proposal(_) => Call::OnProposal,
                    ConsensusMessage::Vote { .. } => Call::OnVote,
                    ConsensusMessage::NewQc(_) => Call::OnNewQc,
                };
                let t = Instant::now();
                let actions = self.engine.on_message(*from, m, now);
                self.tally(call, t);
                self.drain(Vec::new(), actions, now);
            }
            Input::Deliver(_, WireMessage::Submit(tx), _) => {
                self.mempool.submit(*tx);
            }
        }
    }

    /// `ProtocolRuntime::drain_pacemaker` / `drain_consensus`: pacemaker
    /// actions first, then consensus actions, until both queues are dry.
    /// Sends, broadcasts and wake requests have no recipient here.
    fn drain(&mut self, pm: Vec<PacemakerAction>, cons: Vec<ConsensusAction>, now: Time) {
        let mut pm: VecDeque<PacemakerAction> = pm.into();
        let mut cons: VecDeque<ConsensusAction> = cons.into();
        // A consensus-first cascade (`drain_consensus`) runs its consensus
        // queue dry before the pacemaker sees anything.
        let mut consensus_first = !cons.is_empty();
        loop {
            if !consensus_first {
                if let Some(action) = pm.pop_front() {
                    match action {
                        PacemakerAction::SetQcDeadline { view, deadline } => {
                            self.engine.set_qc_deadline(view, deadline);
                        }
                        PacemakerAction::EnterView { view, leader } => {
                            if leader == self.id {
                                let displaced = self.engine.stage_payload(Batch::empty());
                                self.mempool.requeue(displaced);
                                let batch = self.mempool.next_batch();
                                self.engine.stage_payload(batch);
                            }
                            let t = Instant::now();
                            let actions = self.engine.enter_view(view, leader, now);
                            self.tally(Call::EnterView, t);
                            cons.extend(actions);
                        }
                        _ => {}
                    }
                    continue;
                }
            }
            if let Some(action) = cons.pop_front() {
                match action {
                    ConsensusAction::Committed(block) => {
                        self.mempool.mark_committed(block.payload().tx_ids());
                    }
                    ConsensusAction::QcFormed(qc) => {
                        let t = Instant::now();
                        let actions = self.pacemaker.on_qc(&qc, true, now);
                        self.tally(Call::LumiereOnQc, t);
                        pm.extend(actions);
                    }
                    ConsensusAction::QcObserved(qc) => {
                        let t = Instant::now();
                        let actions = self.pacemaker.on_qc(&qc, false, now);
                        self.tally(Call::LumiereOnQc, t);
                        pm.extend(actions);
                    }
                    _ => {}
                }
                continue;
            }
            if consensus_first {
                consensus_first = false;
                continue;
            }
            break;
        }
    }
}

// ------------------------------------------------------------------ probes

/// Every micro-probe's result, plus what the captures counted.
#[derive(Debug, Default)]
pub struct ProbeSet {
    /// `KeyPair::sign` of a captured vote digest.
    pub crypto_sign: Probe,
    /// `Pki::verify` of a captured vote.
    pub crypto_verify: Probe,
    /// `ThresholdSignature::aggregate` of a captured `n = 128` quorum.
    pub crypto_aggregate_q: Probe,
    /// `Pki::verify_aggregate` of the captured `n = 128` certificate.
    pub crypto_verify_aggregate_q: Probe,
    /// Signers in that certificate (the divisor for a per-signer cost).
    pub quorum: usize,
    /// `QuorumCert::aggregate` at `n = 128`.
    pub qc_aggregate: Probe,
    /// `QuorumCert::verify` at `n = 128`.
    pub qc_verify: Probe,
    /// `HotStuffEngine::on_message(Proposal)` with 64-transaction payloads.
    pub on_proposal: Probe,
    /// `HotStuffEngine::on_message(Vote)`.
    pub on_vote: Probe,
    /// `Lumiere::on_qc` under silent leaders.
    pub lumiere_on_qc: Probe,
    /// `Lumiere::on_message` under silent leaders.
    pub lumiere_on_msg: Probe,
    /// `Lumiere::on_wake` under silent leaders.
    pub lumiere_on_wake: Probe,
    /// `Mempool::submit`.
    pub mempool_submit: Probe,
    /// `Mempool::next_batch` (64 transactions).
    pub mempool_next_batch: Probe,
    /// `Mempool::mark_committed` of 64 ids with 96 queued.
    pub mempool_mark_committed_drained: Probe,
    /// `Mempool::mark_committed` of 64 ids with 8 192 queued.
    pub mempool_mark_committed_backlog: Probe,
    /// `Batch::digest64` of a captured 64-transaction batch.
    pub batch_digest: Probe,
    /// `EventQueue::push` + `pop` of one point-to-point entry.
    pub queue_push_pop: Probe,
    /// `EventQueue::push_broadcast` + its pops, per recipient.
    pub queue_broadcast_per_recipient: Probe,
    /// One `MetricsCollector::record_*` call.
    pub metrics_record: Probe,
    /// `MetricsCollector::finish` after the `n = 128` capture's records, ms.
    pub report_finish_ms: f64,
    /// Collector calls per processed event in the `n = 128` capture.
    pub records_per_event: f64,
    /// Ping-pong over a 2-endpoint `channel_mesh`, per round trip.
    pub channel_roundtrip: Probe,
    /// Ping-pong over a loopback `TcpTransport` pair, per round trip.
    pub tcp_roundtrip: Probe,
    /// Probes that could not run, and why.
    pub warnings: Vec<String>,
}

/// What one pair of clock readings adds to the interval it brackets.
fn clock_read_ns() -> f64 {
    batched(1_000, || {
        black_box(Instant::now().elapsed());
    })
    .ns / 2.0
}

fn crypto_probes(set: &mut ProbeSet, seed: u64) {
    // Ten views of a fault-free n = 128 cluster: a real certificate and the
    // votes behind it.
    let n = 128;
    let cap = capture(CaptureSpec {
        n,
        seed,
        silent: Vec::new(),
        txs_per_round: 0,
        batch_txs: 64,
        rounds: 60,
        probe: 0,
    });
    let Some((qc, votes)) = cap.qc_votes() else {
        set.warnings
            .push("n = 128 capture formed no certificate".into());
        return;
    };
    let params = Params::new(n, DELTA);
    let (keys, pki) = keygen(n, seed);
    let stakes = params.stakes();
    let quorum = params.quorum();
    let digest = QuorumCert::vote_digest(qc.view(), qc.block_hash());
    let vote = votes[0];
    set.quorum = quorum;
    set.crypto_sign = batched(256, || {
        black_box(keys[0].sign(black_box(digest)));
    });
    set.crypto_verify = batched(256, || {
        black_box(pki.verify(black_box(&vote), digest)).expect("captured vote verifies");
    });
    let partials = &votes[..quorum];
    set.crypto_aggregate_q = batched(64, || {
        black_box(ThresholdSignature::aggregate(
            digest,
            black_box(partials),
            &stakes,
            quorum,
        ))
        .expect("captured quorum aggregates");
    });
    let tsig = ThresholdSignature::aggregate(digest, partials, &stakes, quorum)
        .expect("captured quorum aggregates");
    set.crypto_verify_aggregate_q = batched(64, || {
        black_box(pki.verify_aggregate(black_box(&tsig), digest, &stakes, quorum))
            .expect("captured certificate verifies");
    });
    set.qc_aggregate = batched(64, || {
        black_box(QuorumCert::aggregate(
            qc.view(),
            qc.block_hash(),
            black_box(partials),
            &params,
        ))
        .expect("captured quorum aggregates");
    });
    set.qc_verify = batched(64, || {
        black_box(black_box(qc).verify(&pki, &params)).expect("captured certificate verifies");
    });
    queue_probes(set, &cap, n);
    metrics_probe(set, &cap, n);
}

/// Replays the recorded schedule on a fresh [`EventQueue`]: before each push
/// everything already due is popped, as the runner would have.
fn replay_queue(cap: &Capture, n: usize, msg: &Arc<WireMessage>, broadcasts: bool) -> f64 {
    let honesty = Arc::new(vec![true; n]);
    let mut queue = EventQueue::new();
    let start = Instant::now();
    for &(made_at, push) in &cap.schedule {
        while queue.peek_time().is_some_and(|due| due <= made_at) {
            black_box(queue.pop());
        }
        match push {
            Push::One(at) => queue.push(
                at,
                Event::Deliver {
                    to: ProcessId::new(0),
                    from: ProcessId::new(1),
                    message: Arc::clone(msg),
                },
            ),
            Push::Broadcast(from, at) if broadcasts => queue.push_broadcast(
                ProcessId::new(from),
                Arc::clone(msg),
                &honesty,
                ClassDelay::At(at),
                ClassDelay::At(at),
                |_| at,
            ),
            Push::Broadcast(..) => {}
        }
    }
    while let Some(event) = queue.pop() {
        black_box(event);
    }
    start.elapsed().as_nanos() as f64
}

fn queue_probes(set: &mut ProbeSet, cap: &Capture, n: usize) {
    let Some(msg) = cap.vote.clone().map(Arc::new) else {
        set.warnings.push("capture saw no vote to queue".into());
        return;
    };
    let ones = cap
        .schedule
        .iter()
        .filter(|(_, p)| matches!(p, Push::One(_)))
        .count();
    let recipients = (cap.schedule.len() - ones) * (n - 1);
    let (mut unicast, mut full) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES / 2 {
        unicast.push(replay_queue(cap, n, &msg, false));
        full.push(replay_queue(cap, n, &msg, true));
    }
    let unicast_ns = fast5(&unicast);
    set.queue_push_pop = Probe {
        ns: unicast_ns / ones.max(1) as f64,
        calls: (ones * unicast.len()) as u64,
    };
    set.queue_broadcast_per_recipient = Probe {
        ns: (fast5(&full) - unicast_ns).max(0.0) / recipients.max(1) as f64,
        calls: (recipients * full.len()) as u64,
    };
}

fn metrics_probe(set: &mut ProbeSet, cap: &Capture, n: usize) {
    let calls: usize = cap
        .records
        .iter()
        .map(|r| {
            if matches!(r, Record::Send { .. }) {
                2
            } else {
                1
            }
        })
        .sum();
    let (mut record_ns, mut finish_ns) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES / 2 {
        let f = Params::new(n, DELTA).f;
        let mut collector = MetricsCollector::new("lumiere".into(), n, f, 0, DELTA, Time::ZERO);
        let start = Instant::now();
        for record in &cap.records {
            match *record {
                Record::Send {
                    now,
                    copies,
                    heavy,
                    auth,
                } => {
                    collector.record_honest_sends(now, copies, heavy);
                    collector.record_auth_message(
                        copies as u64,
                        auth[0],
                        auth[1],
                        auth[2],
                        auth[3],
                    );
                }
                Record::Qc(now, view, leader) => collector.record_qc(now, view, leader, true),
                Record::Commit(now, height) => collector.record_commit(now, height),
                Record::Wake => collector.record_wake(),
                Record::Submission(now, id) => collector.record_submission(now, id),
                Record::TxCommit(now, id) => collector.record_tx_commit(now, id),
            }
        }
        let recorded = Instant::now();
        black_box(collector.finish(Time::from_micros(cap.end_us)));
        finish_ns.push(recorded.elapsed().as_nanos() as f64);
        record_ns.push((recorded - start).as_nanos() as f64 / calls.max(1) as f64);
    }
    set.metrics_record = Probe {
        ns: fast5(&record_ns),
        calls: (calls * record_ns.len()) as u64,
    };
    set.report_finish_ms = fast5(&finish_ns) / 1e6;
    set.records_per_event = calls as f64 / cap.events.max(1) as f64;
}

/// Replays `cap`'s script [`REPLAYS`] times; `None` (with a warning) if the
/// mirror no longer reproduces the captured node's chain.
fn replay_probes(
    set: &mut ProbeSet,
    spec: &CaptureSpec,
    cap: &Capture,
    what: &str,
) -> Option<[Probe; CALLS]> {
    const REPLAYS: usize = 16;
    let clock_ns = clock_read_ns();
    let mut per_call: [Vec<f64>; CALLS] = Default::default();
    let mut calls = [0u64; CALLS];
    for _ in 0..REPLAYS {
        let mut node = SplitNode::new(spec.n, spec.probe, spec.seed, spec.mempool());
        for input in &cap.script {
            node.input(input);
        }
        if node.engine.store().committed_chain() != cap.chain.as_slice() || cap.chain.is_empty() {
            set.warnings.push(format!(
                "{what} replay does not reproduce the captured chain: the probe's mirror of \
                 ProtocolRuntime's cascade is out of date; its metrics are reported as 0"
            ));
            return None;
        }
        for call in 0..CALLS {
            if node.calls[call] > 0 {
                per_call[call].push((node.ns[call] / node.calls[call] as f64 - clock_ns).max(0.0));
                calls[call] += node.calls[call];
            }
        }
    }
    let mut probes = [Probe::default(); CALLS];
    for call in 0..CALLS {
        if !per_call[call].is_empty() {
            probes[call] = Probe {
                ns: fast5(&per_call[call]),
                calls: calls[call],
            };
        }
    }
    Some(probes)
}

fn state_machine_probes(set: &mut ProbeSet, seed: u64) {
    let n = crate::mesh::N;
    // Steady state with full blocks: a view lasts three rounds and leaders
    // re-propose what is still in flight, so ten transactions a round fill
    // the 64-transaction batches without the mempools growing a backlog.
    let steady = CaptureSpec {
        n,
        seed,
        silent: Vec::new(),
        txs_per_round: 10,
        batch_txs: 64,
        rounds: 1_200,
        probe: 0,
    };
    let cap = capture(steady.clone());
    if let Some(block) = &cap.proposal {
        let batch = block.payload().clone();
        set.batch_digest = batched(64, || {
            black_box(black_box(&batch).digest64());
        });
    }
    if let Some(probes) = replay_probes(set, &steady, &cap, "steady-state") {
        set.on_proposal = probes[Call::OnProposal as usize];
        set.on_vote = probes[Call::OnVote as usize];
    }
    // The paper's bad case: f silent leaders on the earliest leader slots.
    let silent =
        lumiere_bench::experiments::worst_case_byzantine_ids(ProtocolKind::Lumiere, n, seed);
    let probe = (0..n)
        .find(|i| !silent.contains(i))
        .expect("an honest node");
    let faulty = CaptureSpec {
        n,
        seed,
        silent,
        txs_per_round: 0,
        batch_txs: 64,
        rounds: 6_000,
        probe,
    };
    let cap = capture(faulty.clone());
    if cap.epoch_view_msg.is_none() {
        set.warnings
            .push("silent-leader capture saw no epoch-view message".into());
    }
    if let Some(probes) = replay_probes(set, &faulty, &cap, "silent-leader") {
        set.lumiere_on_qc = probes[Call::LumiereOnQc as usize];
        set.lumiere_on_msg = probes[Call::LumiereOnMsg as usize];
        set.lumiere_on_wake = probes[Call::LumiereOnWake as usize];
    }
}

fn mempool_probes(set: &mut ProbeSet) {
    let txs = |from: u64, count: u64| (from..from + count).map(|i| Transaction::new(TxId::new(i)));
    let pool_with = |count: u64| {
        let mut pool = Mempool::new(MempoolConfig {
            batch_txs: 64,
            ..MempoolConfig::default()
        });
        for tx in txs(0, count) {
            pool.submit(tx);
        }
        pool
    };
    set.mempool_submit = batched_with(
        || (pool_with(0), txs(0, 1_024).collect::<Vec<_>>()),
        |(mut pool, txs)| {
            for tx in &txs {
                black_box(pool.submit(*tx));
            }
            txs.len()
        },
    );
    let full = pool_with(4_096);
    set.mempool_next_batch = batched_with(
        || full.clone(),
        |mut pool| {
            for _ in 0..64 {
                black_box(pool.next_batch());
            }
            64
        },
    );
    // Drained: the queue holds little more than the block being committed.
    let drained = pool_with(96);
    set.mempool_mark_committed_drained = batched_with(
        || vec![drained.clone(); 64],
        |pools| {
            let count = pools.len();
            for mut pool in pools {
                pool.mark_committed(txs(0, 64).map(|tx| tx.id));
                black_box(pool);
            }
            count
        },
    );
    // Backlog: every commit's `retain` walks a standing queue.
    let backlog = pool_with(8_192);
    set.mempool_mark_committed_backlog = batched_with(
        || backlog.clone(),
        |mut pool| {
            for block in 0..16 {
                pool.mark_committed(txs(block * 64, 64).map(|tx| tx.id));
            }
            black_box(pool);
            16
        },
    );
}

/// The message an echo peer takes as "stop".
fn stop_signal() -> WireMessage {
    WireMessage::Submit(Transaction::new(TxId::new(u64::MAX)))
}

/// Ping-pong between `near` (this thread) and `far` (an echo thread, joined
/// before returning).
fn roundtrip<T: Transport + 'static>(mut near: T, mut far: T) -> Probe {
    let patience = WallDuration::from_secs(2);
    let echo = std::thread::spawn(move || {
        while let Ok(Some((from, msg))) = far.recv_timeout(patience) {
            if msg == stop_signal() || far.send(from, &msg).is_err() {
                break;
            }
        }
        far.shutdown();
    });
    let ping = WireMessage::Consensus(ConsensusMessage::NewQc(QuorumCert::genesis()));
    let peer = ProcessId::new(1);
    let mut lost = false;
    let probe = batched(50, || {
        lost |= near.send(peer, &ping).is_err();
        lost |= !matches!(near.recv_timeout(patience), Ok(Some(_)));
    });
    let _ = near.send(peer, &stop_signal());
    echo.join().expect("echo thread exits cleanly");
    near.shutdown();
    if lost {
        Probe::default()
    } else {
        probe
    }
}

fn transport_probes(set: &mut ProbeSet) {
    let mut mesh = channel_mesh(2);
    let far = mesh.pop().expect("two endpoints");
    let near = mesh.pop().expect("two endpoints");
    set.channel_roundtrip = roundtrip(near, far);

    // Two free loopback ports: bind to port 0, read the port, release.
    let free_port = || {
        std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map(|a| a.port())
    };
    let (Ok(port0), Ok(port1)) = (free_port(), free_port()) else {
        set.warnings
            .push("no loopback port: tcp_roundtrip_us reported as 0".into());
        return;
    };
    let cfg = |id: usize, listen: u16, peer: u16| TcpMeshConfig {
        id: ProcessId::new(id),
        n: 2,
        listen: format!("127.0.0.1:{listen}"),
        peers: vec![(ProcessId::new(1 - id), format!("127.0.0.1:{peer}"))],
        connect_timeout: WallDuration::from_secs(3),
    };
    // Each end's `connect` blocks until the other has dialed it, so the far
    // end comes up on its own thread.
    let far_cfg = cfg(1, port1, port0);
    let far = std::thread::spawn(move || TcpTransport::connect(far_cfg));
    let near = TcpTransport::connect(cfg(0, port0, port1));
    let far = far.join().expect("connect does not panic");
    match (near, far) {
        (Ok(near), Ok(far)) => set.tcp_roundtrip = roundtrip(near, far),
        (near, far) => {
            set.warnings
                .push("loopback TCP mesh did not come up: tcp_roundtrip_us reported as 0".into());
            for end in [near, far].into_iter().flatten() {
                let mut end = end;
                end.shutdown();
            }
        }
    }
}

/// Runs every probe (about two seconds).
pub fn run_all(seed: u64) -> ProbeSet {
    let mut set = ProbeSet::default();
    crypto_probes(&mut set, seed);
    state_machine_probes(&mut set, seed);
    mempool_probes(&mut set);
    transport_probes(&mut set);
    set
}
