//! The simulation event loop.
//!
//! The hot path is allocation-light so sweeps scale to `n` in the thousands
//! (see `docs/PERFORMANCE.md`): broadcasts are queued **symbolically** (one
//! entry per honesty class sharing a single [`Arc`], lazily expanded at pop
//! time — [`EventQueue::push_broadcast`]) and delivered a run of recipients
//! at a time from the borrowed message, every handler writes into one output
//! buffer reused across the run, which applying its output leaves empty
//! (visiting only the classes the handler filled, so no event pays a
//! `clear`), and the event queue is a calendar queue instead of one global
//! binary heap.
//!
//! # Batches
//!
//! The loop delivers the queue in batches, one after another on one thread.
//! A batch at instant `at` is every entry due at `at` whose sequence number
//! is at or below the queue's last one when the batch began, up to the
//! event cap and `MAX_BATCH`: what a handler schedules at `at` goes to the
//! next batch. Each entry is delivered as it comes off the queue. The
//! run-stopping checks (`max_honest_qcs`, the event cap, the horizon) run
//! between batches, never inside one, so the point where a limit cuts a run
//! is a pure function of the event stream, the same under either
//! [`BroadcastMode`]; `sim_equivalence.rs` and the scale suite pin this.
//!
//! Client arrivals are not queued: an [`ArrivalStream`] generates them one
//! tick at a time beside the queue, and the next instant is the earlier of
//! the queue's head and the stream's tick. A batch at `at` takes the boots
//! first, then `at`'s arrivals, then the rest of the queue — the order one
//! queue holding all three gave, where the boots held seqs `1..=n` and every
//! arrival's seq came before anything scheduled during the run. A tick's
//! arrivals are consecutive ids of one size and reach each mempool as one
//! [`TxRun`](lumiere_types::TxRun) (`submit_arrivals`; two runs when the
//! ids cross `u64::MAX`), and each arrival still counts as one event toward
//! `events_processed`, the batch budget and the cap.
//!
//! The scheduled-wake sweep also runs between batches, once the dedup set
//! has doubled since the last sweep and holds more than `n` pairs, so the
//! set stays O(max(n, pending wakes)). Where it runs changes nothing: a
//! sweep at `now` removes only pairs below `now`, and every wake requested
//! during the batch is at or after `now`.

use crate::event::{ClassDelay, Event, EventQueue, Run, SimMessage, Taken};
use crate::metrics::{MetricsCollector, SimReport};
use crate::scenario::SimConfig;
use crate::trace::{Trace, TraceKind};
use crate::workload::ArrivalStream;
use lumiere_consensus::BlockHash;
use lumiere_runtime::adversary::AdversarySchedule;
use lumiere_runtime::delay::DelayModel;
use lumiere_runtime::driver::chains_agree;
use lumiere_runtime::{ProtocolRuntime, RuntimeOutput};
use lumiere_types::hash::IdSet;
use lumiere_types::{Duration, ProcessId, Time};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Baseline hard cap on processed events, as a defence against configuration
/// mistakes that would otherwise let a run grow without bound. The effective
/// cap grows proportionally with `n` (see [`event_cap`]) so that large-`n`
/// sweeps — whose honest workload is Θ(n²) per heavy sync — are not silently
/// truncated. Exceeding it marks the report as [`SimReport::truncated`].
const MAX_EVENTS: u64 = 200_000_000;

/// Extra event budget per processor beyond the [`MAX_EVENTS`] floor.
const EVENTS_PER_NODE: u64 = 3_000_000;

/// The effective event cap for a run with `n` processors:
/// `max(MAX_EVENTS, n · EVENTS_PER_NODE)`.
pub fn event_cap(n: usize) -> u64 {
    MAX_EVENTS.max(n as u64 * EVENTS_PER_NODE)
}

/// Upper bound on one batch's length. A same-timestamp burst larger than
/// this (n broadcasts landing on one tick) is split into consecutive
/// batches; the bound is a constant, so batch boundaries — and the
/// batch-granular stop checks — stay identical across broadcast modes.
const MAX_BATCH: u64 = 1 << 20;

/// How a run schedules broadcast deliveries. Every run outside the tests is
/// symbolic; `Eager` is the test reference `schedule_broadcast`'s per-class
/// delays are pinned against (`tests/sim_equivalence.rs`,
/// `bench/tests/scale.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BroadcastMode {
    /// One queue entry per recipient, each with its own delay draw: the
    /// test reference.
    Eager,
    /// One symbolic group entry per honesty class, lazily expanded at pop
    /// time (O(1) queue space per broadcast).
    Symbolic,
}

/// Execution knobs that never change what a run computes: same-seed reports
/// are byte-identical for every combination.
///
/// Deliberately **not** part of [`SimConfig`] (which is serialized into
/// sweep cells and fuzzer corpus entries); set per run via
/// [`SimConfig::run_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Broadcast representation: symbolic, except where a test asks for
    /// the eager reference.
    pub broadcast: BroadcastMode,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            broadcast: BroadcastMode::Symbolic,
        }
    }
}

impl ExecOptions {
    /// Does nothing: the sharded executor whose worker count this set is
    /// gone. `benchmark/src/workload.rs` still calls it, and the benchmark
    /// changes only on its own; the next change to it drops the call, and
    /// this goes with it.
    #[doc(hidden)]
    pub fn with_shards(self, _shards: usize) -> Self {
        self
    }

    /// Fixes the broadcast representation (test reference runs only).
    pub fn with_broadcast(mut self, broadcast: BroadcastMode) -> Self {
        self.broadcast = broadcast;
        self
    }
}

/// A single simulated execution.
#[derive(Debug)]
pub struct Simulation {
    cfg: SimConfig,
    broadcast: BroadcastMode,
    schedule: AdversarySchedule,
    nodes: Vec<ProtocolRuntime>,
    /// Per-processor honesty, shared with symbolic broadcast groups.
    honesty: Arc<Vec<bool>>,
    queue: EventQueue,
    /// Client arrivals not yet submitted, if the run carries a workload.
    arrivals: Option<ArrivalStream>,
    rng: StdRng,
    collector: MetricsCollector,
    /// The execution trace, recorded only for
    /// [`run_with_trace`](Self::run_with_trace).
    trace: Option<Trace>,
    scheduled_wakes: IdSet<(usize, i64)>,
    /// Per node, the time (µs) of the last wake request it made, whose pair
    /// is therefore in `scheduled_wakes`: nearly every event re-requests
    /// the same instant, and a repeat needs no set probe. Exact, because a
    /// sweep at `now` removes only pairs below `now`, and a request is
    /// raised to at least `now`, so a swept pair's time is never requested
    /// again.
    last_wake: Vec<i64>,
    /// Hashes of the blocks whose transactions went to the collector: every
    /// honest processor commits every block, and only the first commit of a
    /// block can be the first commit of a transaction it carries.
    tx_accounted_blocks: IdSet<BlockHash>,
    /// Reference accounting for the equivalence test: every honest commit
    /// forwards every id, which is what the per-block filter must equal.
    #[cfg(test)]
    account_txs_per_node: bool,
    /// When set, every block each processor committed, in commit order.
    #[cfg(test)]
    commit_log: Option<Vec<Vec<lumiere_consensus::Block>>>,
    /// When set, every handled event's instant and kind, in order: `'b'`
    /// boot, `'a'` arrival (logged once every mempool has it), `'d'`
    /// delivery, `'w'` wake (logged before the handler runs).
    #[cfg(test)]
    handled: Option<Vec<(Time, char)>>,
    last_gap_sample: Time,
    now: Time,
    truncated: bool,
    events_processed: u64,
    /// Pairs `scheduled_wakes` held after its last sweep.
    swept_wakes: usize,
    /// Scratch clock-reading buffer for gap sampling.
    readings: Vec<Duration>,
}

impl Simulation {
    /// Builds a simulation from a configuration (see [`SimConfig::run`] for
    /// the usual entry point).
    pub fn new(cfg: SimConfig) -> Self {
        Self::with_exec(cfg, ExecOptions::default())
    }

    /// Builds a simulation with explicit execution options (the determinism
    /// tests pin reports across these).
    pub fn with_exec(cfg: SimConfig, exec: ExecOptions) -> Self {
        let mut nodes = cfg.build_nodes();
        let params = cfg.params();
        let honesty = Arc::new(nodes.iter().map(|n| n.is_honest()).collect::<Vec<_>>());
        let collector = MetricsCollector::new(
            cfg.protocol.name().to_string(),
            cfg.n,
            params.f,
            honesty.iter().filter(|&&honest| !honest).count(),
            cfg.delta_cap,
            cfg.gst,
        )
        .with_time_grid(cfg.metrics_grid())
        .with_workload(cfg.workload);
        let mut queue = EventQueue::new();
        for node in &nodes {
            queue.push(Time::ZERO, Event::Boot { node: node.id() });
        }
        // Client traffic is open loop: the stream's schedule depends only on
        // the workload, the seed and the horizon, never on how the run
        // unfolds, and arrivals interleave with protocol events by instant.
        let arrivals = cfg.workload.map(|workload| {
            for node in &mut nodes {
                node.set_mempool_config(workload.mempool_config());
            }
            workload.stream(cfg.seed, cfg.horizon)
        });
        let seed = cfg.seed;
        let schedule = cfg.effective_adversary();
        let last_wake = vec![i64::MIN; cfg.n];
        Simulation {
            cfg,
            broadcast: exec.broadcast,
            schedule,
            nodes,
            honesty,
            queue,
            arrivals,
            rng: StdRng::seed_from_u64(seed ^ 0x5349_4d55_4c41_5445),
            collector,
            trace: None,
            scheduled_wakes: IdSet::default(),
            last_wake,
            tx_accounted_blocks: IdSet::default(),
            #[cfg(test)]
            account_txs_per_node: false,
            #[cfg(test)]
            commit_log: None,
            #[cfg(test)]
            handled: None,
            last_gap_sample: Time::ZERO,
            now: Time::ZERO,
            truncated: false,
            events_processed: 0,
            swept_wakes: 0,
            readings: Vec::new(),
        }
    }

    /// Runs to completion and returns the metrics report.
    pub fn run(mut self) -> SimReport {
        self.run_loop();
        self.finish_report()
    }

    /// Runs to completion, recording the execution trace, and returns both
    /// the report and the trace.
    pub fn run_with_trace(mut self) -> (SimReport, Trace) {
        self.trace = Some(Trace::new());
        self.run_loop();
        let trace = self.trace.take().unwrap_or_default();
        (self.finish_report(), trace)
    }

    fn finish_report(mut self) -> SimReport {
        let safety_ok = self.check_safety();
        let honest = self.nodes.iter().filter(|n| n.is_honest());
        let engines = honest.map(|n| n.engine());
        let equivocations = engines.clone().map(|e| e.equivocations_detected()).sum();
        let lock_advances = engines.map(|e| e.locks_advanced()).sum();
        self.collector.record_equivocations(equivocations);
        self.collector.record_lock_advances(lock_advances);
        let shed = self
            .nodes
            .iter()
            .filter(|n| n.is_honest())
            .map(|n| n.mempool().shed())
            .sum();
        self.collector.record_shed(shed);
        self.collector
            .record_events_processed(self.events_processed);
        // Slashing evidence is identical for every honest witness of the
        // same conflict, so the canonical report list is the sorted dedup
        // across processors.
        let mut slash: Vec<lumiere_types::SlashEvidence> = self
            .nodes
            .iter()
            .filter(|n| n.is_honest())
            .flat_map(|n| n.engine().slash_evidence().iter().copied())
            .collect();
        slash.sort_unstable();
        slash.dedup();
        self.collector.record_slash_evidence(slash);
        let mut report = self.collector.finish(self.now);
        report.safety_ok = safety_ok;
        report.truncated = self.truncated;
        report
    }

    /// SMR safety: the committed chains of every pair of honest processors
    /// must be prefixes of one another.
    fn check_safety(&self) -> bool {
        let chains: Vec<Vec<u64>> = self
            .nodes
            .iter()
            .filter(|n| n.is_honest())
            .map(|n| n.committed_chain())
            .collect();
        chains_agree(&chains).is_ok()
    }

    fn run_loop(&mut self) {
        let horizon = Time::ZERO + self.cfg.horizon;
        let cap = event_cap(self.cfg.n);
        // Lent to one handler at a time; its capacity lasts the whole run.
        let mut out = RuntimeOutput::default();
        loop {
            let arrival = self.arrivals.as_ref().and_then(ArrivalStream::peek_time);
            let Some(at) = self.queue.peek_time().into_iter().chain(arrival).min() else {
                break;
            };
            if at > horizon {
                self.now = horizon;
                break;
            }
            if self.events_processed >= cap {
                // Surfaced on the report so callers (and the fuzzer's
                // oracles) can tell a truncated run from a quiescent one.
                self.truncated = true;
                break;
            }
            self.now = at;
            self.maybe_sample_gap();

            // One batch (see the module docs): bounded by the event cap and
            // the constant batch cap, and by the seq limit, which leaves
            // what this batch schedules at `at` to the next one. The boots
            // hold seqs `1..=n`.
            let budget = (cap - self.events_processed).min(MAX_BATCH);
            let limit = self.queue.last_seq();
            let mut taken = self.take_queued(at, self.cfg.n as u64, budget, &mut out);
            taken += self.submit_arrivals(at, budget - taken);
            taken += self.take_queued(at, limit, budget - taken, &mut out);
            self.events_processed += taken;
            if self.scheduled_wakes.len() > self.cfg.n.max(2 * self.swept_wakes) {
                let now_micros = at.as_micros();
                self.scheduled_wakes.retain(|&(_, t)| t >= now_micros);
                self.swept_wakes = self.scheduled_wakes.len();
            }

            if let Some(limit) = self.cfg.max_honest_qcs {
                if self.collector.honest_qc_count() >= limit {
                    break;
                }
            }
        }
    }

    /// Handles the queued entries due at `at` with a seq at or below
    /// `limit`, at most `room` of them, and returns how many it handled.
    fn take_queued(&mut self, at: Time, limit: u64, room: u64, out: &mut RuntimeOutput) -> u64 {
        let mut taken = 0;
        while taken < room {
            match self.queue.take_due(at, limit) {
                None => break,
                Some(Taken::One(event)) => {
                    taken += 1;
                    self.dispatch_event(event, out);
                }
                Some(Taken::Run(run)) => {
                    taken += self.deliver_run(run, limit, room - taken, out);
                }
            }
        }
        taken
    }

    /// Offers the arrivals due at `at`, at most `room` of them, to every
    /// processor (clients broadcast submissions so any future leader can
    /// carry them; dedup-by-id keeps the copies from multiplying), and
    /// returns how many it offered. They go as one run per node, or two
    /// when the tick's ids cross `u64::MAX`: the mempools are independent,
    /// so node by node leaves each as arrival by arrival did.
    fn submit_arrivals(&mut self, at: Time, room: u64) -> u64 {
        let mut taken = 0;
        while taken < room {
            let Some(stream) = self.arrivals.as_mut().filter(|s| s.peek_time() == Some(at)) else {
                break;
            };
            let pending = stream.pending().expect("a tick carries arrivals");
            let run = pending.take((room - taken).min(pending.len as u64) as u32);
            stream.consume(run.len);
            self.collector.record_submissions(at, run);
            for node in &mut self.nodes {
                node.submit_run(run);
            }
            taken += run.len as u64;
            #[cfg(test)]
            for _ in 0..run.len {
                self.log_handled('a');
            }
        }
        taken
    }

    /// Delivers a broadcast group's copies while its next recipient stays
    /// the batch's next entry, at most `room` of them, and returns how many
    /// it delivered. The group goes back on the queue if members remain.
    fn deliver_run(&mut self, mut run: Run, limit: u64, room: u64, out: &mut RuntimeOutput) -> u64 {
        let mut delivered = 0;
        loop {
            self.deliver(run.from(), run.to(), run.message(), out);
            delivered += 1;
            if !run.step() {
                return delivered;
            }
            if delivered == room || !self.queue.take_member(&run, limit) {
                self.queue.put_back(run);
                return delivered;
            }
        }
    }

    /// Handles one queued event: its node's handler immediately followed by
    /// output application.
    fn dispatch_event(&mut self, event: Event, out: &mut RuntimeOutput) {
        let now = self.now;
        let node = match event {
            Event::Deliver { to, from, message } => {
                return self.deliver(from, to, &message, out);
            }
            Event::Boot { node } => {
                #[cfg(test)]
                self.log_handled('b');
                debug_assert!(out.is_empty(), "the last event's output was left behind");
                self.nodes[node.as_usize()].boot(now, out);
                node
            }
            Event::Wake { node } => {
                #[cfg(test)]
                self.log_handled('w');
                self.collector.record_wake();
                debug_assert!(out.is_empty(), "the last event's output was left behind");
                self.nodes[node.as_usize()].wake(now, out);
                node
            }
        };
        self.apply_output(node, out);
    }

    /// Delivers one copy of `message` to `to` and applies what it caused.
    fn deliver(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        message: &SimMessage,
        out: &mut RuntimeOutput,
    ) {
        #[cfg(test)]
        self.log_handled('d');
        debug_assert!(out.is_empty(), "the last event's output was left behind");
        self.nodes[to.as_usize()].deliver(from, message, self.now, out);
        self.apply_output(to, out);
    }

    /// Applies the output of `from`'s handler and leaves `out` empty, every
    /// class and `gated_events`, so the next handler starts on an empty
    /// buffer without a `clear`. Only the classes the handler filled are
    /// visited: most events emit a wake-up at most.
    fn apply_output(&mut self, from: ProcessId, out: &mut RuntimeOutput) {
        let honest = self.honesty[from.as_usize()];
        let now = self.now;

        // Adversary activation marks feed the coverage fingerprint's
        // per-strategy activation windows.
        if out.gated_events > 0 {
            if let Some(name) = self.nodes[from.as_usize()].strategy_name() {
                self.collector.record_strategy_activation(name, now);
            }
            out.gated_events = 0;
        }

        // Network sends.
        if !out.sends.is_empty() {
            for (to, msg) in out.sends.drain(..) {
                if honest {
                    self.collector
                        .record_honest_sends(now, 1, msg.is_heavy_sync());
                    self.record_auth(&msg, 1);
                }
                let msg = Arc::new(msg);
                self.schedule_delivery(from, to, msg);
            }
        }
        if !out.broadcasts.is_empty() {
            for msg in out.broadcasts.drain(..) {
                let recipients = self.cfg.n.saturating_sub(1);
                if honest {
                    self.collector
                        .record_honest_sends(now, recipients, msg.is_heavy_sync());
                    self.record_auth(&msg, recipients as u64);
                }
                // One allocation per broadcast: every recipient shares the Arc.
                let msg = Arc::new(msg);
                match self.broadcast {
                    BroadcastMode::Eager => {
                        for to in ProcessId::all(self.cfg.n) {
                            if to != from {
                                self.schedule_delivery(from, to, Arc::clone(&msg));
                            }
                        }
                    }
                    BroadcastMode::Symbolic => self.schedule_broadcast(from, msg),
                }
            }
        }

        // Wake-ups (deduplicated per node and time).
        if !out.wakes.is_empty() {
            for at in out.wakes.drain(..) {
                let at = at.max(now);
                let last = &mut self.last_wake[from.as_usize()];
                if *last == at.as_micros() {
                    continue;
                }
                *last = at.as_micros();
                if self
                    .scheduled_wakes
                    .insert((from.as_usize(), at.as_micros()))
                {
                    self.queue.push(at, Event::Wake { node: from });
                }
            }
        }

        // Metrics and trace.
        if !out.qcs_formed.is_empty() {
            for qc in out.qcs_formed.drain(..) {
                self.collector.record_qc(now, qc.view(), from, honest);
                if let Some(trace) = &mut self.trace {
                    trace.push(now, from, TraceKind::QcFormed(qc.view()));
                }
            }
        }
        if !out.commits.is_empty() {
            for height in out.commits.drain(..) {
                if honest {
                    self.collector.record_commit(now, height);
                }
                if let Some(trace) = &mut self.trace {
                    trace.push(now, from, TraceKind::Committed(height));
                }
            }
        }
        // Only the *first* honest commit of a transaction defines its
        // end-to-end latency, and that is the first honest commit of the
        // block carrying it. Blocks are told apart by hash, not height, so
        // the accounting is the same in a run where safety failed.
        if !out.committed_blocks.is_empty() {
            for block in out.committed_blocks.drain(..) {
                #[cfg(test)]
                if let Some(log) = &mut self.commit_log {
                    log[from.as_usize()].push(block.clone());
                }
                let first = honest && self.tx_accounted_blocks.insert(block.hash());
                #[cfg(test)]
                let first = first || (honest && self.account_txs_per_node);
                if first {
                    for id in block.payload().tx_ids() {
                        self.collector.record_tx_commit(now, id);
                    }
                }
            }
        }
        // The blocks' ids, read above from the blocks themselves.
        out.committed_txs.clear();
        if !out.heavy_syncs.is_empty() {
            for view in out.heavy_syncs.drain(..) {
                if honest {
                    self.collector.record_heavy_sync(now, view);
                }
                if let Some(trace) = &mut self.trace {
                    trace.push(now, from, TraceKind::HeavySync(view));
                }
            }
        }
        // Above the sampling threshold the per-view × per-node entry stream
        // (the only O(n·views) trace kind) is dropped so the trace stays
        // bounded; QCs/commits/heavy syncs are still traced.
        if !out.entered_views.is_empty() {
            match &mut self.trace {
                Some(trace) if !self.cfg.sampled_metrics() => {
                    for view in out.entered_views.drain(..) {
                        trace.push(now, from, TraceKind::EnteredView(view));
                    }
                }
                _ => out.entered_views.clear(),
            }
        }
    }

    /// Records the authenticator cost of one honest outbound message in
    /// `copies` copies: bytes and verification counts under the aggregated
    /// certificate representation and under naive per-signer signature
    /// vectors (both computed analytically from the same message, so one
    /// run yields both curves).
    fn record_auth(&mut self, msg: &SimMessage, copies: u64) {
        let auth = msg.authenticator();
        self.collector.record_auth_message(
            copies,
            auth.bytes() as u64,
            auth.naive_bytes() as u64,
            auth.verify_ops(),
            auth.naive_verify_ops(),
        );
    }

    /// Schedules a delivery, letting the adversary schedule's per-edge delay
    /// rules override the base [`DelayModel`] for this particular message.
    /// Every model keeps the delivery within the `max(GST, send) + Δ`
    /// envelope.
    fn schedule_delivery(&mut self, from: ProcessId, to: ProcessId, message: Arc<SimMessage>) {
        let from_honest = self.honesty[from.as_usize()];
        let to_honest = self.honesty[to.as_usize()];
        let model = self
            .schedule
            .delay_for(from_honest, to_honest, &message, self.now)
            .unwrap_or(self.cfg.delay);
        let at = model.delivery_time(self.now, self.cfg.gst, self.cfg.delta_cap, &mut self.rng);
        self.queue.push(at, Event::Deliver { to, from, message });
    }

    /// Schedules a broadcast symbolically. Delay rules key on honesty
    /// class, message class and send window — never on an individual
    /// recipient — so the broadcast resolves to at most two delay models
    /// (honest and corrupted recipients). RNG-free models yield a constant
    /// per-class delivery instant and stay symbolic; jittery models draw
    /// per-recipient inside `push_broadcast`, in ascending id order —
    /// exactly the RNG stream eager delivery consumes.
    fn schedule_broadcast(&mut self, from: ProcessId, message: Arc<SimMessage>) {
        let from_honest = self.honesty[from.as_usize()];
        let now = self.now;
        let gst = self.cfg.gst;
        let delta_cap = self.cfg.delta_cap;
        let base = self.cfg.delay;
        let model_honest = self
            .schedule
            .delay_for(from_honest, true, &message, now)
            .unwrap_or(base);
        let model_corrupt = self
            .schedule
            .delay_for(from_honest, false, &message, now)
            .unwrap_or(base);
        let class_of = |model: DelayModel, rng: &mut StdRng| match model {
            DelayModel::Uniform { .. } => ClassDelay::Jittered,
            // Fixed / AdversarialMax never touch the RNG.
            m => ClassDelay::At(m.delivery_time(now, gst, delta_cap, rng)),
        };
        let honest_delay = class_of(model_honest, &mut self.rng);
        let corrupt_delay = class_of(model_corrupt, &mut self.rng);
        let queue = &mut self.queue;
        let rng = &mut self.rng;
        let honesty = &self.honesty;
        let jitter = |to: ProcessId| {
            let model = if honesty[to.as_usize()] {
                model_honest
            } else {
                model_corrupt
            };
            model.delivery_time(now, gst, delta_cap, rng)
        };
        queue.push_broadcast(from, message, honesty, honest_delay, corrupt_delay, jitter);
    }

    #[cfg(test)]
    fn log_handled(&mut self, kind: char) {
        if let Some(log) = &mut self.handled {
            log.push((self.now, kind));
        }
    }

    /// Samples the `(f+1)`-st honest clock gap roughly twice per Δ.
    fn maybe_sample_gap(&mut self) {
        let interval = self.cfg.delta_cap / 2;
        if interval <= Duration::ZERO || self.now < self.last_gap_sample + interval {
            return;
        }
        self.last_gap_sample = self.now;
        let f = self.cfg.params().f;
        self.readings.clear();
        self.readings.extend(
            self.nodes
                .iter()
                .filter(|n| n.is_honest())
                .map(|n| n.local_clock_reading(self.now)),
        );
        if self.readings.len() <= f {
            return;
        }
        self.readings.sort_unstable_by(|a, b| b.cmp(a));
        let gap = self.readings[0] - self.readings[f];
        self.collector.record_gap_sample(self.now, gap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ProtocolKind;
    use crate::workload::WorkloadConfig;
    use lumiere_types::hash::IdMap;

    #[test]
    fn chains_agree_iff_each_is_a_prefix_of_the_others() {
        let agree = |chains: &[&[u64]]| chains_agree(chains).is_ok();
        // Pure prefixes, in any order, including the empty chain.
        assert!(agree(&[]));
        assert!(agree(&[&[1, 2, 3]]));
        assert!(agree(&[&[1, 2], &[], &[1, 2, 3, 4], &[1], &[1, 2, 3, 4]]));
        // Two equal-length chains that diverge, with or without a common
        // prefix, and beside chains they both extend.
        assert!(!agree(&[&[1, 2, 3], &[1, 2, 4]]));
        assert!(!agree(&[&[1], &[1, 2, 3], &[1, 2, 4]]));
        assert!(!agree(&[&[7], &[8]]));
        // A short chain that diverges from a long one.
        assert!(!agree(&[&[1, 2, 3, 4, 5], &[1, 9]]));
        assert!(!agree(&[&[2], &[1, 2, 3, 4, 5], &[1, 2]]));
    }

    fn loaded(n: usize, rate_tps: u64) -> SimConfig {
        SimConfig::new(ProtocolKind::Lumiere, n)
            .with_delta(Duration::from_millis(10))
            .with_horizon(Duration::from_millis(400))
            .with_workload(WorkloadConfig::constant(rate_tps).with_batch_txs(64))
            .with_seed(20)
    }

    /// Runs `cfg` with per-block commit accounting (what ships) and with the
    /// per-node-per-id accounting it replaced, and returns the trace after
    /// checking that the two reports are the same bytes.
    fn assert_accounting_matches_the_per_node_reference(cfg: SimConfig) -> Trace {
        let exec = ExecOptions::default();
        let (report, trace) = Simulation::with_exec(cfg.clone(), exec).run_with_trace();
        let mut reference = Simulation::with_exec(cfg, exec);
        reference.account_txs_per_node = true;
        let (expected, _) = reference.run_with_trace();
        assert!(report.txs_committed > 0, "the run must commit under load");
        assert_eq!(
            serde::json::to_string(&report),
            serde::json::to_string(&expected)
        );
        trace
    }

    #[test]
    fn per_block_tx_accounting_reports_what_per_node_accounting_did() {
        // Fixed delay: a certificate reaches every replica at one instant,
        // so all of them commit the same block in one timestamp batch.
        let cfg = loaded(4, 12_000).with_actual_delay(Duration::from_millis(1));
        let trace = assert_accounting_matches_the_per_node_reference(cfg);
        let mut committers: IdMap<(Time, u64), usize> = IdMap::default();
        for event in trace.events() {
            if let TraceKind::Committed(height) = event.kind {
                *committers.entry((event.time, height)).or_default() += 1;
            }
        }
        assert!(
            committers.values().any(|&nodes| nodes >= 2),
            "no block was committed by two nodes in one batch"
        );

        // A node that is dark for a while and then rejoins, under light
        // load: the views it misses carry no block, so the next certificate
        // commits two blocks in one step (with different transactions — the
        // second leader had new arrivals); once back it leads views again,
        // commits its own blocks before any honest node does, and — being
        // corrupted — must not count.
        let cfg = loaded(7, 1_500)
            .with_uniform_delay(Duration::from_millis(1), Duration::from_millis(3))
            .with_adversary(AdversarySchedule::crash_recovery(
                &[2],
                Time::from_millis(20),
                Duration::from_millis(80),
                Duration::ZERO,
            ));
        let trace = assert_accounting_matches_the_per_node_reference(cfg);
        let mut seen = IdSet::default();
        let mut first_commits: IdMap<(Time, ProcessId), usize> = IdMap::default();
        for event in trace.events() {
            if let TraceKind::Committed(height) = event.kind {
                if seen.insert(height) {
                    *first_commits.entry((event.time, event.node)).or_default() += 1;
                }
            }
        }
        assert!(
            first_commits.values().any(|&blocks| blocks >= 2),
            "no step was the first to commit two blocks"
        );
        assert!(
            first_commits
                .keys()
                .any(|&(_, node)| node == ProcessId::new(2)),
            "the corrupted node never committed first"
        );

        // An equivocating leader: conflicting blocks for one view.
        let cfg = loaded(7, 9_000)
            .with_uniform_delay(Duration::from_millis(1), Duration::from_millis(6))
            .with_adversary(AdversarySchedule::equivocation(&[0]));
        assert_accounting_matches_the_per_node_reference(cfg);

        // Overload: a standing backlog, so every block is full.
        let cfg = loaded(4, 48_000).with_actual_delay(Duration::from_millis(1));
        assert_accounting_matches_the_per_node_reference(cfg);
    }

    /// `max_honest_qcs` cuts a run after the batch that formed the last QC,
    /// never inside it and never past it: `events_processed` and a digest
    /// of the report's JSON text, pinned from the batch-collecting loop this
    /// one replaced. Both runs are Lumiere at n = 7 with processors 2 and 5
    /// corrupted, so every broadcast's two honesty classes interleave.
    ///
    /// * Every delivery at Δ, cut at the 15th QC (780 ms). That instant
    ///   holds a wake, the leader's votes — the QC forms on the fourth of
    ///   six — and then the leader's view certificate to both classes, whose
    ///   honest group is put back partly delivered each time a corrupted
    ///   recipient's copy comes first.
    /// * Edges touching 2 or 5 at zero delay, cut at the 3rd QC (227 ms):
    ///   the leader broadcasts the new certificate and its proposal, whose
    ///   copies to 2 and 5 are due at 227 ms itself, past the batch's seq
    ///   limit, so they stay queued.
    ///
    /// Stopping right after the QC fails the first case; a batch that runs
    /// past its seq limit fails the second.
    #[test]
    fn max_honest_qcs_cuts_the_run_where_it_always_did() {
        use lumiere_crypto::digest::Digest;
        use lumiere_runtime::adversary::StrategyKind;
        let base = SimConfig::new(ProtocolKind::Lumiere, 7)
            .with_delta(Duration::from_millis(10))
            .with_horizon(Duration::from_millis(900))
            .with_seed(3);
        let at_delta = base
            .clone()
            .with_adversarial_delay()
            .with_faulty_ids(vec![2, 5], StrategyKind::SilentLeader)
            .with_max_honest_qcs(15);
        let zero_delay = base
            .with_actual_delay(Duration::from_millis(1))
            .with_adversary(AdversarySchedule::targeted_partition(
                &[2, 5],
                Duration::ZERO,
            ))
            .with_max_honest_qcs(3);
        let cases = [
            (at_delta, 780, false, 518, 0x8517_5878_5590_290e),
            (zero_delay, 227, true, 131, 0x7309_bf6c_3dba_a7ea),
        ];
        for (cfg, cut_ms, left_at_cut, events, digest) in cases {
            let mut sim = Simulation::with_exec(cfg, ExecOptions::default());
            sim.run_loop();
            let now = sim.now;
            assert_eq!(now, Time::from_millis(cut_ms));
            assert_eq!(sim.queue.peek_time() == Some(now), left_at_cut);
            let report = sim.finish_report();
            let text = serde::json::to_string(&report);
            assert_eq!(report.events_processed, events);
            assert_eq!(
                Digest::new(b"report")
                    .push_bytes(text.as_bytes())
                    .finish()
                    .as_u64(),
                digest,
                "report at the {cut_ms} ms cut: {text}"
            );
        }
    }

    /// A leader's batch skips what the uncommitted chain it extends already
    /// carries, so no honest committed chain carries a transaction twice —
    /// checked on the benchmark's two loaded units, `sim_load` (n = 16,
    /// jittered delays, drained pools) and `sim_backlog` (n = 4, a standing
    /// backlog). The blocks are read from each node's `Committed` outputs:
    /// the store keeps only the hashes of the blocks below its tip.
    #[test]
    fn no_honest_committed_chain_carries_a_transaction_twice() {
        let base = |n: usize| {
            SimConfig::new(ProtocolKind::Lumiere, n)
                .with_delta(Duration::from_millis(10))
                .with_horizon(Duration::from_millis(250))
                .with_seed(42)
        };
        let sim_load = base(16)
            .with_uniform_delay(Duration::from_micros(990), Duration::from_micros(1_010))
            .with_workload(WorkloadConfig::constant(12_000).with_batch_txs(64));
        let sim_backlog = base(4)
            .with_actual_delay(Duration::from_millis(1))
            .with_workload(WorkloadConfig::constant(48_000).with_batch_txs(64));
        for (cfg, least) in [(sim_load, 2_000), (sim_backlog, 6_000)] {
            let n = cfg.n;
            let mut sim = Simulation::with_exec(cfg, ExecOptions::default());
            sim.commit_log = Some(vec![Vec::new(); n]);
            sim.run_loop();
            let log = sim.commit_log.take().expect("set above");
            for node in sim.nodes.iter().filter(|node| node.is_honest()) {
                let blocks = &log[node.id().as_usize()];
                let hashes: Vec<BlockHash> = blocks.iter().map(|b| b.hash()).collect();
                let chain = node.engine().store().committed_chain();
                assert_eq!(hashes, chain[1..], "node {} logged its chain", node.id());
                let mut carried = IdSet::default();
                for block in blocks {
                    for id in block.payload().tx_ids() {
                        assert!(
                            carried.insert(id),
                            "node {} committed {id} twice",
                            node.id()
                        );
                    }
                }
                assert!(
                    carried.len() >= least,
                    "node {} committed only {} transactions",
                    node.id(),
                    carried.len()
                );
            }
        }
    }

    /// A loaded simulation queues nothing but its boots before the first
    /// event, however long the run: the `sim_backlog` unit (n = 4, 48 000
    /// transactions a second) at 250 ms and at 4 s.
    #[test]
    fn a_built_loaded_simulation_queues_only_its_boots() {
        for horizon in [Duration::from_millis(250), Duration::from_secs(4)] {
            let cfg = loaded(4, 48_000).with_horizon(horizon);
            let mut sim = Simulation::with_exec(cfg, ExecOptions::default());
            assert_eq!(sim.queue.physical_len(), 4, "{horizon:?}");
            assert_eq!(sim.queue.peek_time(), Some(Time::ZERO));
            let stream = sim.arrivals.as_ref().expect("a loaded run has a stream");
            assert_eq!(stream.peek_time(), Some(Time::ZERO));
            assert_eq!(stream.pending().map(|run| run.len), Some(48));
        }
    }

    /// At an instant that holds boots, arrivals and other events, the boots
    /// run first, then every arrival reaches every mempool, then the
    /// deliveries and wakes run: the order of one queue holding all three.
    /// Two transactions arrive every millisecond, so the wakes at Δ = 10 ms
    /// and the messages they send, delivered 1 ms later, land on arrivals.
    #[test]
    fn arrivals_reach_the_mempools_between_the_boots_and_the_other_events() {
        let cfg = loaded(4, 2_000).with_actual_delay(Duration::from_millis(1));
        let mut sim = Simulation::with_exec(cfg, ExecOptions::default());
        sim.handled = Some(Vec::new());
        sim.run_loop();
        let log = sim.handled.take().expect("set above");
        let at = |t: Time| -> String {
            log.iter()
                .filter(|&&(when, _)| when == t)
                .map(|&(_, kind)| kind)
                .collect()
        };
        assert_eq!(at(Time::ZERO), "bbbbaa");
        assert_eq!(at(Time::from_millis(10)), "aawwww");
        assert!(at(Time::from_millis(11)).starts_with("aad"));
        let rank = |kind: char| match kind {
            'b' => 0,
            'a' => 1,
            _ => 2,
        };
        let mut shared = 0;
        for pair in log.windows(2) {
            let ((t0, k0), (t1, k1)) = (pair[0], pair[1]);
            assert!(
                t0 < t1 || rank(k0) <= rank(k1),
                "{k0} before {k1} at {t1:?}"
            );
            shared += usize::from(t0 == t1 && k0 == 'a' && k1 != 'a');
        }
        assert!(
            shared > 100,
            "{shared} instants held an arrival and another event"
        );
    }

    /// A tick whose ids cross `u64::MAX` reaches every mempool whole, in the
    /// batch at its instant: this seed puts the id base at `u64::MAX − 20`,
    /// so at 48 000 tps the first tick is 21 ids up to the top and 27 from
    /// zero, two runs. The `'a'` log is the per-id schedule's, one entry
    /// per arrival at its instant, and every mempool ends as one fed the
    /// arrivals one `submit` at a time.
    #[test]
    fn a_tick_whose_ids_wrap_reaches_every_mempool_in_its_batch() {
        const SEED: u64 = 2_936_116_602_622_675_967;
        let horizon = Duration::from_millis(3);
        let cfg = loaded(4, 48_000).with_seed(SEED).with_horizon(horizon);
        let workload = cfg.workload.expect("loaded");
        let mut sim = Simulation::with_exec(cfg, ExecOptions::default());
        sim.handled = Some(Vec::new());
        sim.run_loop();
        let log = sim.handled.take().expect("set above");
        let at_zero: String = log
            .iter()
            .filter(|&&(when, _)| when == Time::ZERO)
            .map(|&(_, kind)| kind)
            .collect();
        assert_eq!(at_zero, format!("bbbb{}", "a".repeat(48)));
        let arrivals = workload.arrivals(SEED, horizon);
        assert_eq!(arrivals[20].1.id.as_u64(), u64::MAX);
        assert_eq!(arrivals[21].1.id.as_u64(), 0);
        let logged: Vec<Time> = log
            .iter()
            .filter(|&&(_, kind)| kind == 'a')
            .map(|&(when, _)| when)
            .collect();
        assert!(logged.iter().eq(arrivals.iter().map(|(when, _)| when)));
        let mut reference = lumiere_core::Mempool::new(workload.mempool_config());
        for &(_, tx) in &arrivals {
            assert!(reference.submit(tx));
        }
        for node in &sim.nodes {
            let pool = node.mempool();
            assert_eq!(pool.len(), reference.len(), "node {}", node.id());
            assert_eq!(pool.next_batch_excluding(&[]), reference.next_batch());
        }
    }

    /// An output with every class filled, `gated_events` included.
    fn full_output() -> RuntimeOutput {
        use lumiere_consensus::{Block, QuorumCert};
        use lumiere_runtime::WireMessage;
        use lumiere_types::{Transaction, TxId, View};
        let tx = Transaction::new(TxId::new(7));
        RuntimeOutput {
            sends: vec![(ProcessId::new(1), WireMessage::Submit(tx))],
            broadcasts: vec![WireMessage::Submit(tx)],
            wakes: vec![Time::from_millis(5)],
            qcs_formed: vec![QuorumCert::genesis()],
            commits: vec![1],
            committed_txs: vec![tx.id],
            committed_blocks: vec![Block::genesis()],
            entered_views: vec![View::new(1)],
            heavy_syncs: vec![View::new(1)],
            gated_events: 2,
        }
    }

    /// `apply_output` leaves every class of the buffer empty, which is what
    /// lets the next handler start on it with no `clear`: for an honest and
    /// a corrupted sender, with a trace and without, below the sampling
    /// threshold (entered views are traced) and at it (they are cleared
    /// untraced).
    #[test]
    fn applying_an_output_leaves_every_class_empty() {
        use lumiere_runtime::adversary::StrategyKind;
        for n in [7, SimConfig::SAMPLED_FROM_N] {
            for traced in [false, true] {
                let cfg = SimConfig::new(ProtocolKind::Lumiere, n)
                    .with_faulty_ids(vec![2], StrategyKind::SilentLeader);
                let mut sim = Simulation::new(cfg);
                if traced {
                    sim.trace = Some(Trace::new());
                }
                for (from, honest) in [(0, true), (2, false)] {
                    assert_eq!(sim.honesty[from], honest);
                    let mut out = full_output();
                    assert!(!out.is_empty());
                    sim.apply_output(ProcessId::new(from), &mut out);
                    assert!(
                        out.is_empty(),
                        "n = {n}, traced: {traced}, from {from}: {out:?}"
                    );
                }
                let entered = sim.trace.as_ref().map(|trace| {
                    let events = trace.events().iter();
                    events
                        .filter(|e| matches!(e.kind, TraceKind::EnteredView(_)))
                        .count()
                });
                let expected = traced.then_some(if n < SimConfig::SAMPLED_FROM_N { 2 } else { 0 });
                assert_eq!(entered, expected, "n = {n}");
            }
        }
    }

    /// Every strategy kind runs through the runner in a debug build, so
    /// each one's `rewrite` path meets the handler-entry check that the
    /// previous output left the buffer empty: Lumiere at n = 7 with two
    /// corrupted processors, 300 ms of virtual time.
    #[test]
    fn every_strategy_kind_runs_through_the_runner() {
        use lumiere_runtime::adversary::StrategyKind;
        use lumiere_types::TimeRange;
        let down = TimeRange::new(Time::from_millis(40), Time::from_millis(120));
        let kinds = [
            StrategyKind::Crash,
            StrategyKind::SilentLeader,
            StrategyKind::SyncSilent,
            StrategyKind::Equivocate,
            StrategyKind::CrashRecovery { down },
            StrategyKind::AdaptiveLeaderTargeting,
            StrategyKind::QcStarvation,
        ];
        for kind in kinds {
            let report = SimConfig::new(ProtocolKind::Lumiere, 7)
                .with_delta(Duration::from_millis(10))
                .with_horizon(Duration::from_millis(300))
                .with_seed(5)
                .with_faulty_ids(vec![1, 4], kind)
                .run();
            assert!(report.safety_ok, "{}", kind.name());
            assert!(report.events_processed > 0, "{}", kind.name());
        }
    }

    /// The wake-dedup set is swept as it grows: after the benchmark's
    /// `sim_viewchange` unit (n = 64 Lumiere, the first f leader slots
    /// silent, every delivery at Δ, GST at 200 ms, 60 honest QCs) it holds
    /// at most two pairs per node or per pending wake, whichever is more.
    #[test]
    fn the_wake_set_stays_within_twice_its_pending_wakes() {
        use lumiere_core::schedule::LeaderSchedule;
        use lumiere_runtime::adversary::StrategyKind;
        use lumiere_types::View;
        let (n, seed) = (64, 42);
        let schedule = LeaderSchedule::lumiere(n, seed);
        let mut silent = std::collections::BTreeSet::new();
        for v in 0.. {
            if silent.len() == (n - 1) / 3 {
                break;
            }
            silent.insert(schedule.leader(View::new(v)).as_usize());
        }
        let cfg = SimConfig::new(ProtocolKind::Lumiere, n)
            .with_delta(Duration::from_millis(10))
            .with_seed(seed)
            .with_adversarial_delay()
            .with_gst(Time::from_millis(200))
            .with_faulty_ids(silent.into_iter().collect(), StrategyKind::SilentLeader)
            .with_max_honest_qcs(60);
        let mut sim = Simulation::with_exec(cfg, ExecOptions::default());
        sim.run_loop();
        let now = sim.now.as_micros();
        let pending = sim
            .scheduled_wakes
            .iter()
            .filter(|&&(_, t)| t >= now)
            .count();
        let held = sim.scheduled_wakes.len();
        assert!(sim.swept_wakes > 0, "the set was never swept");
        assert!(
            held <= 2 * n.max(pending),
            "{held} pairs held, {pending} pending, n = {n}"
        );
    }
}
