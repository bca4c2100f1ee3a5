//! The simulation event loop.
//!
//! The hot path is allocation-light so sweeps scale to `n` in the thousands
//! (see `docs/PERFORMANCE.md`): broadcasts are queued **symbolically** (one
//! entry per honesty class sharing a single [`Arc`], lazily expanded at pop
//! time — [`EventQueue::push_broadcast`]), node outputs are drained into
//! scratch buffers that are reused across events, and the event queue is a
//! calendar queue instead of one global binary heap.
//!
//! # Sharded execution
//!
//! A single run can use multiple cores ([`ExecOptions::shards`]): the loop
//! pops all events sharing the next timestamp into a batch, hands each
//! event's *node handler* to a worker owning a contiguous shard of the node
//! array (`std::thread::scope`), then applies every handler's output
//! **sequentially, in pop order**. This is exact, not approximate:
//!
//! * node handlers touch only their own node's state plus a private output
//!   buffer, and two same-timestamp events targeting the same node land in
//!   the same shard, where they run in pop order;
//! * everything order-sensitive — RNG draws, queue sequence numbers, metric
//!   records, trace entries — happens in the sequential apply phase, in
//!   exactly the order the one-threaded loop would produce;
//! * batch boundaries are pure functions of the event stream (timestamps
//!   plus fixed constants), so run-stopping checks performed at batch
//!   granularity cut the run at the same point for every shard count.
//!
//! Same-seed reports are therefore byte-identical across shard counts and
//! between eager and symbolic broadcast modes; `sim_equivalence.rs` and the
//! scale suite's determinism tests pin this.

use crate::event::{ClassDelay, Event, EventQueue, SimMessage};
use crate::metrics::{MetricsCollector, SimReport};
use crate::scenario::SimConfig;
use crate::trace::{Trace, TraceKind};
use lumiere_consensus::BlockHash;
use lumiere_runtime::adversary::AdversarySchedule;
use lumiere_runtime::delay::DelayModel;
use lumiere_runtime::{ConsensusRuntime, RuntimeOutput, StrategyHost};
use lumiere_types::{Duration, ProcessId, Time};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
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

/// How often (in processed events) the scheduled-wake dedup set is swept for
/// entries whose time has passed. Keeps the set O(pending wakes) instead of
/// O(all wakes ever) on long large-`n` runs.
const WAKE_SWEEP_INTERVAL: u64 = 1 << 16;

/// Upper bound on one batch's length. A same-timestamp burst larger than
/// this (n broadcasts landing on one tick) is split into consecutive
/// sub-batches, bounding the scratch buffers; the bound is a constant, so
/// batch boundaries — and the batch-granular stop checks — stay identical
/// across shard counts and broadcast modes.
const MAX_BATCH: usize = 1 << 20;

/// Below this batch size the loop stays on one thread even when sharding is
/// enabled: spawning scoped workers costs more than a handful of handler
/// calls. Processing is identical either way; only wall-clock changes.
const MIN_PARALLEL_BATCH: usize = 64;

/// Auto sharding switches on at this node count; smaller runs are dominated
/// by per-batch overhead and stay sequential.
const AUTO_SHARD_MIN_N: usize = 512;

/// Cap on the auto-selected shard count (steady-state batches target few
/// distinct nodes, so returns diminish quickly past this).
const AUTO_SHARD_MAX: usize = 8;

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

/// Execution knobs that change how fast a run executes but never what it
/// computes: same-seed reports are byte-identical for every combination.
///
/// Deliberately **not** part of [`SimConfig`] (which is serialized into
/// sweep cells and fuzzer corpus entries); set them per-process via
/// [`ExecOptions::from_env`] or per-run via [`SimConfig::run_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Worker count for same-timestamp batches. `0` (the default) picks
    /// automatically: sequential below [`AUTO_SHARD_MIN_N`] nodes, up to
    /// [`AUTO_SHARD_MAX`] cores beyond it.
    pub shards: usize,
    /// Broadcast representation: symbolic, except where a test asks for
    /// the eager reference.
    pub broadcast: BroadcastMode,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            shards: 0,
            broadcast: BroadcastMode::Symbolic,
        }
    }
}

impl ExecOptions {
    /// Reads the one override the environment carries: `LUMIERE_SIM_SHARDS`
    /// (a worker count, `0` = auto). CI's cross-shard determinism smoke
    /// drives runs through it.
    pub fn from_env() -> Self {
        let shards = std::env::var("LUMIERE_SIM_SHARDS")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0);
        ExecOptions::default().with_shards(shards)
    }

    /// Fixes the worker count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Fixes the broadcast representation (test reference runs only).
    pub fn with_broadcast(mut self, broadcast: BroadcastMode) -> Self {
        self.broadcast = broadcast;
        self
    }

    /// The effective worker count for a run over `n` nodes.
    fn resolved_shards(&self, n: usize) -> usize {
        let shards = if self.shards == 0 {
            if n >= AUTO_SHARD_MIN_N {
                std::thread::available_parallelism()
                    .map(|c| c.get())
                    .unwrap_or(1)
                    .min(AUTO_SHARD_MAX)
            } else {
                1
            }
        } else {
            self.shards
        };
        shards.clamp(1, n.max(1))
    }
}

/// The node a batched event is handled by (`None` for cluster-wide events,
/// which force the batch onto the sequential path).
fn event_target(event: &Event) -> Option<usize> {
    match event {
        Event::Deliver { to, .. } => Some(to.as_usize()),
        Event::Wake { node } | Event::Boot { node } => Some(node.as_usize()),
        Event::Arrival { .. } | Event::Sample => None,
    }
}

/// A single simulated execution.
#[derive(Debug)]
pub struct Simulation {
    cfg: SimConfig,
    exec: ExecOptions,
    /// Resolved worker count (≥ 1).
    shards: usize,
    schedule: AdversarySchedule,
    nodes: Vec<StrategyHost>,
    /// Per-processor honesty, shared with symbolic broadcast groups.
    honesty: Arc<Vec<bool>>,
    queue: EventQueue,
    rng: StdRng,
    collector: MetricsCollector,
    trace: Trace,
    scheduled_wakes: HashSet<(usize, i64)>,
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
    tx_accounted_blocks: HashSet<BlockHash>,
    /// Reference accounting for the equivalence test: every honest commit
    /// forwards every id, which is what the per-block filter must equal.
    #[cfg(test)]
    account_txs_per_node: bool,
    last_gap_sample: Time,
    now: Time,
    truncated: bool,
    events_processed: u64,
    events_since_sweep: u64,
    /// Scratch output buffer, reused across events (capacity persists).
    scratch: RuntimeOutput,
    /// Scratch clock-reading buffer for gap sampling.
    readings: Vec<Duration>,
    /// Same-timestamp batch buffer, reused across batches.
    batch: Vec<Event>,
    /// Per-batched-event output pool for the parallel path.
    batch_outputs: Vec<RuntimeOutput>,
}

impl Simulation {
    /// Builds a simulation from a configuration (see [`SimConfig::run`] for
    /// the usual entry point), honouring the process-wide execution
    /// overrides ([`ExecOptions::from_env`]).
    pub fn new(cfg: SimConfig) -> Self {
        Self::with_exec(cfg, ExecOptions::from_env())
    }

    /// Builds a simulation with explicit execution options (the determinism
    /// tests pin reports across these).
    pub fn with_exec(cfg: SimConfig, exec: ExecOptions) -> Self {
        let mut nodes = cfg.build_nodes();
        let params = cfg.params();
        let collector = MetricsCollector::new(
            cfg.protocol.name().to_string(),
            cfg.n,
            params.f,
            cfg.f_a,
            cfg.delta_cap,
            cfg.gst,
        )
        .with_time_grid(cfg.metrics_grid())
        .with_workload(cfg.workload);
        let mut queue = EventQueue::new();
        for node in &nodes {
            queue.push(Time::ZERO, Event::Boot { node: node.id() });
        }
        // Client traffic is precomputed (deterministically) before the run:
        // arrivals interleave with protocol events purely by timestamp, so
        // the schedule is independent of how the run unfolds — the open-loop
        // model.
        if let Some(workload) = &cfg.workload {
            for node in &mut nodes {
                node.set_mempool_config(workload.mempool_config());
            }
            for (at, tx) in workload.arrivals(cfg.seed, cfg.horizon) {
                queue.push(at, Event::Arrival { tx });
            }
        }
        let seed = cfg.seed;
        let schedule = cfg.effective_adversary();
        let honesty = Arc::new(nodes.iter().map(|n| n.is_honest()).collect::<Vec<_>>());
        let shards = exec.resolved_shards(cfg.n);
        let last_wake = vec![i64::MIN; cfg.n];
        Simulation {
            cfg,
            exec,
            shards,
            schedule,
            nodes,
            honesty,
            queue,
            rng: StdRng::seed_from_u64(seed ^ 0x5349_4d55_4c41_5445),
            collector,
            trace: Trace::new(),
            scheduled_wakes: HashSet::new(),
            last_wake,
            tx_accounted_blocks: HashSet::new(),
            #[cfg(test)]
            account_txs_per_node: false,
            last_gap_sample: Time::ZERO,
            now: Time::ZERO,
            truncated: false,
            events_processed: 0,
            events_since_sweep: 0,
            scratch: RuntimeOutput::default(),
            readings: Vec::new(),
            batch: Vec::new(),
            batch_outputs: Vec::new(),
        }
    }

    /// Runs to completion and returns the metrics report.
    pub fn run(mut self) -> SimReport {
        self.run_loop();
        self.finish_report().0
    }

    /// Runs to completion and returns both the report and the execution
    /// trace.
    pub fn run_with_trace(mut self) -> (SimReport, Trace) {
        self.run_loop();
        self.finish_report()
    }

    fn finish_report(mut self) -> (SimReport, Trace) {
        let safety_ok = self.check_safety();
        let honest = self.nodes.iter().filter(|n| n.is_honest());
        let equivocations = honest.clone().map(|n| n.equivocations_detected()).sum();
        let lock_advances = honest.map(|n| n.locks_advanced()).sum();
        self.collector.record_equivocations(equivocations);
        self.collector.record_lock_advances(lock_advances);
        let shed = self
            .nodes
            .iter()
            .filter(|n| n.is_honest())
            .map(|n| n.runtime().mempool().shed())
            .sum();
        self.collector.record_shed(shed);
        self.collector
            .record_events_processed(self.events_processed);
        // Slashing evidence is identical for every honest witness of the
        // same conflict, so the canonical report list is the sorted dedup
        // across processors — byte-identical for every shard count.
        let mut slash: Vec<lumiere_types::SlashEvidence> = self
            .nodes
            .iter()
            .filter(|n| n.is_honest())
            .flat_map(|n| n.slash_evidence().iter().copied())
            .collect();
        slash.sort_unstable();
        slash.dedup();
        self.collector.record_slash_evidence(slash);
        let trace = std::mem::take(&mut self.trace);
        let mut report = self.collector.finish(self.now);
        report.safety_ok = safety_ok;
        report.truncated = self.truncated;
        (report, trace)
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
        for a in &chains {
            for b in &chains {
                let len = a.len().min(b.len());
                if a[..len] != b[..len] {
                    return false;
                }
            }
        }
        true
    }

    fn run_loop(&mut self) {
        let horizon = Time::ZERO + self.cfg.horizon;
        let cap = event_cap(self.cfg.n);
        while let Some(at) = self.queue.peek_time() {
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

            // Pop everything sharing this timestamp (bounded by the event
            // cap and the constant batch cap, so boundaries are identical
            // for every shard count and broadcast mode).
            let mut batch = std::mem::take(&mut self.batch);
            let budget = (cap - self.events_processed).min(MAX_BATCH as u64) as usize;
            let mut parallel_ok = self.shards > 1;
            while batch.len() < budget && self.queue.peek_time() == Some(at) {
                let (_, event) = self.queue.pop().expect("peeked event exists");
                if event_target(&event).is_none() {
                    // Cluster-wide events (arrivals, samples) touch every
                    // node; the whole batch runs sequentially.
                    parallel_ok = false;
                }
                batch.push(event);
            }
            self.events_processed += batch.len() as u64;
            self.events_since_sweep += batch.len() as u64;
            if self.events_since_sweep >= WAKE_SWEEP_INTERVAL {
                self.events_since_sweep = 0;
                let now_micros = at.as_micros();
                self.scheduled_wakes.retain(|&(_, t)| t >= now_micros);
            }

            if parallel_ok && batch.len() >= MIN_PARALLEL_BATCH {
                self.process_batch_parallel(&batch);
                batch.clear();
            } else {
                for event in batch.drain(..) {
                    self.dispatch_event(event);
                }
            }
            self.batch = batch;

            // Run-stopping checks happen at batch granularity (after every
            // same-timestamp batch), never mid-batch — the point where a
            // limit cuts the run is then a pure function of the event
            // stream, identical across shard counts and broadcast modes.
            if let Some(limit) = self.cfg.max_honest_qcs {
                if self.collector.honest_qc_count() >= limit {
                    break;
                }
            }
        }
    }

    /// Handles one event on the sequential path: node handler (or
    /// cluster-wide effect) immediately followed by output application.
    fn dispatch_event(&mut self, event: Event) {
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        match event {
            Event::Boot { node } => {
                self.with_node(node, &mut out, |n, now, out| n.boot_into(now, out));
                self.apply_output(node, &mut out);
            }
            Event::Wake { node } => {
                self.collector.record_wake();
                self.with_node(node, &mut out, |n, now, out| n.wake_into(now, out));
                self.apply_output(node, &mut out);
            }
            Event::Deliver { to, from, message } => {
                self.with_node(to, &mut out, |n, now, out| {
                    n.deliver_into(from, &message, now, out)
                });
                self.apply_output(to, &mut out);
            }
            Event::Arrival { tx } => {
                // Every processor ingests the transaction (clients
                // broadcast submissions so any future leader can carry
                // them); dedup-by-id keeps the copies from multiplying.
                self.collector.record_submission(self.now, tx.id);
                for node in &mut self.nodes {
                    node.submit_tx(tx);
                }
            }
            Event::Sample => {}
        }
        self.scratch = out;
    }

    /// Handles one same-timestamp batch on the sharded path: node handlers
    /// run on scoped workers over contiguous node shards, then every output
    /// is applied sequentially in pop order (the deterministic merge).
    fn process_batch_parallel(&mut self, batch: &[Event]) {
        let len = batch.len();
        if self.batch_outputs.len() < len {
            self.batch_outputs.resize_with(len, RuntimeOutput::default);
        }
        let mut outputs = std::mem::take(&mut self.batch_outputs);
        for out in &mut outputs[..len] {
            out.clear();
        }
        let chunk = self.cfg.n.div_ceil(self.shards);
        let now = self.now;
        {
            // Bucket (event, output-slot) pairs by owning shard; within a
            // shard, pop order is preserved, so same-node events still run
            // in sequence.
            let mut per_shard: Vec<Vec<(&Event, &mut RuntimeOutput)>> =
                (0..self.shards).map(|_| Vec::new()).collect();
            for (event, out) in batch.iter().zip(outputs.iter_mut()) {
                let target = event_target(event).expect("parallel batches hold node events only");
                per_shard[target / chunk].push((event, out));
            }
            let nodes = &mut self.nodes[..];
            std::thread::scope(|scope| {
                let mut rest = nodes;
                let mut shard_base = 0usize;
                for work in per_shard {
                    let take = chunk.min(rest.len());
                    let (head, tail) = rest.split_at_mut(take);
                    rest = tail;
                    let base = shard_base;
                    shard_base += take;
                    if work.is_empty() {
                        continue;
                    }
                    scope.spawn(move || {
                        for (event, out) in work {
                            match event {
                                Event::Deliver { to, from, message } => head[to.as_usize() - base]
                                    .deliver_into(*from, message, now, out),
                                Event::Wake { node } => {
                                    head[node.as_usize() - base].wake_into(now, out)
                                }
                                Event::Boot { node } => {
                                    head[node.as_usize() - base].boot_into(now, out)
                                }
                                _ => unreachable!("filtered at batch formation"),
                            }
                        }
                    });
                }
            });
        }
        // The merge: everything order-sensitive (RNG, queue seqs, metrics,
        // trace) replays in exactly the sequential loop's order.
        for (event, out) in batch.iter().zip(outputs.iter_mut()) {
            let target = event_target(event).expect("parallel batches hold node events only");
            if matches!(event, Event::Wake { .. }) {
                self.collector.record_wake();
            }
            self.apply_output(ProcessId::new(target), out);
        }
        self.batch_outputs = outputs;
    }

    fn with_node<F>(&mut self, id: ProcessId, out: &mut RuntimeOutput, f: F)
    where
        F: FnOnce(&mut StrategyHost, Time, &mut RuntimeOutput),
    {
        let now = self.now;
        let node = &mut self.nodes[id.as_usize()];
        f(node, now, out);
    }

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
        for (to, msg) in out.sends.drain(..) {
            if honest {
                self.collector
                    .record_honest_sends(now, 1, msg.is_heavy_sync());
                self.record_auth(&msg, 1);
            }
            let msg = Arc::new(msg);
            self.schedule_delivery(from, to, msg);
        }
        for msg in out.broadcasts.drain(..) {
            let recipients = self.cfg.n.saturating_sub(1);
            if honest {
                self.collector
                    .record_honest_sends(now, recipients, msg.is_heavy_sync());
                self.record_auth(&msg, recipients as u64);
            }
            // One allocation per broadcast: every recipient shares the Arc.
            let msg = Arc::new(msg);
            match self.exec.broadcast {
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

        // Wake-ups (deduplicated per node and time).
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

        // Metrics and trace.
        for qc in out.qcs_formed.drain(..) {
            self.collector.record_qc(now, qc.view(), from, honest);
            if self.cfg.record_trace {
                self.trace.push(now, from, TraceKind::QcFormed(qc.view()));
            }
        }
        for height in out.commits.drain(..) {
            if honest {
                self.collector.record_commit(now, height);
            }
            if self.cfg.record_trace {
                self.trace.push(now, from, TraceKind::Committed(height));
            }
        }
        // Only the *first* honest commit of a transaction defines its
        // end-to-end latency, and that is the first honest commit of the
        // block carrying it. Blocks are told apart by hash, not height, so
        // the accounting is the same in a run where safety failed.
        for block in out.committed_blocks.drain(..) {
            let first = honest && self.tx_accounted_blocks.insert(block.hash());
            #[cfg(test)]
            let first = first || (honest && self.account_txs_per_node);
            if first {
                for id in block.payload().tx_ids() {
                    self.collector.record_tx_commit(now, id);
                }
            }
        }
        out.committed_txs.clear();
        for view in out.heavy_syncs.drain(..) {
            if honest {
                self.collector.record_heavy_sync(now, view);
            }
            if self.cfg.record_trace {
                self.trace.push(now, from, TraceKind::HeavySync(view));
            }
        }
        let record_entries = self.cfg.record_trace && !self.cfg.sampled_metrics();
        for view in out.entered_views.drain(..) {
            // Above the sampling threshold the per-view × per-node entry
            // stream (the only O(n·views) trace kind) is dropped so the
            // trace stays bounded; QCs/commits/heavy syncs are still traced.
            if record_entries {
                self.trace.push(now, from, TraceKind::EnteredView(view));
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
    use std::collections::HashMap;

    fn loaded(n: usize, rate_tps: u64) -> SimConfig {
        SimConfig::new(ProtocolKind::Lumiere, n)
            .with_delta(Duration::from_millis(10))
            .with_horizon(Duration::from_millis(400))
            .with_workload(WorkloadConfig::constant(rate_tps).with_batch_txs(64))
            .with_seed(20)
            .with_trace()
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
        let mut committers: HashMap<(Time, u64), usize> = HashMap::new();
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
        let mut seen = HashSet::new();
        let mut first_commits: HashMap<(Time, ProcessId), usize> = HashMap::new();
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

    /// A leader's batch skips what the uncommitted chain it extends already
    /// carries, so no honest committed chain carries a transaction twice —
    /// checked on the benchmark's two loaded units, `sim_load` (n = 16,
    /// jittered delays, drained pools) and `sim_backlog` (n = 4, a standing
    /// backlog).
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
            let mut sim = Simulation::with_exec(cfg, ExecOptions::default());
            sim.run_loop();
            for node in sim.nodes.iter().filter(|node| node.is_honest()) {
                let store = node.runtime().engine().store();
                let mut carried = HashSet::new();
                for &hash in store.committed_chain() {
                    let block = store.get(hash).expect("a committed block is stored");
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
}
