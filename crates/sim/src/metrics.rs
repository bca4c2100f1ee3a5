//! Measurement of the paper's complexity metrics.
//!
//! Section 2 defines, for a reference time `T ≥ GST`, the instant `t*_T` as
//! the first time after `T` at which an *honest leader produces a QC*; the
//! worst-case communication after `T` counts honest messages in `[T, t*_T)`
//! and the latency after `T` is `t*_T − T`. The eventual variants are the
//! `limsup` over `T → ∞`, which the harness approximates by the maximum over
//! all consecutive honest-leader QCs after a warm-up point.
//!
//! # Bounded reports at large `n`
//!
//! Message-send instants are stored **run-length encoded** as
//! `(time, count)` pairs (a broadcast is one entry, not `n − 1`), and above
//! a configurable processor count
//! ([`SimConfig::sample_metrics_above`](crate::scenario::SimConfig)) the
//! send instants are additionally quantized down to a sampling grid of
//! `Δ/4` ([`SimReport::metrics_grid`]), so the report stays bounded by the
//! simulated horizon instead of the Θ(n²) message volume. Message *counts*
//! are always exact — only their time attribution is coarsened, by strictly
//! less than one grid step (< Δ/4, against measurement windows that are at
//! least Δ wide). See `docs/PERFORMANCE.md` for the policy.

use crate::workload::WorkloadConfig;
use lumiere_types::hash::{IdMap, IdSet};
use lumiere_types::{percentile, Duration, ProcessId, SlashEvidence, Time, TxId, View};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Number of histogram bins in [`CoverageFingerprint::qc_gap_bins`].
pub const QC_GAP_BINS: usize = 8;

/// Upper bound on the number of [`SlashEvidence`] records embedded in a
/// [`SimReport`]. Long adversarial runs can witness an equivocation per
/// view; the report keeps the first `SLASH_EVIDENCE_CAP` records of the
/// canonical (sorted, deduplicated) list plus the exact total, so it stays
/// bounded while remaining byte-identical across broadcast representations.
pub const SLASH_EVIDENCE_CAP: usize = 64;

/// Number of time bins in a [`CoverageFingerprint`] strategy-activation
/// window bitmask.
pub const STRATEGY_WINDOW_BINS: u32 = 16;

/// How many multiples of Δ one strategy-activation time bin spans.
pub const STRATEGY_WINDOW_BIN_DELTAS: i64 = 64;

/// `⌈log2(x + 1)⌉`-style bucketing: 0 → 0, 1 → 1, 2–3 → 2, 4–7 → 3, …
/// Collapses raw event counts into coarse, stable magnitude classes so the
/// fingerprint distinguishes behaviours, not noise.
fn log2_bucket(x: u64) -> u32 {
    u64::BITS - x.leading_zeros()
}

/// Base-4 variant of [`log2_bucket`]: 0 → 0, 1–3 → 1, 4–15 → 2, 16–63 → 3,
/// … Used where adjacent powers of two are still the same behaviour.
fn log4_bucket(x: u64) -> u32 {
    log2_bucket(x).div_ceil(2)
}

/// A deterministic behavioural *coverage fingerprint* of one execution
/// (schema v4).
///
/// The coverage-guided fuzzer (`crates/bench/src/corpus.rs`) keeps an input
/// in its corpus iff the input's fingerprint was never seen before, so the
/// fingerprint deliberately coarsens every dimension into log-scale buckets:
/// two runs share a fingerprint exactly when they exercised the same
/// qualitative behaviour, regardless of microsecond-level noise.
///
/// * **View-transition latencies** — gaps between consecutive honest-leader
///   QCs, log₂-binned in units of Δ/4, with the per-bin *counts* collapsed
///   to log₄ classes ([`CoverageFingerprint::qc_gap_bins`]), plus the log₂
///   bin of the first post-GST latency.
/// * **Event mix** — run-length-invariant ratios: timer wakes, lock
///   advances and honest messages *per decision* (log₂ buckets), log₄
///   classes of the heavy-sync participation and decision counts, and the
///   log₂ class of the equivocation count.
/// * **Per-strategy activation windows** — for every adversary strategy
///   that acted (suppressed, forged or was gated), a mask of the
///   [`STRATEGY_WINDOW_BINS`] `64Δ`-wide time bins in which it did.
///
/// All fields are integers derived from the deterministic event series, so
/// the fingerprint is byte-identical across thread counts and repeated runs.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CoverageFingerprint {
    /// Histogram over log₂ classes of honest-leader QC inter-arrival gaps,
    /// measured in Δ/4 units ([`QC_GAP_BINS`] bins; the last bin collects
    /// everything slower). Each entry is the log₄ class of the bin's
    /// count, so the histogram separates behaviour shapes, not run lengths.
    pub qc_gap_bins: Vec<u32>,
    /// log₂ bin (same Δ/4 unit) of the first honest-leader QC latency after
    /// GST; `-1` when no honest QC appeared after GST at all.
    pub first_qc_bin: i64,
    /// log₂ bucket of `equivocations_observed`.
    pub equivocation_bucket: u32,
    /// log₂ bucket of honest lock advances *per decision*.
    pub lock_bucket: u32,
    /// log₂ bucket of timer wake events *per decision* — low in responsive
    /// executions, exploding when the protocol burns timeouts.
    pub wake_bucket: u32,
    /// log₄ class of the number of heavy-sync participations.
    pub heavy_sync_bucket: u32,
    /// log₄ class of the number of distinct committed heights.
    pub commit_bucket: u32,
    /// log₂ bucket of honest point-to-point messages *per decision* — the
    /// paper's communication-efficiency axis.
    pub message_bucket: u32,
    /// `(strategy name, activation bitmask)` pairs in name order: bit `i`
    /// is set iff the strategy acted inside time bin `i` (bins are
    /// `64Δ` wide, the last bin collects everything later).
    pub strategy_windows: Vec<(String, u64)>,
}

impl CoverageFingerprint {
    /// A compact canonical encoding: equal keys ⇔ equal fingerprints. The
    /// corpus uses it for dedup and deterministic ordering.
    pub fn key(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(64);
        out.push('q');
        for b in &self.qc_gap_bins {
            let _ = write!(out, ".{b}");
        }
        let _ = write!(
            out,
            "|f{}|e{}|l{}|w{}|h{}|c{}|m{}",
            self.first_qc_bin,
            self.equivocation_bucket,
            self.lock_bucket,
            self.wake_bucket,
            self.heavy_sync_bucket,
            self.commit_bucket,
            self.message_bucket
        );
        for (name, mask) in &self.strategy_windows {
            let _ = write!(out, "|{name}@{mask:x}");
        }
        out
    }
}

/// A QC production event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QcEvent {
    /// When the QC was aggregated by its leader.
    pub time: Time,
    /// The view it certifies.
    pub view: View,
    /// The leader that produced it.
    pub leader: ProcessId,
    /// Whether that leader is honest (the paper's measures only count these).
    pub honest_leader: bool,
}

/// The outcome of one simulated execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Protocol name (`"lumiere"`, `"lp22"`, ...).
    pub protocol: String,
    /// Number of processors.
    pub n: usize,
    /// Fault threshold `f`.
    pub f: usize,
    /// Actual number of corrupted processors in this execution.
    pub f_a: usize,
    /// The known delay bound Δ.
    pub delta_cap: Duration,
    /// Global stabilization time.
    pub gst: Time,
    /// Simulated time at which the run stopped.
    pub end_time: Time,
    /// The sampling grid applied to message-time recording:
    /// [`Duration::ZERO`] means exact instants; otherwise send times are
    /// quantized down to multiples of this grid (schema v3).
    pub metrics_grid: Duration,
    /// Times at which honest processors sent messages, run-length encoded
    /// as `(time, point-to-point count)` pairs in strictly increasing time
    /// order (a broadcast contributes one entry of count `n−1`; schema v3).
    pub honest_msg_times: Vec<(Time, u64)>,
    /// Subset of the above belonging to heavy epoch synchronizations.
    pub heavy_msg_times: Vec<(Time, u64)>,
    /// All QC production events, in time order.
    pub qc_events: Vec<QcEvent>,
    /// First commit time of each height, in commit order.
    pub commit_times: Vec<(Time, u64)>,
    /// `(time, epoch view)` for each honest processor that began a heavy
    /// epoch synchronization.
    pub heavy_sync_participations: Vec<(Time, View)>,
    /// Samples of the `(f+1)`-st honest clock gap over time.
    pub gap_samples: Vec<(Time, Duration)>,
    /// Whether every pair of honest processors finished with consistent
    /// (prefix-ordered) committed chains — the SMR safety property.
    pub safety_ok: bool,
    /// Whether the run hit the simulator's hard event cap before reaching
    /// its horizon. A truncated report under-counts everything after the
    /// cap; tier-1 tests assert this is `false` (schema v2).
    pub truncated: bool,
    /// Total number of equivocations (conflicting proposals for one view
    /// and proposer) witnessed by honest consensus engines (schema v2).
    pub equivocations_observed: usize,
    /// The behavioural coverage fingerprint of this execution (schema v4) —
    /// the novelty signal of the coverage-guided fuzzer.
    pub coverage: CoverageFingerprint,
    /// The client workload that drove the run, `None` for workload-free
    /// runs (schema v5).
    pub workload: Option<WorkloadConfig>,
    /// Client transactions injected by the workload generator (schema v5).
    pub txs_submitted: u64,
    /// Distinct transactions committed by at least one honest processor
    /// (schema v5).
    pub txs_committed: u64,
    /// Submissions honest mempools rejected because they were full,
    /// summed over processors (schema v5) — non-zero means the offered
    /// rate exceeded what the cluster absorbed.
    pub txs_shed: u64,
    /// Median submit→first-honest-commit latency (nearest-rank over all
    /// committed transactions; [`Duration::ZERO`] when none committed;
    /// schema v5).
    pub tx_latency_p50: Duration,
    /// 95th-percentile commit latency (schema v5).
    pub tx_latency_p95: Duration,
    /// 99th-percentile commit latency (schema v5).
    pub tx_latency_p99: Duration,
    /// Total simulator events processed by the run — boots, deliveries,
    /// wakes, arrivals, samples (schema v6). Deterministic for a given
    /// configuration and seed (identical across broadcast representations);
    /// benches divide it by wall-clock for the events/sec throughput the
    /// perf gate tracks.
    pub events_processed: u64,
    /// Authenticator bytes carried by honest point-to-point traffic over
    /// the whole run with the aggregated certificate representation — each
    /// message's signature/bitmap bytes, weighted by how many recipients it
    /// was sent to (schema v7).
    pub auth_bytes: u64,
    /// Authenticator bytes the same traffic would have carried if
    /// certificates were naive per-signer signature vectors (schema v7).
    pub auth_bytes_naive: u64,
    /// Signature verifications the recipients of that traffic perform with
    /// aggregated certificates — one pairing-equivalent check per
    /// certificate (schema v7).
    pub verify_ops: u64,
    /// Verifications the same traffic would cost with naive signature
    /// vectors — one check per signer per certificate (schema v7).
    pub verify_ops_naive: u64,
    /// Canonical slashing evidence witnessed by honest engines:
    /// deduplicated across processors, sorted, and capped at
    /// [`SLASH_EVIDENCE_CAP`] records (schema v7).
    pub slash_evidence: Vec<SlashEvidence>,
    /// Exact number of distinct slashing-evidence records before the cap
    /// (schema v7).
    pub slash_evidence_total: u64,
}

impl SimReport {
    /// Number of distinct committed heights (consensus decisions).
    pub fn decisions(&self) -> usize {
        self.commit_times.len()
    }

    /// Total messages sent by honest processors over the whole run.
    pub fn total_messages(&self) -> usize {
        self.honest_msg_times.iter().map(|(_, c)| *c as usize).sum()
    }

    /// Times of QCs produced by honest leaders, in order.
    pub fn honest_qc_times(&self) -> Vec<Time> {
        self.qc_events
            .iter()
            .filter(|e| e.honest_leader)
            .map(|e| e.time)
            .collect()
    }

    /// `t*_T`: the first honest-leader QC strictly after `t`.
    pub fn first_honest_qc_after(&self, t: Time) -> Option<Time> {
        self.qc_events
            .iter()
            .filter(|e| e.honest_leader && e.time > t)
            .map(|e| e.time)
            .next()
    }

    /// Number of honest messages sent in the half-open interval `[a, b)`.
    pub fn messages_between(&self, a: Time, b: Time) -> usize {
        count_in_range(&self.honest_msg_times, a, b)
    }

    /// Number of heavy-synchronization messages sent in `[a, b)`.
    pub fn heavy_messages_between(&self, a: Time, b: Time) -> usize {
        count_in_range(&self.heavy_msg_times, a, b)
    }

    /// Worst-case latency: `t*_GST − GST` (Section 2). `None` if no honest
    /// leader ever produced a QC after GST.
    pub fn worst_case_latency(&self) -> Option<Duration> {
        self.first_honest_qc_after(self.gst).map(|t| t - self.gst)
    }

    /// Worst-case communication after GST: honest messages in
    /// `[GST + Δ, t*_{GST+Δ})`.
    pub fn worst_case_communication(&self) -> usize {
        let start = self.gst + self.delta_cap;
        let end = self.first_honest_qc_after(start).unwrap_or(self.end_time);
        self.messages_between(start, end)
    }

    /// Eventual worst-case communication: the maximum number of honest
    /// messages between consecutive honest-leader QCs occurring after
    /// `warmup`.
    pub fn eventual_worst_communication(&self, warmup: Time) -> usize {
        let times: Vec<Time> = self
            .honest_qc_times()
            .into_iter()
            .filter(|t| *t >= warmup)
            .collect();
        times
            .windows(2)
            .map(|w| self.messages_between(w[0], w[1]))
            .max()
            .unwrap_or(0)
    }

    /// Eventual worst-case latency: the maximum gap between consecutive
    /// honest-leader QCs occurring after `warmup`.
    pub fn eventual_worst_latency(&self, warmup: Time) -> Option<Duration> {
        let times: Vec<Time> = self
            .honest_qc_times()
            .into_iter()
            .filter(|t| *t >= warmup)
            .collect();
        times.windows(2).map(|w| w[1] - w[0]).max()
    }

    /// Average gap between consecutive honest-leader QCs after `warmup`.
    pub fn average_latency(&self, warmup: Time) -> Option<Duration> {
        let times: Vec<Time> = self
            .honest_qc_times()
            .into_iter()
            .filter(|t| *t >= warmup)
            .collect();
        if times.len() < 2 {
            return None;
        }
        let total = *times.last().unwrap() - times[0];
        Some(total / (times.len() as i64 - 1))
    }

    /// Number of distinct epochs for which at least one honest processor
    /// began a heavy synchronization at or after `t`.
    pub fn heavy_sync_epochs_after(&self, t: Time) -> usize {
        let mut views: Vec<i64> = self
            .heavy_sync_participations
            .iter()
            .filter(|(when, _)| *when >= t)
            .map(|(_, v)| v.as_i64())
            .collect();
        views.sort_unstable();
        views.dedup();
        views.len()
    }

    /// The largest `(f+1)`-st honest clock gap sampled at or after `t`.
    pub fn max_honest_gap_after(&self, t: Time) -> Option<Duration> {
        self.gap_samples
            .iter()
            .filter(|(when, _)| *when >= t)
            .map(|(_, g)| *g)
            .max()
    }

    /// A default warm-up point for the "eventual" measures: expected
    /// `O(nΔ)` after GST (the paper shows Lumiere reaches its steady state
    /// within that bound).
    pub fn default_warmup(&self) -> Time {
        self.gst + self.delta_cap * (4 * self.n as i64)
    }

    /// Average authenticator bytes per honest point-to-point message with
    /// aggregated certificates — the paper's constant-size-certificate
    /// axis: flat in `n` when aggregation works (0.0 when no messages).
    pub fn auth_bytes_per_message(&self) -> f64 {
        ratio(self.auth_bytes, self.total_messages() as u64)
    }

    /// Average authenticator bytes per message under naive signature
    /// vectors — grows Θ(quorum) = Θ(n) per certificate-carrying message.
    pub fn naive_auth_bytes_per_message(&self) -> f64 {
        ratio(self.auth_bytes_naive, self.total_messages() as u64)
    }

    /// Authenticator bytes spent per certified view (honest-leader QC),
    /// aggregated representation (0.0 when no honest QCs formed).
    pub fn auth_bytes_per_view(&self) -> f64 {
        ratio(self.auth_bytes, self.honest_qc_times().len() as u64)
    }

    /// Authenticator bytes per certified view under naive vectors.
    pub fn naive_auth_bytes_per_view(&self) -> f64 {
        ratio(self.auth_bytes_naive, self.honest_qc_times().len() as u64)
    }

    /// Signature verifications performed per consensus decision with
    /// aggregated certificates (0.0 when nothing committed).
    pub fn verify_ops_per_commit(&self) -> f64 {
        ratio(self.verify_ops, self.decisions() as u64)
    }

    /// Verifications per decision under naive signature vectors.
    pub fn naive_verify_ops_per_commit(&self) -> f64 {
        ratio(self.verify_ops_naive, self.decisions() as u64)
    }

    /// Goodput: distinct committed transactions per simulated second.
    pub fn goodput_tps(&self) -> f64 {
        let micros = self.end_time.as_micros();
        if micros <= 0 {
            return 0.0;
        }
        self.txs_committed as f64 * 1_000_000.0 / micros as f64
    }
}

/// `num / den` as `f64`, defined as `0.0` on an empty denominator.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Appends `count` sends at `at` to a run-length-encoded series. Collector
/// time is monotone, so merging with the last entry keeps the series sorted
/// with strictly increasing times.
fn push_rle(series: &mut Vec<(Time, u64)>, at: Time, count: u64) {
    if let Some(last) = series.last_mut() {
        if last.0 == at {
            last.1 += count;
            return;
        }
    }
    series.push((at, count));
}

fn count_in_range(sorted: &[(Time, u64)], a: Time, b: Time) -> usize {
    if b <= a {
        return 0;
    }
    let lo = sorted.partition_point(|(t, _)| *t < a);
    let hi = sorted.partition_point(|(t, _)| *t < b);
    sorted[lo..hi].iter().map(|(_, c)| *c as usize).sum()
}

/// Incrementally collects metrics during a run and produces a [`SimReport`].
#[derive(Debug)]
pub struct MetricsCollector {
    protocol: String,
    n: usize,
    f: usize,
    f_a: usize,
    delta_cap: Duration,
    gst: Time,
    time_grid: Duration,
    honest_msg_times: Vec<(Time, u64)>,
    heavy_msg_times: Vec<(Time, u64)>,
    qc_events: Vec<QcEvent>,
    /// Entries of `qc_events` formed by an honest leader.
    honest_qcs: usize,
    commit_times: Vec<(Time, u64)>,
    committed_heights: IdSet<u64>,
    heavy_sync_participations: Vec<(Time, View)>,
    gap_samples: Vec<(Time, Duration)>,
    wake_events: u64,
    lock_advances: u64,
    equivocations: usize,
    strategy_windows: BTreeMap<String, u64>,
    workload: Option<WorkloadConfig>,
    /// Submit instant of every injected transaction, for latency samples.
    tx_submit_times: IdMap<TxId, Time>,
    /// Transactions whose first honest commit was already recorded.
    committed_tx_ids: IdSet<TxId>,
    /// Submit→first-honest-commit latencies, in commit order.
    tx_latencies: Vec<Duration>,
    txs_submitted: u64,
    txs_shed: u64,
    events_processed: u64,
    auth_bytes: u64,
    auth_bytes_naive: u64,
    verify_ops: u64,
    verify_ops_naive: u64,
    slash_evidence: Vec<SlashEvidence>,
    slash_evidence_total: u64,
}

impl MetricsCollector {
    /// Creates a collector for a run with the given static parameters.
    pub fn new(
        protocol: String,
        n: usize,
        f: usize,
        f_a: usize,
        delta_cap: Duration,
        gst: Time,
    ) -> Self {
        MetricsCollector {
            protocol,
            n,
            f,
            f_a,
            delta_cap,
            gst,
            time_grid: Duration::ZERO,
            honest_msg_times: Vec::new(),
            heavy_msg_times: Vec::new(),
            qc_events: Vec::new(),
            honest_qcs: 0,
            commit_times: Vec::new(),
            committed_heights: IdSet::default(),
            heavy_sync_participations: Vec::new(),
            gap_samples: Vec::new(),
            wake_events: 0,
            lock_advances: 0,
            equivocations: 0,
            strategy_windows: BTreeMap::new(),
            workload: None,
            tx_submit_times: IdMap::default(),
            committed_tx_ids: IdSet::default(),
            tx_latencies: Vec::new(),
            txs_submitted: 0,
            txs_shed: 0,
            events_processed: 0,
            auth_bytes: 0,
            auth_bytes_naive: 0,
            verify_ops: 0,
            verify_ops_naive: 0,
            slash_evidence: Vec::new(),
            slash_evidence_total: 0,
        }
    }

    /// Quantizes message-send instants down to multiples of `grid`
    /// ([`Duration::ZERO`] keeps them exact). Counts stay exact either way.
    pub fn with_time_grid(mut self, grid: Duration) -> Self {
        self.time_grid = grid;
        self
    }

    /// Echoes the driving workload into the report (schema v5).
    pub fn with_workload(mut self, workload: Option<WorkloadConfig>) -> Self {
        self.workload = workload;
        self
    }

    /// Records a client transaction injected at `now`. A resubmission of a
    /// known id keeps the *original* instant — latency is measured from the
    /// first time the cluster saw the transaction.
    pub fn record_submission(&mut self, now: Time, id: TxId) {
        if let std::collections::hash_map::Entry::Vacant(e) = self.tx_submit_times.entry(id) {
            e.insert(now);
            self.txs_submitted += 1;
        }
    }

    /// Records that an honest processor committed transaction `id` at
    /// `now`. Only the first commit of each id yields a latency sample.
    pub fn record_tx_commit(&mut self, now: Time, id: TxId) {
        if !self.committed_tx_ids.insert(id) {
            return;
        }
        if let Some(submitted) = self.tx_submit_times.get(&id) {
            self.tx_latencies.push(now - *submitted);
        }
    }

    /// Sets the total number of workload submissions shed by honest
    /// mempools (summed at the end of the run).
    pub fn record_shed(&mut self, total: u64) {
        self.txs_shed = total;
    }

    /// Sets the total number of simulator events the run processed (schema
    /// v6; recorded once, at the end of the run).
    pub fn record_events_processed(&mut self, total: u64) {
        self.events_processed = total;
    }

    /// Records `count` honest point-to-point sends at `now` (`heavy` marks
    /// heavy-synchronization messages). O(1): a broadcast is one run-length
    /// entry, merged with the previous entry when it shares its (possibly
    /// grid-quantized) instant.
    pub fn record_honest_sends(&mut self, now: Time, count: usize, heavy: bool) {
        if count == 0 {
            return;
        }
        let at = now.quantize_down(self.time_grid);
        push_rle(&mut self.honest_msg_times, at, count as u64);
        if heavy {
            push_rle(&mut self.heavy_msg_times, at, count as u64);
        }
    }

    /// Records the authenticator cost of one honest message put on the
    /// wire in `copies` identical copies (1 for a point-to-point send,
    /// `n−1` for a broadcast): bytes and verification counts under the
    /// aggregated representation and under naive signature vectors
    /// (schema v7). O(1) per call — the cost is computed analytically from
    /// the message, not by serializing it.
    pub fn record_auth_message(
        &mut self,
        copies: u64,
        auth_bytes: u64,
        naive_bytes: u64,
        verify_ops: u64,
        naive_verify_ops: u64,
    ) {
        self.auth_bytes += copies * auth_bytes;
        self.auth_bytes_naive += copies * naive_bytes;
        self.verify_ops += copies * verify_ops;
        self.verify_ops_naive += copies * naive_verify_ops;
    }

    /// Sets the canonical slashing-evidence list (deduplicated and sorted
    /// by the caller; recorded once at the end of the run). The report
    /// embeds the first [`SLASH_EVIDENCE_CAP`] records plus the exact
    /// total count (schema v7).
    pub fn record_slash_evidence(&mut self, mut evidence: Vec<SlashEvidence>) {
        self.slash_evidence_total = evidence.len() as u64;
        evidence.truncate(SLASH_EVIDENCE_CAP);
        self.slash_evidence = evidence;
    }

    /// Records a QC formed by `leader` at `now`.
    pub fn record_qc(&mut self, now: Time, view: View, leader: ProcessId, honest_leader: bool) {
        self.honest_qcs += usize::from(honest_leader);
        self.qc_events.push(QcEvent {
            time: now,
            view,
            leader,
            honest_leader,
        });
    }

    /// Records that some processor committed `height` at `now` (only the
    /// first commit of each height counts as the decision time).
    pub fn record_commit(&mut self, now: Time, height: u64) {
        if self.committed_heights.insert(height) {
            self.commit_times.push((now, height));
        }
    }

    /// Records an honest processor starting heavy synchronization for
    /// `epoch_view`.
    pub fn record_heavy_sync(&mut self, now: Time, epoch_view: View) {
        self.heavy_sync_participations.push((now, epoch_view));
    }

    /// Records a sample of the `(f+1)`-st honest clock gap.
    pub fn record_gap_sample(&mut self, now: Time, gap: Duration) {
        self.gap_samples.push((now, gap));
    }

    /// Records one processed timer wake event (fingerprint event mix).
    pub fn record_wake(&mut self) {
        self.wake_events += 1;
    }

    /// Records that the adversary strategy `name` acted (suppressed, forged
    /// or was gated) at `now`: sets the corresponding bit of the strategy's
    /// activation-window bitmask.
    pub fn record_strategy_activation(&mut self, name: &str, now: Time) {
        let width = (self.delta_cap * STRATEGY_WINDOW_BIN_DELTAS)
            .as_micros()
            .max(1);
        let bin = (now.as_micros().max(0) / width).min(STRATEGY_WINDOW_BINS as i64 - 1);
        let mask = self.strategy_windows.entry(name.to_string()).or_insert(0);
        *mask |= 1u64 << bin;
    }

    /// Sets the total number of honest lock advances (summed over engines at
    /// the end of the run).
    pub fn record_lock_advances(&mut self, total: u64) {
        self.lock_advances = total;
    }

    /// Sets the total number of equivocations witnessed by honest engines
    /// (summed at the end of the run).
    pub fn record_equivocations(&mut self, total: usize) {
        self.equivocations = total;
    }

    /// Number of honest-leader QCs recorded so far.
    pub fn honest_qc_count(&self) -> usize {
        self.honest_qcs
    }

    /// Computes the behavioural coverage fingerprint from the collected
    /// series (deterministic integer arithmetic only).
    fn fingerprint(&self) -> CoverageFingerprint {
        // Gap unit: Δ/4, the same scale as the metrics sampling grid.
        let unit = (self.delta_cap / 4).as_micros().max(1);
        let honest_qcs: Vec<Time> = self
            .qc_events
            .iter()
            .filter(|e| e.honest_leader)
            .map(|e| e.time)
            .collect();
        let mut qc_gap_bins = vec![0u32; QC_GAP_BINS];
        for w in honest_qcs.windows(2) {
            let gap = (w[1] - w[0]).as_micros().max(0) / unit;
            let bin = (log2_bucket(gap as u64) as usize).min(QC_GAP_BINS - 1);
            qc_gap_bins[bin] += 1;
        }
        // Collapse the histogram counts to log₄ classes: the fingerprint
        // separates behaviour *shapes*, not exact run lengths.
        for count in qc_gap_bins.iter_mut() {
            *count = log4_bucket(*count as u64);
        }
        let first_qc_bin = honest_qcs
            .iter()
            .find(|t| **t > self.gst)
            .map(|t| log2_bucket(((*t - self.gst).as_micros().max(0) / unit) as u64) as i64)
            .unwrap_or(-1);
        // Normalize the run-scale counters per decision so two runs that
        // merely stopped at different points do not look novel.
        let decisions = (self.commit_times.len() as u64).max(1);
        let messages: u64 = self.honest_msg_times.iter().map(|(_, c)| *c).sum();
        CoverageFingerprint {
            qc_gap_bins,
            first_qc_bin,
            equivocation_bucket: log2_bucket(self.equivocations as u64),
            lock_bucket: log2_bucket(self.lock_advances / decisions),
            wake_bucket: log2_bucket(self.wake_events / decisions),
            heavy_sync_bucket: log4_bucket(self.heavy_sync_participations.len() as u64),
            commit_bucket: log4_bucket(self.commit_times.len() as u64),
            message_bucket: log2_bucket(messages / decisions),
            strategy_windows: self
                .strategy_windows
                .iter()
                .map(|(name, mask)| (name.clone(), *mask))
                .collect(),
        }
    }

    /// Finalises the report.
    pub fn finish(self, end_time: Time) -> SimReport {
        let coverage = self.fingerprint();
        let mut latencies = self.tx_latencies;
        latencies.sort_unstable();
        SimReport {
            protocol: self.protocol,
            n: self.n,
            f: self.f,
            f_a: self.f_a,
            delta_cap: self.delta_cap,
            gst: self.gst,
            end_time,
            metrics_grid: self.time_grid,
            honest_msg_times: self.honest_msg_times,
            heavy_msg_times: self.heavy_msg_times,
            qc_events: self.qc_events,
            commit_times: self.commit_times,
            heavy_sync_participations: self.heavy_sync_participations,
            gap_samples: self.gap_samples,
            safety_ok: true,
            truncated: false,
            equivocations_observed: self.equivocations,
            coverage,
            workload: self.workload,
            txs_submitted: self.txs_submitted,
            txs_committed: self.committed_tx_ids.len() as u64,
            txs_shed: self.txs_shed,
            tx_latency_p50: percentile(&latencies, 50),
            tx_latency_p95: percentile(&latencies, 95),
            tx_latency_p99: percentile(&latencies, 99),
            events_processed: self.events_processed,
            auth_bytes: self.auth_bytes,
            auth_bytes_naive: self.auth_bytes_naive,
            verify_ops: self.verify_ops,
            verify_ops_naive: self.verify_ops_naive,
            slash_evidence: self.slash_evidence,
            slash_evidence_total: self.slash_evidence_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_fixture() -> SimReport {
        let mut c = MetricsCollector::new(
            "test".into(),
            4,
            1,
            1,
            Duration::from_millis(10),
            Time::from_millis(100),
        );
        // 5 messages before the first honest QC, then 2 per interval.
        for ms in [101, 102, 103, 108, 109] {
            c.record_honest_sends(Time::from_millis(ms), 1, false);
        }
        c.record_qc(
            Time::from_millis(115),
            View::new(0),
            ProcessId::new(0),
            true,
        );
        c.record_honest_sends(Time::from_millis(116), 2, true);
        c.record_qc(
            Time::from_millis(130),
            View::new(1),
            ProcessId::new(1),
            true,
        );
        c.record_qc(
            Time::from_millis(140),
            View::new(2),
            ProcessId::new(2),
            false,
        );
        c.record_commit(Time::from_millis(131), 1);
        c.record_commit(Time::from_millis(132), 1); // duplicate height ignored
        c.record_commit(Time::from_millis(133), 2);
        c.record_heavy_sync(Time::from_millis(100), View::new(0));
        c.record_heavy_sync(Time::from_millis(101), View::new(0));
        c.record_heavy_sync(Time::from_millis(150), View::new(40));
        c.record_gap_sample(Time::from_millis(120), Duration::from_millis(3));
        c.record_gap_sample(Time::from_millis(125), Duration::from_millis(7));
        c.finish(Time::from_millis(200))
    }

    #[test]
    fn latency_is_measured_from_gst_to_first_honest_qc() {
        let r = report_fixture();
        assert_eq!(r.worst_case_latency(), Some(Duration::from_millis(15)));
    }

    #[test]
    fn worst_case_communication_counts_messages_up_to_t_star() {
        let r = report_fixture();
        // Window starts at GST + Δ = 110ms; the first honest QC after that is
        // at 115ms; no messages fall in [110, 115).
        assert_eq!(r.worst_case_communication(), 0);
        // And the raw counter sees all five early messages plus the later two.
        assert_eq!(r.total_messages(), 7);
    }

    #[test]
    fn eventual_measures_scan_consecutive_honest_qcs() {
        let r = report_fixture();
        assert_eq!(r.eventual_worst_communication(Time::from_millis(100)), 2);
        assert_eq!(
            r.eventual_worst_latency(Time::from_millis(100)),
            Some(Duration::from_millis(15))
        );
        assert_eq!(
            r.average_latency(Time::from_millis(100)),
            Some(Duration::from_millis(15))
        );
    }

    #[test]
    fn commits_deduplicate_heights() {
        let r = report_fixture();
        assert_eq!(r.decisions(), 2);
    }

    #[test]
    fn heavy_sync_epochs_are_counted_distinctly() {
        let r = report_fixture();
        assert_eq!(r.heavy_sync_epochs_after(Time::ZERO), 2);
        assert_eq!(r.heavy_sync_epochs_after(Time::from_millis(120)), 1);
    }

    #[test]
    fn gap_samples_report_their_maximum() {
        let r = report_fixture();
        assert_eq!(
            r.max_honest_gap_after(Time::ZERO),
            Some(Duration::from_millis(7))
        );
        assert_eq!(r.max_honest_gap_after(Time::from_millis(126)), None);
    }

    #[test]
    fn log2_buckets_classify_counts_coarsely() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(1023), 10);
    }

    #[test]
    fn fingerprint_bins_qc_gaps_and_event_mix() {
        let r = report_fixture();
        let fp = &r.coverage;
        assert_eq!(fp.qc_gap_bins.len(), QC_GAP_BINS);
        // One honest QC gap of 15 ms = 6 units of Δ/4 = 2.5 ms → bucket 3.
        assert_eq!(fp.qc_gap_bins.iter().sum::<u32>(), 1);
        assert_eq!(fp.qc_gap_bins[3], 1);
        // First honest QC 15 ms after GST → same bin.
        assert_eq!(fp.first_qc_bin, 3);
        // Event mix: 2 commits → log₄ class 1; 3 heavy-sync participations
        // → class 1; 7 honest messages over 2 decisions → 3 per decision →
        // log₂ bucket 2; no wakes, locks or equivocations in the fixture.
        assert_eq!(fp.commit_bucket, 1);
        assert_eq!(fp.heavy_sync_bucket, 1);
        assert_eq!(fp.message_bucket, 2);
        assert_eq!(fp.wake_bucket, 0);
        assert_eq!(fp.lock_bucket, 0);
        assert_eq!(fp.equivocation_bucket, 0);
        assert!(fp.strategy_windows.is_empty());
        // The key is canonical: equal fingerprints ⇔ equal keys.
        assert_eq!(fp.key(), report_fixture().coverage.key());
        let mut other = fp.clone();
        other.commit_bucket += 1;
        assert_ne!(fp.key(), other.key());
    }

    #[test]
    fn strategy_activations_set_time_window_bits() {
        let mut c = MetricsCollector::new(
            "test".into(),
            4,
            1,
            1,
            Duration::from_millis(10),
            Time::ZERO,
        );
        // Bin width = 64Δ = 640 ms.
        c.record_strategy_activation("crash", Time::from_millis(5));
        c.record_strategy_activation("crash", Time::from_millis(700));
        c.record_strategy_activation("equivocate", Time::from_millis(1_300));
        // Far-future activations collapse into the last bin.
        c.record_strategy_activation("equivocate", Time::from_millis(1_000_000));
        c.record_wake();
        c.record_wake();
        c.record_wake();
        c.record_lock_advances(5);
        c.record_equivocations(1);
        let r = c.finish(Time::from_millis(400));
        let fp = &r.coverage;
        assert_eq!(
            fp.strategy_windows,
            vec![
                ("crash".to_string(), 0b11),
                ("equivocate".to_string(), (1 << 2) | (1 << 15)),
            ]
        );
        assert_eq!(fp.wake_bucket, 2);
        assert_eq!(fp.lock_bucket, 3);
        assert_eq!(fp.equivocation_bucket, 1);
        assert_eq!(r.equivocations_observed, 1);
        // No honest QC after GST at all.
        assert_eq!(fp.first_qc_bin, -1);
        assert!(fp.key().contains("crash@3"));
    }

    #[test]
    fn tx_latency_accounting_dedups_and_ranks() {
        let mut c = MetricsCollector::new(
            "test".into(),
            4,
            1,
            0,
            Duration::from_millis(10),
            Time::ZERO,
        );
        for (id, at) in [(1u64, 10i64), (2, 20), (3, 30), (4, 40)] {
            c.record_submission(Time::from_millis(at), TxId::new(id));
        }
        // Duplicate submission of an id is not counted twice.
        c.record_submission(Time::from_millis(99), TxId::new(1));
        // tx1 commits at 30 (20 ms), again at 35 (ignored); tx2 at 120
        // (100 ms); tx3 at 40 (10 ms); tx4 never commits.
        c.record_tx_commit(Time::from_millis(30), TxId::new(1));
        c.record_tx_commit(Time::from_millis(35), TxId::new(1));
        c.record_tx_commit(Time::from_millis(120), TxId::new(2));
        c.record_tx_commit(Time::from_millis(40), TxId::new(3));
        c.record_shed(7);
        let r = c.finish(Time::from_millis(500));
        assert_eq!(r.txs_submitted, 4);
        assert_eq!(r.txs_committed, 3);
        assert_eq!(r.txs_shed, 7);
        // Sorted latencies: [10, 20, 100] ms → p50 = 20, p95 = p99 = 100.
        assert_eq!(r.tx_latency_p50, Duration::from_millis(20));
        assert_eq!(r.tx_latency_p95, Duration::from_millis(100));
        assert_eq!(r.tx_latency_p99, Duration::from_millis(100));
        assert!((r.goodput_tps() - 6.0).abs() < 1e-9, "3 txs / 0.5 s");
        assert_eq!(r.workload, None);
    }

    #[test]
    fn auth_traffic_accumulates_weighted_copies() {
        use lumiere_consensus::{ConsensusMessage, QuorumCert};
        use lumiere_runtime::WireMessage;

        let mut c = MetricsCollector::new(
            "test".into(),
            4,
            1,
            0,
            Duration::from_millis(10),
            Time::ZERO,
        );
        let (keys, _) = lumiere_crypto::keygen(4, 1);
        let params = lumiere_types::Params::new(4, Duration::from_millis(10));
        let digest = QuorumCert::vote_digest(View::new(0), 7);
        let votes: Vec<_> = keys.iter().take(3).map(|k| k.sign(digest)).collect();
        let qc = QuorumCert::aggregate(View::new(0), 7, &votes, &params).unwrap();
        let mut record = |copies: u64, msg: WireMessage| {
            let auth = msg.authenticator();
            c.record_auth_message(
                copies,
                auth.bytes() as u64,
                auth.naive_bytes() as u64,
                auth.verify_ops(),
                auth.naive_verify_ops(),
            );
        };
        // A broadcast of a 3-signer QC to 3 recipients: 88 auth bytes
        // aggregated vs 176 naive, 1 verification vs 3.
        record(3, WireMessage::Consensus(ConsensusMessage::NewQc(qc)));
        // A single targeted vote: 48 bytes and 1 verification either way.
        record(
            1,
            WireMessage::Consensus(ConsensusMessage::Vote {
                view: View::new(0),
                block_hash: 7,
                signature: votes[0],
            }),
        );
        c.record_honest_sends(Time::from_millis(1), 3, false);
        c.record_honest_sends(Time::from_millis(2), 1, false);
        c.record_qc(Time::from_millis(3), View::new(0), ProcessId::new(0), true);
        c.record_commit(Time::from_millis(4), 1);
        let r = c.finish(Time::from_millis(10));
        assert_eq!(r.auth_bytes, 3 * 88 + 48);
        assert_eq!(r.auth_bytes_naive, 3 * 176 + 48);
        assert_eq!(r.verify_ops, 4);
        assert_eq!(r.verify_ops_naive, 10);
        assert!((r.auth_bytes_per_message() - 312.0 / 4.0).abs() < 1e-9);
        assert!((r.naive_auth_bytes_per_message() - 576.0 / 4.0).abs() < 1e-9);
        assert!((r.auth_bytes_per_view() - 312.0).abs() < 1e-9);
        assert!((r.verify_ops_per_commit() - 4.0).abs() < 1e-9);
        assert!((r.naive_verify_ops_per_commit() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn ratios_are_zero_on_empty_denominators() {
        let c = MetricsCollector::new(
            "test".into(),
            4,
            1,
            0,
            Duration::from_millis(10),
            Time::ZERO,
        );
        let r = c.finish(Time::from_millis(10));
        assert_eq!(r.auth_bytes_per_message(), 0.0);
        assert_eq!(r.auth_bytes_per_view(), 0.0);
        assert_eq!(r.verify_ops_per_commit(), 0.0);
    }

    #[test]
    fn slash_evidence_is_capped_with_exact_total() {
        let mut c = MetricsCollector::new(
            "test".into(),
            4,
            1,
            1,
            Duration::from_millis(10),
            Time::ZERO,
        );
        let evidence: Vec<SlashEvidence> = (0..SLASH_EVIDENCE_CAP as i64 + 5)
            .map(|v| SlashEvidence::new(View::new(v), ProcessId::new(0), 1, 2))
            .collect();
        c.record_slash_evidence(evidence);
        let r = c.finish(Time::from_millis(10));
        assert_eq!(r.slash_evidence.len(), SLASH_EVIDENCE_CAP);
        assert_eq!(r.slash_evidence_total, SLASH_EVIDENCE_CAP as u64 + 5);
        assert_eq!(r.slash_evidence[0].view, View::new(0));
    }

    #[test]
    fn message_counting_uses_half_open_intervals() {
        let r = report_fixture();
        assert_eq!(
            r.messages_between(Time::from_millis(101), Time::from_millis(102)),
            1
        );
        assert_eq!(
            r.messages_between(Time::from_millis(101), Time::from_millis(101)),
            0
        );
        assert_eq!(
            r.heavy_messages_between(Time::ZERO, Time::from_millis(200)),
            2
        );
    }
}
