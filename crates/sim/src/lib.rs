//! Deterministic discrete-event simulation of the partial synchrony model.
//!
//! The paper's complexity measures (Section 2) are statements about the
//! number of messages honest processors send and the time that elapses
//! between QCs produced by honest leaders, as functions of `n`, `f_a`, `Δ`
//! and the actual network delay `δ`. This crate provides the substrate on
//! which those quantities are measured for Lumiere and for every baseline:
//!
//! * [`DelayModel`] — the partial-synchrony network: the adversary picks the
//!   delay of every message subject to delivery by `max(GST, send) + Δ`;
//!   pluggable models cover the responsive (`δ ≪ Δ`), adversarial (exactly
//!   `Δ`) and randomized regimes.
//! * [`AdversarySchedule`] — the pluggable, state-reactive adversary
//!   subsystem: each corrupted processor runs a [`Strategy`] of one
//!   serializable [`StrategyKind`] (equivocation, crash–recovery, the
//!   static silent behaviours, and *adaptive* attacks — leader targeting,
//!   QC starvation — that react mid-run to read-only [`ProtocolObs`]
//!   snapshots), and plans also carry per-edge, time-windowed delay rules
//!   (targeted partitions). See `docs/ADVERSARIES.md` for the mapping to
//!   the paper's attack arguments.
//! * **The simulator is a transport**: each processor is a
//!   [`lumiere_runtime::ProtocolRuntime`] — a corrupted one carrying its
//!   adversary strategy — and this crate is one of three backends
//!   (virtual network, in-process channel mesh, TCP mesh) driving the
//!   identical protocol code.
//! * [`event`] — the calendar event queue; [`runner`] — the event loop;
//!   [`metrics`] — the measurements; [`trace`] — per-processor execution
//!   traces (used for Figure 1); [`scenario`] — configuration and protocol
//!   selection, the main entry point for examples and benchmarks.
//!
//! The hot path scales to `n` in the thousands: broadcasts are queued
//! *symbolically* (one calendar-queue entry per honesty class, lazily
//! expanded at pop time) so a broadcast costs O(1) queue space, and a run
//! of its recipients is delivered from one borrowed message. One thread
//! delivers the queue in batches: a batch is every entry due at the next
//! instant with a sequence number at or below the queue's last one when
//! the batch began, and run-stopping checks fall between batches, so a
//! limit cuts every run at a point fixed by the event stream alone. Every
//! handler writes into one reused output buffer, and applying the output
//! visits only the classes it filled and leaves the buffer empty for the
//! next handler. Metrics are run-length encoded (and grid-sampled at large
//! `n`) so reports stay bounded — design notes and before/after numbers in
//! `docs/PERFORMANCE.md`.
//!
//! # Example: one synchronized run of Lumiere
//!
//! ```
//! use lumiere_sim::scenario::{ProtocolKind, SimConfig};
//! use lumiere_types::Duration;
//!
//! let report = SimConfig::new(ProtocolKind::Lumiere, 4)
//!     .with_delta(Duration::from_millis(10))
//!     .with_actual_delay(Duration::from_millis(1))
//!     .with_horizon(Duration::from_secs(5))
//!     .run();
//! assert!(report.decisions() > 0, "an honest run must commit blocks");
//! ```
//!
//! # Paper mapping
//!
//! Section 2's partial-synchrony model and complexity measures, made
//! executable: [`metrics::SimReport`] records the raw event series (honest
//! sends, QCs, commits, heavy-sync participations, clock-gap samples) from
//! which the worst-case and eventual measures of Table 1 are derived, and
//! serializes to the JSON report format documented in
//! `docs/REPORT_SCHEMA.md`. Every report also carries a deterministic
//! behavioural [`metrics::CoverageFingerprint`] (schema v4), the novelty
//! signal of the coverage-guided adversary fuzzer in `crates/bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod runner;
pub mod scenario;
pub mod trace;
pub mod workload;

// The adversary subsystem and the delay models live in `lumiere-runtime`, so
// live clusters corrupt themselves with byte-for-byte the same code the
// simulator gates in virtual time; the simulator re-exports their names.
pub use lumiere_core::planted::PlantedBug;
pub use lumiere_runtime::adversary::{
    AdversarySchedule, Corruption, DelayRule, EdgeClass, MsgClass, ProtocolObs, Strategy,
    StrategyCtx, StrategyKind,
};
/// The closed enum [`StrategyKind`] replaced. `benchmark/src/workload.rs`
/// still says `ByzBehavior::SilentLeader` and only a benchmark-only PR may
/// edit it: the next one renames that use and deletes this alias.
#[doc(hidden)]
pub type ByzBehavior = StrategyKind;
pub use lumiere_runtime::delay::DelayModel;
pub use metrics::{CoverageFingerprint, SimReport};
pub use runner::{BroadcastMode, ExecOptions};
pub use scenario::{ProtocolKind, SimConfig};
pub use workload::WorkloadConfig;
