//! Baseline Byzantine view synchronization protocols.
//!
//! Every column of Table 1 in the paper is implemented here against the same
//! [`lumiere_core::Pacemaker`] interface as Lumiere itself, so the simulator
//! and the benchmark harness can compare them head-to-head:
//!
//! * [`lp22::Lp22`] — the epoch-based protocol of LP22 (Section 3.2):
//!   optimal `O(n²)` worst-case communication, but a heavy synchronization at
//!   the start of *every* epoch and no clock bumping, so a single Byzantine
//!   leader can repeatedly cause `Ω(nΔ)` gaps between decisions (Figure 1).
//! * [`fever::Fever`] — the clock-bumping protocol of Fever (Section 3.3).
//!   Optimal in every measure, but it *assumes* the `(f+1)`-st honest gap is
//!   at most Γ when the execution starts (a non-standard clock-synchrony
//!   assumption which the simulator grants by booting all processors
//!   together).
//! * [`relay::RelayPacemaker`] — a Cogsworth / NK20 style relay synchronizer:
//!   on a view timeout processors send *wish* messages to the next leader,
//!   which aggregates and broadcasts a synchronization certificate; if that
//!   leader is faulty the wish walks to the following leader. Expected-linear
//!   per view change, but `O(n + n·f_a²)` eventual communication and
//!   `O(f_a²Δ)` eventual latency under faults, `O(n³)` / `O(n²Δ)` worst case.
//! * [`naive::NaiveQuadratic`] — a PBFT-style all-to-all timeout pacemaker,
//!   used as an extra ablation: always `Θ(n²)` per view change.
//!
//! # Paper mapping
//!
//! Sections 3.1–3.3 (the prior-work protocols Lumiere is measured against)
//! and the Cogsworth/NK20, LP22 and Fever rows of Table 1; the LP22 stall
//! of Figure 1 is reproduced against [`lp22::Lp22`] by the `figure1`
//! experiment in `crates/bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fever;
pub mod lp22;
pub mod naive;
pub mod relay;

pub use fever::Fever;
pub use lp22::Lp22;
pub use naive::NaiveQuadratic;
pub use relay::RelayPacemaker;
