//! Experiment harness regenerating every table and figure of the paper.
//!
//! The paper's evaluation consists of Table 1 (asymptotic comparison of
//! Cogsworth/NK20, LP22, Fever and Lumiere on four measures), Figure 1 (a
//! concrete LP22 failure scenario) and the four properties of Theorem 1.1.
//! Each experiment here runs the corresponding simulated scenario for every
//! protocol and prints the measured rows as markdown tables, whose *shape*
//! is compared with the paper's asymptotic claims.
//!
//! One binary, `lumiere-bench <experiment>… | all` ([`cli`]), runs them by
//! slug:
//!
//! | experiment | paper artifact |
//! |---|---|
//! | `table1_worst` | Table 1, worst-case communication and latency (E1 + E3) |
//! | `table1_eventual` | Table 1, eventual worst-case communication and latency (E2 + E4) |
//! | `responsiveness` | Theorem 1.1(3), latency vs. actual delay δ |
//! | `figure1` | Figure 1 |
//! | `heavy_syncs` | Section 3.5 / Theorem 1.1(4), heavy-sync suppression |
//! | `honest_gap` | Lemmas 5.9–5.12, honest-gap dynamics |
//! | `adversaries` | equivocation / targeted partition / crash–recovery at `f_a = f` |
//! | `scale` | the O(n·f_a + n) vs Θ(n²) separation at n up to 8192 |
//! | `load` | throughput–latency saturation under open-loop client load |
//! | `certificates` | constant-size aggregates vs naive signature vectors |
//!
//! `--full` selects the larger parameter sweeps used for the reference
//! numbers; the default "quick" sweeps finish in well under a minute on a
//! laptop. Nothing here times a layer: that is
//! `benchmark/`'s job (`--trace 1`), and regressions are judged by its
//! paired runs.
//!
//! # Persistent reports and parallel sweeps
//!
//! Since PR 2 the harness is organised as a pipeline:
//!
//! * [`experiments`] — each experiment hands a grid of independent seeded
//!   simulations to [`experiments::Sweep`], which renders the markdown table
//!   and builds the cells;
//! * [`grid`] — the grid is scattered over OS threads ([`grid::run_grid`]),
//!   with results restored to deterministic grid order;
//! * [`report`] — every grid cell can be persisted as a JSON file
//!   ([`report::SweepCell`], format in `docs/REPORT_SCHEMA.md`), loaded back,
//!   and diffed across runs for regression checks;
//! * [`cli`] — the `--out` / `--threads` / `--check` / `--diff` front end.
//!
//! The adversary-fuzzing stack is a fourth pillar: [`fuzz`] (per-seed
//! sampler, safety/liveness oracles, greedy minimizer), [`mutate`]
//! (structural mutation operators over adversary schedules) and [`corpus`]
//! (the one search loop over behavioural fingerprints, all-fresh or
//! coverage-guided, including the planted-bug calibration mode) — all
//! behind the `fuzz_adversary` binary, documented in `docs/ADVERSARIES.md`.
//!
//! Because each simulation carries its own seed and output ordering is
//! independent of scheduling, a sweep writes byte-identical files for every
//! `--threads` value.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod corpus;
pub mod experiments;
pub mod fuzz;
pub mod grid;
pub mod mutate;
pub mod report;
pub mod table;

pub use corpus::{run_coverage_fuzz, Corpus, CorpusEntry, CoverageOutcome};
pub use experiments::{ExperimentDef, ExperimentRun, ExperimentScale, ALL_EXPERIMENTS};
pub use fuzz::{FuzzOptions, Verdict};
pub use grid::run_grid;
pub use report::SweepCell;
pub use table::TextTable;
