//! Lumiere: optimal Byzantine View Synchronization for partial synchrony.
//!
//! This crate contains the paper's primary contribution — the **Lumiere**
//! pacemaker (Sections 3.4, 3.5 and 4 of *Lumiere: Making Optimal BFT for
//! Partial Synchrony Practical*, PODC 2024) — together with the abstractions
//! it is built on:
//!
//! * [`clock::LocalClock`] — a pausable, bumpable local clock (Section 2),
//! * [`schedule::LeaderSchedule`] — leader schedules, including the
//!   paired-reverse permutation schedule of Section 4 which gives every
//!   leader two consecutive views and makes the last leader of each epoch
//!   equal to the first leader of the next,
//! * [`messages::PacemakerMessage`] and [`certs`] — the view / epoch-view
//!   messages and the VC / EC / TC certificates assembled from them,
//! * [`pacemaker::Pacemaker`] — the Byzantine View Synchronization interface
//!   every protocol in this workspace (Lumiere and the baselines) implements,
//!   and [`ledger`] — the per-view flags and signature pools every one of
//!   them keeps,
//! * [`basic::BasicLumiere`] — the Section 3.4 protocol (LP22 epochs + Fever
//!   clock bumping, heavy synchronization at the start of *every* epoch),
//! * [`lumiere::Lumiere`] — the full protocol of Algorithm 1, which adds the
//!   success criterion, TCs, and Δ-deferred epoch-view messages so that heavy
//!   synchronizations stop once the system is synchronized.
//!
//! # Quick start
//!
//! ```
//! use lumiere_core::{Lumiere, LumiereConfig, Pacemaker};
//! use lumiere_crypto::keygen;
//! use lumiere_types::{Duration, Params, Time};
//!
//! let params = Params::new(4, Duration::from_millis(10));
//! let (keys, pki) = keygen(4, 0);
//! let cfg = LumiereConfig::new(params, 0);
//! let mut pacemaker = Lumiere::new(cfg, keys[0].clone(), pki);
//! // Booting pauses the local clock at the epoch-0 boundary and schedules a
//! // Δ-deferred epoch-view broadcast, exactly as Algorithm 1 prescribes.
//! let actions = pacemaker.boot(Time::ZERO);
//! assert!(!actions.is_empty());
//! ```
//!
//! # Paper mapping
//!
//! Byzantine View Synchronization is the paper's subject; this crate is its
//! algorithmic core. Section 2 → [`clock::LocalClock`] and the [`pacemaker`]
//! interface; Section 3.4 → [`basic::BasicLumiere`]; Sections 3.5 and 4
//! (success criterion, paired-reverse schedules, Δ-deferred epoch-view
//! messages — Algorithm 1) → [`lumiere::Lumiere`]. The Lumiere rows of
//! Table 1 are measured over this implementation by `crates/bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod basic;
pub mod certs;
pub mod clock;
pub mod ledger;
pub mod lumiere;
pub mod mempool;
pub mod messages;
pub mod pacemaker;
pub mod planted;
pub mod schedule;

pub use basic::BasicLumiere;
pub use certs::{EpochCert, TimeoutCert, ViewCert, WishCert};
pub use clock::LocalClock;
pub use lumiere::{Lumiere, LumiereConfig};
pub use mempool::{Mempool, MempoolConfig};
pub use messages::PacemakerMessage;
pub use pacemaker::{Pacemaker, PacemakerAction};
pub use planted::PlantedBug;
pub use schedule::LeaderSchedule;
