//! The underlying view-based SMR substrate.
//!
//! Lumiere (and every baseline pacemaker in this workspace) synchronizes
//! views for an *underlying protocol* which, per Section 2 of the paper, must
//! satisfy two properties:
//!
//! * **⋄1** — if the leader of view `v` is honest, the time is past GST, and
//!   at least `2f+1` honest processors stay in view `v` for `x·δ` time, then
//!   every honest processor receives a QC for view `v` within `x·δ`;
//! * **⋄2** — no view produces a QC unless `2f+1` processors act as if honest
//!   and in that view for a non-zero interval.
//!
//! This crate provides such a protocol: a chained HotStuff-style engine
//! ([`engine::HotStuffEngine`]). In each view the designated leader proposes
//! a block extending the highest QC it knows, replicas vote, the leader
//! aggregates `2f+1` votes into a [`QuorumCert`] and broadcasts it — three
//! message delays, so the workspace uses `x = 3`
//! ([`lumiere_types::DEFAULT_VIEW_ROUNDS`]). Blocks are committed under the
//! two-chain rule (HotStuff-2 \[14\]).
//!
//! The engine is deliberately independent of *how* views advance: a pacemaker
//! calls [`engine::HotStuffEngine::enter_view`] and consumes the
//! [`ConsensusAction::QcFormed`] / [`ConsensusAction::QcObserved`]
//! notifications the engine emits.
//!
//! # Paper mapping
//!
//! Section 2 (the *underlying protocol* and its ⋄1/⋄2 properties, quoted
//! above); the QCs this engine produces are the events the paper's latency
//! and communication measures are defined over, and which the Table 1
//! experiments in `crates/bench` count.
//!
//! # Example
//!
//! ```
//! use lumiere_consensus::{HotStuffEngine, ConsensusAction, ConsensusMessage};
//! use lumiere_crypto::keygen;
//! use lumiere_types::{Params, ProcessId, View, Time, Duration};
//!
//! let params = Params::new(4, Duration::from_millis(10));
//! let (keys, pki) = keygen(4, 0);
//! let mut engines: Vec<_> = keys
//!     .iter()
//!     .map(|k| HotStuffEngine::new(k.id(), k.clone(), pki.clone(), params))
//!     .collect();
//!
//! // Everyone enters view 0 whose leader is p0; the leader proposes.
//! let leader = ProcessId::new(0);
//! let now = Time::ZERO;
//! let mut actions = Vec::new();
//! for e in engines.iter_mut() {
//!     actions.extend(e.enter_view(View::new(0), leader, now));
//! }
//! let proposal = actions
//!     .iter()
//!     .find_map(|a| match a {
//!         ConsensusAction::Broadcast(m @ ConsensusMessage::Proposal(_)) => Some(m.clone()),
//!         _ => None,
//!     })
//!     .expect("leader proposed");
//!
//! // Deliver the proposal to the other replicas; they vote.
//! let mut votes = Vec::new();
//! for e in engines.iter_mut().skip(1) {
//!     for a in e.on_message(leader, &proposal, now) {
//!         if let ConsensusAction::Send(_, m @ ConsensusMessage::Vote { .. }) = a {
//!             votes.push(m);
//!         }
//!     }
//! }
//! // Deliver the votes to the leader; it forms a QC for view 0.
//! let mut qc_formed = false;
//! for (i, v) in votes.into_iter().enumerate() {
//!     for a in engines[0].on_message(ProcessId::new(i + 1), &v, now) {
//!         if matches!(a, ConsensusAction::QcFormed(_)) {
//!             qc_formed = true;
//!         }
//!     }
//! }
//! assert!(qc_formed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod engine;
pub mod messages;
pub mod qc;
pub mod store;

pub use block::{Block, BlockHash, GENESIS_HASH};
pub use engine::{ConsensusAction, HotStuffEngine};
pub use messages::ConsensusMessage;
pub use qc::QuorumCert;
pub use store::BlockStore;
