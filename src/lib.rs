//! # Lumiere reproduction
//!
//! A from-scratch Rust reproduction of *Lumiere: Making Optimal BFT for
//! Partial Synchrony Practical* (Lewis-Pye, Malkhi, Naor, Nayak — PODC 2024,
//! arXiv:2311.08091): the Lumiere Byzantine view synchronization protocol,
//! every baseline it is compared against (LP22, Fever, Cogsworth/NK20), the
//! chained HotStuff-style SMR substrate it paces, and a deterministic
//! partial-synchrony simulator plus benchmark harness that regenerates the
//! paper's Table 1, Figure 1 and the Theorem 1.1 properties.
//!
//! This facade crate re-exports the workspace crates under stable module
//! names; see each module (crate) for its own documentation:
//!
//! * [`types`] — identifiers, simulated time, views/epochs, parameters,
//! * [`crypto`] — the simulated signature / threshold-signature substrate,
//! * [`consensus`] — the underlying chained HotStuff-style protocol,
//! * [`core`] — **the paper's contribution**: the pacemaker abstraction,
//!   local clocks, leader schedules, Basic Lumiere and full Lumiere,
//! * [`baselines`] — LP22, Fever, Cogsworth/NK20 and a naive pacemaker,
//! * [`sim`] — the discrete-event partial-synchrony simulator and metrics.
//!
//! ## Quick start
//!
//! ```
//! use lumiere::prelude::*;
//!
//! // Simulate 7 processors running full Lumiere for two simulated seconds
//! // with Δ = 10 ms and an actual network delay of 1 ms.
//! let report = SimConfig::new(ProtocolKind::Lumiere, 7)
//!     .with_delta(Duration::from_millis(10))
//!     .with_actual_delay(Duration::from_millis(1))
//!     .with_horizon(Duration::from_secs(2))
//!     .run();
//!
//! assert!(report.safety_ok);
//! assert!(report.decisions() > 0);
//! println!(
//!     "{} decisions, worst-case latency {:?}",
//!     report.decisions(),
//!     report.worst_case_latency()
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lumiere_baselines as baselines;
pub use lumiere_consensus as consensus;
pub use lumiere_core as core;
pub use lumiere_crypto as crypto;
pub use lumiere_sim as sim;
pub use lumiere_types as types;

/// The most commonly used items, re-exported for convenience.
pub mod prelude {
    pub use lumiere_baselines::{Fever, Lp22, NaiveQuadratic, RelayPacemaker};
    pub use lumiere_consensus::{HotStuffEngine, QuorumCert};
    pub use lumiere_core::{
        BasicLumiere, LeaderSchedule, LocalClock, Lumiere, LumiereConfig, Pacemaker,
        PacemakerAction, PacemakerMessage,
    };
    pub use lumiere_crypto::{keygen, Digest, KeyPair, Pki, Signature, ThresholdSignature};
    pub use lumiere_sim::scenario::{ProtocolKind, SimConfig};
    pub use lumiere_sim::{
        AdversarySchedule, Corruption, DelayModel, DelayRule, EdgeClass, MsgClass, SimReport,
        StrategyKind,
    };
    pub use lumiere_types::{Duration, Epoch, Params, ProcessId, Time, TimeRange, View};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_are_usable_together() {
        let params = Params::new(4, Duration::from_millis(10));
        let (keys, pki) = keygen(4, 0);
        let cfg = LumiereConfig::new(params, 0);
        let pacemaker = Lumiere::new(cfg, keys[0].clone(), pki.clone());
        assert_eq!(pacemaker.processor().id(), ProcessId::new(0));
        let engine = HotStuffEngine::new(keys[1].id(), keys[1].clone(), pki, params);
        assert_eq!(engine.current_view(), View::SENTINEL);
    }
}
