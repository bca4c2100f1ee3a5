//! Protocol selection: which view-synchronization pacemaker a runtime runs.
//!
//! [`ProtocolKind`] used to live inside the simulator's scenario module; it
//! moved here when the protocol was lifted out of the simulator, because the
//! live node binary needs to build pacemakers too. The simulator re-exports
//! it from its old path.

use lumiere_baselines::{Fever, Lp22, NaiveQuadratic, RelayPacemaker};
use lumiere_consensus::HotStuffEngine;
use lumiere_core::pacemaker::Pacemaker;
use lumiere_core::planted::PlantedBug;
use lumiere_core::{BasicLumiere, Lumiere, LumiereConfig};
use lumiere_crypto::{keygen, KeyPair, Pki};
use lumiere_types::{Duration, Params, ProcessId};
use serde::{Deserialize, Serialize};

use crate::runtime::ProtocolRuntime;

/// The view-synchronization protocol under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// Full Lumiere (Algorithm 1).
    Lumiere,
    /// Basic Lumiere (Section 3.4) — heavy synchronization at every epoch.
    BasicLumiere,
    /// LP22 (Section 3.2).
    Lp22,
    /// Fever (Section 3.3) — granted its clock-synchrony assumption.
    Fever,
    /// Cogsworth / NK20-style relay synchronizer (one model of both).
    Cogsworth,
    /// Naive PBFT-style all-to-all pacemaker.
    Naive,
}

impl ProtocolKind {
    /// Short name used in reports, CSV output and node config files.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolKind::Lumiere => "lumiere",
            ProtocolKind::BasicLumiere => "basic-lumiere",
            ProtocolKind::Lp22 => "lp22",
            ProtocolKind::Fever => "fever",
            ProtocolKind::Cogsworth => "cogsworth",
            ProtocolKind::Naive => "naive-quadratic",
        }
    }

    /// Parses a [`ProtocolKind::name`] back into the kind (node config
    /// files name protocols by their short name).
    pub fn from_name(name: &str) -> Option<ProtocolKind> {
        ProtocolKind::all().into_iter().find(|p| p.name() == name)
    }

    /// All implemented protocols.
    pub fn all() -> [ProtocolKind; 6] {
        [
            ProtocolKind::Lumiere,
            ProtocolKind::BasicLumiere,
            ProtocolKind::Lp22,
            ProtocolKind::Fever,
            ProtocolKind::Cogsworth,
            ProtocolKind::Naive,
        ]
    }

    /// The protocols that appear in Table 1 of the paper (its Cogsworth
    /// and NK20 columns are one row here).
    pub fn table1() -> [ProtocolKind; 4] {
        [
            ProtocolKind::Cogsworth,
            ProtocolKind::Lp22,
            ProtocolKind::Fever,
            ProtocolKind::Lumiere,
        ]
    }

    /// Builds the pacemaker instance of this protocol for one processor.
    pub fn build_pacemaker(
        &self,
        params: Params,
        keys: KeyPair,
        pki: Pki,
        seed: u64,
    ) -> Box<dyn Pacemaker> {
        self.pacemaker_factory(params, &pki, seed, None).build(keys)
    }

    /// The pacemaker builder of one cluster: what every processor shares —
    /// Lumiere's leader order — is built here once, and
    /// [`PacemakerFactory::build`] builds each processor's pacemaker around
    /// it. `planted` plants a calibration bug (Lumiere only; other protocols
    /// ignore it — see [`lumiere_core::planted`]).
    pub fn pacemaker_factory<'a>(
        &self,
        params: Params,
        pki: &'a Pki,
        seed: u64,
        planted: Option<PlantedBug>,
    ) -> PacemakerFactory<'a> {
        use Recipe::Plain;
        let recipe = match self {
            Self::Lumiere => Recipe::Lumiere(LumiereConfig {
                planted,
                ..LumiereConfig::new(params, seed)
            }),
            Self::BasicLumiere => Plain(|p, k, pki| Box::new(BasicLumiere::new(p, k, pki))),
            Self::Lp22 => Plain(|p, k, pki| Box::new(Lp22::new(p, k, pki))),
            Self::Fever => Plain(|p, k, pki| Box::new(Fever::new(p, k, pki))),
            Self::Cogsworth => Plain(|p, k, pki| Box::new(RelayPacemaker::cogsworth(p, k, pki))),
            Self::Naive => Plain(|p, k, pki| Box::new(NaiveQuadratic::new(p, k, pki))),
        };
        PacemakerFactory {
            params,
            pki,
            recipe,
        }
    }
}

/// Builds one cluster's pacemakers (see [`ProtocolKind::pacemaker_factory`]).
#[derive(Debug)]
pub struct PacemakerFactory<'a> {
    params: Params,
    pki: &'a Pki,
    recipe: Recipe,
}

/// What a factory builds each pacemaker from.
#[derive(Debug)]
enum Recipe {
    /// Lumiere's configuration, its leader order included.
    Lumiere(LumiereConfig),
    /// Any other protocol, built from the parameters and keys alone.
    Plain(fn(Params, KeyPair, Pki) -> Box<dyn Pacemaker>),
}

impl PacemakerFactory<'_> {
    /// The pacemaker of the processor owning `keys`.
    pub fn build(&self, keys: KeyPair) -> Box<dyn Pacemaker> {
        let pki = self.pki.clone();
        match &self.recipe {
            Recipe::Lumiere(cfg) => Box::new(Lumiere::new(cfg.clone(), keys, pki)),
            Recipe::Plain(build) => build(self.params, keys, pki),
        }
    }
}

/// Builds the full [`ProtocolRuntime`] for processor `who` of an `n`-node
/// cluster: deterministic keys from `seed` (every node derives the same PKI
/// by running the same key generation), the chosen pacemaker, and a
/// HotStuff engine.
///
/// This is the live deployments' counterpart of the simulator's
/// `SimConfig::build_nodes`.
pub fn build_runtime(
    protocol: ProtocolKind,
    n: usize,
    who: usize,
    delta: Duration,
    seed: u64,
) -> ProtocolRuntime {
    build_runtime_with(protocol, n, who, delta, seed, None)
}

/// Like [`build_runtime`], optionally planting a calibration bug (Lumiere
/// only; see [`lumiere_core::planted`]). The live planted-bug detection
/// check builds its cluster through this: real processes running a known
/// liveness bug the harness's oracles must flag.
pub fn build_runtime_with(
    protocol: ProtocolKind,
    n: usize,
    who: usize,
    delta: Duration,
    seed: u64,
    planted: Option<PlantedBug>,
) -> ProtocolRuntime {
    assert!(who < n, "node id {who} out of range for n = {n}");
    let params = Params::new(n, delta);
    let (keys, pki) = keygen(n, seed);
    let key = keys[who].clone();
    let pacemaker = protocol
        .pacemaker_factory(params, &pki, seed, planted)
        .build(key.clone());
    let engine = HotStuffEngine::new(key.id(), key, pki, params);
    ProtocolRuntime::new(ProcessId::new(who), pacemaker, engine)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in ProtocolKind::all() {
            assert_eq!(ProtocolKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(ProtocolKind::from_name("no-such-protocol"), None);
    }

    #[test]
    fn build_runtime_assigns_the_requested_id() {
        let rt = build_runtime(ProtocolKind::Fever, 4, 2, Duration::from_millis(10), 0);
        assert_eq!(rt.id(), ProcessId::new(2));
        assert_eq!(rt.protocol_name(), "fever");
    }
}
