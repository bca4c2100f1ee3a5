//! The commit horizon is invisible to the pacemakers: each of the six
//! protocols, and Lumiere with 8-view epochs, runs an n = 4 cluster in
//! which every node's pacemaker is pruned on each commit, the way
//! `ProtocolRuntime` prunes it, and a twin of it that is never pruned is fed
//! every event too. Every call must return the same actions from both.
//! Processor 3 never proposes, so its views end in timeouts and view
//! changes, and Lumiere's epochs in heavy synchronizations as well as
//! successes.
//!
//! Rounds are 1 ms apart and deliver what was sent in the round before, in
//! a seeded shuffle. On top of that every node is handed, each round, two
//! copies of messages it received earlier, drawn from all it ever received,
//! so copies of messages for views long below the horizon keep arriving.

use lumiere_consensus::{ConsensusAction, ConsensusMessage, HotStuffEngine};
use lumiere_core::lumiere::{Lumiere, LumiereConfig};
use lumiere_core::messages::PacemakerMessage;
use lumiere_core::pacemaker::{Pacemaker, PacemakerAction};
use lumiere_crypto::{keygen, KeyPair, Pki};
use lumiere_runtime::ProtocolKind;
use lumiere_types::view::EpochLayout;
use lumiere_types::{Duration, Params, ProcessId, Time};
use std::collections::VecDeque;

const N: usize = 4;
const SEED: u64 = 11;
/// Never proposes.
const SILENT: usize = 3;

#[derive(Clone)]
enum Mail {
    Pacemaker(PacemakerMessage),
    Consensus(ConsensusMessage),
}

struct Node {
    engine: HotStuffEngine,
    pruned: Box<dyn Pacemaker>,
    twin: Box<dyn Pacemaker>,
    wakes: Vec<Time>,
    /// Everything this node was delivered, for the copies.
    received: Vec<(usize, Mail)>,
}

impl Node {
    /// Runs `call` on both pacemakers and returns the pruned one's actions
    /// after checking the twin's are the same.
    fn both(
        &mut self,
        what: &str,
        call: impl Fn(&mut dyn Pacemaker) -> Vec<PacemakerAction>,
    ) -> Vec<PacemakerAction> {
        let actions = call(self.pruned.as_mut());
        assert_eq!(actions, call(self.twin.as_mut()), "{what}");
        actions
    }
}

struct Lcg(u64);

impl Lcg {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize % bound
    }
}

struct Cluster {
    nodes: Vec<Node>,
    now: Time,
    rng: Lcg,
    /// `(from, to, mail)` sent this round, delivered the next.
    sent: Vec<(usize, usize, Mail)>,
}

impl Cluster {
    /// `build` makes one node's pacemaker from the cluster's parameters and
    /// that node's keys; it is called twice per node.
    fn new(build: impl Fn(Params, &KeyPair, &Pki) -> Box<dyn Pacemaker>) -> Self {
        let params = Params::new(N, Duration::from_millis(10));
        let (keys, pki) = keygen(N, SEED);
        let nodes = keys
            .iter()
            .map(|k| {
                let mut engine = HotStuffEngine::new(k.id(), k.clone(), pki.clone(), params);
                engine.set_proposing_enabled(k.id().as_usize() != SILENT);
                Node {
                    engine,
                    pruned: build(params, k, &pki),
                    twin: build(params, k, &pki),
                    wakes: Vec::new(),
                    received: Vec::new(),
                }
            })
            .collect();
        let mut cluster = Cluster {
            nodes,
            now: Time::ZERO,
            rng: Lcg(SEED),
            sent: Vec::new(),
        };
        for who in 0..N {
            let now = cluster.now;
            let actions = cluster.nodes[who].both("boot", |pm| pm.boot(now));
            cluster.cascade(who, actions, Vec::new());
        }
        cluster
    }

    /// `ProtocolRuntime`'s cascade: pacemaker actions first, then consensus
    /// actions, until both run dry — or, for an event the engine handled,
    /// the consensus actions first. A commit prunes one pacemaker only.
    fn cascade(&mut self, who: usize, pm: Vec<PacemakerAction>, cons: Vec<ConsensusAction>) {
        let mut pm: VecDeque<PacemakerAction> = pm.into();
        let mut cons: VecDeque<ConsensusAction> = cons.into();
        let mut consensus_first = !cons.is_empty();
        let now = self.now;
        let node = &mut self.nodes[who];
        loop {
            if !consensus_first {
                if let Some(action) = pm.pop_front() {
                    match action {
                        PacemakerAction::SendTo(to, m) => {
                            self.sent.push((who, to.as_usize(), Mail::Pacemaker(m)));
                        }
                        PacemakerAction::Broadcast(m) => {
                            for to in (0..N).filter(|&to| to != who) {
                                self.sent.push((who, to, Mail::Pacemaker(m.clone())));
                            }
                        }
                        PacemakerAction::WakeAt(at) => node.wakes.push(at),
                        PacemakerAction::HeavySyncStarted { .. } => {}
                        PacemakerAction::SetQcDeadline { view, deadline } => {
                            node.engine.set_qc_deadline(view, deadline);
                        }
                        PacemakerAction::EnterView { view, leader } => {
                            cons.extend(node.engine.enter_view(view, leader, now));
                        }
                    }
                    continue;
                }
            }
            if let Some(action) = cons.pop_front() {
                match action {
                    ConsensusAction::Broadcast(m) => {
                        for to in (0..N).filter(|&to| to != who) {
                            self.sent.push((who, to, Mail::Consensus(m.clone())));
                        }
                    }
                    ConsensusAction::Send(to, m) => {
                        self.sent.push((who, to.as_usize(), Mail::Consensus(m)));
                    }
                    ConsensusAction::Committed(block) => node.pruned.prune_below(block.view()),
                    ConsensusAction::QcFormed(qc) => {
                        pm.extend(node.both("on_qc", |p| p.on_qc(&qc, true, now)));
                    }
                    ConsensusAction::QcObserved(qc) => {
                        pm.extend(node.both("on_qc", |p| p.on_qc(&qc, false, now)));
                    }
                }
                continue;
            }
            if consensus_first {
                consensus_first = false;
                continue;
            }
            break;
        }
    }

    fn deliver(&mut self, from: usize, to: usize, mail: &Mail) {
        let (sender, now) = (ProcessId::new(from), self.now);
        let node = &mut self.nodes[to];
        match mail {
            Mail::Pacemaker(m) => {
                let actions = node.both("on_message", |p| p.on_message(sender, m, now));
                self.cascade(to, actions, Vec::new());
            }
            Mail::Consensus(m) => {
                let actions = node.engine.on_message(sender, m, now);
                self.cascade(to, Vec::new(), actions);
            }
        }
    }

    fn round(&mut self) {
        let mut mail = std::mem::take(&mut self.sent);
        while !mail.is_empty() {
            let (from, to, m) = mail.swap_remove(self.rng.below(mail.len()));
            self.deliver(from, to, &m);
            self.nodes[to].received.push((from, m));
        }
        for to in 0..N {
            for _ in 0..2 {
                let received = &self.nodes[to].received;
                if received.is_empty() {
                    break;
                }
                let (from, m) = received[self.rng.below(received.len())].clone();
                self.deliver(from, to, &m);
            }
        }
        self.now += Duration::from_millis(1);
        for who in 0..N {
            let now = self.now;
            let before = self.nodes[who].wakes.len();
            self.nodes[who].wakes.retain(|t| *t > now);
            if self.nodes[who].wakes.len() < before {
                let actions = self.nodes[who].both("on_wake", |p| p.on_wake(now));
                self.cascade(who, actions, Vec::new());
            }
        }
    }
}

/// Runs `build`'s cluster until node 0 reaches view 150 and checks that
/// the pruning happened: the pruned pacemaker holds fewer entries than the
/// twin.
fn run(label: &str, build: impl Fn(Params, &KeyPair, &Pki) -> Box<dyn Pacemaker>) {
    let mut cluster = Cluster::new(build);
    for _ in 0..20_000 {
        cluster.round();
        if cluster.nodes[0].pruned.current_view().as_i64() >= 150 {
            break;
        }
    }
    let node = &cluster.nodes[0];
    let view = node.pruned.current_view().as_i64();
    assert!(view >= 150, "{label}: only {view} views entered");
    let (pruned, kept) = (node.pruned.state_entries(), node.twin.state_entries());
    assert!(
        pruned < kept,
        "{label}: {pruned} entries pruned against {kept} kept, view {view}"
    );
}

#[test]
fn pruning_a_pacemaker_changes_none_of_its_actions() {
    for protocol in ProtocolKind::all() {
        run(protocol.name(), |params, keys, pki| {
            protocol.build_pacemaker(params, keys.clone(), pki.clone(), SEED)
        });
    }
    run("lumiere, 8-view epochs", |params, keys, pki| {
        let mut cfg = LumiereConfig::new(params, SEED);
        cfg.layout = EpochLayout::new(8);
        cfg.success_qcs_per_leader = 2;
        Box::new(Lumiere::new(cfg, keys.clone(), pki.clone()))
    });
}
