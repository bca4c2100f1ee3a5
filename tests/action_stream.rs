//! Pins the complete `PacemakerAction` / `ConsensusAction` stream of a
//! hand-stepped n = 7 cluster under seeded hostile interleavings, for every
//! pacemaker.
//!
//! Every node is a pacemaker cascaded with a [`HotStuffEngine`] the way
//! `ProtocolRuntime` cascades them, except that each action either component
//! emits is folded — in order, with the emitting node's id — into one 64-bit
//! digest. The driver delivers mail out of order, leaves copies behind
//! (duplicates), lets proposals overtake view entry, keeps one leader silent
//! and has another equivocate, and relays genuine and forged view / timeout /
//! epoch / synchronization certificates. Lumiere runs a shortened epoch
//! layout so every run crosses epoch boundaries both ways (success criterion
//! met, and heavy synchronization); the other five protocols run as
//! [`ProtocolKind::build_pacemaker`] builds them.
//!
//! Lumiere's digests were captured on the tree *before* the per-view hash
//! collections in `lumiere.rs` and `engine.rs` became indexed records, and
//! the other protocols' before their per-view sets and pools moved onto one
//! ledger; any change to a pacemaker or the engine must reproduce them bit
//! for bit.

use lumiere::consensus::{Block, ConsensusAction, ConsensusMessage};
use lumiere::core::{EpochCert, TimeoutCert};
use lumiere::prelude::*;
use lumiere::types::view::EpochLayout;
use lumiere::types::wire::Wire;
use lumiere::types::Batch;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

const N: usize = 7;
/// Never proposes (a silent leader); otherwise follows the protocol.
const SILENT: usize = 5;
/// Never proposes through its engine; the driver sends two conflicting
/// blocks in each initial view it leads.
const EQUIVOCATOR: usize = 6;
/// Two views per leader per epoch, so a Lumiere run of ~45 views crosses
/// three epoch boundaries.
const EPOCH_LEN: u64 = 2 * N as u64;

/// FNV-1a over the `Debug` rendering of every action, in emission order.
struct Stream(u64);

impl Stream {
    fn fold(&mut self, node: usize, action: &dyn std::fmt::Debug) {
        for byte in format!("{node}:{action:?};").bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

struct Lcg(u64);

impl Lcg {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % bound
    }
}

#[derive(Clone)]
enum Mail {
    Pacemaker(PacemakerMessage),
    Consensus(ConsensusMessage),
}

struct Node<P: ?Sized> {
    pacemaker: Box<P>,
    engine: HotStuffEngine,
    wakes: BTreeSet<Time>,
}

struct Cluster<P: ?Sized> {
    nodes: Vec<Node<P>>,
    params: Params,
    rng: Lcg,
    stream: Stream,
    now: Time,
    /// `(ready_at, from, to, mail)`.
    pool: Vec<(Time, usize, usize, Mail)>,
    /// Epoch-view signatures seen on the wire, for relayed certificates.
    epoch_sigs: BTreeMap<i64, BTreeMap<ProcessId, Signature>>,
    relayed: BTreeSet<(i64, bool)>,
    /// Synchronization certificates relayed forged-then-genuine.
    sync_relays: usize,
    equivocated: BTreeSet<i64>,
}

/// `cert` with the low bit of its aggregate proof flipped on the wire.
fn forged<C: Wire>(cert: &C) -> C {
    let mut bytes = Vec::new();
    cert.encode_into(&mut bytes);
    bytes[16] ^= 1;
    C::decode_exact(&bytes).expect("a flipped proof bit still decodes")
}

impl<P: Pacemaker + ?Sized> Cluster<P> {
    /// `build` makes one node's pacemaker from the cluster's parameters and
    /// that node's keys.
    fn new(seed: u64, build: impl Fn(Params, &KeyPair, &Pki) -> Box<P>) -> Self {
        let params = Params::new(N, Duration::from_millis(10));
        let (keys, pki) = keygen(N, seed);
        let nodes = keys
            .iter()
            .map(|k| {
                let mut engine = HotStuffEngine::new(k.id(), k.clone(), pki.clone(), params);
                let who = k.id().as_usize();
                engine.set_proposing_enabled(who != SILENT && who != EQUIVOCATOR);
                Node {
                    pacemaker: build(params, k, &pki),
                    engine,
                    wakes: BTreeSet::new(),
                }
            })
            .collect();
        Cluster {
            nodes,
            params,
            rng: Lcg(seed ^ 0x5eed),
            stream: Stream(0xcbf2_9ce4_8422_2325),
            now: Time::ZERO,
            pool: Vec::new(),
            epoch_sigs: BTreeMap::new(),
            relayed: BTreeSet::new(),
            sync_relays: 0,
            equivocated: BTreeSet::new(),
        }
    }

    fn post(&mut self, from: usize, to: usize, mail: Mail) {
        let delay = Duration::from_micros(100 + self.rng.below(2_900) as i64);
        self.pool.push((self.now + delay, from, to, mail));
    }

    fn broadcast(&mut self, from: usize, mail: Mail) {
        for to in (0..N).filter(|&to| to != from) {
            self.post(from, to, mail.clone());
        }
    }

    /// `ProtocolRuntime`'s cascade with every gate open: pacemaker actions
    /// first, then consensus actions, until both queues run dry — or, for an
    /// event the engine handled, the consensus queue dry first.
    fn cascade(&mut self, who: usize, pm: Vec<PacemakerAction>, cons: Vec<ConsensusAction>) {
        let mut pm: VecDeque<PacemakerAction> = pm.into();
        let mut cons: VecDeque<ConsensusAction> = cons.into();
        let mut consensus_first = !cons.is_empty();
        let now = self.now;
        loop {
            if !consensus_first {
                if let Some(action) = pm.pop_front() {
                    self.stream.fold(who, &action);
                    match action {
                        PacemakerAction::SendTo(to, m) => {
                            self.post(who, to.as_usize(), Mail::Pacemaker(m));
                        }
                        PacemakerAction::Broadcast(m) => {
                            self.observe_broadcast(who, &m);
                            self.broadcast(who, Mail::Pacemaker(m));
                        }
                        PacemakerAction::WakeAt(at) => {
                            self.nodes[who].wakes.insert(at);
                        }
                        PacemakerAction::HeavySyncStarted { .. } => {}
                        PacemakerAction::SetQcDeadline { view, deadline } => {
                            self.nodes[who].engine.set_qc_deadline(view, deadline);
                        }
                        PacemakerAction::EnterView { view, leader } => {
                            let actions = self.nodes[who].engine.enter_view(view, leader, now);
                            cons.extend(actions);
                            if leader.as_usize() == EQUIVOCATOR && who == EQUIVOCATOR {
                                self.equivocate(view);
                            }
                        }
                    }
                    continue;
                }
            }
            if let Some(action) = cons.pop_front() {
                self.stream.fold(who, &action);
                match action {
                    ConsensusAction::Broadcast(m) => self.broadcast(who, Mail::Consensus(m)),
                    ConsensusAction::Send(to, m) => {
                        self.post(who, to.as_usize(), Mail::Consensus(m));
                    }
                    ConsensusAction::Committed(_) => {}
                    ConsensusAction::QcFormed(qc) => {
                        pm.extend(self.nodes[who].pacemaker.on_qc(&qc, true, now));
                    }
                    ConsensusAction::QcObserved(qc) => {
                        pm.extend(self.nodes[who].pacemaker.on_qc(&qc, false, now));
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

    /// The equivocator, on entering a view it leads, sends block A to
    /// everyone and a conflicting block B to half of them.
    fn equivocate(&mut self, view: View) {
        if !self.equivocated.insert(view.as_i64()) {
            return;
        }
        let justify = self.nodes[EQUIVOCATOR].engine.high_qc().clone();
        let parent = self.nodes[EQUIVOCATOR]
            .engine
            .store()
            .get(justify.block_hash())
            .map_or(0, |b| b.height());
        let block = |tag: u64| {
            Block::new(
                justify.block_hash(),
                parent + 1,
                view,
                ProcessId::new(EQUIVOCATOR),
                Batch::tag(tag),
                justify.clone(),
            )
        };
        let (a, b) = (block(1), block(2));
        for to in 0..EQUIVOCATOR {
            self.post(
                EQUIVOCATOR,
                to,
                Mail::Consensus(ConsensusMessage::Proposal(a.clone())),
            );
            if to % 2 == 0 {
                self.post(
                    EQUIVOCATOR,
                    to,
                    Mail::Consensus(ConsensusMessage::Proposal(b.clone())),
                );
            }
        }
    }

    /// A Byzantine relay watches the broadcasts: every view certificate is
    /// followed by a forged copy, every synchronization certificate by a
    /// forged then a genuine copy, and once enough epoch-view messages for a
    /// view are on the wire it relays a timeout certificate (f+1) and an
    /// epoch certificate (2f+1) built from them, each preceded by a forgery.
    fn observe_broadcast(&mut self, from: usize, msg: &PacemakerMessage) {
        match msg {
            PacemakerMessage::ViewCert(vc) => {
                let bad = PacemakerMessage::ViewCert(forged(vc));
                self.broadcast(EQUIVOCATOR, Mail::Pacemaker(bad));
            }
            PacemakerMessage::SyncCert(cert) => {
                self.sync_relays += 1;
                for m in [
                    PacemakerMessage::SyncCert(forged(cert)),
                    PacemakerMessage::SyncCert(cert.clone()),
                ] {
                    self.broadcast(EQUIVOCATOR, Mail::Pacemaker(m));
                }
            }
            PacemakerMessage::EpochViewMsg { view, signature } => {
                let v = view.as_i64();
                let sigs = self.epoch_sigs.entry(v).or_default();
                sigs.insert(ProcessId::new(from), **signature);
                let sigs: Vec<Signature> = sigs.values().copied().collect();
                if sigs.len() >= self.params.small_quorum() && self.relayed.insert((v, false)) {
                    let tc = TimeoutCert::aggregate(*view, &sigs, &self.params).unwrap();
                    for m in [
                        PacemakerMessage::TimeoutCert(forged(&tc)),
                        PacemakerMessage::TimeoutCert(tc),
                    ] {
                        self.broadcast(EQUIVOCATOR, Mail::Pacemaker(m));
                    }
                }
                if sigs.len() >= self.params.quorum() && self.relayed.insert((v, true)) {
                    let ec = EpochCert::aggregate(*view, &sigs, &self.params).unwrap();
                    for m in [
                        PacemakerMessage::EpochCert(forged(&ec)),
                        PacemakerMessage::EpochCert(ec),
                    ] {
                        self.broadcast(EQUIVOCATOR, Mail::Pacemaker(m));
                    }
                }
            }
            _ => {}
        }
    }

    fn deliver(&mut self, from: usize, to: usize, mail: &Mail) {
        let (sender, now) = (ProcessId::new(from), self.now);
        match mail {
            Mail::Pacemaker(m) => {
                let actions = self.nodes[to].pacemaker.on_message(sender, m, now);
                self.cascade(to, actions, Vec::new());
            }
            Mail::Consensus(m) => {
                let actions = self.nodes[to].engine.on_message(sender, m, now);
                self.cascade(to, Vec::new(), actions);
            }
        }
    }

    /// One step: fire a due timer, or deliver one ready message (any of
    /// them — reordering), leaving a copy in the pool one time in six.
    fn step(&mut self) {
        let due = (0..N).find(|&i| self.nodes[i].wakes.first().is_some_and(|t| *t <= self.now));
        let ready: Vec<usize> = (0..self.pool.len())
            .filter(|&i| self.pool[i].0 <= self.now)
            .collect();
        if let Some(who) = due.filter(|_| ready.is_empty() || self.rng.below(3) == 0) {
            self.nodes[who].wakes.pop_first();
            let actions = self.nodes[who].pacemaker.on_wake(self.now);
            self.cascade(who, actions, Vec::new());
        } else if !ready.is_empty() {
            let pick = ready[self.rng.below(ready.len() as u64) as usize];
            let (_, from, to, mail) = if self.rng.below(6) == 0 {
                self.pool[pick].clone()
            } else {
                self.pool.swap_remove(pick)
            };
            self.deliver(from, to, &mail);
        } else {
            // Idle: jump to whatever happens next.
            let next_mail = self.pool.iter().map(|m| m.0).min();
            let next_wake = self
                .nodes
                .iter()
                .filter_map(|n| n.wakes.first().copied())
                .min();
            let next = [next_mail, next_wake].into_iter().flatten().min();
            self.now = next.expect("a live cluster always has a timer armed");
            return;
        }
        self.now += Duration::from_micros(self.rng.below(400) as i64);
    }

    fn run(seed: u64, build: impl Fn(Params, &KeyPair, &Pki) -> Box<P>) -> Self {
        let mut c = Cluster::new(seed, build);
        for who in 0..N {
            let actions = c.nodes[who].pacemaker.boot(c.now);
            c.cascade(who, actions, Vec::new());
        }
        let mut steps = 0u64;
        while c.nodes[..SILENT]
            .iter()
            .any(|n| n.pacemaker.current_view().as_i64() < UNTIL_VIEW)
        {
            c.step();
            steps += 1;
            assert!(steps < 200_000, "seed {seed}: the cluster stalled");
        }
        c
    }

    /// Asserts that the honest nodes' committed chains are prefixes of one
    /// another, and returns the slowest one's height.
    fn agreed_height(&self, label: &str) -> u64 {
        let chains: Vec<&[u64]> = self.nodes[..SILENT]
            .iter()
            .map(|n| n.engine.store().committed_chain())
            .collect();
        for chain in &chains {
            let len = chain.len().min(chains[0].len());
            assert_eq!(chain[..len], chains[0][..len], "{label}: chains diverged");
        }
        let heights = self.nodes[..SILENT].iter();
        heights.map(|n| n.engine.committed_height()).min().unwrap()
    }
}

const UNTIL_VIEW: i64 = 3 * EPOCH_LEN as i64 + 3;

/// Lumiere with the shortened epoch layout and a success bar of two QCs.
fn lumiere(seed: u64) -> Cluster<Lumiere> {
    Cluster::run(seed, |params, keys, pki| {
        let mut cfg = LumiereConfig::new(params, seed);
        cfg.layout = EpochLayout::new(EPOCH_LEN);
        cfg.success_qcs_per_leader = 2;
        Box::new(Lumiere::new(cfg, keys.clone(), pki.clone()))
    })
}

/// Any protocol, as the simulator and the live node build it.
fn stock(kind: ProtocolKind, seed: u64) -> Cluster<dyn Pacemaker> {
    Cluster::run(seed, |params, keys, pki| {
        kind.build_pacemaker(params, keys.clone(), pki.clone(), seed)
    })
}

/// `(seed, digest of the action stream)`, captured before the refactor.
const PINNED: [(u64, u64); 6] = [
    (1, 0x0e8a_685c_7c34_f6b4),
    (2, 0x0629_8901_6c84_4d48),
    (3, 0xb222_8ff1_bc52_be67),
    (4, 0xb696_a441_ebd0_4e6d),
    (5, 0xf9e0_5bd1_070b_75fb),
    (6, 0x172a_3426_59a6_46db),
];

/// The other five protocols' digests for seeds 1..=6, captured before their
/// per-view state moved onto `ViewLedger` / `SigPool`.
const BASELINES_PINNED: [(ProtocolKind, [u64; 6]); 5] = [
    (
        ProtocolKind::BasicLumiere,
        [
            0x09cc_ee4f_2afd_7345,
            0x7338_fa30_252f_affc,
            0xa9a5_ef23_ed4d_7d7c,
            0x03d1_142b_2da9_7911,
            0xe163_fc16_10f4_0c7f,
            0x9df8_78f4_f8fb_dbb5,
        ],
    ),
    (
        ProtocolKind::Lp22,
        [
            0xdb50_0486_a802_ee89,
            0xe328_1973_c813_d70e,
            0x624d_9894_7458_0c70,
            0xf0fb_7421_7f9c_6831,
            0xf78f_a056_9460_bad7,
            0x5a3f_3463_0ddb_6735,
        ],
    ),
    (
        ProtocolKind::Fever,
        [
            0xd924_ede7_6936_a74f,
            0xe6ac_6ef5_1314_a916,
            0xe7c5_d7bb_bf42_1c27,
            0x4700_565c_dcfa_6287,
            0x61f4_b13b_9129_a340,
            0x4766_bba0_2193_0279,
        ],
    ),
    (
        ProtocolKind::Cogsworth,
        [
            0x815e_425f_87e5_2dde,
            0x7063_3945_0780_7aec,
            0x6874_4e2e_8de9_fa1d,
            0xc35c_8390_816b_38d5,
            0xd1ad_7357_09d9_36de,
            0xc59d_5ff0_caa9_0d91,
        ],
    ),
    (
        ProtocolKind::Naive,
        [
            0x2611_ab57_d635_4cc3,
            0x2d4b_09ed_0000_4fa5,
            0x1cb6_553e_d928_f5d7,
            0xc23d_c21a_1ec2_3726,
            0x27be_f86b_30b9_9fe3,
            0x8dfd_37b4_78c0_b3ef,
        ],
    ),
];

#[test]
fn the_action_stream_of_a_hostile_n7_run_is_pinned() {
    let got: Vec<(u64, u64)> = PINNED
        .iter()
        .map(|&(seed, _)| (seed, lumiere(seed).stream.0))
        .collect();
    let rendered: Vec<String> = got
        .iter()
        .map(|(seed, digest)| format!("({seed}, {digest:#018x})"))
        .collect();
    assert_eq!(got, PINNED, "stream digests now: [{}]", rendered.join(", "));
}

#[test]
fn every_other_protocols_action_stream_is_pinned() {
    let mut got = Vec::new();
    for (kind, _) in BASELINES_PINNED {
        let mut digests = [0; 6];
        let mut sync_relays = 0;
        for (seed, digest) in (1..).zip(&mut digests) {
            let c = stock(kind, seed);
            let label = format!("{} seed {seed}", kind.name());
            assert!(c.agreed_height(&label) >= 3, "{label}: too few commits");
            sync_relays += c.sync_relays;
            *digest = c.stream.0;
        }
        // The relays' certificate path is in their streams.
        let relays = kind == ProtocolKind::Cogsworth;
        assert_eq!(sync_relays > 0, relays, "{}", kind.name());
        got.push((kind, digests));
    }
    let rendered: Vec<String> = got
        .iter()
        .map(|(kind, d)| format!("(ProtocolKind::{kind:?}, {d:#018x?})"))
        .collect();
    assert_eq!(
        got,
        BASELINES_PINNED,
        "stream digests now:\n{}",
        rendered.join(",\n")
    );
}

#[test]
fn the_driver_reaches_what_it_claims_to_cover() {
    // Guards the generator: were it to stop producing the interesting cases
    // the pinned digests would keep passing while covering nothing.
    let layout = EpochLayout::new(EPOCH_LEN);
    let mut heavy_epochs = BTreeSet::new();
    let mut light_epochs = BTreeSet::new();
    let (mut equivocations, mut commits, mut led_twice) = (0, u64::MAX, false);
    for &(seed, _) in &PINNED {
        let c = lumiere(seed);
        for node in &c.nodes[..SILENT] {
            equivocations += node.engine.equivocations_detected();
            for e in node.pacemaker.successful_epochs() {
                light_epochs.insert((seed, e));
            }
        }
        for (&view, sigs) in &c.epoch_sigs {
            if view > 0 && sigs.len() >= c.params.quorum() {
                heavy_epochs.insert((seed, layout.epoch_of(View::new(view)).as_i64()));
            }
        }
        commits = commits.min(c.agreed_height(&format!("seed {seed}")));
        led_twice |= c.equivocated.len() >= 2;
    }
    assert!(equivocations >= 6, "equivocations seen: {equivocations}");
    assert!(commits >= 10, "the slowest honest node committed {commits}");
    assert!(
        !heavy_epochs.is_empty(),
        "no run needed a heavy sync after epoch 0"
    );
    assert!(!light_epochs.is_empty(), "no run met the success criterion");
    assert!(led_twice, "the equivocator led fewer than two views");
}
