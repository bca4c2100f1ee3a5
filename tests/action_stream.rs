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
//! The digests were re-captured when the modelled digests and signature
//! tags moved onto the workspace's one word mixer (`lumiere_types::hash`),
//! which changes every hash, tag and proof an action carries; the streams
//! with those fields masked are the ones pinned before, when Lumiere's
//! per-view hash collections in `lumiere.rs` and `engine.rs` became indexed
//! records and the other protocols' per-view sets and pools moved onto one
//! ledger. Any change to a pacemaker or the engine must reproduce them bit
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

/// `(seed, digest of the action stream)`, re-captured when the modelled
/// digests moved onto the word mixer (every other field as before).
const PINNED: [(u64, u64); 6] = [
    (1, 0x5a69_ad91_6077_640a),
    (2, 0xf5d0_5172_5b91_4518),
    (3, 0x2109_f414_b02d_8232),
    (4, 0xb685_6c53_016e_b585),
    (5, 0x19c2_fec3_16b1_e42a),
    (6, 0x2baa_d60f_5c72_dd5c),
];

/// The other five protocols' digests for seeds 1..=6, re-captured with the
/// module's (streams equal to those before their per-view state moved onto
/// `ViewLedger` / `SigPool`, hash-valued fields masked).
const BASELINES_PINNED: [(ProtocolKind, [u64; 6]); 5] = [
    (
        ProtocolKind::BasicLumiere,
        [
            0x2d41_e07d_9c9f_497d,
            0x6d95_9466_d502_dee7,
            0x7778_78c3_88cd_8df8,
            0x32fe_96f8_358b_0ed3,
            0x9905_94d8_6281_ac53,
            0x7c36_d58a_0474_d252,
        ],
    ),
    (
        ProtocolKind::Lp22,
        [
            0x4c12_3cb0_1416_9cac,
            0x68e6_9486_78b5_4a64,
            0xedd0_b92b_2722_da8b,
            0x2163_0c55_02ce_7ed1,
            0xccb4_cc0a_fc2e_fe81,
            0xf8e6_b694_4810_9afa,
        ],
    ),
    (
        ProtocolKind::Fever,
        [
            0x4e7a_be3d_4cb0_8878,
            0x5c3d_206f_11e9_868e,
            0x3d67_aee9_4415_9825,
            0x58e7_589b_c567_8512,
            0xe5a5_6165_1ee9_6300,
            0x160d_e1a2_eb69_7150,
        ],
    ),
    (
        ProtocolKind::Cogsworth,
        [
            0x694f_6980_8c30_d846,
            0x5de7_fa0c_d83c_224f,
            0xf9d2_a04f_41e2_7b2b,
            0x834f_b6b4_eff0_3c01,
            0xb9e7_b72b_ae9b_8fbf,
            0x36da_05ec_c644_085b,
        ],
    ),
    (
        ProtocolKind::Naive,
        [
            0x7803_0727_e1c8_6b2f,
            0x2e66_7413_dd07_ce09,
            0x6958_c6d9_0b73_b333,
            0x22cf_1005_d5f2_e47e,
            0x06a1_757b_b27f_12fb,
            0x3c2c_6222_e9df_9419,
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
