//! One peer, signing correctly with its own key, names views no honest clock
//! has reached — `i64::MAX − 1`, `2⁴⁰`, `−2`, a far-future epoch view and 10⁵
//! distinct far-future views — in every message class a single processor can
//! send, as wire bytes through `ProtocolRuntime::deliver`, against each of
//! the six pacemakers.
//!
//! Every pacemaker's per-view flags (`ViewLedger`) and the engine's per-view
//! records are indexed, and the pools (`SigPool`, `SenderPool`) are ordered
//! maps keyed by view holding one signer bitmap per view, so what matters is
//! that none of this reaches an index or a view-sized allocation: a named
//! view costs one keyed entry and `n/8` bytes of bitmap (rounded up to a
//! word), nothing panics or overflows, the node grows by at
//! most the one keyed entry a message class may leave per structure it
//! reaches (never by anything proportional to the view number), and the
//! honest run carries on committing. `state_entries` is the oracle.
//!
//! Below the commit horizon a node frees what no message can use again: the
//! engine's per-view records and seen proposals, the committed blocks below
//! the store's tip, and the pacemaker's records and pools below the lowest
//! view it still reads. So a fault-free node stays inside a constant band of
//! entries however many views it runs: each protocol over at least 120
//! views (three of Lumiere's epochs at n = 4), and Lumiere over 50 short
//! epochs.

use lumiere_consensus::{Block, ConsensusMessage, HotStuffEngine, QuorumCert};
use lumiere_core::certs::{epoch_view_digest, timeout_digest, view_msg_digest, wish_digest};
use lumiere_core::lumiere::{Lumiere, LumiereConfig};
use lumiere_core::messages::PacemakerMessage;
use lumiere_crypto::{keygen, KeyPair};
use lumiere_runtime::codec::{decode_frame, encode_frame};
use lumiere_runtime::{build_runtime, ProtocolKind, ProtocolRuntime, RuntimeOutput, WireMessage};
use lumiere_types::view::EpochLayout;
use lumiere_types::{Batch, Duration, Params, ProcessId, Time, View};

const N: usize = 4;
const SEED: u64 = 7;
/// Lumiere's epoch length at n = 4 (`10n`).
const EPOCH_LEN: i64 = 40;

/// Four runtimes stepped by hand: synchronous rounds, 1 ms apart.
struct Mesh {
    nodes: Vec<ProtocolRuntime>,
    now: Time,
    pending: Vec<(usize, usize, WireMessage)>,
    timers: Vec<Vec<Time>>,
}

impl Mesh {
    fn boot(protocol: ProtocolKind) -> Self {
        let delta = Duration::from_millis(10);
        Mesh::start(
            (0..N)
                .map(|i| build_runtime(protocol, N, i, delta, SEED))
                .collect(),
        )
    }

    fn start(nodes: Vec<ProtocolRuntime>) -> Self {
        let mut mesh = Mesh {
            nodes,
            now: Time::ZERO,
            pending: Vec::new(),
            timers: vec![Vec::new(); N],
        };
        let mut out = RuntimeOutput::default();
        for i in 0..N {
            out.clear();
            mesh.nodes[i].boot(mesh.now, &mut out);
            mesh.collect(i, &out);
        }
        mesh
    }

    fn collect(&mut self, from: usize, out: &RuntimeOutput) {
        for (to, msg) in &out.sends {
            self.pending.push((from, to.as_usize(), msg.clone()));
        }
        for msg in &out.broadcasts {
            for to in (0..N).filter(|&to| to != from) {
                self.pending.push((from, to, msg.clone()));
            }
        }
        self.timers[from].extend(out.wakes.iter().copied());
    }

    fn round(&mut self) {
        let mut out = RuntimeOutput::default();
        for (from, to, msg) in std::mem::take(&mut self.pending) {
            out.clear();
            self.nodes[to].deliver(ProcessId::new(from), &msg, self.now, &mut out);
            self.collect(to, &out);
        }
        self.now += Duration::from_millis(1);
        for i in 0..N {
            let before = self.timers[i].len();
            let now = self.now;
            self.timers[i].retain(|t| *t > now);
            if self.timers[i].len() < before {
                out.clear();
                self.nodes[i].wake(self.now, &mut out);
                self.collect(i, &out);
            }
        }
    }

    /// Runs rounds until every node has committed `height` blocks.
    fn run_to_height(&mut self, height: u64) {
        for _ in 0..2_000 {
            if self.nodes.iter().all(|n| n.committed_height() >= height) {
                return;
            }
            self.round();
        }
        panic!("the cluster stalled below height {height}");
    }

    fn min_height(&self) -> u64 {
        let heights = self.nodes.iter().map(|n| n.committed_height());
        heights.min().expect("four nodes")
    }
}

/// Everything one processor can say about `view` on its own authority.
fn naming(view: View, key: &KeyPair) -> Vec<WireMessage> {
    let block = Block::new(
        Block::genesis().hash(),
        1,
        view,
        key.id(),
        Batch::tag(view.as_i64() as u64),
        QuorumCert::genesis(),
    );
    assert!(block.well_formed());
    let vote = ConsensusMessage::Vote {
        view,
        block_hash: block.hash(),
        signature: key.sign(QuorumCert::vote_digest(view, block.hash())),
    };
    vec![
        WireMessage::Pacemaker(PacemakerMessage::ViewMsg {
            view,
            signature: key.sign(view_msg_digest(view)),
        }),
        WireMessage::Pacemaker(PacemakerMessage::EpochViewMsg {
            view,
            signature: key.sign(epoch_view_digest(view)).into(),
        }),
        WireMessage::Pacemaker(PacemakerMessage::Wish {
            view,
            signature: key.sign(wish_digest(view)),
        }),
        WireMessage::Pacemaker(PacemakerMessage::Timeout {
            view,
            signature: key.sign(timeout_digest(view)),
        }),
        WireMessage::Consensus(vote),
        WireMessage::Consensus(ConsensusMessage::Proposal(block)),
    ]
}

/// Delivers `msg` to `node` as the bytes a socket would carry.
fn deliver_bytes(node: &mut ProtocolRuntime, from: ProcessId, msg: &WireMessage, now: Time) {
    let bytes = encode_frame(msg);
    let (decoded, used) = decode_frame(&bytes).expect("a well-formed frame");
    assert_eq!(used, bytes.len());
    let mut out = RuntimeOutput::default();
    node.deliver(from, &decoded, now, &mut out);
    assert!(
        out.sends.is_empty() && out.broadcasts.is_empty() && out.commits.is_empty(),
        "a view one peer made up must not move the node: {msg:?} -> {out:?}"
    );
}

/// What one message naming a made-up view may leave behind. A proposal is
/// kept in three keyed structures (block store, parked proposals, the
/// equivocation record); every other class in at most one. None may touch an
/// index: that would cost the view's number in entries, or the address space.
fn entry_bound(msg: &WireMessage) -> usize {
    match msg {
        WireMessage::Consensus(ConsensusMessage::Proposal(_)) => 3,
        _ => 1,
    }
}

#[test]
fn far_views_named_by_one_peer_cost_one_entry_each_and_the_run_goes_on() {
    for protocol in ProtocolKind::all() {
        let mut mesh = Mesh::boot(protocol);
        mesh.run_to_height(3);
        let (keys, _) = keygen(N, SEED);
        let hostile = &keys[3];
        let now = mesh.now;
        let view_before = mesh.nodes[0].current_view();

        // Every hostile block is justified by the genesis certificate, which
        // a node records as observed once, whoever shows it first (view 0's
        // leader has not seen it yet: it never receives its own proposal).
        // That one entry per run is not the cost of naming a view.
        let warm_up = naming(View::new(-3), hostile).pop().expect("the proposal");
        deliver_bytes(&mut mesh.nodes[0], hostile.id(), &warm_up, now);

        let far = [
            View::new(i64::MAX - 1),
            View::new(1 << 40),
            View::new(-2),
            View::new(EPOCH_LEN << 35),
        ];
        for view in far {
            for msg in naming(view, hostile) {
                let before = mesh.nodes[0].state_entries();
                deliver_bytes(&mut mesh.nodes[0], hostile.id(), &msg, now);
                let grew = mesh.nodes[0].state_entries() - before;
                assert!(
                    grew <= entry_bound(&msg),
                    "{protocol:?}: {msg:?} grew the node by {grew} entries"
                );
            }
        }

        // 10⁵ distinct far-future views in every class: the same bound per
        // message, no more (counted at the end — the oracle itself walks
        // every pool).
        let before = mesh.nodes[0].state_entries();
        let distinct = 100_000;
        let mut bound = 0;
        for k in 0..distinct {
            for msg in naming(View::new((1 << 41) + 2 * k), hostile) {
                bound += entry_bound(&msg);
                deliver_bytes(&mut mesh.nodes[0], hostile.id(), &msg, now);
            }
        }
        let grown = mesh.nodes[0].state_entries() - before;
        assert!(
            grown <= bound,
            "{protocol:?}: {grown} entries for {distinct} views, bound {bound}"
        );
        assert_eq!(mesh.nodes[0].current_view(), view_before, "{protocol:?}");

        // The honest run continues and commits, the target node included.
        let height = mesh.min_height();
        mesh.run_to_height(height + 5);
        let chain = mesh.nodes[0].committed_chain();
        for node in &mesh.nodes[1..] {
            let other = node.committed_chain();
            let len = chain.len().min(other.len());
            assert_eq!(
                chain[..len],
                other[..len],
                "{protocol:?}: committed chains diverged"
            );
        }
    }
}

/// Samples `(view, state_entries)` of node 0 at each view it enters, from
/// view `from` until it has entered `views` more.
fn sample_views(mesh: &mut Mesh, from: i64, views: i64) -> Vec<(i64, usize)> {
    let mut samples: Vec<(i64, usize)> = Vec::new();
    for _ in 0..40_000 {
        mesh.round();
        let node = &mesh.nodes[0];
        let view = node.current_view().as_i64();
        if view >= from && samples.last().is_none_or(|&(last, _)| view > last) {
            samples.push((view, node.state_entries()));
        }
        if samples
            .first()
            .is_some_and(|&(first, _)| view >= first + views)
        {
            return samples;
        }
    }
    panic!("node 0 entered only {} views past {from}", samples.len());
}

/// The spread of `state_entries` over `samples`.
fn spread(samples: &[(i64, usize)]) -> usize {
    let entries = samples.iter().map(|&(_, entries)| entries);
    entries.clone().max().unwrap_or(0) - entries.min().unwrap_or(0)
}

#[test]
fn a_fault_free_run_stays_within_a_constant_band() {
    // The commit horizon frees what lies below the committed view, so once
    // the horizon moves a node holds the same few entries whatever view it
    // is in. Per protocol: views to warm up past, views sampled (three of
    // its epochs, at least 120), and the band. The band is what the
    // pacemaker keeps behind its current view plus a few entries of slack:
    // Lumiere, Basic Lumiere and LP22 keep the current and the previous
    // epoch's ledger (up to two epochs: 80, 8 and 4 views at n = 4); the
    // others keep their ledger from the current view up. The engine adds
    // the two or three views between its commit horizon and its current
    // view.
    for protocol in ProtocolKind::all() {
        let (warm_up, band) = match protocol {
            ProtocolKind::Lumiere => (2 * EPOCH_LEN, 2 * EPOCH_LEN as usize + 16),
            ProtocolKind::BasicLumiere => (8, 8 + 16),
            ProtocolKind::Lp22 => (4, 4 + 16),
            _ => (4, 16),
        };
        let views = (3 * EPOCH_LEN).max(120);
        let mut mesh = Mesh::boot(protocol);
        mesh.run_to_height(4);
        let samples = sample_views(&mut mesh, warm_up, views);
        let (first, last) = (samples[0], samples[samples.len() - 1]);
        assert!(
            spread(&samples) <= band,
            "{protocol:?}: views {}..{}: entries spread over {} (band {band}): {samples:?}",
            first.0,
            last.0,
            spread(&samples)
        );
    }
}

#[test]
fn a_lumiere_soak_of_fifty_epochs_stays_within_the_same_band() {
    // Lumiere with 8-view epochs (two views per leader) and a success bar
    // of two QCs, so each epoch is decided by the success criterion: 50
    // epochs in 400 views, each pruned one epoch behind.
    const SHORT: i64 = 8;
    let delta = Duration::from_millis(10);
    let params = Params::new(N, delta);
    let (keys, pki) = keygen(N, SEED);
    let nodes = keys
        .iter()
        .map(|key| {
            let mut cfg = LumiereConfig::new(params, SEED);
            cfg.layout = EpochLayout::new(SHORT as u64);
            cfg.success_qcs_per_leader = 2;
            let pacemaker = Box::new(Lumiere::new(cfg, key.clone(), pki.clone()));
            let engine = HotStuffEngine::new(key.id(), key.clone(), pki.clone(), params);
            ProtocolRuntime::new(key.id(), pacemaker, engine)
        })
        .collect();
    let mut mesh = Mesh::start(nodes);
    mesh.run_to_height(4);
    let samples = sample_views(&mut mesh, 2 * SHORT, 50 * SHORT);
    let band = 2 * SHORT as usize + 16;
    assert!(
        spread(&samples) <= band,
        "views {}..{}: entries spread over {} (band {band}): {samples:?}",
        samples[0].0,
        samples[samples.len() - 1].0,
        spread(&samples)
    );
}
