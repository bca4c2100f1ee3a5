//! The chained HotStuff-style consensus engine.

use crate::block::{Block, BlockHash};
use crate::messages::ConsensusMessage;
use crate::qc::QuorumCert;
use crate::store::BlockStore;
use lumiere_crypto::{KeyPair, LastDigest, PartialSet, Pki, Signature};
use lumiere_types::view::ViewWindow;
use lumiere_types::{Batch, Params, ProcessId, SlashEvidence, Time, View};
use std::collections::{BTreeMap, BTreeSet};

/// Output of the engine in response to an event.
///
/// `Broadcast`/`Send` are network sends the hosting node must perform;
/// `QcFormed`, `QcObserved` and `Committed` are local notifications consumed
/// by the pacemaker and by metrics collection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsensusAction {
    /// Send a message to every other processor.
    Broadcast(ConsensusMessage),
    /// Send a message to one processor.
    Send(ProcessId, ConsensusMessage),
    /// This processor, acting as leader, just aggregated a new QC.
    QcFormed(QuorumCert),
    /// A QC (formed locally or received) was observed for the first time.
    QcObserved(QuorumCert),
    /// A block became committed under the two-chain rule.
    Committed(Block),
}

/// What the engine keeps about one view.
#[derive(Debug, Clone, Default)]
struct EngineView {
    /// This replica proposed in the view.
    proposed: bool,
    /// This replica aggregated the view's QC.
    formed_qc: bool,
    /// Lumiere's leader rule: no QC for the view after this instant.
    qc_deadline: Option<Time>,
    /// The first block of the view a verified certificate was seen for.
    observed: Option<BlockHash>,
    /// Any other such block: none unless more than `f` processors are
    /// faulty, so a view's first certificate allocates nothing.
    observed_more: Vec<BlockHash>,
    /// Votes collected for this replica's own proposal, by block: one
    /// signer bit and one signature per voter. Emptied once the QC forms.
    votes: BTreeMap<BlockHash, PartialSet>,
}

impl EngineView {
    fn has_observed(&self, hash: BlockHash) -> bool {
        self.observed == Some(hash) || self.observed_more.contains(&hash)
    }

    /// Records `hash` as observed; false when it already was.
    fn observe(&mut self, hash: BlockHash) -> bool {
        if self.has_observed(hash) {
            return false;
        }
        match self.observed {
            None => self.observed = Some(hash),
            Some(_) => self.observed_more.push(hash),
        }
        true
    }
}

/// A single replica's instance of the underlying protocol.
///
/// The engine is entirely view-driven: the hosting node (pacemaker) decides
/// when to call [`HotStuffEngine::enter_view`], and the engine reports QCs
/// back through [`ConsensusAction::QcFormed`] / [`ConsensusAction::QcObserved`].
#[derive(Debug, Clone)]
pub struct HotStuffEngine {
    id: ProcessId,
    keys: KeyPair,
    pki: Pki,
    params: Params,
    store: BlockStore,
    current_view: View,
    current_leader: Option<ProcessId>,
    last_voted_view: View,
    locked_view: View,
    /// The highest certificate known. Invariant: it is the genesis
    /// certificate or one that passed [`QuorumCert::verify`] on this
    /// replica — nothing else is ever assigned — so a received certificate
    /// equal to it in every field (view, block hash, and the threshold
    /// signature's digest, bitmap and proof) needs no check of its own.
    high_qc: QuorumCert,
    /// One record per view, from the commit horizon: the view of the newest
    /// committed block (at first the sentinel view the genesis certificate
    /// carries). Extended only for views this replica proposes in, is given
    /// a deadline for, or holds a verified certificate of (see
    /// [`ViewWindow`]); a view a single peer names is only ever read. Below
    /// the horizon every certificate counts as observed, and proposals and
    /// votes are dropped unread.
    views: ViewWindow<EngineView>,
    /// Proposals for views this replica has not entered yet, by view and
    /// proposer: only the view's leader, known at entry, can claim the vote,
    /// and no other processor's block may displace the one it parked.
    pending_proposals: BTreeMap<(i64, ProcessId), Block>,
    proposing_enabled: bool,
    /// Every distinct `(view, proposer, block)` proposed to this replica at
    /// or above the commit horizon. Any peer can name any view here, so it
    /// is keyed, not indexed.
    proposals_seen: BTreeSet<(i64, ProcessId, BlockHash)>,
    equivocations_detected: usize,
    slash_evidence: Vec<SlashEvidence>,
    locks_advanced: u64,
    certs_verified: u64,
    /// The last `(view, block)`'s vote digest: a leader's quorum of votes
    /// for its proposal arrive together.
    vote_digests: LastDigest<(View, BlockHash)>,
    /// The blocks the last certificate committed, on their way into the
    /// caller's actions: one buffer, reused by every certificate.
    committed: Vec<Block>,
    /// The batch the next proposal will carry, staged by the hosting
    /// runtime from its mempool just before view entry. Consumed (taken)
    /// by the proposal; empty when no load is offered.
    staged: Batch,
}

impl HotStuffEngine {
    /// Creates an engine for processor `id`.
    pub fn new(id: ProcessId, keys: KeyPair, pki: Pki, params: Params) -> Self {
        HotStuffEngine {
            id,
            keys,
            pki,
            params,
            store: BlockStore::new(),
            current_view: View::SENTINEL,
            current_leader: None,
            last_voted_view: View::SENTINEL,
            locked_view: View::SENTINEL,
            high_qc: QuorumCert::genesis(),
            views: ViewWindow::new(View::SENTINEL.as_i64()),
            pending_proposals: BTreeMap::new(),
            proposing_enabled: true,
            proposals_seen: BTreeSet::new(),
            equivocations_detected: 0,
            slash_evidence: Vec::new(),
            locks_advanced: 0,
            certs_verified: 0,
            vote_digests: LastDigest::new(|(view, block_hash)| {
                QuorumCert::vote_digest(view, block_hash)
            }),
            committed: Vec::new(),
            staged: Batch::empty(),
        }
    }

    /// This replica's identifier.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The cluster's parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The view the engine currently executes.
    pub fn current_view(&self) -> View {
        self.current_view
    }

    /// The highest QC known to this replica.
    pub fn high_qc(&self) -> &QuorumCert {
        &self.high_qc
    }

    /// Access to the block store (committed chain, etc.).
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// Height of the highest committed block.
    pub fn committed_height(&self) -> u64 {
        self.store.committed_height()
    }

    /// The highest view this replica has voted in (safety-rule state,
    /// exposed for the adversary fuzzer's oracles).
    pub fn last_voted_view(&self) -> View {
        self.last_voted_view
    }

    /// The view of the replica's lock (safety-rule state, exposed for the
    /// adversary fuzzer's oracles).
    pub fn locked_view(&self) -> View {
        self.locked_view
    }

    /// How many equivocations this replica has witnessed: distinct
    /// conflicting proposals for the same view and proposer. Honest leaders
    /// never equivocate, so a non-zero count proves adversarial proposing.
    pub fn equivocations_detected(&self) -> usize {
        self.equivocations_detected
    }

    /// Transferable slashing evidence for every equivocation this replica
    /// witnessed: one canonical record per conflicting proposal pair, fit
    /// for a staking layer to act on. Deterministic across replicas — every
    /// honest observer of the same conflict produces the same record.
    pub fn slash_evidence(&self) -> &[SlashEvidence] {
        &self.slash_evidence
    }

    /// The leader of the view the engine currently executes, if a view has
    /// been entered (read-only observation for the adversary subsystem).
    pub fn current_leader(&self) -> Option<ProcessId> {
        self.current_leader
    }

    /// How many times this replica's lock advanced (`locked_view` strictly
    /// increased). Feeds the coverage fingerprint's lock-event mix.
    pub fn locks_advanced(&self) -> u64 {
        self.locks_advanced
    }

    /// How many certificate checks this replica has run: one per
    /// [`QuorumCert::verify`] call on a non-genesis certificate. A distinct
    /// certificate is checked once, whichever message carries it first.
    pub fn certs_verified(&self) -> u64 {
        self.certs_verified
    }

    /// The largest number of votes this replica has collected toward any
    /// single pending QC of `view` (zero once the QC formed or when the
    /// replica never proposed in `view`). Read-only observation used by
    /// state-reactive adversary strategies.
    pub fn pending_votes(&self, view: View) -> usize {
        let state = self.views.get(view.as_i64());
        state
            .and_then(|s| s.votes.values().map(PartialSet::len).max())
            .unwrap_or(0)
    }

    /// How many entries this replica holds across its per-view records,
    /// their vote pools and observed blocks, the parked and seen proposals
    /// and the block store: what its memory is proportional to.
    pub fn state_entries(&self) -> usize {
        let per_view = |(_, state): (i64, &EngineView)| {
            1 + usize::from(state.observed.is_some())
                + state.observed_more.len()
                + state.votes.values().map(PartialSet::len).sum::<usize>()
        };
        self.views.iter().map(per_view).sum::<usize>()
            + self.pending_proposals.len()
            + self.proposals_seen.len()
            + self.slash_evidence.len()
            + self.store.len()
    }

    /// Enables or disables proposing. Disabling models the `SilentLeader`
    /// Byzantine behaviour: the replica still votes and synchronizes but its
    /// own views never produce a QC.
    pub fn set_proposing_enabled(&mut self, enabled: bool) {
        self.proposing_enabled = enabled;
    }

    /// Stages `batch` as the payload of this replica's next proposal and
    /// returns the batch it displaces (one staged for a view this replica
    /// never proposed in). The hosting runtime calls this just before
    /// entering a view this replica leads; the proposal extends
    /// [`HotStuffEngine::high_qc`]'s block.
    pub fn stage_payload(&mut self, batch: Batch) -> Batch {
        std::mem::replace(&mut self.staged, batch)
    }

    /// Installs the Lumiere leader rule: only form a QC for `view` if it can
    /// be produced no later than `deadline` (Section 4: within `Γ/2 − 2Δ` of
    /// sending the VC / previous QC).
    pub fn set_qc_deadline(&mut self, view: View, deadline: Time) {
        if let Some(state) = self.views.get_or_insert(view.as_i64()) {
            state.qc_deadline = Some(deadline);
        }
    }

    fn proposed_in(&self, view: View) -> bool {
        let state = self.views.get(view.as_i64());
        state.is_some_and(|s| s.proposed)
    }

    /// Enters `view` with the given `leader`. Called by the pacemaker.
    ///
    /// Re-entering the current or an older view is a no-op, so pacemakers may
    /// call this whenever their notion of the current view changes.
    pub fn enter_view(&mut self, view: View, leader: ProcessId, now: Time) -> Vec<ConsensusAction> {
        let mut out = Vec::new();
        self.enter_view_into(view, leader, now, &mut out);
        out
    }

    /// [`HotStuffEngine::enter_view`], appending the actions to `out` (a
    /// buffer the host reuses across events).
    pub fn enter_view_into(
        &mut self,
        view: View,
        leader: ProcessId,
        now: Time,
        out: &mut Vec<ConsensusAction>,
    ) {
        if view <= self.current_view {
            return;
        }
        self.current_view = view;
        self.current_leader = Some(leader);
        if leader == self.id && self.proposing_enabled && !self.proposed_in(view) {
            self.propose(now, out);
        }
        let parked = self.pending_proposals.remove(&(view.as_i64(), leader));
        // Whatever else is parked at or below this view can never be voted
        // on: views are only entered upwards.
        while let Some(entry) = self.pending_proposals.first_entry() {
            if entry.key().0 > view.as_i64() {
                break;
            }
            entry.remove();
        }
        if let Some(block) = parked {
            self.maybe_vote(&block, now, out);
        }
    }

    /// Proposes for the current view: the proposal goes out first, then
    /// whatever the leader's own vote for it sets off.
    fn propose(&mut self, now: Time, out: &mut Vec<ConsensusAction>) {
        let parent_hash = self.high_qc.block_hash();
        let parent_height = self.store.get(parent_hash).map(|b| b.height()).unwrap_or(0);
        let block = Block::new(
            parent_hash,
            parent_height + 1,
            self.current_view,
            self.id,
            std::mem::take(&mut self.staged),
            self.high_qc.clone(),
        );
        if let Some(state) = self.views.get_or_insert(self.current_view.as_i64()) {
            state.proposed = true;
        }
        self.store.insert(&block);
        out.push(ConsensusAction::Broadcast(ConsensusMessage::Proposal(
            block.clone(),
        )));
        // The leader votes for its own proposal locally.
        self.maybe_vote(&block, now, out);
    }

    /// Handles a message from another replica.
    pub fn on_message(
        &mut self,
        from: ProcessId,
        msg: &ConsensusMessage,
        now: Time,
    ) -> Vec<ConsensusAction> {
        let mut out = Vec::new();
        self.on_message_into(from, msg, now, &mut out);
        out
    }

    /// [`HotStuffEngine::on_message`], appending the actions to `out` (a
    /// buffer the host reuses across events).
    pub fn on_message_into(
        &mut self,
        from: ProcessId,
        msg: &ConsensusMessage,
        now: Time,
        out: &mut Vec<ConsensusAction>,
    ) {
        match msg {
            ConsensusMessage::Proposal(block) => self.on_proposal(from, block, now, out),
            ConsensusMessage::Vote {
                view,
                block_hash,
                signature,
            } => self.on_vote(from, *view, *block_hash, *signature, now, out),
            ConsensusMessage::NewQc(qc) => self.process_qc(qc, out),
        }
    }

    fn on_proposal(
        &mut self,
        from: ProcessId,
        block: &Block,
        now: Time,
        out: &mut Vec<ConsensusAction>,
    ) {
        // Below the commit horizon a block can be neither voted for nor
        // committed, and its equivocation record is gone.
        if block.view().as_i64() < self.views.base() {
            return;
        }
        if !block.well_formed() || block.proposer() != from {
            return;
        }
        // In the steady state the justify arrived as `NewQc` one message
        // earlier and is `high_qc` (see the invariant on the field).
        if *block.justify() != self.high_qc && !self.verify_qc(block.justify()) {
            return;
        }
        // Equivocation bookkeeping: a second, *distinct* block for the same
        // (view, proposer) is tolerated — the vote rule below votes at most
        // once per view regardless — but it is counted as evidence. Each
        // conflicting hash counts once, so re-deliveries add nothing.
        let (view, proposer) = (block.view().as_i64(), block.proposer());
        if self.proposals_seen.insert((view, proposer, block.hash())) {
            // Pair the fresh hash with the smallest previously-seen one: a
            // canonical witness every honest replica derives identically no
            // matter the delivery order of the conflicting proposals.
            let slot = (view, proposer, BlockHash::MIN)..=(view, proposer, BlockHash::MAX);
            let mut seen = self.proposals_seen.range(slot).map(|entry| entry.2);
            if let Some(prior) = seen.find(|&h| h != block.hash()) {
                self.equivocations_detected += 1;
                self.slash_evidence.push(SlashEvidence::new(
                    block.view(),
                    block.proposer(),
                    prior,
                    block.hash(),
                ));
            }
        }
        self.process_verified_qc(block.justify(), out);
        self.store.insert(block);
        if block.view() > self.current_view {
            // We have not entered this view yet; keep the proposal until the
            // pacemaker moves us forward (typically in reaction to the
            // justify QC we just surfaced).
            self.pending_proposals
                .insert((block.view().as_i64(), from), block.clone());
            return;
        }
        if block.view() == self.current_view && Some(from) == self.current_leader {
            self.maybe_vote(block, now, out);
        }
    }

    fn maybe_vote(&mut self, block: &Block, now: Time, out: &mut Vec<ConsensusAction>) {
        if block.view() <= self.last_voted_view {
            return;
        }
        if block.justify().view() < self.locked_view {
            return;
        }
        self.last_voted_view = block.view();
        let digest = self.vote_digests.get((block.view(), block.hash()));
        let signature = self.keys.sign(digest);
        let leader = block.proposer();
        if leader == self.id {
            self.record_vote(block.view(), block.hash(), signature, now, out);
        } else {
            out.push(ConsensusAction::Send(
                leader,
                ConsensusMessage::Vote {
                    view: block.view(),
                    block_hash: block.hash(),
                    signature,
                },
            ));
        }
    }

    fn on_vote(
        &mut self,
        from: ProcessId,
        view: View,
        block_hash: BlockHash,
        signature: Signature,
        now: Time,
        out: &mut Vec<ConsensusAction>,
    ) {
        // Only the proposer of the block collects votes for it; that test
        // is cheaper than the signature's, so it comes first.
        if signature.signer() != from || !self.proposed_in(view) {
            return;
        }
        let digest = self.vote_digests.get((view, block_hash));
        if self.pki.verify(&signature, digest).is_err() {
            return;
        }
        self.record_vote(view, block_hash, signature, now, out);
    }

    /// Pools a vote for this replica's own proposal. The one that completes
    /// the quorum yields `QcFormed`, then the `NewQc` broadcast, then what
    /// the certificate's intake sets off.
    fn record_vote(
        &mut self,
        view: View,
        block_hash: BlockHash,
        signature: Signature,
        now: Time,
        out: &mut Vec<ConsensusAction>,
    ) {
        // Only ever reached for a view this replica proposed in, so the
        // record exists; a formed QC has nothing left to collect.
        let Some(state) = self.views.get_mut(view.as_i64()) else {
            return;
        };
        if state.formed_qc {
            return;
        }
        let pool = state
            .votes
            .entry(block_hash)
            .or_insert_with(|| PartialSet::new(self.params.n));
        pool.insert(signature);
        if pool.len() < self.params.quorum() {
            return;
        }
        // Lumiere leader rule: past the deadline it is too late to produce
        // this QC.
        if state.qc_deadline.is_some_and(|deadline| now > deadline) {
            return;
        }
        let Ok(qc) = QuorumCert::aggregate(view, block_hash, pool.as_slice(), &self.params) else {
            return;
        };
        state.formed_qc = true;
        state.votes.clear();
        out.push(ConsensusAction::QcFormed(qc.clone()));
        out.push(ConsensusAction::Broadcast(ConsensusMessage::NewQc(
            qc.clone(),
        )));
        self.process_qc(&qc, out);
    }

    /// The engine's one certificate check: every certificate that reaches
    /// `high_qc`, the lock, a view's observed blocks or the commit rule went through
    /// here on this replica. Unsigned certificates are not exempt — only
    /// the true genesis certificate passes without a signature.
    fn verify_qc(&mut self, qc: &QuorumCert) -> bool {
        if !qc.is_genesis() {
            self.certs_verified += 1;
        }
        qc.verify(&self.pki, &self.params).is_ok()
    }

    /// Intake for a certificate that arrived on its own (`NewQc`) or was
    /// just aggregated here.
    fn process_qc(&mut self, qc: &QuorumCert, out: &mut Vec<ConsensusAction>) {
        // An observed `(view, block)` yields no actions whether or not this
        // copy verifies, so the check is skipped for it.
        if self.observed(qc) || !self.verify_qc(qc) {
            return;
        }
        self.process_verified_qc(qc, out);
    }

    /// Whether `qc`'s `(view, block)` was observed; below the commit horizon
    /// every certificate counts as observed.
    fn observed(&self, qc: &QuorumCert) -> bool {
        let view = qc.view().as_i64();
        self.views.get(view).map_or(view < self.views.base(), |s| {
            s.has_observed(qc.block_hash())
        })
    }

    /// Applies a certificate the caller has verified (or found equal to
    /// `high_qc`): first sight of its `(view, block)` updates `high_qc` and
    /// the lock and runs the commit rule; any later copy is a no-op.
    fn process_verified_qc(&mut self, qc: &QuorumCert, out: &mut Vec<ConsensusAction>) {
        let Some(state) = self.views.get_or_insert(qc.view().as_i64()) else {
            return;
        };
        if !state.observe(qc.block_hash()) {
            return;
        }
        if qc.view() > self.high_qc.view() {
            self.high_qc = qc.clone();
        }
        if qc.view() > self.locked_view {
            self.locked_view = qc.view();
            self.locks_advanced += 1;
        }
        if !qc.is_genesis() {
            out.push(ConsensusAction::QcObserved(qc.clone()));
        }
        self.store.on_qc(qc, &mut self.committed);
        if let Some(horizon) = self.committed.last().map(Block::view) {
            self.prune_below(horizon);
        }
        out.extend(self.committed.drain(..).map(ConsensusAction::Committed));
    }

    /// The commit horizon: drops the per-view records and seen proposals of
    /// every view below `horizon`, the view of the newest committed block.
    /// Nothing below it is read again: a certificate there counts as
    /// observed, and a proposal or vote there finds no record, so none of
    /// them yields an action (as a repeat would not have).
    fn prune_below(&mut self, horizon: View) {
        let horizon = horizon.as_i64();
        self.views.prune_below(horizon);
        while self
            .proposals_seen
            .first()
            .is_some_and(|&(view, _, _)| view < horizon)
        {
            self.proposals_seen.pop_first();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumiere_crypto::keygen;
    use lumiere_types::Duration;

    struct Cluster {
        engines: Vec<HotStuffEngine>,
    }

    impl Cluster {
        fn new(n: usize) -> Self {
            let params = Params::new(n, Duration::from_millis(10));
            let (keys, pki) = keygen(n, 7);
            let engines = keys
                .iter()
                .map(|k| HotStuffEngine::new(k.id(), k.clone(), pki.clone(), params))
                .collect();
            Cluster { engines }
        }

        /// Synchronously runs one view with round-robin leader, delivering
        /// every send immediately. Returns the number of QCs formed.
        fn run_view(&mut self, view: i64) -> usize {
            let leader = ProcessId::new((view as usize) % self.engines.len());
            let now = Time::from_millis(view * 10);
            let mut inbox: Vec<(ProcessId, ProcessId, ConsensusMessage)> = Vec::new();
            let mut qcs_formed = 0;
            let n = self.engines.len();
            for e in self.engines.iter_mut() {
                let from = e.id();
                for a in e.enter_view(View::new(view), leader, now) {
                    match a {
                        ConsensusAction::Broadcast(m) => {
                            for to in 0..n {
                                if ProcessId::new(to) != from {
                                    inbox.push((from, ProcessId::new(to), m.clone()));
                                }
                            }
                        }
                        ConsensusAction::Send(to, m) => inbox.push((from, to, m)),
                        ConsensusAction::QcFormed(_) => qcs_formed += 1,
                        _ => {}
                    }
                }
            }
            while let Some((from, to, msg)) = inbox.pop() {
                let idx = to.as_usize();
                let out = self.engines[idx].on_message(from, &msg, now);
                for a in out {
                    match a {
                        ConsensusAction::Broadcast(m) => {
                            for dst in 0..n {
                                if ProcessId::new(dst) != to {
                                    inbox.push((to, ProcessId::new(dst), m.clone()));
                                }
                            }
                        }
                        ConsensusAction::Send(dst, m) => inbox.push((to, dst, m)),
                        ConsensusAction::QcFormed(_) => qcs_formed += 1,
                        _ => {}
                    }
                }
            }
            qcs_formed
        }
    }

    #[test]
    fn a_sequence_of_honest_views_commits_blocks() {
        let mut cluster = Cluster::new(4);
        for view in 0..6 {
            assert_eq!(cluster.run_view(view), 1, "view {view} should form one QC");
        }
        // Two-chain rule: after view v the block of view v-1 is committed, so
        // committed height should be at least 4 by now on every replica.
        for e in &cluster.engines {
            assert!(
                e.committed_height() >= 4,
                "replica {} committed only {}",
                e.id(),
                e.committed_height()
            );
        }
    }

    #[test]
    fn silent_leader_view_forms_no_qc_but_recovers_later() {
        let mut cluster = Cluster::new(4);
        cluster.engines[1].set_proposing_enabled(false);
        assert_eq!(cluster.run_view(0), 1);
        assert_eq!(cluster.run_view(1), 0, "silent leader forms no QC");
        assert_eq!(cluster.run_view(2), 1);
        assert_eq!(cluster.run_view(3), 1);
    }

    #[test]
    fn qc_deadline_prevents_late_qcs() {
        let mut cluster = Cluster::new(4);
        // Deadline for view 0 is in the past relative to the run time.
        cluster.engines[0].set_qc_deadline(View::new(0), Time::from_millis(-1));
        assert_eq!(cluster.run_view(0), 0);
        // Later views unaffected.
        assert_eq!(cluster.run_view(1), 1);
    }

    #[test]
    fn bogus_votes_are_ignored() {
        let params = Params::new(4, Duration::from_millis(10));
        let (keys, pki) = keygen(4, 1);
        let mut leader = HotStuffEngine::new(ProcessId::new(0), keys[0].clone(), pki, params);
        let now = Time::ZERO;
        let actions = leader.enter_view(View::new(0), ProcessId::new(0), now);
        let block_hash = actions
            .iter()
            .find_map(|a| match a {
                ConsensusAction::Broadcast(ConsensusMessage::Proposal(b)) => Some(b.hash()),
                _ => None,
            })
            .unwrap();
        // A vote whose signature does not match the sender is dropped.
        let digest = QuorumCert::vote_digest(View::new(0), block_hash);
        let sig = keys[2].sign(digest);
        let out = leader.on_message(
            ProcessId::new(3),
            &ConsensusMessage::Vote {
                view: View::new(0),
                block_hash,
                signature: sig,
            },
            now,
        );
        assert!(out.is_empty());
        // A vote signed over a different digest is dropped too.
        let bad_sig = keys[3].sign(QuorumCert::vote_digest(View::new(9), block_hash));
        let out = leader.on_message(
            ProcessId::new(3),
            &ConsensusMessage::Vote {
                view: View::new(0),
                block_hash,
                signature: bad_sig,
            },
            now,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn a_qc_is_the_same_whatever_order_its_votes_arrive_in() {
        let n = 10;
        let params = Params::new(n, Duration::from_millis(10));
        let (keys, pki) = keygen(n, 1);
        let (view, now) = (View::new(0), Time::ZERO);
        // The leader's own vote plus six others make the quorum of seven.
        let orders = [[1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1], [3, 6, 1, 5, 2, 4]];
        let mut qcs = Vec::new();
        for order in orders {
            let mut leader =
                HotStuffEngine::new(keys[0].id(), keys[0].clone(), pki.clone(), params);
            let block_hash = leader
                .enter_view(view, keys[0].id(), now)
                .iter()
                .find_map(|a| match a {
                    ConsensusAction::Broadcast(ConsensusMessage::Proposal(b)) => Some(b.hash()),
                    _ => None,
                })
                .unwrap();
            let vote = |i: usize| ConsensusMessage::Vote {
                view,
                block_hash,
                signature: keys[i].sign(QuorumCert::vote_digest(view, block_hash)),
            };
            for (held, &i) in (2..).zip(&order[..order.len() - 1]) {
                assert!(leader.on_message(keys[i].id(), &vote(i), now).is_empty());
                assert_eq!(leader.pending_votes(view), held);
                // A repeat is not counted again.
                assert!(leader.on_message(keys[i].id(), &vote(i), now).is_empty());
                assert_eq!(leader.pending_votes(view), held);
            }
            let last = order[order.len() - 1];
            let out = leader.on_message(keys[last].id(), &vote(last), now);
            let qc = out.iter().find_map(|a| match a {
                ConsensusAction::QcFormed(qc) => Some(qc.clone()),
                _ => None,
            });
            qcs.push(qc.expect("the seventh vote forms the QC"));
        }
        // The leader proposes the same block every time, so one certificate
        // aggregated from the votes in sender order stands for all three.
        let block_hash = qcs[0].block_hash();
        let in_sender_order: Vec<_> = (0..7)
            .map(|i| keys[i].sign(QuorumCert::vote_digest(view, block_hash)))
            .collect();
        let expected = QuorumCert::aggregate(view, block_hash, &in_sender_order, &params).unwrap();
        for qc in &qcs {
            assert_eq!(qc, &expected);
            assert_eq!(format!("{qc:?}"), format!("{expected:?}"));
        }
    }

    #[test]
    fn proposals_for_future_views_are_buffered_until_entry() {
        let params = Params::new(4, Duration::from_millis(10));
        let (keys, pki) = keygen(4, 1);
        let mut leader =
            HotStuffEngine::new(ProcessId::new(1), keys[1].clone(), pki.clone(), params);
        let mut replica = HotStuffEngine::new(ProcessId::new(2), keys[2].clone(), pki, params);
        let now = Time::ZERO;
        // Leader of view 0 proposes.
        let actions = leader.enter_view(View::new(0), ProcessId::new(1), now);
        let proposal = actions
            .iter()
            .find_map(|a| match a {
                ConsensusAction::Broadcast(m @ ConsensusMessage::Proposal(_)) => Some(m.clone()),
                _ => None,
            })
            .unwrap();
        // Replica receives it before entering view 0: no vote yet.
        let out = replica.on_message(ProcessId::new(1), &proposal, now);
        assert!(out
            .iter()
            .all(|a| !matches!(a, ConsensusAction::Send(_, ConsensusMessage::Vote { .. }))));
        // Once the pacemaker moves the replica into view 0, the buffered
        // proposal is voted on.
        let out = replica.enter_view(View::new(0), ProcessId::new(1), now);
        assert!(out
            .iter()
            .any(|a| matches!(a, ConsensusAction::Send(p, ConsensusMessage::Vote { .. }) if *p == ProcessId::new(1))));
    }

    #[test]
    fn another_processors_proposal_does_not_displace_the_leaders_parked_one() {
        // Regression: proposals were parked by view alone, so any
        // processor's well-formed block for a view the replica had yet to
        // enter overwrote the leader's, and the replica sat the view out.
        let params = Params::new(4, Duration::from_millis(10));
        let (keys, pki) = keygen(4, 1);
        let mut replica = HotStuffEngine::new(ProcessId::new(3), keys[3].clone(), pki, params);
        let now = Time::ZERO;
        let block = |view: i64, proposer: usize, tag: u64| {
            Block::new(
                Block::genesis().hash(),
                1,
                View::new(view),
                ProcessId::new(proposer),
                Batch::tag(tag),
                QuorumCert::genesis(),
            )
        };
        let park = |replica: &mut HotStuffEngine, b: &Block| {
            let msg = ConsensusMessage::Proposal(b.clone());
            assert!(replica.on_message(b.proposer(), &msg, now).is_empty());
        };
        let voted_for = |actions: &[ConsensusAction]| match actions {
            [ConsensusAction::Send(to, ConsensusMessage::Vote { block_hash, .. })] => {
                Some((*to, *block_hash))
            }
            _ => None,
        };
        // View 2 is led by p2. Its block arrives first, p1's block for the
        // same view second; one for view 1 is never used.
        let (leaders, intruders, skipped) = (block(2, 2, 7), block(2, 1, 8), block(1, 1, 9));
        park(&mut replica, &skipped);
        park(&mut replica, &leaders);
        park(&mut replica, &intruders);
        let out = replica.enter_view(View::new(2), ProcessId::new(2), now);
        assert_eq!(
            voted_for(&out),
            Some((ProcessId::new(2), leaders.hash())),
            "the leader's parked proposal earns the vote"
        );
        assert!(
            replica.pending_proposals.is_empty(),
            "nothing at or below the entered view stays parked"
        );
        // An equivocating *leader* is as before: its later block replaces
        // its earlier one, and is the one voted on.
        let (first, second) = (block(3, 1, 10), block(3, 1, 11));
        park(&mut replica, &first);
        park(&mut replica, &second);
        let out = replica.enter_view(View::new(3), ProcessId::new(1), now);
        assert_eq!(voted_for(&out), Some((ProcessId::new(1), second.hash())));
        assert_eq!(replica.equivocations_detected(), 1);
    }

    #[test]
    fn a_received_block_is_shared_not_copied_from_parking_to_commit() {
        let params = Params::new(4, Duration::from_millis(10));
        let (keys, pki) = keygen(4, 1);
        let mut replica = HotStuffEngine::new(ProcessId::new(3), keys[3].clone(), pki, params);
        let now = Time::ZERO;
        let payload = Batch {
            txs: (0..64)
                .map(|i| lumiere_types::Transaction::new(lumiere_types::TxId::new(i)))
                .collect(),
        };
        let first = Block::new(
            Block::genesis().hash(),
            1,
            View::new(0),
            ProcessId::new(0),
            payload,
            QuorumCert::genesis(),
        );
        let txs = first.payload().txs.as_ptr();
        let shares = |b: &Block| b.payload().txs.as_ptr() == txs;
        // Parked (view 0 not entered yet) and stored: two more handles.
        let msg = ConsensusMessage::Proposal(first.clone());
        replica.on_message(ProcessId::new(0), &msg, now);
        assert!(shares(&replica.pending_proposals[&(0, ProcessId::new(0))]));
        assert!(shares(replica.store().get(first.hash()).unwrap()));
        replica.enter_view(View::new(0), ProcessId::new(0), now);
        // View 1 extends it; the certificate for view 1 commits it.
        let second = Block::new(
            first.hash(),
            2,
            View::new(1),
            ProcessId::new(1),
            Batch::empty(),
            certify(&first, &keys, &params),
        );
        replica.enter_view(View::new(1), ProcessId::new(1), now);
        let msg = ConsensusMessage::Proposal(second.clone());
        replica.on_message(ProcessId::new(1), &msg, now);
        let qc = ConsensusMessage::NewQc(certify(&second, &keys, &params));
        let out = replica.on_message(ProcessId::new(1), &qc, now);
        let committed: Vec<&Block> = out
            .iter()
            .filter_map(|a| match a {
                ConsensusAction::Committed(b) => Some(b),
                _ => None,
            })
            .collect();
        assert_eq!(committed, [&first]);
        assert!(shares(committed[0]), "the commit hands out the same block");
        // A leader's own proposal: the broadcast and its store share one.
        let mut leader = replica;
        leader.stage_payload(Batch::tag(5));
        let out = leader.enter_view(View::new(2), ProcessId::new(3), now);
        let proposed = out
            .iter()
            .find_map(|a| match a {
                ConsensusAction::Broadcast(ConsensusMessage::Proposal(b)) => Some(b),
                _ => None,
            })
            .expect("the leader proposes on entry");
        let stored = leader.store().get(proposed.hash()).unwrap();
        assert_eq!(
            stored.payload().txs.as_ptr(),
            proposed.payload().txs.as_ptr()
        );
    }

    #[test]
    fn views_one_peer_names_are_read_but_never_indexed() {
        let (mut replica, _, _) = replica_past_view_zero();
        let (keys, _) = keygen(4, 1);
        let peer = &keys[1];
        let records = replica.views.len();
        let now = Time::ZERO;
        for v in [i64::MAX - 1, 1 << 40, -2].map(View::new) {
            let block = Block::new(
                Block::genesis().hash(),
                1,
                v,
                peer.id(),
                Batch::tag(3),
                QuorumCert::genesis(),
            );
            let vote = ConsensusMessage::Vote {
                view: v,
                block_hash: block.hash(),
                signature: peer.sign(QuorumCert::vote_digest(v, block.hash())),
            };
            let entries = replica.state_entries();
            assert!(replica.on_message(peer.id(), &vote, now).is_empty());
            assert_eq!(
                replica.state_entries(),
                entries,
                "a vote for {v} is dropped"
            );
            let proposal = ConsensusMessage::Proposal(block);
            assert!(replica.on_message(peer.id(), &proposal, now).is_empty());
            // Stored, recorded as seen, and — above the current view —
            // parked; below the horizon (the sentinel view, before any
            // commit) dropped.
            let kept = if v < View::SENTINEL {
                0
            } else if v > replica.current_view() {
                3
            } else {
                2
            };
            assert_eq!(replica.state_entries(), entries + kept);
            assert_eq!(replica.pending_votes(v), 0);
        }
        assert_eq!(replica.views.len(), records);
        assert_eq!(replica.last_voted_view(), View::new(0));
    }

    #[test]
    fn the_commit_horizon_drops_every_view_below_the_committed_one() {
        let mut cluster = Cluster::new(4);
        let (keys, _) = keygen(4, 7);
        assert_eq!(cluster.run_view(0), 1);
        // View 0's traffic, replayed below the horizon later: the proposal,
        // its certificate and a vote for it.
        let qc = cluster.engines[1].high_qc().clone();
        let block = cluster.engines[1]
            .store()
            .get(qc.block_hash())
            .unwrap()
            .clone();
        let vote = ConsensusMessage::Vote {
            view: View::new(0),
            block_hash: block.hash(),
            signature: keys[2].sign(QuorumCert::vote_digest(View::new(0), block.hash())),
        };
        for view in 1..30 {
            assert_eq!(cluster.run_view(view), 1);
            // A replica holds a few views' worth whatever view it is in
            // (its commits may lag a few views here): without the horizon
            // it would hold about five entries more per view.
            for e in &cluster.engines {
                assert!(e.state_entries() <= 20, "replica {} at {view}", e.id());
            }
        }
        for e in &mut cluster.engines {
            // Nothing below the committed tip's view is held, and what is
            // held did not grow.
            let chain = e.store().committed_chain();
            let tip = e.store().get(chain[chain.len() - 1]).unwrap().view();
            assert!(tip >= View::new(27), "replica {} committed {tip}", e.id());
            assert_eq!(e.views.base(), tip.as_i64());
            let horizon = tip.as_i64();
            assert!(e.proposals_seen.iter().all(|&(view, _, _)| view >= horizon));
            assert!(e.store().len() <= 3, "the tip and the blocks above it");
            // Copies of view 0's messages find no record and change nothing,
            // and the certificate is not checked again.
            let (held, checks) = (e.state_entries(), e.certs_verified());
            let now = Time::from_millis(300);
            for msg in [
                ConsensusMessage::Proposal(block.clone()),
                ConsensusMessage::NewQc(qc.clone()),
                vote.clone(),
            ] {
                assert!(e.on_message(ProcessId::new(0), &msg, now).is_empty());
            }
            assert!(e.on_message(ProcessId::new(2), &vote, now).is_empty());
            assert_eq!((e.state_entries(), e.certs_verified()), (held, checks));
        }
    }

    #[test]
    fn votes_after_the_qc_formed_are_not_collected() {
        let mut cluster = Cluster::new(4);
        assert_eq!(cluster.run_view(0), 1);
        // All four voted; the fourth arrived after the QC formed.
        let leader = &cluster.engines[0];
        let record = leader.views.get(0).unwrap();
        assert!(record.proposed && record.formed_qc && record.votes.is_empty());
        assert_eq!(leader.pending_votes(View::new(0)), 0);
    }

    #[test]
    fn entering_older_views_is_a_no_op() {
        let mut cluster = Cluster::new(4);
        cluster.run_view(0);
        cluster.run_view(1);
        let out = cluster.engines[0].enter_view(View::new(0), ProcessId::new(0), Time::ZERO);
        assert!(out.is_empty());
        assert_eq!(cluster.engines[0].current_view(), View::new(1));
    }

    #[test]
    fn equivocating_proposals_are_tolerated_counted_and_voted_at_most_once() {
        let params = Params::new(4, Duration::from_millis(10));
        let (keys, pki) = keygen(4, 1);
        let mut replica =
            HotStuffEngine::new(ProcessId::new(2), keys[2].clone(), pki.clone(), params);
        let now = Time::ZERO;
        replica.enter_view(View::new(0), ProcessId::new(1), now);
        // The leader of view 0 equivocates: two well-formed blocks for the
        // same view, different payloads.
        let a = Block::new(
            Block::genesis().hash(),
            1,
            View::new(0),
            ProcessId::new(1),
            Batch::tag(7),
            QuorumCert::genesis(),
        );
        let b = Block::new(
            Block::genesis().hash(),
            1,
            View::new(0),
            ProcessId::new(1),
            Batch::tag(8),
            QuorumCert::genesis(),
        );
        let votes_in = |actions: &[ConsensusAction]| {
            actions
                .iter()
                .filter(|x| matches!(x, ConsensusAction::Send(_, ConsensusMessage::Vote { .. })))
                .count()
        };
        let out_a = replica.on_message(
            ProcessId::new(1),
            &ConsensusMessage::Proposal(a.clone()),
            now,
        );
        assert_eq!(votes_in(&out_a), 1, "first proposal earns a vote");
        let out_b = replica.on_message(
            ProcessId::new(1),
            &ConsensusMessage::Proposal(b.clone()),
            now,
        );
        assert_eq!(votes_in(&out_b), 0, "the conflicting twin must not");
        assert_eq!(replica.equivocations_detected(), 1);
        // Detection emits a canonical, transferable slashing record.
        assert_eq!(
            replica.slash_evidence(),
            &[lumiere_types::SlashEvidence::new(
                View::new(0),
                ProcessId::new(1),
                a.hash(),
                b.hash(),
            )]
        );
        // Replaying either block adds no further evidence: only *distinct*
        // conflicting proposals count.
        replica.on_message(ProcessId::new(1), &ConsensusMessage::Proposal(a), now);
        replica.on_message(ProcessId::new(1), &ConsensusMessage::Proposal(b), now);
        assert_eq!(replica.equivocations_detected(), 1, "re-delivery is free");
        // A third distinct conflicting block is new evidence.
        let c = Block::new(
            Block::genesis().hash(),
            1,
            View::new(0),
            ProcessId::new(1),
            Batch::tag(9),
            QuorumCert::genesis(),
        );
        replica.on_message(ProcessId::new(1), &ConsensusMessage::Proposal(c), now);
        assert_eq!(replica.equivocations_detected(), 2);
        assert_eq!(replica.slash_evidence().len(), 2);
        assert_eq!(replica.last_voted_view(), View::new(0));
    }

    #[test]
    fn disjoint_vote_sets_cannot_both_form_a_qc() {
        // An equivocating leader sends block A to one half and block B to
        // the other; with n = 4 and quorum 3, neither disjoint half can
        // produce a QC, so the view is wasted but safety holds.
        let params = Params::new(4, Duration::from_millis(10));
        let (keys, pki) = keygen(4, 1);
        let mut engines: Vec<HotStuffEngine> = keys
            .iter()
            .map(|k| HotStuffEngine::new(k.id(), k.clone(), pki.clone(), params))
            .collect();
        let now = Time::ZERO;
        for e in engines.iter_mut() {
            e.enter_view(View::new(0), ProcessId::new(0), now);
        }
        // p0 is the equivocator: its own engine proposed a third block on
        // view entry (an empty batch — nothing was staged); A and B carry
        // tagged batches so all three conflict.
        let a = Block::new(
            Block::genesis().hash(),
            1,
            View::new(0),
            ProcessId::new(0),
            Batch::tag(5),
            QuorumCert::genesis(),
        );
        let b = Block::new(
            Block::genesis().hash(),
            1,
            View::new(0),
            ProcessId::new(0),
            Batch::tag(99),
            QuorumCert::genesis(),
        );
        // p1, p2 get A; p3 gets B. Votes flow back to p0.
        let mut votes = Vec::new();
        for (i, block) in [(1usize, &a), (2, &a), (3, &b)] {
            let out = engines[i].on_message(
                ProcessId::new(0),
                &ConsensusMessage::Proposal(block.clone()),
                now,
            );
            for action in out {
                if let ConsensusAction::Send(to, m @ ConsensusMessage::Vote { .. }) = action {
                    assert_eq!(to, ProcessId::new(0));
                    votes.push((ProcessId::new(i), m));
                }
            }
        }
        assert_eq!(votes.len(), 3);
        let mut qcs = 0;
        for (from, vote) in votes {
            for action in engines[0].on_message(from, &vote, now) {
                if matches!(action, ConsensusAction::QcFormed(_)) {
                    qcs += 1;
                }
            }
        }
        // p0's engine proposed its own block (different hash than both A and
        // B since its unstaged payload is the empty batch), so no vote set
        // reaches quorum: 2 votes for A, 1 for B, 1 (local) for its own.
        assert_eq!(qcs, 0, "disjoint vote sets must not produce a QC");
    }

    #[test]
    fn proposals_from_the_wrong_sender_are_dropped() {
        let params = Params::new(4, Duration::from_millis(10));
        let (keys, pki) = keygen(4, 1);
        let mut a = HotStuffEngine::new(ProcessId::new(0), keys[0].clone(), pki.clone(), params);
        let mut b = HotStuffEngine::new(ProcessId::new(1), keys[1].clone(), pki, params);
        let now = Time::ZERO;
        let actions = a.enter_view(View::new(0), ProcessId::new(0), now);
        let proposal = actions
            .iter()
            .find_map(|act| match act {
                ConsensusAction::Broadcast(m @ ConsensusMessage::Proposal(_)) => Some(m.clone()),
                _ => None,
            })
            .unwrap();
        b.enter_view(View::new(0), ProcessId::new(0), now);
        // Claimed sender differs from the block's proposer: reject.
        let out = b.on_message(ProcessId::new(3), &proposal, now);
        assert!(out.is_empty());
    }

    // ------------------------------------------------ the certificate intake

    use lumiere_types::wire::Wire;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// Offsets into an encoded signed certificate: view (8), block hash (8),
    /// presence tag (1), then the threshold signature as digest (8), proof
    /// (8), bitmap word count (4), bitmap words.
    const VIEW_BYTE: usize = 0;
    const PROOF_BYTE: usize = 8 + 8 + 1 + 8;
    const BITMAP_BYTE: usize = PROOF_BYTE + 8 + 4;

    /// `qc` as a peer would forge it: one bit flipped on the wire.
    fn flipped(qc: &QuorumCert, byte: usize, mask: u8) -> QuorumCert {
        let mut bytes = Vec::new();
        qc.encode_into(&mut bytes);
        bytes[byte] ^= mask;
        QuorumCert::decode_exact(&bytes).unwrap()
    }

    /// A certificate for `block` signed by the first `2f+1` of `keys`.
    fn certify(block: &Block, keys: &[KeyPair], params: &Params) -> QuorumCert {
        let digest = QuorumCert::vote_digest(block.view(), block.hash());
        let votes: Vec<_> = keys
            .iter()
            .take(params.quorum())
            .map(|k| k.sign(digest))
            .collect();
        QuorumCert::aggregate(block.view(), block.hash(), &votes, params).unwrap()
    }

    type Mail = (usize, usize, ConsensusMessage);

    /// An n = 7 cluster stepped by hand, every message delivered `copies`
    /// times in a row.
    struct Stepper {
        engines: Vec<HotStuffEngine>,
        /// `QcObserved` actions per replica: one per distinct certificate.
        observed: Vec<u64>,
        copies: usize,
    }

    impl Stepper {
        fn route(&mut self, from: usize, actions: Vec<ConsensusAction>) -> Vec<Mail> {
            let n = self.engines.len();
            let mut mail = Vec::new();
            for action in actions {
                match action {
                    ConsensusAction::Broadcast(m) => mail.extend(
                        (0..n)
                            .filter(|&to| to != from)
                            .map(|to| (from, to, m.clone())),
                    ),
                    ConsensusAction::Send(to, m) => mail.push((from, to.as_usize(), m)),
                    ConsensusAction::QcObserved(_) => self.observed[from] += 1,
                    _ => {}
                }
            }
            mail
        }

        fn deliver(&mut self, (from, to, msg): Mail, now: Time) -> Vec<Mail> {
            let mut out = Vec::new();
            for _ in 0..self.copies {
                out.extend(self.engines[to].on_message(ProcessId::new(from), &msg, now));
            }
            self.route(to, out)
        }

        /// Runs `views` fault-free views. A view's `NewQc` reaches a replica
        /// before the next proposal (`qc_first`) or after it; the next
        /// leader, which extends the certificate, always has it first.
        fn run(views: i64, qc_first: bool, copies: usize) -> Self {
            let n = 7;
            let mut s = Stepper {
                engines: Cluster::new(n).engines,
                observed: vec![0; n],
                copies,
            };
            let mut late_qcs: Vec<Mail> = Vec::new();
            for view in 0..views {
                let leader = view as usize % n;
                let now = Time::from_millis(view);
                let (for_leader, for_rest): (Vec<Mail>, Vec<Mail>) =
                    late_qcs.drain(..).partition(|m| m.1 == leader);
                for m in for_leader {
                    assert!(s.deliver(m, now).is_empty());
                }
                let mut mail = VecDeque::new();
                for i in 0..n {
                    let out = s.engines[i].enter_view(View::new(view), ProcessId::new(leader), now);
                    mail.extend(s.route(i, out));
                }
                // Behind the proposals, ahead of the votes they trigger.
                mail.extend(for_rest);
                while let Some(m) = mail.pop_front() {
                    let fresh_qc =
                        matches!(&m.2, ConsensusMessage::NewQc(qc) if qc.view() == View::new(view));
                    if fresh_qc && !qc_first {
                        late_qcs.push(m);
                    } else {
                        mail.extend(s.deliver(m, now));
                    }
                }
            }
            s
        }
    }

    #[test]
    fn each_distinct_certificate_is_verified_once_in_either_arrival_order() {
        let views = 12;
        for qc_first in [true, false] {
            for copies in [1, 2] {
                let s = Stepper::run(views, qc_first, copies);
                for (e, &observed) in s.engines.iter().zip(&s.observed) {
                    let case = format!("replica {} qc_first={qc_first} copies={copies}", e.id());
                    // The last view's certificate reaches only its leader
                    // when `NewQc`s trail the proposals.
                    assert!(observed >= views as u64 - 1, "{case}: saw {observed} QCs");
                    assert_eq!(e.certs_verified(), observed, "{case}");
                    assert!(e.committed_height() >= views as u64 - 3, "{case}");
                }
            }
        }
    }

    /// One replica (p2 of n = 4) that saw view 0 through: `block`, proposed
    /// by p0, and the certificate for it as its `high_qc`.
    fn replica_past_view_zero() -> (HotStuffEngine, Block, QuorumCert) {
        let params = Params::new(4, Duration::from_millis(10));
        let (keys, pki) = keygen(4, 1);
        let mut replica = HotStuffEngine::new(ProcessId::new(2), keys[2].clone(), pki, params);
        let block = Block::new(
            Block::genesis().hash(),
            1,
            View::new(0),
            ProcessId::new(0),
            Batch::tag(1),
            QuorumCert::genesis(),
        );
        let qc = certify(&block, &keys, &params);
        let now = Time::ZERO;
        replica.enter_view(View::new(0), ProcessId::new(0), now);
        replica.on_message(
            ProcessId::new(0),
            &ConsensusMessage::Proposal(block.clone()),
            now,
        );
        replica.on_message(ProcessId::new(0), &ConsensusMessage::NewQc(qc.clone()), now);
        assert_eq!(replica.high_qc(), &qc);
        replica.enter_view(View::new(1), ProcessId::new(1), now);
        (replica, block, qc)
    }

    #[test]
    fn a_justify_that_differs_from_high_qc_in_one_signature_bit_is_rejected() {
        let (replica, parent, qc) = replica_past_view_zero();
        let child = |justify: QuorumCert| {
            ConsensusMessage::Proposal(Block::new(
                parent.hash(),
                2,
                View::new(1),
                ProcessId::new(1),
                Batch::tag(2),
                justify,
            ))
        };
        // Same `(view, block_hash)` as `high_qc`, so the block hash — which
        // commits to just those two — is the honest one; only comparing the
        // whole certificate tells the copies apart.
        for (what, byte) in [("bitmap", BITMAP_BYTE), ("proof", PROOF_BYTE)] {
            let forged = flipped(&qc, byte, 0b1000);
            assert_eq!(
                (forged.view(), forged.block_hash()),
                (qc.view(), qc.block_hash())
            );
            let mut replica = replica.clone();
            let checks = replica.certs_verified();
            let out = replica.on_message(ProcessId::new(1), &child(forged), Time::ZERO);
            assert!(out.is_empty(), "flipped {what} bit must not earn a vote");
            assert_eq!(replica.last_voted_view(), View::new(0));
            assert_eq!(replica.store().len(), 2, "and the block is not stored");
            assert_eq!(
                replica.certs_verified(),
                checks + 1,
                "it was checked, not matched"
            );
        }
        // The untouched certificate takes the fast path and earns the vote.
        let mut replica = replica.clone();
        let checks = replica.certs_verified();
        let out = replica.on_message(ProcessId::new(1), &child(qc), Time::ZERO);
        assert!(matches!(
            out.as_slice(),
            [ConsensusAction::Send(_, ConsensusMessage::Vote { .. })]
        ));
        assert_eq!(replica.certs_verified(), checks);
    }

    /// The 17 bytes a Byzantine peer needs: `view = 1 000 000`,
    /// `block_hash = 7`, presence tag 0 — a certificate with no signature.
    fn unsigned_cert_from_the_wire() -> QuorumCert {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1_000_000i64.to_le_bytes());
        bytes.extend_from_slice(&7u64.to_le_bytes());
        bytes.push(0);
        let qc = QuorumCert::decode_exact(&bytes).unwrap();
        assert!(qc.is_genesis(), "unsigned is all `is_genesis` looks at");
        qc
    }

    #[test]
    fn an_unsigned_new_qc_does_not_touch_the_lock() {
        // Regression: the intake used to skip `verify` for any certificate
        // without a signature, so this one message moved `locked_view` to
        // 1 000 000 and the replica never voted again.
        let (mut replica, _, qc) = replica_past_view_zero();
        let msg = ConsensusMessage::NewQc(unsigned_cert_from_the_wire());
        let out = replica.on_message(ProcessId::new(3), &msg, Time::ZERO);
        assert!(out.is_empty());
        assert_eq!(replica.locked_view(), View::new(0));
        assert_eq!(replica.high_qc(), &qc);
    }

    #[test]
    fn an_unsigned_justify_does_not_touch_the_lock() {
        let (mut replica, _, qc) = replica_past_view_zero();
        let unsigned = unsigned_cert_from_the_wire();
        let block = Block::new(
            unsigned.block_hash(),
            2,
            View::new(1),
            ProcessId::new(1),
            Batch::empty(),
            unsigned,
        );
        assert!(block.well_formed());
        let mut bytes = Vec::new();
        ConsensusMessage::Proposal(block).encode_into(&mut bytes);
        let msg = ConsensusMessage::decode_exact(&bytes).unwrap();
        let out = replica.on_message(ProcessId::new(1), &msg, Time::ZERO);
        assert!(out.is_empty());
        assert_eq!(replica.locked_view(), View::new(0));
        assert_eq!(replica.high_qc(), &qc);
        assert_eq!(replica.last_voted_view(), View::new(0));
    }

    /// The intake this engine replaced, kept as the reference the
    /// differential test holds it to: a proposal's justify is verified on
    /// arrival and again inside `process_qc`, `process_qc` verifies before
    /// it consults `observed_qcs`, and blocks are copied at every hand-off.
    /// It also keeps the old `!is_genesis()` guard, which waves unsigned
    /// certificates through — the differential inputs contain none; the
    /// `an_unsigned_*` tests above cover those.
    impl HotStuffEngine {
        fn reference_on_message(
            &mut self,
            from: ProcessId,
            msg: &ConsensusMessage,
            now: Time,
        ) -> Vec<ConsensusAction> {
            match msg {
                ConsensusMessage::Proposal(block) => {
                    self.reference_on_proposal(from, block.clone(), now)
                }
                ConsensusMessage::Vote { .. } => self.on_message(from, msg, now),
                ConsensusMessage::NewQc(qc) => self.reference_process_qc(qc.clone()),
            }
        }

        fn reference_on_proposal(
            &mut self,
            from: ProcessId,
            block: Block,
            now: Time,
        ) -> Vec<ConsensusAction> {
            // The commit horizon is not part of what this reference checks:
            // both intakes drop a proposal below it.
            if block.view().as_i64() < self.views.base()
                || !block.well_formed()
                || block.proposer() != from
            {
                return Vec::new();
            }
            if block.justify().verify(&self.pki, &self.params).is_err() {
                return Vec::new();
            }
            let (view, proposer) = (block.view().as_i64(), block.proposer());
            if self.proposals_seen.insert((view, proposer, block.hash())) {
                let slot = (view, proposer, BlockHash::MIN)..=(view, proposer, BlockHash::MAX);
                let mut seen = self.proposals_seen.range(slot).map(|entry| entry.2);
                if let Some(prior) = seen.find(|&h| h != block.hash()) {
                    self.equivocations_detected += 1;
                    self.slash_evidence.push(SlashEvidence::new(
                        block.view(),
                        block.proposer(),
                        prior,
                        block.hash(),
                    ));
                }
            }
            let mut out = self.reference_process_qc(block.justify().clone());
            self.store.insert(&block);
            if block.view() > self.current_view {
                self.pending_proposals
                    .insert((block.view().as_i64(), from), block);
                return out;
            }
            if block.view() == self.current_view && Some(from) == self.current_leader {
                self.maybe_vote(&block, now, &mut out);
            }
            out
        }

        fn reference_process_qc(&mut self, qc: QuorumCert) -> Vec<ConsensusAction> {
            let mut out = Vec::new();
            if qc.is_genesis() || qc.verify(&self.pki, &self.params).is_ok() {
                self.process_verified_qc(&qc, &mut out);
            }
            out
        }
    }

    /// Deterministic driver state for the differential test.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }

        fn below(&mut self, bound: usize) -> usize {
            self.next() as usize % bound
        }
    }

    /// Feeds replica p3 of an n = 4 cluster, and a second copy of it running
    /// the reference intake, one seeded interleaving of everything the other
    /// three can send: each view's proposal and `NewQc`, an equivocating twin
    /// of the proposal, the certificate forged three ways (view, proof and
    /// bitmap bit flipped on the wire) on its own and as the justify of an
    /// otherwise honest proposal, a second honest certificate for the same
    /// block from a different signer set, and votes for the views p3 leads.
    /// Mail stays in the pool after delivery some of the time (duplicates),
    /// any view's mail can be drawn at any point (reordering), and p3 enters
    /// a view it does not lead late some of the time (buffered proposals).
    ///
    /// Returns the engine and how many certificates it aggregated itself.
    fn differential_run(seed: u64, steps: usize) -> (HotStuffEngine, usize) {
        let params = Params::new(4, Duration::from_millis(10));
        let (keys, pki) = keygen(4, 11);
        let me = ProcessId::new(3);
        let mut engine = HotStuffEngine::new(me, keys[3].clone(), pki.clone(), params);
        let mut reference = HotStuffEngine::new(me, keys[3].clone(), pki, params);
        let mut rng = Lcg(seed);
        let mut pool: Vec<(ProcessId, ConsensusMessage)> = Vec::new();
        // The chain the other replicas extend, and the views p3 has yet to
        // enter.
        let (mut tip, mut tip_qc) = (Block::genesis(), QuorumCert::genesis());
        let mut view = -1i64;
        let mut unentered: VecDeque<i64> = VecDeque::new();
        let mut formed = 0;
        for step in 0..steps {
            let now = Time::from_millis(step as i64);
            let case = format!("seed {seed} step {step}");
            let mut enter = |engine: &mut HotStuffEngine, v: i64| {
                let leader = ProcessId::new(v as usize % 4);
                let actions = engine.enter_view(View::new(v), leader, now);
                assert_eq!(
                    actions,
                    reference.enter_view(View::new(v), leader, now),
                    "{case}: enter_view({v})"
                );
                actions
            };
            let actions = if pool.is_empty() || rng.below(12) == 0 {
                view += 1;
                let leader = ProcessId::new(view as usize % 4);
                let (actions, block) = if leader == me {
                    let actions = enter(&mut engine, view);
                    let proposed = actions.iter().find_map(|a| match a {
                        ConsensusAction::Broadcast(ConsensusMessage::Proposal(b)) => {
                            Some(b.clone())
                        }
                        _ => None,
                    });
                    let block = proposed.expect("p3 enters the views it leads in order");
                    // The others vote for p3's block.
                    let digest = QuorumCert::vote_digest(block.view(), block.hash());
                    pool.extend(keys[..3].iter().map(|k| {
                        let vote = ConsensusMessage::Vote {
                            view: block.view(),
                            block_hash: block.hash(),
                            signature: k.sign(digest),
                        };
                        (k.id(), vote)
                    }));
                    (actions, block)
                } else {
                    let child = |tag: u64, justify: QuorumCert| {
                        Block::new(
                            tip.hash(),
                            tip.height() + 1,
                            View::new(view),
                            leader,
                            Batch::tag(tag),
                            justify,
                        )
                    };
                    let block = child(view as u64, tip_qc.clone());
                    pool.push((leader, ConsensusMessage::Proposal(block.clone())));
                    if rng.below(3) == 0 {
                        let twin = child(1_000 + view as u64, tip_qc.clone());
                        pool.push((leader, ConsensusMessage::Proposal(twin)));
                    }
                    if !tip_qc.is_genesis() {
                        let byte = [VIEW_BYTE, PROOF_BYTE, BITMAP_BYTE][rng.below(3)];
                        let forged = child(view as u64, flipped(&tip_qc, byte, 0b100));
                        pool.push((leader, ConsensusMessage::Proposal(forged)));
                    }
                    let actions = if rng.below(3) == 0 {
                        unentered.push_back(view);
                        Vec::new()
                    } else {
                        enter(&mut engine, view)
                    };
                    (actions, block)
                };
                let qc = certify(&block, &keys, &params);
                pool.push((leader, ConsensusMessage::NewQc(qc.clone())));
                for byte in [VIEW_BYTE, PROOF_BYTE, BITMAP_BYTE] {
                    let forged = flipped(&qc, byte, 0b100);
                    pool.push((leader, ConsensusMessage::NewQc(forged)));
                }
                let digest = QuorumCert::vote_digest(block.view(), block.hash());
                let others: Vec<_> = keys[1..].iter().map(|k| k.sign(digest)).collect();
                let other_qc =
                    QuorumCert::aggregate(block.view(), block.hash(), &others, &params).unwrap();
                pool.push((leader, ConsensusMessage::NewQc(other_qc)));
                (tip, tip_qc) = (block, qc);
                actions
            } else if !unentered.is_empty() && rng.below(6) == 0 {
                let v = unentered.pop_front().expect("checked non-empty");
                enter(&mut engine, v)
            } else {
                // Mostly recent mail, so chains get long enough to commit;
                // sometimes anything still in the pool.
                let recent = if rng.below(4) == 0 {
                    pool.len()
                } else {
                    pool.len().min(8)
                };
                let pick = pool.len() - 1 - rng.below(recent);
                let (from, msg) = if rng.below(3) == 0 {
                    pool[pick].clone()
                } else {
                    pool.swap_remove(pick)
                };
                let actions = engine.on_message(from, &msg, now);
                assert_eq!(
                    actions,
                    reference.reference_on_message(from, &msg, now),
                    "{case}: {} from {from}",
                    msg.kind()
                );
                actions
            };
            for a in &actions {
                if let ConsensusAction::QcFormed(qc) | ConsensusAction::QcObserved(qc) = a {
                    assert!(qc.verify(&engine.pki, &params).is_ok());
                    formed += usize::from(matches!(a, ConsensusAction::QcFormed(_)));
                }
            }
            assert_eq!(engine.high_qc(), reference.high_qc(), "{case}");
            assert_eq!(engine.locked_view(), reference.locked_view(), "{case}");
            assert_eq!(
                engine.last_voted_view(),
                reference.last_voted_view(),
                "{case}"
            );
            assert_eq!(
                engine.store().committed_chain(),
                reference.store().committed_chain(),
                "{case}"
            );
            assert_eq!(
                engine.slash_evidence(),
                reference.slash_evidence(),
                "{case}"
            );
            assert_eq!(engine.store().len(), reference.store().len(), "{case}");
        }
        (engine, formed)
    }

    #[test]
    fn the_differential_driver_reaches_commits_equivocations_and_own_certificates() {
        // Guards the generator, not the engine: if the driver stopped
        // producing the interesting cases the property below would pass
        // vacuously.
        let (engine, formed) = differential_run(7, 400);
        assert!(engine.committed_height() >= 5);
        assert!(engine.equivocations_detected() >= 5);
        assert!(formed >= 5, "p3 aggregated {formed} certificates");
        assert!(engine.certs_verified() >= 50);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn verify_once_intake_matches_the_verify_everywhere_reference(seed in any::<u64>()) {
            differential_run(seed, 300);
        }
    }
}
