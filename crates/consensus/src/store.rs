//! Block storage and the two-chain commit rule.

use crate::block::{Block, BlockHash};
use crate::qc::QuorumCert;
use std::collections::HashMap;

/// In-memory store of all blocks a replica has seen, plus the committed
/// prefix of the chain.
///
/// The commit rule is the two-chain rule of HotStuff-2: when a replica sees a
/// QC for block `b` and `b`'s own justify is a QC for `b`'s parent formed in
/// the directly preceding view, the parent (and all its ancestors) are
/// committed.
#[derive(Debug, Clone)]
pub struct BlockStore {
    blocks: HashMap<BlockHash, Block>,
    committed_height: u64,
    committed: Vec<BlockHash>,
}

impl Default for BlockStore {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockStore {
    /// Creates a store containing only the genesis block (already committed).
    pub fn new() -> Self {
        let genesis = Block::genesis();
        let mut blocks = HashMap::new();
        let hash = genesis.hash();
        blocks.insert(hash, genesis);
        BlockStore {
            blocks,
            committed_height: 0,
            committed: vec![hash],
        }
    }

    /// Stores a handle to `block` unless its hash is already held
    /// (idempotent). Nothing is copied: the store shares the caller's
    /// allocation.
    pub fn insert(&mut self, block: &Block) {
        self.blocks
            .entry(block.hash())
            .or_insert_with(|| block.clone());
    }

    /// Looks up a block by hash.
    pub fn get(&self, hash: BlockHash) -> Option<&Block> {
        self.blocks.get(&hash)
    }

    /// Whether the store contains `hash`.
    pub fn contains(&self, hash: BlockHash) -> bool {
        self.blocks.contains_key(&hash)
    }

    /// Number of blocks stored (including genesis).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the store holds only genesis.
    pub fn is_empty(&self) -> bool {
        self.blocks.len() <= 1
    }

    /// Height of the highest committed block.
    pub fn committed_height(&self) -> u64 {
        self.committed_height
    }

    /// Hashes of committed blocks in commit order (starting at genesis).
    pub fn committed_chain(&self) -> &[BlockHash] {
        &self.committed
    }

    /// The uncommitted chain ending at `hash`, newest first: its block,
    /// then each parent in turn while the parent is held and above
    /// [`BlockStore::committed_height`]. Empty when `hash` is committed or
    /// unknown. What a proposal extending `hash` must not carry again.
    pub fn uncommitted_ancestry(&self, hash: BlockHash) -> impl Iterator<Item = &Block> + '_ {
        let mut next = self.blocks.get(&hash);
        std::iter::from_fn(move || {
            let block = next.filter(|b| b.height() > self.committed_height)?;
            next = self.blocks.get(&block.parent());
            Some(block)
        })
    }

    /// Applies the two-chain commit rule given a newly observed QC.
    ///
    /// Returns the list of newly committed blocks in chain order (oldest
    /// first). Blocks whose ancestry is not fully known are not committed.
    pub fn on_qc(&mut self, qc: &QuorumCert) -> Vec<Block> {
        let Some(block) = self.blocks.get(&qc.block_hash()) else {
            return Vec::new();
        };
        // Two-chain rule: the QC certifies `block`; if `block.justify`
        // certifies its parent in the immediately preceding view, the parent
        // becomes committed.
        if block.is_genesis() {
            return Vec::new();
        }
        let Some(parent) = self.blocks.get(&block.parent()) else {
            return Vec::new();
        };
        if block.justify().block_hash() != block.parent() {
            return Vec::new();
        }
        if !parent.is_genesis() && block.view().as_i64() != block.justify().view().as_i64() + 1 {
            return Vec::new();
        }
        if parent.height() <= self.committed_height {
            return Vec::new();
        }
        // Walk back from `parent` to the committed frontier over the stored
        // blocks; the caller gets handles to the new suffix.
        let mut chain = Vec::new();
        let mut cursor = parent;
        while cursor.height() > self.committed_height {
            chain.push(cursor);
            match self.blocks.get(&cursor.parent()) {
                Some(ancestor) => cursor = ancestor,
                None => return Vec::new(), // unknown ancestry: defer commit
            }
        }
        chain.reverse();
        self.committed.extend(chain.iter().map(|b| b.hash()));
        self.committed_height = parent.height();
        chain.into_iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumiere_crypto::keygen;
    use lumiere_types::{Batch, Duration, Params, ProcessId, View};

    fn qc_for(block: &Block, params: &Params, keys: &[lumiere_crypto::KeyPair]) -> QuorumCert {
        let digest = QuorumCert::vote_digest(block.view(), block.hash());
        let votes: Vec<_> = keys
            .iter()
            .take(params.quorum())
            .map(|k| k.sign(digest))
            .collect();
        QuorumCert::aggregate(block.view(), block.hash(), &votes, params).unwrap()
    }

    fn chain_fixture() -> (BlockStore, Vec<Block>, Vec<QuorumCert>) {
        let params = Params::new(4, Duration::from_millis(10));
        let (keys, _) = keygen(4, 1);
        let mut store = BlockStore::new();
        let mut blocks = vec![Block::genesis()];
        let mut qcs = vec![QuorumCert::genesis()];
        for i in 0..5u64 {
            let parent = blocks.last().unwrap().clone();
            let justify = qcs.last().unwrap().clone();
            let block = Block::new(
                parent.hash(),
                parent.height() + 1,
                View::new(i as i64),
                ProcessId::new((i % 4) as usize),
                Batch::tag(i),
                justify,
            );
            store.insert(&block);
            qcs.push(qc_for(&block, &params, &keys));
            blocks.push(block);
        }
        (store, blocks, qcs)
    }

    #[test]
    fn starts_with_genesis_committed() {
        let store = BlockStore::new();
        assert_eq!(store.committed_height(), 0);
        assert_eq!(store.committed_chain().len(), 1);
        assert!(store.is_empty());
    }

    #[test]
    fn consecutive_view_qcs_commit_parents() {
        let (mut store, blocks, qcs) = chain_fixture();
        // QC for block at height 2 (view 1) whose justify is view 0 on the
        // direct parent: commits block at height 1.
        let committed = store.on_qc(&qcs[2]);
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].hash(), blocks[1].hash());
        assert_eq!(store.committed_height(), 1);
        // The next QC commits the next block.
        let committed = store.on_qc(&qcs[3]);
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].hash(), blocks[2].hash());
    }

    #[test]
    fn qcs_are_idempotent_for_commits() {
        let (mut store, _, qcs) = chain_fixture();
        assert_eq!(store.on_qc(&qcs[2]).len(), 1);
        assert!(store.on_qc(&qcs[2]).is_empty());
    }

    #[test]
    fn skipping_intermediate_qcs_commits_the_whole_prefix() {
        let (mut store, _, qcs) = chain_fixture();
        let committed = store.on_qc(&qcs[4]);
        // QC for height-4 block commits heights 1..=3.
        assert_eq!(committed.len(), 3);
        assert_eq!(store.committed_height(), 3);
    }

    #[test]
    fn non_consecutive_views_do_not_commit() {
        let params = Params::new(4, Duration::from_millis(10));
        let (keys, _) = keygen(4, 1);
        let mut store = BlockStore::new();
        let genesis = Block::genesis();
        let b1 = Block::new(
            genesis.hash(),
            1,
            View::new(0),
            ProcessId::new(0),
            Batch::empty(),
            QuorumCert::genesis(),
        );
        let qc1 = qc_for(&b1, &params, &keys);
        // Child is proposed two views later (view 2), so the 2-chain rule
        // must not commit b1 yet.
        let b2 = Block::new(
            b1.hash(),
            2,
            View::new(2),
            ProcessId::new(1),
            Batch::empty(),
            qc1,
        );
        let qc2 = qc_for(&b2, &params, &keys);
        store.insert(&b1);
        store.insert(&b2);
        assert!(store.on_qc(&qc2).is_empty());
        assert_eq!(store.committed_height(), 0);
    }

    #[test]
    fn fork_then_commit_returns_exactly_the_certified_branch() {
        let params = Params::new(4, Duration::from_millis(10));
        let (keys, _) = keygen(4, 1);
        let (mut store, blocks, qcs) = chain_fixture();
        // A fork off height 1: `f2` (view 5) and its child `f3` (view 6),
        // consecutive views, so only the height rule keeps them out.
        let child = |parent: &Block, view: i64, justify: QuorumCert| {
            Block::new(
                parent.hash(),
                parent.height() + 1,
                View::new(view),
                ProcessId::new(3),
                Batch::tag(100 + view as u64),
                justify,
            )
        };
        let f2 = child(&blocks[1], 5, qcs[1].clone());
        let f3 = child(&f2, 6, qc_for(&f2, &params, &keys));
        store.insert(&f2);
        store.insert(&f3);
        let len = store.len();
        // The QC for the main branch's height-4 block commits heights 1..=3
        // of that branch: whole blocks, oldest first, nothing from the fork.
        assert_eq!(store.on_qc(&qcs[4]), blocks[1..=3].to_vec());
        let chain: Vec<_> = blocks[..=3].iter().map(Block::hash).collect();
        assert_eq!(store.committed_chain(), chain.as_slice());
        // A QC on the fork certifies `f2` at height 2, below the frontier.
        assert!(store.on_qc(&qc_for(&f3, &params, &keys)).is_empty());
        assert_eq!(store.committed_chain(), chain.as_slice());
        assert_eq!(store.committed_height(), 3);
        assert_eq!(store.len(), len, "committing hands blocks out, not away");
    }

    #[test]
    fn a_missing_ancestor_defers_the_commit_until_it_arrives() {
        let (_, blocks, qcs) = chain_fixture();
        let mut store = BlockStore::new();
        for b in [&blocks[1], &blocks[3], &blocks[4]] {
            store.insert(b);
        }
        assert!(store.on_qc(&qcs[4]).is_empty(), "height 2 is unknown");
        assert_eq!(store.committed_height(), 0);
        assert_eq!(store.committed_chain().len(), 1);
        store.insert(&blocks[2]);
        assert_eq!(store.on_qc(&qcs[4]), blocks[1..=3].to_vec());
        let chain: Vec<_> = blocks[..=3].iter().map(Block::hash).collect();
        assert_eq!(store.committed_chain(), chain.as_slice());
    }

    #[test]
    fn uncommitted_ancestry_walks_down_to_the_committed_frontier() {
        let (mut store, blocks, qcs) = chain_fixture();
        let hashes = |store: &BlockStore, tip: &Block| -> Vec<BlockHash> {
            store
                .uncommitted_ancestry(tip.hash())
                .map(Block::hash)
                .collect()
        };
        let expect = |heights: &[usize]| -> Vec<BlockHash> {
            heights.iter().map(|&h| blocks[h].hash()).collect()
        };
        assert_eq!(hashes(&store, &blocks[5]), expect(&[5, 4, 3, 2, 1]));
        assert!(
            hashes(&store, &blocks[0]).is_empty(),
            "genesis is committed"
        );
        store.on_qc(&qcs[3]); // commits heights 1 and 2
        assert_eq!(hashes(&store, &blocks[5]), expect(&[5, 4, 3]));
        assert!(hashes(&store, &blocks[2]).is_empty());
        assert!(
            store.uncommitted_ancestry(0x1234).next().is_none(),
            "unknown"
        );
        // A gap stops the walk: only what the store holds is walked.
        let mut gappy = BlockStore::new();
        for b in [&blocks[1], &blocks[3], &blocks[4]] {
            gappy.insert(b);
        }
        assert_eq!(hashes(&gappy, &blocks[4]), expect(&[4, 3]));
    }

    #[test]
    fn qc_for_unknown_block_is_ignored() {
        let (mut store, _, _) = chain_fixture();
        let params = Params::new(4, Duration::from_millis(10));
        let (keys, _) = keygen(4, 1);
        let foreign = Block::new(
            0x1234,
            9,
            View::new(9),
            ProcessId::new(0),
            Batch::empty(),
            QuorumCert::genesis(),
        );
        let qc = qc_for(&foreign, &params, &keys);
        assert!(store.on_qc(&qc).is_empty());
    }
}
