//! Blocks of the chained SMR substrate.

use crate::qc::QuorumCert;
use lumiere_crypto::Digest;
use lumiere_types::wire::{put_u64, Reader, Wire, WireError};
use lumiere_types::{Batch, ProcessId, View};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Hash identifying a block (64-bit simulated digest).
pub type BlockHash = u64;

/// Hash of the genesis block.
pub const GENESIS_HASH: BlockHash = 0x6765_6e65_7369_7321;

/// A block proposed by the leader of a view.
///
/// Blocks are *chained*: each block carries a quorum certificate for its
/// parent (`justify`). The payload is a [`Batch`] of client transactions
/// pulled from the proposer's mempool; the block hash commits to the
/// batch's 64-bit digest, so hashing stays O(batch) and hash comparisons
/// stay integer-cheap.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    hash: BlockHash,
    parent: BlockHash,
    height: u64,
    view: View,
    proposer: ProcessId,
    payload: Batch,
    justify: QuorumCert,
}

impl Block {
    /// The genesis block: height 0, sentinel view, self-certified, empty
    /// payload.
    pub fn genesis() -> Self {
        Block {
            hash: GENESIS_HASH,
            parent: GENESIS_HASH,
            height: 0,
            view: View::SENTINEL,
            proposer: ProcessId::new(0),
            payload: Batch::empty(),
            justify: QuorumCert::genesis(),
        }
    }

    /// Creates a new block extending `parent_hash` at `height`, justified by
    /// `justify` (a QC for the parent), proposed by `proposer` in `view`,
    /// carrying `payload`.
    pub fn new(
        parent_hash: BlockHash,
        height: u64,
        view: View,
        proposer: ProcessId,
        payload: Batch,
        justify: QuorumCert,
    ) -> Self {
        let mut block = Block {
            hash: 0,
            parent: parent_hash,
            height,
            view,
            proposer,
            payload,
            justify,
        };
        block.hash = block.digest();
        block
    }

    /// The hash these fields call for: every field but `hash` itself, read
    /// in place. [`Block::new`] stores it, [`Block::well_formed`] compares
    /// the stored one against it.
    fn digest(&self) -> BlockHash {
        Digest::new(b"block")
            .push_u64(self.parent)
            .push_u64(self.height)
            .push_i64(self.view.as_i64())
            .push_u64(self.proposer.as_u32() as u64)
            .push_u64(self.payload.digest64())
            .push_u64(self.justify.block_hash())
            .push_i64(self.justify.view().as_i64())
            .finish()
            .as_u64()
    }

    /// The block's hash.
    pub fn hash(&self) -> BlockHash {
        self.hash
    }

    /// Hash of the parent block.
    pub fn parent(&self) -> BlockHash {
        self.parent
    }

    /// Height of the block in the chain (genesis is 0).
    pub fn height(&self) -> u64 {
        self.height
    }

    /// View in which the block was proposed.
    pub fn view(&self) -> View {
        self.view
    }

    /// The proposing leader.
    pub fn proposer(&self) -> ProcessId {
        self.proposer
    }

    /// The transaction batch the block carries.
    pub fn payload(&self) -> &Batch {
        &self.payload
    }

    /// The 64-bit digest of the payload batch (the value the block hash
    /// commits to).
    pub fn payload_digest(&self) -> u64 {
        self.payload.digest64()
    }

    /// The quorum certificate for the parent carried by this block.
    pub fn justify(&self) -> &QuorumCert {
        &self.justify
    }

    /// Whether this is the genesis block.
    pub fn is_genesis(&self) -> bool {
        self.hash == GENESIS_HASH
    }

    /// Checks internal consistency: the hash matches the fields and the
    /// justify certificate points at the parent.
    pub fn well_formed(&self) -> bool {
        if self.is_genesis() {
            return *self == Block::genesis();
        }
        self.justify.block_hash() == self.parent && self.hash == self.digest()
    }
}

/// Wire form: `hash`, `parent`, `height` (`u64` each), `view: i64`,
/// `proposer: u32`, the payload batch, the justify certificate.
///
/// The stored hash is shipped and taken back as is: decoding does not
/// re-derive it (that would re-run the O(batch) payload digest per
/// delivered copy). A decoded block is therefore only as trustworthy as any
/// other received block — the engine rejects proposals that are not
/// [`Block::well_formed`] before acting on them.
impl Wire for Block {
    fn encoded_len(&self) -> usize {
        8 + 8 + 8 + 8 + 4 + self.payload.encoded_len() + self.justify.encoded_len()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.hash);
        put_u64(out, self.parent);
        put_u64(out, self.height);
        self.view.encode_into(out);
        self.proposer.encode_into(out);
        self.payload.encode_into(out);
        self.justify.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Block {
            hash: r.u64("Block.hash")?,
            parent: r.u64("Block.parent")?,
            height: r.u64("Block.height")?,
            view: View::decode(r)?,
            proposer: ProcessId::decode(r)?,
            payload: Batch::decode(r)?,
            justify: QuorumCert::decode(r)?,
        })
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "block[{:016x} h={} {} by {} {}]",
            self.hash, self.height, self.view, self.proposer, self.payload
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genesis_is_well_formed_and_self_parenting() {
        let g = Block::genesis();
        assert!(g.is_genesis());
        assert!(g.well_formed());
        assert_eq!(g.parent(), GENESIS_HASH);
        assert_eq!(g.height(), 0);
        assert!(g.payload().is_empty());
    }

    #[test]
    fn child_blocks_hash_their_contents() {
        let g = Block::genesis();
        let b1 = Block::new(
            g.hash(),
            1,
            View::new(0),
            ProcessId::new(0),
            Batch::tag(7),
            QuorumCert::genesis(),
        );
        let b2 = Block::new(
            g.hash(),
            1,
            View::new(0),
            ProcessId::new(0),
            Batch::tag(8),
            QuorumCert::genesis(),
        );
        assert_ne!(b1.hash(), b2.hash());
        assert!(b1.well_formed());
        assert!(b2.well_formed());
        assert_eq!(b1.parent(), g.hash());
        assert_eq!(b1.payload_digest(), Batch::tag(7).digest64());
    }

    #[test]
    fn tampered_block_is_not_well_formed() {
        let g = Block::genesis();
        let mut b = Block::new(
            g.hash(),
            1,
            View::new(0),
            ProcessId::new(1),
            Batch::tag(7),
            QuorumCert::genesis(),
        );
        b.payload = Batch::tag(9);
        assert!(!b.well_formed());
    }

    /// An unsigned certificate with arbitrary fields, as the wire admits.
    fn unsigned(view: i64, block_hash: BlockHash) -> QuorumCert {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&view.to_le_bytes());
        bytes.extend_from_slice(&block_hash.to_le_bytes());
        bytes.push(0);
        QuorumCert::decode_exact(&bytes).unwrap()
    }

    #[test]
    fn every_single_field_mutation_of_a_full_block_is_rejected() {
        use lumiere_types::{Transaction, TxId};
        let payload = Batch {
            txs: (0..64)
                .map(|i| Transaction::sized(TxId::new(1_000 + i), 256))
                .collect(),
        };
        let good = Block::new(
            0xabcd,
            9,
            View::new(5),
            ProcessId::new(2),
            payload,
            unsigned(4, 0xabcd),
        );
        assert!(good.well_formed());
        assert!(good.clone().well_formed(), "a copy hashes the same");
        type Mutation = fn(&mut Block);
        let mutations: [(&str, Mutation); 9] = [
            ("hash", |b| b.hash ^= 1),
            ("parent", |b| b.parent ^= 1),
            ("height", |b| b.height += 1),
            ("view", |b| b.view = View::new(6)),
            ("proposer", |b| b.proposer = ProcessId::new(3)),
            ("payload id", |b| b.payload.txs[63].id = TxId::new(7)),
            ("payload size", |b| b.payload.txs[17].size += 1),
            ("justify view", |b| b.justify = unsigned(3, 0xabcd)),
            ("justify hash", |b| b.justify = unsigned(4, 0xabcc)),
        ];
        for (field, mutate) in mutations {
            let mut bad = good.clone();
            mutate(&mut bad);
            assert_ne!(bad, good, "{field}: the mutation must change the block");
            assert!(!bad.well_formed(), "{field} tampered, still well-formed");
        }
    }

    #[test]
    fn wire_ships_the_stored_hash_without_recomputing_it() {
        let mut b = Block::new(
            GENESIS_HASH,
            1,
            View::new(0),
            ProcessId::new(1),
            Batch::tag(7),
            QuorumCert::genesis(),
        );
        let mut bytes = Vec::new();
        b.encode_into(&mut bytes);
        assert_eq!(bytes.len(), b.encoded_len());
        let back = Block::decode_exact(&bytes).unwrap();
        assert_eq!(back, b);
        assert!(back.well_formed());
        // A tampered block decodes to exactly what was sent — tampering is
        // the engine's `well_formed` check to catch, not the codec's.
        b.payload = Batch::tag(9);
        bytes.clear();
        b.encode_into(&mut bytes);
        let back = Block::decode_exact(&bytes).unwrap();
        assert_eq!(back, b);
        assert!(!back.well_formed());
    }

    #[test]
    fn display_contains_height_and_view() {
        let g = Block::genesis();
        let b = Block::new(
            g.hash(),
            3,
            View::new(5),
            ProcessId::new(2),
            Batch::empty(),
            QuorumCert::genesis(),
        );
        let s = b.to_string();
        assert!(s.contains("h=3"));
        assert!(s.contains("v5"));
    }
}
