//! Blocks of the chained SMR substrate.

use crate::qc::QuorumCert;
use lumiere_crypto::Digest;
use lumiere_types::wire::{put_u64, Reader, Wire, WireError};
use lumiere_types::{Batch, Memo, ProcessId, View};
use std::fmt;
use std::sync::Arc;

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
///
/// A `Block` is a handle: the fields sit in one immutable shared allocation,
/// so `clone` is a reference bump. A block is allocated once — where it is
/// built or decoded — and every store, parked proposal and commit
/// notification in the process (in the simulator: every replica) shares
/// that allocation, and with it the answer of [`Block::well_formed`], kept
/// in the allocation's [`Memo`]. Equality, `Debug` and the wire form are
/// those of the fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block(Arc<Memo<Fields, bool>>);

#[derive(Debug, Clone, PartialEq, Eq)]
struct Fields {
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
        Block(Arc::new(Memo::new(Fields {
            hash: GENESIS_HASH,
            parent: GENESIS_HASH,
            height: 0,
            view: View::SENTINEL,
            proposer: ProcessId::new(0),
            payload: Batch::empty(),
            justify: QuorumCert::genesis(),
        })))
    }

    /// Creates a new block extending `parent_hash` at `height`, justified by
    /// `justify` (a QC for the parent), proposed by `proposer` in `view`,
    /// carrying `payload`.
    ///
    /// The hash is computed here, so the allocation starts checked: its
    /// memo holds what [`Block::well_formed`] would answer, and the first
    /// check does not digest the payload a second time.
    pub fn new(
        parent_hash: BlockHash,
        height: u64,
        view: View,
        proposer: ProcessId,
        payload: Batch,
        justify: QuorumCert,
    ) -> Self {
        let mut fields = Fields {
            hash: 0,
            parent: parent_hash,
            height,
            view,
            proposer,
            payload,
            justify,
        };
        fields.hash = fields.digest();
        let well_formed = fields.hash != GENESIS_HASH && fields.justify.block_hash() == parent_hash;
        let block = Block(Arc::new(Memo::new(fields)));
        let _ = block.0.memo().set(well_formed);
        block
    }

    /// The block's hash.
    pub fn hash(&self) -> BlockHash {
        self.0.hash
    }

    /// Hash of the parent block.
    pub fn parent(&self) -> BlockHash {
        self.0.parent
    }

    /// Height of the block in the chain (genesis is 0).
    pub fn height(&self) -> u64 {
        self.0.height
    }

    /// View in which the block was proposed.
    pub fn view(&self) -> View {
        self.0.view
    }

    /// The proposing leader.
    pub fn proposer(&self) -> ProcessId {
        self.0.proposer
    }

    /// The transaction batch the block carries.
    pub fn payload(&self) -> &Batch {
        &self.0.payload
    }

    /// The 64-bit digest of the payload batch (the value the block hash
    /// commits to).
    pub fn payload_digest(&self) -> u64 {
        self.0.payload.digest64()
    }

    /// The quorum certificate for the parent carried by this block.
    pub fn justify(&self) -> &QuorumCert {
        &self.0.justify
    }

    /// Whether this is the genesis block.
    pub fn is_genesis(&self) -> bool {
        self.0.hash == GENESIS_HASH
    }

    /// Checks internal consistency: the hash matches the fields and the
    /// justify certificate points at the parent.
    ///
    /// Computed on the first call and kept in the allocation: the fields
    /// are immutable, so every later call, from this handle or any other
    /// sharing the allocation, has the same answer. [`Block::new`] records
    /// the answer as it builds; a decoded block is an allocation of its own
    /// and is checked afresh.
    pub fn well_formed(&self) -> bool {
        *self.0.memo().get_or_init(|| {
            if self.is_genesis() {
                return *self == Block::genesis();
            }
            let b = &*self.0;
            b.justify.block_hash() == b.parent && b.hash == b.digest()
        })
    }

    /// The fields, for tests that tamper with one; a shared block is copied
    /// first, so other handles keep the original, and the tampered copy is
    /// checked afresh.
    #[cfg(test)]
    fn fields_mut(&mut self) -> &mut Fields {
        Arc::make_mut(&mut self.0).value_mut()
    }
}

/// The domain of a block's hash.
const BLOCK: Digest = Digest::new(b"block");

impl Fields {
    /// The hash these fields call for: every field but `hash` itself, read
    /// in place. [`Block::new`] stores it, [`Block::well_formed`] compares
    /// the stored one against it.
    fn digest(&self) -> BlockHash {
        BLOCK
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
}

/// Wire form: `hash`, `parent`, `height` (`u64` each), `view: i64`,
/// `proposer: u32`, the payload batch, the justify certificate.
///
/// The stored hash is shipped and taken back as is: decoding does not
/// re-derive it (that would re-run the O(batch) payload digest per
/// delivered copy). A decoded block is therefore only as trustworthy as any
/// other received block: it arrives in an allocation of its own, unchecked,
/// and the engine rejects proposals that are not [`Block::well_formed`]
/// before acting on them. The answer is never written to or read from the
/// wire.
impl Wire for Block {
    fn encoded_len(&self) -> usize {
        8 + 8 + 8 + 8 + 4 + self.0.payload.encoded_len() + self.0.justify.encoded_len()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        let b = &*self.0;
        put_u64(out, b.hash);
        put_u64(out, b.parent);
        put_u64(out, b.height);
        b.view.encode_into(out);
        b.proposer.encode_into(out);
        b.payload.encode_into(out);
        b.justify.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Block(Arc::new(Memo::new(Fields {
            hash: r.u64("Block.hash")?,
            parent: r.u64("Block.parent")?,
            height: r.u64("Block.height")?,
            view: View::decode(r)?,
            proposer: ProcessId::decode(r)?,
            payload: Batch::decode(r)?,
            justify: QuorumCert::decode(r)?,
        }))))
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "block[{:016x} h={} {} by {} {}]",
            self.0.hash, self.0.height, self.0.view, self.0.proposer, self.0.payload
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumiere_types::{Transaction, TxId};

    #[test]
    fn the_const_domain_is_the_run_time_one() {
        assert_eq!(BLOCK, Digest::new(std::hint::black_box(b"block")));
    }

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
        assert!(b.well_formed());
        // The only handle: tampered in place, and the answer is forgotten.
        b.fields_mut().payload = Batch::tag(9);
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

    /// A block carrying 64 transactions (ids 1 000 to 1 063, 256 bytes each).
    fn full_block() -> Block {
        let payload = Batch {
            txs: (0..64)
                .map(|i| Transaction::sized(TxId::new(1_000 + i), 256))
                .collect(),
        };
        Block::new(
            0xabcd,
            9,
            View::new(5),
            ProcessId::new(2),
            payload,
            unsigned(4, 0xabcd),
        )
    }

    #[test]
    fn a_built_block_starts_checked_and_a_tampered_copy_is_rechecked() {
        let good = full_block();
        assert_eq!(good.0.memo().get(), Some(&true), "built with its answer");
        let mismatched = Block::new(
            0xabcd,
            9,
            View::new(5),
            ProcessId::new(2),
            Batch::empty(),
            unsigned(4, 0xdcba),
        );
        assert_eq!(mismatched.0.memo().get(), Some(&false));
        assert!(!mismatched.well_formed());
        let mut copy = good.clone();
        copy.fields_mut().payload.txs[5].size += 1;
        assert_eq!(copy.0.memo().get(), None, "the copy starts unchecked");
        assert!(!copy.well_formed());
        assert!(good.well_formed());
    }

    #[test]
    fn a_clone_shares_the_allocation_and_tampering_unshares_it() {
        let good = full_block();
        let mut copy = good.clone();
        assert!(Arc::ptr_eq(&good.0, &copy.0));
        assert!(good.well_formed());
        assert_eq!(copy.0.memo().get(), Some(&true), "one answer, two handles");
        assert_eq!(
            good.payload().txs.as_ptr(),
            copy.payload().txs.as_ptr(),
            "one payload, two handles"
        );
        copy.fields_mut().height += 1;
        assert!(!Arc::ptr_eq(&good.0, &copy.0));
        assert_eq!(good.height() + 1, copy.height());
        assert_eq!(copy.0.memo().get(), None, "the copy starts unchecked");
        assert!(!copy.well_formed());
        assert!(good.well_formed());
    }

    fn wire(block: &Block) -> Vec<u8> {
        let mut bytes = Vec::new();
        block.encode_into(&mut bytes);
        bytes
    }

    #[test]
    fn a_decoded_copy_of_a_checked_block_starts_unchecked() {
        let good = full_block();
        assert!(good.well_formed());
        let copy = Block::decode_exact(&wire(&good)).unwrap();
        assert!(!Arc::ptr_eq(&good.0, &copy.0));
        assert_eq!(copy.0.memo().get(), None);
        assert!(copy.well_formed());
    }

    /// A checked block and an unchecked (decoded) copy of it read the same
    /// in every form an action-stream pin or a frame is made of.
    #[test]
    fn a_checked_and_an_unchecked_block_look_the_same() {
        let checked = full_block();
        let unchecked = Block::decode_exact(&wire(&checked)).unwrap();
        assert!(checked.well_formed());
        assert_eq!(format!("{checked:?}"), format!("{unchecked:?}"));
        assert_eq!(format!("{checked:#?}"), format!("{unchecked:#?}"));
        assert!(format!("{checked:?}").starts_with("Block(Fields { hash: "));
        assert_eq!(wire(&checked), wire(&unchecked));
        assert_eq!(checked, unchecked);
    }

    /// A block tampered with before anyone checked it, then shared by every
    /// replica: each handle is turned away on every call.
    #[test]
    fn a_tampered_block_shared_by_eight_handles_fails_every_check() {
        let mut bad = full_block();
        bad.fields_mut().payload.txs[5].size += 1;
        let handles = vec![bad; 8];
        for _ in 0..3 {
            for handle in &handles {
                assert!(!handle.well_formed());
            }
        }
        assert_eq!(handles[0].0.memo().get(), Some(&false));
    }

    #[test]
    fn a_full_block_keeps_its_wire_bytes() {
        // The wire form as it was before `Block` became a handle over a
        // shared allocation: the handle must not show in it. The first word,
        // the block's own hash, was re-captured when the modelled digests
        // moved onto the workspace's word mixer.
        let good = full_block();
        let mut wire = Vec::new();
        for word in [0x4689_bff6_3997_9c73_u64, 0xabcd, 9, 5] {
            wire.extend_from_slice(&word.to_le_bytes());
        }
        wire.extend_from_slice(&2u32.to_le_bytes());
        wire.extend_from_slice(&64u32.to_le_bytes());
        for id in 1_000..1_064u64 {
            wire.extend_from_slice(&id.to_le_bytes());
            wire.extend_from_slice(&256u32.to_le_bytes());
        }
        wire.extend_from_slice(&4i64.to_le_bytes());
        wire.extend_from_slice(&0xabcd_u64.to_le_bytes());
        wire.push(0);
        assert_eq!(wire.len(), 825);
        let mut bytes = Vec::new();
        good.encode_into(&mut bytes);
        assert_eq!(bytes, wire);
        assert_eq!(good.encoded_len(), wire.len());
        assert_eq!(Block::decode_exact(&wire).unwrap(), good);
    }

    #[test]
    fn every_single_field_mutation_of_a_full_block_is_rejected() {
        let good = full_block();
        assert!(good.well_formed());
        assert!(good.clone().well_formed(), "a copy hashes the same");
        type Mutation = fn(&mut Fields);
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
            mutate(bad.fields_mut());
            assert_ne!(bad, good, "{field}: the mutation must change the block");
            assert!(!bad.well_formed(), "{field} tampered, still well-formed");
            assert!(good.well_formed(), "{field}: the shared original is intact");
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
        b.fields_mut().payload = Batch::tag(9);
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
