//! Client transactions and the batches that carry them through consensus.
//!
//! The paper's complexity claims are about *views*, not payloads, so the
//! reproduction historically committed empty blocks. This module models the
//! load that "millions of users" implies: opaque fixed-identity
//! [`Transaction`]s, deduplicated by [`TxId`], read from the front of a
//! mempool into a [`Batch`] when a leader proposes; they leave the mempool
//! only when a block carrying them commits. A batch folds into a single `u64`
//! digest ([`Batch::digest64`]) so block hashing stays O(batch) and the
//! existing integer-payload plumbing (equivocation forging, coverage
//! fingerprints) keeps working unchanged.
//!
//! The types live here — not in the consensus crate — because the mempool
//! (in `lumiere-core`) and the consensus engine sit on opposite sides of the
//! workspace dependency DAG and both need them.

use crate::hash;
use crate::wire::{put_u32, put_u64, Reader, Wire, WireError};
use std::fmt;

/// Globally unique transaction identifier.
///
/// Producers encode their origin in the high bits (the live driver packs the
/// node id there; the simulator's workload generator uses a single counter),
/// so ids never collide across submitters without coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId(u64);

impl TxId {
    /// Creates an id from its raw 64-bit value.
    pub const fn new(raw: u64) -> Self {
        TxId(raw)
    }

    /// The raw 64-bit value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx{:016x}", self.0)
    }
}

/// One client transaction: an identity plus its wire size in bytes.
///
/// The reproduction never executes transactions, so the payload itself is
/// not modelled — only the two properties that drive throughput–latency
/// behaviour: *which* transaction this is (dedup, commit accounting) and
/// *how big* it is (batch byte budgets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Transaction {
    /// Unique identifier, assigned by the submitter.
    pub id: TxId,
    /// Size of the transaction on the wire, in bytes.
    pub size: u32,
}

impl Transaction {
    /// A transaction with the given id and a default 256-byte size.
    pub const fn new(id: TxId) -> Self {
        Transaction { id, size: 256 }
    }

    /// A transaction with an explicit size.
    pub const fn sized(id: TxId, size: u32) -> Self {
        Transaction { id, size }
    }
}

/// Consecutive transactions of one size: the ids `first ..= first + len − 1`,
/// each `size` bytes on the wire.
///
/// A run holds at least one id and never wraps past `u64::MAX` (the rule
/// [`IdRuns`](crate::runs::IdRuns) keeps), so a counter's ids that cross the
/// top of the id space are two runs. It is as large as one [`Transaction`],
/// so a run of one costs what the transaction would; the simulator's client
/// ids come from one counter, and a tick of them, or a mempool's whole
/// backlog, is one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxRun {
    /// The lowest id.
    pub first: TxId,
    /// How many ids the run holds, at least one.
    pub len: u32,
    /// The wire size of every transaction in the run, in bytes.
    pub size: u32,
}

impl TxRun {
    /// The `len` ids from `first`, each `size` bytes. Panics when `len` is
    /// zero or the run would pass `u64::MAX`.
    pub fn new(first: TxId, len: u32, size: u32) -> Self {
        assert!(
            len > 0 && first.0.checked_add(len as u64 - 1).is_some(),
            "a run of {len} ids from {first}"
        );
        TxRun { first, len, size }
    }

    /// The run holding `tx` alone.
    pub const fn one(tx: Transaction) -> Self {
        TxRun {
            first: tx.id,
            len: 1,
            size: tx.size,
        }
    }

    /// The highest id.
    pub const fn last(self) -> TxId {
        TxId(self.first.0 + (self.len as u64 - 1))
    }

    /// The transactions, in id order.
    pub fn txs(self) -> impl Iterator<Item = Transaction> {
        (self.first.0..=self.last().0).map(move |id| Transaction::sized(TxId(id), self.size))
    }

    /// The first `k` ids, `1 ≤ k ≤ len`.
    pub fn take(self, k: u32) -> TxRun {
        debug_assert!(0 < k && k <= self.len, "take {k} of {}", self.len);
        TxRun { len: k, ..self }
    }
}

/// An ordered batch of transactions — the payload of a block proposal.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Batch {
    /// The transactions, in mempool (FIFO) order.
    pub txs: Vec<Transaction>,
}

impl Batch {
    /// The empty batch (genesis payload, and what non-leaders stage).
    pub fn empty() -> Self {
        Batch { txs: Vec::new() }
    }

    /// A single-marker-transaction batch whose digest is distinct per tag.
    ///
    /// Stands in for the old `u64` block payloads in tests and in the
    /// equivocation forger, which only need *hash-distinguishable* payloads.
    pub fn tag(tag: u64) -> Self {
        Batch {
            txs: vec![Transaction::sized(TxId::new(tag), 0)],
        }
    }

    /// Number of transactions in the batch.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// Whether the batch carries no transactions.
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// Total wire size of the batch in bytes.
    pub fn bytes(&self) -> u64 {
        self.txs.iter().map(|tx| tx.size as u64).sum()
    }

    /// The transaction ids, in batch order.
    pub fn tx_ids(&self) -> impl Iterator<Item = TxId> + '_ {
        self.txs.iter().map(|tx| tx.id)
    }

    /// Deterministic 64-bit digest of the batch: the length, then each
    /// transaction's id and size, folded from [`hash::SEED`] one word per
    /// multiply by the workspace's one mixer ([`hash::mix`], ended by
    /// [`hash::finish`]). This is what block hashing commits to: two batches
    /// with different contents collide only with the usual 2⁻⁶⁴-ish
    /// probability, which is the same standard the workspace's simulated
    /// signatures and block hashes already accept.
    pub fn digest64(&self) -> u64 {
        let mut h = hash::mix(hash::SEED, self.txs.len() as u64);
        for tx in &self.txs {
            h = hash::mix(h, tx.id.as_u64());
            h = hash::mix(h, tx.size as u64);
        }
        hash::finish(h)
    }
}

/// Wire form: the raw `u64` id (8 bytes).
impl Wire for TxId {
    fn encoded_len(&self) -> usize {
        8
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.0);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u64("TxId").map(TxId)
    }
}

/// Bytes one transaction occupies on the wire: id + declared size. The
/// payload body is not modelled, so it is not shipped either.
const TX_ENCODED_LEN: usize = 8 + 4;

/// Wire form: `id: u64`, `size: u32` (12 bytes).
impl Wire for Transaction {
    fn encoded_len(&self) -> usize {
        TX_ENCODED_LEN
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.id.encode_into(out);
        put_u32(out, self.size);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Transaction {
            id: TxId::decode(r)?,
            size: r.u32("Transaction.size")?,
        })
    }
}

/// Wire form: `u32` count, then the transactions in order.
impl Wire for Batch {
    fn encoded_len(&self) -> usize {
        4 + TX_ENCODED_LEN * self.txs.len()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u32(out, self.txs.len() as u32);
        for tx in &self.txs {
            tx.encode_into(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let count = r.count("Batch", TX_ENCODED_LEN)?;
        let mut txs = Vec::with_capacity(count);
        for _ in 0..count {
            txs.push(Transaction::decode(r)?);
        }
        Ok(Batch { txs })
    }
}

impl fmt::Display for Batch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "batch[{} txs, {} B]", self.len(), self.bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_batch_has_no_txs_and_a_stable_digest() {
        let empty = Batch::empty();
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.bytes(), 0);
        assert_eq!(empty.digest64(), Batch::default().digest64());
    }

    #[test]
    fn digests_separate_distinct_batches() {
        let a = Batch::tag(7);
        let b = Batch::tag(8);
        assert_ne!(a.digest64(), b.digest64());
        assert_ne!(a.digest64(), Batch::empty().digest64());
        // Same ids, different sizes: still distinct.
        let small = Batch {
            txs: vec![Transaction::sized(TxId::new(1), 100)],
        };
        let big = Batch {
            txs: vec![Transaction::sized(TxId::new(1), 200)],
        };
        assert_ne!(small.digest64(), big.digest64());
        // Order matters (batches are ordered).
        let ab = Batch {
            txs: vec![
                Transaction::new(TxId::new(1)),
                Transaction::new(TxId::new(2)),
            ],
        };
        let ba = Batch {
            txs: vec![
                Transaction::new(TxId::new(2)),
                Transaction::new(TxId::new(1)),
            ],
        };
        assert_ne!(ab.digest64(), ba.digest64());
    }

    #[test]
    fn every_bit_of_every_id_and_size_moves_the_digest() {
        let batch = Batch {
            txs: (0..64)
                .map(|i| Transaction::sized(TxId::new(1_000 + i), 256))
                .collect(),
        };
        let digest = batch.digest64();
        for i in 0..batch.len() {
            for bit in 0..64 {
                let mut flipped = batch.clone();
                flipped.txs[i].id = TxId::new(batch.txs[i].id.as_u64() ^ (1 << bit));
                assert_ne!(flipped.digest64(), digest, "tx {i} id bit {bit}");
            }
            for bit in 0..32 {
                let mut flipped = batch.clone();
                flipped.txs[i].size ^= 1 << bit;
                assert_ne!(flipped.digest64(), digest, "tx {i} size bit {bit}");
            }
        }
    }

    #[test]
    fn consecutive_one_transaction_batches_never_collide() {
        let digests: hash::IdSet<u64> = (0..1u64 << 16)
            .map(|id| Batch::tag(id).digest64())
            .collect();
        assert_eq!(digests.len(), 1 << 16);
    }

    #[test]
    fn digest_is_content_deterministic() {
        let batch = Batch {
            txs: (0..50).map(|i| Transaction::new(TxId::new(i))).collect(),
        };
        assert_eq!(batch.digest64(), batch.clone().digest64());
    }

    #[test]
    fn byte_accounting_sums_sizes() {
        let batch = Batch {
            txs: vec![
                Transaction::sized(TxId::new(0), 100),
                Transaction::sized(TxId::new(1), 156),
            ],
        };
        assert_eq!(batch.bytes(), 256);
        assert_eq!(
            batch.tx_ids().collect::<Vec<_>>(),
            vec![TxId::new(0), TxId::new(1)]
        );
        assert_eq!(batch.to_string(), "batch[2 txs, 256 B]");
    }

    #[test]
    fn wire_round_trip_and_count_guard() {
        let batch = Batch {
            txs: vec![
                Transaction::sized(TxId::new(42), 512),
                Transaction::new(TxId::new(7)),
            ],
        };
        let mut bytes = Vec::new();
        batch.encode_into(&mut bytes);
        assert_eq!(bytes.len(), batch.encoded_len());
        assert_eq!(bytes.len(), 4 + 2 * TX_ENCODED_LEN);
        assert_eq!(Batch::decode_exact(&bytes).unwrap(), batch);
        // A count the remaining bytes cannot hold is rejected before the
        // transaction vector is allocated.
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Batch::decode_exact(&bytes),
            Err(WireError::BadCount { what: "Batch", .. })
        ));
    }

    #[test]
    fn a_run_is_its_transactions_in_id_order() {
        let run = TxRun::new(TxId::new(7), 3, 100);
        assert_eq!(std::mem::size_of::<TxRun>(), 16);
        assert_eq!(run.last(), TxId::new(9));
        let txs: Vec<Transaction> = run.txs().collect();
        assert_eq!(
            txs,
            [7, 8, 9].map(|id| Transaction::sized(TxId::new(id), 100))
        );
        assert_eq!(run.take(2).txs().collect::<Vec<_>>(), txs[..2]);
        assert_eq!(TxRun::one(txs[2]), TxRun::new(TxId::new(9), 1, 100));
        let top = TxRun::new(TxId::new(u64::MAX - 1), 2, 256);
        assert_eq!(top.last(), TxId::new(u64::MAX));
        assert_eq!(top.txs().count(), 2);
    }

    #[test]
    #[should_panic(expected = "a run of 3 ids")]
    fn a_run_does_not_wrap_past_the_top_of_the_id_space() {
        TxRun::new(TxId::new(u64::MAX - 1), 3, 256);
    }

    #[test]
    fn display_forms() {
        assert_eq!(TxId::new(0xdead).to_string(), "tx000000000000dead");
    }
}
