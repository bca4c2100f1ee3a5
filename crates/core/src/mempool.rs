//! A deterministic bounded mempool feeding block proposals.
//!
//! The mempool is a FIFO queue of [`Transaction`]s with dedup by [`TxId`]:
//! a transaction is admitted at most once over the mempool's lifetime, so
//! gossip echoes and client retries never inflate a block. A transaction
//! stays queued until a block carrying it commits. When a leader enters a
//! view it reads the next [`Batch`] — bounded both by a transaction count and
//! a byte budget — from the front of the queue, skipping every transaction
//! the uncommitted chain it extends already carries
//! ([`Mempool::next_batch_excluding`]), and stages it as the proposal
//! payload. Reading removes nothing, so a displaced proposal or an abandoned
//! branch has nothing to give back: its transactions are eligible again as
//! soon as no chain a leader extends carries them, in their original order.
//!
//! # Commit pruning
//!
//! Every replica prunes every committed block from its pool, so
//! [`Mempool::mark_committed`] runs once per commit per node and must not
//! depend on how much is queued. It costs O(ids in the block), amortized:
//! the ids are recorded, a committed transaction at the front of the queue
//! is popped, and one further back stays where it is as a *tombstone* — a
//! queue entry whose id is committed. Tombstones are invisible from outside:
//! [`Mempool::len`], [`Mempool::is_empty`] and the capacity check count only
//! the `live` entries, a batch skips the tombstones it meets, and whenever
//! they come to outnumber the live entries one `retain` sweeps them out,
//! which keeps
//!
//! ```text
//! physical queue length ≤ 2 · live + batch_txs
//! ```
//!
//! after every operation. The sweep walks fewer than two entries per
//! tombstone it removes, and a tombstone is made by exactly one committed
//! id, so it adds O(1) to the cost of that id.
//!
//! # One index
//!
//! What the pool knows about an id is one `Slot` in one [`IdMap`] — queued
//! or committed — so every operation probes the map once per transaction it
//! touches. A probe hashes the id with two folded multiplies under the
//! pool's own random key (`lumiere_types::hash`), not with SipHash: a peer
//! that does not know the key cannot pick ids that collide in it. An id
//! enters the map when it is admitted or first seen in a committed block
//! and never leaves: dedup is for the pool's lifetime, so nothing but the
//! commit rate bounds the map's size (`docs/RUNTIME.md`, "Hostile input").
//!
//! Everything here is integer arithmetic over explicitly ordered
//! collections (the index is only ever probed, never iterated): the same
//! submission sequence yields the same batches on every host and thread
//! count, which the cross-thread determinism suite relies on.

use lumiere_types::hash::IdMap;
use lumiere_types::{Batch, Transaction, TxId};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// Sizing knobs for a [`Mempool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MempoolConfig {
    /// Maximum transactions queued at once; submissions beyond it are
    /// rejected (open-loop clients observe this as load shedding).
    pub capacity: usize,
    /// Maximum transactions per batch.
    pub batch_txs: usize,
    /// Maximum total wire bytes per batch. A batch stops *before* the
    /// transaction that would cross the budget (a single oversized
    /// transaction still ships alone, so the queue can never wedge).
    pub max_block_bytes: u64,
}

impl Default for MempoolConfig {
    fn default() -> Self {
        MempoolConfig {
            capacity: 100_000,
            batch_txs: 256,
            max_block_bytes: 512 * 1024,
        }
    }
}

/// Where the pool stands with one id. An id the index does not hold has
/// never been admitted here nor committed anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Admitted and in the queue, as a live entry — whether or not an
    /// uncommitted block already carries it.
    Queued,
    /// Committed by *any* leader, whether or not this pool ever admitted
    /// it. Final. A queue entry in this state is a tombstone.
    Committed,
}

/// Bounded FIFO transaction pool with lifetime dedup by id.
#[derive(Debug, Clone)]
pub struct Mempool {
    cfg: MempoolConfig,
    /// Live transactions in FIFO order, interleaved with tombstones
    /// (entries whose id is [`Slot::Committed`]; see the module docs).
    /// Every entry's id is in `index`, as `Queued` or `Committed`.
    queue: VecDeque<Transaction>,
    /// Entries of `queue` that are not tombstones: what [`Mempool::len`]
    /// and the capacity check report.
    live: usize,
    /// Every id ever admitted or committed. Dedup is deliberately
    /// *persistent*: a transaction of a committed batch must not be
    /// re-admittable via a late gossip echo.
    index: IdMap<TxId, Slot>,
    /// Submissions rejected because the queue was full.
    shed: u64,
}

impl Mempool {
    /// An empty mempool with the given bounds.
    pub fn new(cfg: MempoolConfig) -> Self {
        Mempool {
            cfg,
            queue: VecDeque::new(),
            live: 0,
            index: IdMap::default(),
            shed: 0,
        }
    }

    /// Admits a transaction. Returns `false` (and ignores it) when the id
    /// was already seen or committed, or the queue is at capacity.
    pub fn submit(&mut self, tx: Transaction) -> bool {
        if self.live >= self.cfg.capacity {
            // Only a transaction that would otherwise have been admitted
            // counts as shed; a duplicate arriving at a full pool does not.
            if !self.index.contains_key(&tx.id) {
                self.shed += 1;
            }
            return false;
        }
        let Entry::Vacant(slot) = self.index.entry(tx.id) else {
            return false;
        };
        slot.insert(Slot::Queued);
        self.queue.push_back(tx);
        self.live += 1;
        true
    }

    /// The next batch a leader should propose: the first queued
    /// transactions, in FIFO order, that are neither committed nor in
    /// `in_flight`, bounded by `batch_txs` and `max_block_bytes`. Empty when
    /// nothing is eligible. Removes nothing: a transaction leaves the pool
    /// only by committing.
    ///
    /// `in_flight` is sorted: the ids the uncommitted chain the proposal
    /// extends already carries. Costs a binary search per queue entry
    /// reached until every in-flight id has been met, plus an index probe
    /// per entry only while the queue holds tombstones.
    pub fn next_batch_excluding(&self, in_flight: &[TxId]) -> Batch {
        debug_assert!(in_flight.is_sorted(), "in_flight must be sorted");
        let tombstones = self.has_tombstones();
        // Queue entries are distinct, so once this many have matched, no
        // later entry can.
        let mut unmet = in_flight.len();
        let mut txs = Vec::with_capacity(self.cfg.batch_txs.min(self.live));
        let mut bytes = 0u64;
        for tx in &self.queue {
            if txs.len() == self.cfg.batch_txs {
                break;
            }
            if unmet > 0 && in_flight.binary_search(&tx.id).is_ok() {
                unmet -= 1;
                continue;
            }
            if tombstones && self.index.get(&tx.id) == Some(&Slot::Committed) {
                continue;
            }
            let tx_bytes = tx.size as u64;
            if !txs.is_empty() && bytes + tx_bytes > self.cfg.max_block_bytes {
                break;
            }
            bytes += tx_bytes;
            txs.push(*tx);
        }
        Batch { txs }
    }

    /// [`Mempool::next_batch_excluding`] with nothing in flight. Takes
    /// `&mut self` as the pool that pulled batches out of its queue did, so
    /// its callers compile unchanged.
    pub fn next_batch(&mut self) -> Batch {
        self.next_batch_excluding(&[])
    }

    /// Does nothing. A batch is read, not pulled, so a displaced one has
    /// nothing to give back; kept for the callers written against the pool
    /// that pulled batches (the benchmark's replay harness).
    pub fn requeue(&mut self, _batch: Batch) {}

    /// Records that `ids` were committed (by this or any other leader):
    /// they are pruned from the queue and permanently rejected from
    /// resubmission, so a replica never re-proposes transactions the chain
    /// already carries. Costs O(ids), not O(queued) — see the module docs.
    pub fn mark_committed<I: IntoIterator<Item = TxId>>(&mut self, ids: I) {
        // No `reserve` from the iterator's size hint: most committed ids
        // were admitted here first and are in the index already.
        for id in ids {
            // An id can commit twice (a Byzantine leader may propose one the
            // chain already carries): only the commit that finds the id
            // queued may touch `live`.
            if self.index.insert(id, Slot::Committed) != Some(Slot::Queued) {
                continue;
            }
            self.live -= 1;
            // Replicas queue in the same order the chain commits in, so the
            // id is usually the front entry and leaves no tombstone.
            if self.queue.front().is_some_and(|tx| tx.id == id) {
                self.queue.pop_front();
            }
        }
        while self.has_tombstones()
            && self
                .queue
                .front()
                .is_some_and(|tx| self.index.get(&tx.id) == Some(&Slot::Committed))
        {
            self.queue.pop_front();
        }
        self.compact_if_sparse();
    }

    fn has_tombstones(&self) -> bool {
        self.queue.len() > self.live
    }

    /// Sweeps the tombstones out once they outnumber the live entries by
    /// more than a batch, so the queue's memory stays within twice what the
    /// live entries need.
    fn compact_if_sparse(&mut self) {
        if self.queue.len() > 2 * self.live + self.cfg.batch_txs {
            let index = &self.index;
            self.queue
                .retain(|tx| index.get(&tx.id) != Some(&Slot::Committed));
            debug_assert_eq!(self.queue.len(), self.live);
        }
    }

    /// Entries held: one per id ever admitted or committed (the dedup
    /// index) plus one per queue slot, live or tombstone.
    pub fn state_entries(&self) -> usize {
        self.index.len() + self.queue.len()
    }

    /// Transactions queued and not yet committed, those an uncommitted
    /// block carries included.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no transactions are queued.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Submissions rejected because the queue was full.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// The configured bounds.
    pub fn config(&self) -> MempoolConfig {
        self.cfg
    }
}

impl Default for Mempool {
    fn default() -> Self {
        Mempool::new(MempoolConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumiere_types::hash::IdSet;
    use proptest::prelude::*;

    fn tx(id: u64) -> Transaction {
        Transaction::new(TxId::new(id))
    }

    fn ids(batch: &Batch) -> Vec<u64> {
        batch.tx_ids().map(|id| id.as_u64()).collect()
    }

    fn sorted_ids(batch: &Batch) -> Vec<TxId> {
        let mut ids: Vec<TxId> = batch.tx_ids().collect();
        ids.sort_unstable();
        ids
    }

    /// The reference model: a queue that a `retain` over the whole of it
    /// prunes on every commit, whose batch is by definition the first
    /// `batch_txs` (within `max_block_bytes`) of queued − committed −
    /// excluded. Slow and obviously right; the differential test below
    /// holds [`Mempool`] to it.
    struct EagerMempool {
        cfg: MempoolConfig,
        queue: VecDeque<Transaction>,
        seen: IdSet<TxId>,
        committed: IdSet<TxId>,
        shed: u64,
    }

    impl EagerMempool {
        fn new(cfg: MempoolConfig) -> Self {
            EagerMempool {
                cfg,
                queue: VecDeque::new(),
                seen: IdSet::default(),
                committed: IdSet::default(),
                shed: 0,
            }
        }

        fn submit(&mut self, tx: Transaction) -> bool {
            if self.seen.contains(&tx.id) || self.committed.contains(&tx.id) {
                return false;
            }
            if self.queue.len() >= self.cfg.capacity {
                self.shed += 1;
                return false;
            }
            self.seen.insert(tx.id);
            self.queue.push_back(tx);
            true
        }

        fn next_batch(&self, excluded: &IdSet<TxId>) -> Batch {
            let mut txs = Vec::new();
            let mut bytes = 0u64;
            for tx in self.queue.iter().filter(|tx| !excluded.contains(&tx.id)) {
                let tx_bytes = tx.size as u64;
                if txs.len() == self.cfg.batch_txs
                    || (!txs.is_empty() && bytes + tx_bytes > self.cfg.max_block_bytes)
                {
                    break;
                }
                bytes += tx_bytes;
                txs.push(*tx);
            }
            Batch { txs }
        }

        fn mark_committed<I: IntoIterator<Item = TxId>>(&mut self, ids: I) {
            self.committed.extend(ids);
            let committed = &self.committed;
            self.queue.retain(|tx| !committed.contains(&tx.id));
        }
    }

    /// Asserts everything observable without mutating, the memory bound,
    /// and the index against the model's sets: an id is indexed iff the
    /// model admitted it or saw it committed, `Queued` iff it sits in the
    /// model's queue, and `Committed` otherwise.
    fn assert_same_state(pool: &Mempool, model: &EagerMempool) {
        assert_eq!(pool.len(), model.queue.len());
        assert_eq!(pool.is_empty(), model.queue.is_empty());
        assert_eq!(pool.shed(), model.shed);
        assert!(
            pool.queue.len() <= 2 * pool.len() + pool.config().batch_txs,
            "{} queue entries for {} live",
            pool.queue.len(),
            pool.len()
        );
        let queued: IdSet<TxId> = model.queue.iter().map(|tx| tx.id).collect();
        for (id, slot) in &pool.index {
            assert!(model.seen.contains(id) || model.committed.contains(id));
            assert_eq!(*slot == Slot::Queued, queued.contains(id), "{id}");
            assert_eq!(
                *slot == Slot::Committed,
                model.committed.contains(id),
                "{id}"
            );
        }
        let known = model.seen.union(&model.committed).count();
        assert_eq!(pool.index.len(), known);
    }

    proptest! {
        /// Random interleavings of every operation, on a pool small enough
        /// that capacity, the byte budget and compaction are all hit, with a
        /// random in-flight set behind every batch: the tombstoning pool and
        /// the eager model must agree on every return value and every
        /// observable count after every step.
        ///
        /// Each of these hand mutations of [`Mempool`] fails it: ignoring
        /// `in_flight`; taking a tombstone into a batch; removing what a
        /// batch takes from the queue; stopping the `in_flight` searches
        /// after the first match; never probing for tombstones.
        #[test]
        fn tombstoning_pool_matches_the_eager_model(
            ops in proptest::collection::vec(
                (0u8..16, 0u64..48, 1u64..12, any::<u64>()),
                1..400,
            )
        ) {
            let cfg = MempoolConfig {
                capacity: 12,
                batch_txs: 5,
                max_block_bytes: 1_200,
            };
            let mut pool = Mempool::new(cfg);
            let mut model = EagerMempool::new(cfg);
            // Batches read so far, identical on both sides.
            let mut staged: Vec<Batch> = Vec::new();
            for (step, (op, id, span, mask)) in ops.into_iter().enumerate() {
                // A window of ids that slides as the run goes on: duplicates,
                // retries of committed ids and at-capacity arrivals stay
                // common, and fresh ids never run out.
                let id = id + step as u64;
                match op {
                    0..=8 => {
                        let tx = Transaction::sized(TxId::new(id), 200 + 50 * (id % 4) as u32);
                        prop_assert_eq!(pool.submit(tx), model.submit(tx));
                    }
                    // A batch behind a random in-flight set: queued ids
                    // picked by `mask`, plus ids committed or never seen.
                    9 => {
                        let mut in_flight: Vec<TxId> = model
                            .queue
                            .iter()
                            .enumerate()
                            .filter(|(at, _)| mask >> (at % 64) & 1 == 1)
                            .map(|(_, tx)| tx.id)
                            .chain((id..id + span).map(TxId::new))
                            .collect();
                        in_flight.sort_unstable();
                        in_flight.dedup();
                        let excluded: IdSet<TxId> = in_flight.iter().copied().collect();
                        let batch = pool.next_batch_excluding(&in_flight);
                        prop_assert_eq!(ids(&batch), ids(&model.next_batch(&excluded)));
                        staged.push(batch);
                    }
                    // Handing a batch back restores nothing: there is
                    // nothing to restore.
                    10 => {
                        if !staged.is_empty() {
                            let batch = staged.remove(id as usize % staged.len());
                            pool.requeue(batch);
                        }
                    }
                    // Commit a run of ids: queued (front and mid-queue),
                    // staged, never seen and already committed ones alike.
                    11 => {
                        let run = || (id..id + span).map(TxId::new);
                        pool.mark_committed(run());
                        model.mark_committed(run());
                    }
                    // Commit scattered ids, leaving tombstones mid-queue.
                    12 => {
                        let scattered = || (0..span).map(|k| TxId::new(id + 3 * k));
                        pool.mark_committed(scattered());
                        model.mark_committed(scattered());
                    }
                    // Commit a staged batch, as the chain does, and again.
                    13 => {
                        if let Some(batch) = staged.first() {
                            for _ in 0..2 {
                                pool.mark_committed(batch.tx_ids());
                                model.mark_committed(batch.tx_ids());
                            }
                        }
                    }
                    // Commit most of the queue but not its front, so the
                    // tombstones outnumber the live entries and are swept.
                    _ => {
                        let most: Vec<TxId> = model
                            .queue
                            .iter()
                            .enumerate()
                            .filter(|(at, _)| at % span as usize != 0)
                            .map(|(_, tx)| tx.id)
                            .collect();
                        pool.mark_committed(most.iter().copied());
                        model.mark_committed(most);
                    }
                }
                assert_same_state(&pool, &model);
            }
            // What is left comes out in the same order, one committed batch
            // at a time.
            loop {
                let batch = pool.next_batch();
                prop_assert_eq!(ids(&batch), ids(&model.next_batch(&IdSet::default())));
                if batch.is_empty() {
                    break;
                }
                pool.mark_committed(batch.tx_ids());
                model.mark_committed(batch.tx_ids());
                assert_same_state(&pool, &model);
            }
            prop_assert!(pool.is_empty());
        }
    }

    #[test]
    fn mid_queue_commits_keep_len_exact_and_memory_bounded() {
        let cfg = MempoolConfig {
            batch_txs: 4,
            ..MempoolConfig::default()
        };
        let mut pool = Mempool::new(cfg);
        for i in 0..100 {
            pool.submit(tx(i));
        }
        // Odd ids: none is at the front, so each leaves a tombstone.
        pool.mark_committed((0..40).map(|i| TxId::new(2 * i + 1)));
        assert_eq!(pool.len(), 60);
        assert_eq!(pool.queue.len(), 100, "tombstones stay until they dominate");
        // Committing an id twice, or one never seen, changes nothing.
        pool.mark_committed([TxId::new(1), TxId::new(3), TxId::new(1_000)]);
        assert_eq!(pool.len(), 60);
        // Tx 0 stays live at the front, so nothing can be popped there;
        // once the tombstones outnumber the live entries they are swept.
        pool.mark_committed((1..40).map(|i| TxId::new(2 * i)));
        assert_eq!(pool.len(), 21);
        assert_eq!(pool.queue.len(), 21);
        assert_eq!(ids(&pool.next_batch()), vec![0, 80, 81, 82]);
    }

    #[test]
    fn next_batch_skips_tombstones_without_counting_them() {
        let mut pool = Mempool::new(MempoolConfig {
            batch_txs: 3,
            ..MempoolConfig::default()
        });
        for i in 0..8 {
            pool.submit(tx(i));
        }
        pool.mark_committed([TxId::new(1), TxId::new(2), TxId::new(4)]);
        let first = pool.next_batch();
        assert_eq!(ids(&first), vec![0, 3, 5]);
        assert_eq!(pool.len(), 5, "reading a batch removes nothing");
        // A leader extending a block that carries the first batch skips it.
        assert_eq!(
            ids(&pool.next_batch_excluding(&sorted_ids(&first))),
            vec![6, 7]
        );
        pool.mark_committed(first.tx_ids());
        assert_eq!(ids(&pool.next_batch()), vec![6, 7]);
        pool.mark_committed([TxId::new(6), TxId::new(7)]);
        assert!(pool.is_empty());
        assert_eq!(pool.queue.len(), 0);
    }

    #[test]
    fn a_staged_batch_committed_elsewhere_is_dropped_on_requeue() {
        let mut pool = Mempool::new(MempoolConfig {
            batch_txs: 3,
            ..MempoolConfig::default()
        });
        for i in 0..5 {
            pool.submit(tx(i));
        }
        let staged = pool.next_batch(); // [0, 1, 2]
        assert_eq!(pool.len(), 5, "a staged batch stays queued");
        // Another leader's block carried the same transactions.
        pool.mark_committed(staged.tx_ids());
        assert_eq!(pool.len(), 2);
        pool.requeue(staged);
        assert_eq!(pool.len(), 2);
        assert_eq!(ids(&pool.next_batch()), vec![3, 4]);
    }

    #[test]
    fn capacity_counts_live_entries_not_tombstones() {
        let mut pool = Mempool::new(MempoolConfig {
            capacity: 8,
            batch_txs: 100,
            ..MempoolConfig::default()
        });
        for i in 0..8 {
            assert!(pool.submit(tx(i)));
        }
        assert!(!pool.submit(tx(8)), "full");
        assert!(!pool.submit(tx(0)), "full, and a duplicate");
        assert_eq!(pool.shed(), 1, "a duplicate at a full pool is not shed");
        // Everything but the front entry commits: seven tombstones remain
        // in memory, and seven places are free again.
        pool.mark_committed((1..8).map(TxId::new));
        assert_eq!((pool.len(), pool.queue.len()), (1, 8));
        for i in 8..15 {
            assert!(pool.submit(tx(i)), "tx {i} fits once commits freed room");
        }
        assert!(!pool.submit(tx(15)));
        assert_eq!(pool.shed(), 2);
        assert_eq!(ids(&pool.next_batch()), vec![0, 8, 9, 10, 11, 12, 13, 14]);
    }

    #[test]
    fn an_id_committed_before_it_was_ever_admitted_stays_out() {
        let mut pool = Mempool::default();
        pool.mark_committed([TxId::new(7)]);
        assert_eq!(pool.len(), 0, "nothing was queued, nothing left");
        assert!(!pool.submit(tx(7)), "the chain already carries it");
        assert_eq!((pool.len(), pool.queue.len(), pool.shed()), (0, 0, 0));
        assert!(pool.next_batch().is_empty());
        assert!(pool.submit(tx(8)), "its neighbour is unaffected");
    }

    #[test]
    fn requeue_drops_foreign_queued_and_committed_transactions() {
        let mut pool = Mempool::new(MempoolConfig {
            batch_txs: 2,
            ..MempoolConfig::default()
        });
        for i in 0..4 {
            pool.submit(tx(i));
        }
        let staged = pool.next_batch(); // [0, 1]; all four stay queued
        pool.mark_committed([TxId::new(1)]);
        // Nothing handed back is restored: 99 was never admitted, 2 and 0
        // never left the queue, 1 has committed.
        pool.requeue(Batch {
            txs: vec![tx(99), tx(2), tx(0), tx(1)],
        });
        assert_eq!(pool.len(), 3);
        assert_eq!(
            pool.queue.len(),
            4,
            "no second copy of tx 0 or tx 2; tx 1 is a tombstone"
        );
        pool.requeue(staged);
        assert_eq!(pool.len(), 3);
        assert_eq!(ids(&pool.next_batch()), vec![0, 2]);
        assert_eq!(
            ids(&pool.next_batch_excluding(&[TxId::new(0), TxId::new(2)])),
            vec![3]
        );
        assert!(pool.submit(tx(99)), "a dropped foreign id was not recorded");
    }

    #[test]
    fn known_ids_arriving_at_a_full_pool_are_not_shed() {
        let mut pool = Mempool::new(MempoolConfig {
            capacity: 2,
            batch_txs: 1,
            ..MempoolConfig::default()
        });
        assert!(pool.submit(tx(0)));
        let staged = pool.next_batch(); // tx 0 is out with a leader
        pool.mark_committed([TxId::new(5)]); // learnt from the chain only
        assert!(pool.submit(tx(1)));
        assert_eq!(pool.len(), 2, "full: a staged transaction keeps its place");
        for known in [0, 1, 5] {
            assert!(!pool.submit(tx(known)));
        }
        assert_eq!(
            pool.shed(),
            0,
            "staged, queued and committed ids are duplicates"
        );
        assert!(!pool.submit(tx(3)));
        assert_eq!(pool.shed(), 1, "only the fresh id was turned away");
        pool.requeue(staged);
        assert_eq!(ids(&pool.next_batch()), vec![0]);
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut pool = Mempool::default();
        for i in 0..5 {
            assert!(pool.submit(tx(i)));
        }
        assert_eq!(ids(&pool.next_batch()), vec![0, 1, 2, 3, 4]);
        assert_eq!(pool.len(), 5, "a batch is read, not pulled");
        let in_flight = [TxId::new(1), TxId::new(3)];
        assert_eq!(ids(&pool.next_batch_excluding(&in_flight)), vec![0, 2, 4]);
    }

    #[test]
    fn duplicate_ids_are_rejected_even_after_batching() {
        let mut pool = Mempool::default();
        assert!(pool.submit(tx(1)));
        assert!(!pool.submit(tx(1)), "queued duplicate");
        let batch = pool.next_batch();
        assert_eq!(batch.len(), 1);
        assert!(!pool.submit(tx(1)), "staged duplicate");
        pool.mark_committed(batch.tx_ids());
        assert!(
            !pool.submit(tx(1)),
            "dedup must persist past the commit — a committed tx must not re-enter"
        );
        assert_eq!(pool.shed(), 0, "duplicates are not load shedding");
    }

    #[test]
    fn capacity_bound_sheds_submissions() {
        let mut pool = Mempool::new(MempoolConfig {
            capacity: 3,
            ..MempoolConfig::default()
        });
        for i in 0..3 {
            assert!(pool.submit(tx(i)));
        }
        assert!(!pool.submit(tx(3)));
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.shed(), 1);
        // Committing frees capacity, staging does not; the shed tx may be
        // resubmitted (it was never admitted, so its id is not in the dedup
        // set).
        let batch = pool.next_batch();
        assert!(!pool.submit(tx(3)), "a staged batch keeps its places");
        pool.mark_committed(batch.tx_ids());
        assert!(pool.submit(tx(3)));
    }

    #[test]
    fn batches_respect_the_tx_count_bound() {
        let mut pool = Mempool::new(MempoolConfig {
            batch_txs: 2,
            ..MempoolConfig::default()
        });
        for i in 0..5 {
            pool.submit(tx(i));
        }
        // Each leader extends the previous one's block.
        let mut in_flight = Vec::new();
        for expected in [2, 2, 1, 0] {
            let batch = pool.next_batch_excluding(&in_flight);
            assert_eq!(batch.len(), expected);
            in_flight.extend(batch.tx_ids());
            in_flight.sort_unstable();
        }
    }

    #[test]
    fn batches_respect_the_byte_budget() {
        let mut pool = Mempool::new(MempoolConfig {
            max_block_bytes: 600,
            ..MempoolConfig::default()
        });
        // 256 B each: two fit in 600 B, the third must wait.
        for i in 0..3 {
            pool.submit(tx(i));
        }
        let batch = pool.next_batch();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.bytes(), 512);
        assert_eq!(pool.next_batch_excluding(&sorted_ids(&batch)).len(), 1);
    }

    #[test]
    fn an_oversized_transaction_ships_alone() {
        let mut pool = Mempool::new(MempoolConfig {
            max_block_bytes: 100,
            ..MempoolConfig::default()
        });
        pool.submit(Transaction::sized(TxId::new(0), 5_000));
        pool.submit(tx(1));
        let batch = pool.next_batch();
        assert_eq!(batch.len(), 1, "oversized tx must not wedge the queue");
        assert_eq!(batch.bytes(), 5_000);
        assert_eq!(pool.next_batch_excluding(&sorted_ids(&batch)).len(), 1);
    }

    #[test]
    fn committed_ids_are_pruned_and_permanently_rejected() {
        let mut pool = Mempool::default();
        for i in 0..4 {
            pool.submit(tx(i));
        }
        // Another leader committed txs 1 and 3 (and tx 9, unknown here).
        pool.mark_committed([TxId::new(1), TxId::new(3), TxId::new(9)]);
        assert_eq!(pool.len(), 2, "committed txs leave the queue");
        assert_eq!(ids(&pool.next_batch()), vec![0, 2]);
        // A late client retry of a committed tx is rejected, even for an id
        // this pool never admitted itself.
        assert!(!pool.submit(tx(9)));
        // A staged batch displaced across a commit: the next batch leaves
        // the committed tx out.
        pool.submit(tx(10));
        pool.submit(tx(11));
        let staged = pool.next_batch();
        pool.mark_committed([TxId::new(10)]);
        pool.requeue(staged);
        assert_eq!(ids(&pool.next_batch()), vec![0, 2, 11]);
    }

    #[test]
    fn a_batch_stays_at_the_front_until_it_commits() {
        let mut pool = Mempool::new(MempoolConfig {
            batch_txs: 3,
            ..MempoolConfig::default()
        });
        for i in 0..6 {
            pool.submit(tx(i));
        }
        let staged = pool.next_batch(); // [0, 1, 2]
                                        // Its block is abandoned (or the proposal displaced): a leader whose
                                        // chain does not carry it proposes the same transactions again,
                                        // with no step to give them back.
        pool.requeue(staged.clone());
        assert_eq!(pool.next_batch(), staged);
        // A leader whose chain carries it proposes what follows.
        let in_flight = sorted_ids(&staged);
        assert_eq!(ids(&pool.next_batch_excluding(&in_flight)), vec![3, 4, 5]);
        pool.mark_committed(in_flight);
        assert_eq!(ids(&pool.next_batch()), vec![3, 4, 5]);
    }
}
