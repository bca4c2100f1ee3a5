//! A deterministic bounded mempool feeding block proposals.
//!
//! The mempool is a FIFO queue of [`Transaction`]s with dedup by [`TxId`]:
//! a transaction is admitted at most once over the mempool's lifetime, so
//! gossip echoes and client retries never inflate a block. When a leader
//! enters a view it pulls the next [`Batch`] — bounded both by a transaction
//! count and a byte budget — and stages it as the proposal payload; a batch
//! displaced by a newer view is requeued at the front so transaction order
//! (and therefore every downstream report) stays deterministic.
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
//! the `live` entries, [`Mempool::next_batch`] drops the tombstones it
//! meets, and whenever they come to outnumber the live entries one `retain`
//! sweeps them out, which keeps
//!
//! ```text
//! physical queue length ≤ 2 · live + batch_txs
//! ```
//!
//! after every operation. The sweep walks fewer than two entries per
//! tombstone it removes, and a tombstone is made by exactly one committed
//! id, so it adds O(1) to the cost of that id.
//!
//! Everything here is integer arithmetic over explicitly ordered
//! collections (the hash sets are only ever probed, never iterated): the
//! same submission sequence yields the same batches on every host and
//! thread count, which the cross-thread determinism suite relies on.

use lumiere_types::{Batch, Transaction, TxId};
use std::collections::{HashSet, VecDeque};

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

/// Bounded FIFO transaction pool with lifetime dedup by id.
#[derive(Debug, Clone)]
pub struct Mempool {
    cfg: MempoolConfig,
    /// Live transactions in FIFO order, interleaved with tombstones
    /// (entries whose id is in `committed`; see the module docs).
    queue: VecDeque<Transaction>,
    /// Entries of `queue` that are not tombstones: what [`Mempool::len`]
    /// and the capacity check report.
    live: usize,
    /// Every id ever admitted. Dedup is deliberately *persistent*: a
    /// transaction pulled into a committed batch must not be re-admittable
    /// via a late gossip echo.
    seen: HashSet<TxId>,
    /// Ids committed by *any* leader (see [`Mempool::mark_committed`]).
    /// Kept separate from `seen` because a replica learns about commits of
    /// transactions it never admitted itself.
    committed: HashSet<TxId>,
    /// Ids pulled by [`Mempool::next_batch`] and neither requeued nor
    /// committed since. An admitted, uncommitted id is in the queue exactly
    /// when it is not here, which is how a commit knows whether it removes
    /// a live entry.
    taken: HashSet<TxId>,
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
            seen: HashSet::new(),
            committed: HashSet::new(),
            taken: HashSet::new(),
            shed: 0,
        }
    }

    /// Admits a transaction. Returns `false` (and ignores it) when the id
    /// was already seen or committed, or the queue is at capacity.
    pub fn submit(&mut self, tx: Transaction) -> bool {
        if self.live >= self.cfg.capacity {
            // Only a transaction that would otherwise have been admitted
            // counts as shed; a duplicate arriving at a full pool does not.
            if !self.seen.contains(&tx.id) && !self.committed.contains(&tx.id) {
                self.shed += 1;
            }
            return false;
        }
        if self.committed.contains(&tx.id) || !self.seen.insert(tx.id) {
            return false;
        }
        self.queue.push_back(tx);
        self.live += 1;
        true
    }

    /// Pulls the next batch, bounded by `batch_txs` and `max_block_bytes`.
    /// Empty when the pool is drained.
    pub fn next_batch(&mut self) -> Batch {
        let mut txs = Vec::with_capacity(self.cfg.batch_txs.min(self.live));
        let mut bytes = 0u64;
        while txs.len() < self.cfg.batch_txs {
            let Some(tx) = self.queue.front() else { break };
            if self.has_tombstones() && self.committed.contains(&tx.id) {
                self.queue.pop_front();
                continue;
            }
            let tx_bytes = tx.size as u64;
            if !txs.is_empty() && bytes + tx_bytes > self.cfg.max_block_bytes {
                break;
            }
            bytes += tx_bytes;
            let tx = self.queue.pop_front().expect("front() was Some");
            self.taken.insert(tx.id);
            self.live -= 1;
            txs.push(tx);
        }
        self.compact_if_sparse();
        Batch { txs }
    }

    /// Returns a pulled-but-unused batch to the *front* of the queue in its
    /// original order (a staged proposal displaced by a newer view).
    /// Transactions committed in the meantime are dropped instead.
    ///
    /// `batch` must have come from this pool's [`Mempool::next_batch`] and
    /// not have been requeued since; any other transaction is dropped.
    pub fn requeue(&mut self, batch: Batch) {
        for tx in batch.txs.into_iter().rev() {
            // A commit removes the id from `taken`, so for a pulled
            // transaction "still taken" and "not committed" are the same.
            if self.taken.remove(&tx.id) {
                self.queue.push_front(tx);
                self.live += 1;
            }
        }
    }

    /// Records that `ids` were committed (by this or any other leader):
    /// they are pruned from the queue and permanently rejected from
    /// resubmission, so a replica never re-proposes transactions the chain
    /// already carries. Costs O(ids), not O(queued) — see the module docs.
    pub fn mark_committed<I: IntoIterator<Item = TxId>>(&mut self, ids: I) {
        let ids = ids.into_iter();
        self.committed.reserve(ids.size_hint().0);
        for id in ids {
            // Blocks are re-committed and ids repeat: only the first commit
            // of an id may touch `live`.
            if !self.committed.insert(id) || self.taken.remove(&id) {
                continue;
            }
            // Replicas queue in the same order the chain commits in, so the
            // id is usually the front entry and leaves no tombstone.
            if self.queue.front().is_some_and(|tx| tx.id == id) {
                self.queue.pop_front();
                self.live -= 1;
            } else if self.seen.contains(&id) {
                self.live -= 1;
            }
        }
        while self.has_tombstones()
            && self
                .queue
                .front()
                .is_some_and(|tx| self.committed.contains(&tx.id))
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
            let committed = &self.committed;
            self.queue.retain(|tx| !committed.contains(&tx.id));
            debug_assert_eq!(self.queue.len(), self.live);
        }
    }

    /// Transactions currently queued.
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
    use proptest::prelude::*;

    fn tx(id: u64) -> Transaction {
        Transaction::new(TxId::new(id))
    }

    fn ids(batch: &Batch) -> Vec<u64> {
        batch.tx_ids().map(|id| id.as_u64()).collect()
    }

    /// The reference model: the eager mempool this module replaced, which
    /// prunes with a `retain` over the whole queue on every commit. Slow and
    /// obviously right; the differential test below holds [`Mempool`] to it.
    struct EagerMempool {
        cfg: MempoolConfig,
        queue: VecDeque<Transaction>,
        seen: HashSet<TxId>,
        committed: HashSet<TxId>,
        shed: u64,
    }

    impl EagerMempool {
        fn new(cfg: MempoolConfig) -> Self {
            EagerMempool {
                cfg,
                queue: VecDeque::new(),
                seen: HashSet::new(),
                committed: HashSet::new(),
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

        fn next_batch(&mut self) -> Batch {
            let mut txs = Vec::new();
            let mut bytes = 0u64;
            while txs.len() < self.cfg.batch_txs {
                let Some(tx) = self.queue.front() else { break };
                let tx_bytes = tx.size as u64;
                if !txs.is_empty() && bytes + tx_bytes > self.cfg.max_block_bytes {
                    break;
                }
                bytes += tx_bytes;
                txs.push(self.queue.pop_front().expect("front() was Some"));
            }
            Batch { txs }
        }

        fn requeue(&mut self, batch: Batch) {
            for tx in batch.txs.into_iter().rev() {
                if !self.committed.contains(&tx.id) {
                    self.queue.push_front(tx);
                }
            }
        }

        fn mark_committed<I: IntoIterator<Item = TxId>>(&mut self, ids: I) {
            self.committed.extend(ids);
            let committed = &self.committed;
            self.queue.retain(|tx| !committed.contains(&tx.id));
        }
    }

    /// Asserts everything observable without mutating, plus the memory bound.
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
    }

    proptest! {
        /// Random interleavings of every operation, on a pool small enough
        /// that capacity, the byte budget and compaction are all hit: the
        /// tombstoning pool and the eager model must agree on every return
        /// value and every observable count after every step.
        #[test]
        fn tombstoning_pool_matches_the_eager_model(
            ops in proptest::collection::vec((0u8..16, 0u64..48, 1u64..12), 1..400)
        ) {
            let cfg = MempoolConfig {
                capacity: 12,
                batch_txs: 5,
                max_block_bytes: 1_200,
            };
            let mut pool = Mempool::new(cfg);
            let mut model = EagerMempool::new(cfg);
            // Batches pulled and not yet requeued, identical on both sides.
            let mut staged: Vec<Batch> = Vec::new();
            for (step, (op, id, span)) in ops.into_iter().enumerate() {
                // A window of ids that slides as the run goes on: duplicates,
                // retries of committed ids and at-capacity arrivals stay
                // common, and fresh ids never run out.
                let id = id + step as u64;
                match op {
                    0..=8 => {
                        let tx = Transaction::sized(TxId::new(id), 200 + 50 * (id % 4) as u32);
                        prop_assert_eq!(pool.submit(tx), model.submit(tx));
                    }
                    9 => {
                        let batch = pool.next_batch();
                        prop_assert_eq!(ids(&batch), ids(&model.next_batch()));
                        staged.push(batch);
                    }
                    10 => {
                        if !staged.is_empty() {
                            let batch = staged.remove(id as usize % staged.len());
                            pool.requeue(batch.clone());
                            model.requeue(batch);
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
            // What is left comes out in the same order.
            loop {
                let batch = pool.next_batch();
                prop_assert_eq!(ids(&batch), ids(&model.next_batch()));
                if batch.is_empty() {
                    break;
                }
            }
            assert_same_state(&pool, &model);
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
        assert_eq!(ids(&pool.next_batch()), vec![0, 3, 5]);
        assert_eq!(pool.len(), 2);
        assert_eq!(ids(&pool.next_batch()), vec![6, 7]);
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
        assert_eq!(pool.len(), 2);
        // Another leader's block carried the same transactions; committing
        // ids that are staged, not queued, must not shrink `len()`.
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
    fn fifo_order_is_preserved() {
        let mut pool = Mempool::default();
        for i in 0..5 {
            assert!(pool.submit(tx(i)));
        }
        let batch = pool.next_batch();
        let ids: Vec<u64> = batch.tx_ids().map(|id| id.as_u64()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert!(pool.is_empty());
    }

    #[test]
    fn duplicate_ids_are_rejected_even_after_batching() {
        let mut pool = Mempool::default();
        assert!(pool.submit(tx(1)));
        assert!(!pool.submit(tx(1)), "queued duplicate");
        let batch = pool.next_batch();
        assert_eq!(batch.len(), 1);
        assert!(
            !pool.submit(tx(1)),
            "dedup must persist across next_batch() — a committed tx must not re-enter"
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
        // Draining frees capacity; the shed tx may be resubmitted (it was
        // never admitted, so its id is not in the dedup set).
        pool.next_batch();
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
        assert_eq!(pool.next_batch().len(), 2);
        assert_eq!(pool.next_batch().len(), 2);
        assert_eq!(pool.next_batch().len(), 1);
        assert!(pool.next_batch().is_empty());
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
        assert_eq!(pool.next_batch().len(), 1);
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
        assert_eq!(pool.next_batch().len(), 1);
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
        let ids: Vec<u64> = pool.next_batch().tx_ids().map(|id| id.as_u64()).collect();
        assert_eq!(ids, vec![0, 2]);
        // A late client retry of a committed tx is rejected, even for an id
        // this pool never admitted itself.
        assert!(!pool.submit(tx(9)));
        // A staged batch displaced across a commit drops the committed tx.
        pool.submit(tx(10));
        pool.submit(tx(11));
        let staged = pool.next_batch();
        pool.mark_committed([TxId::new(10)]);
        pool.requeue(staged);
        let ids: Vec<u64> = pool.next_batch().tx_ids().map(|id| id.as_u64()).collect();
        assert_eq!(ids, vec![11]);
    }

    #[test]
    fn requeue_restores_front_of_queue_order() {
        let mut pool = Mempool::new(MempoolConfig {
            batch_txs: 3,
            ..MempoolConfig::default()
        });
        for i in 0..6 {
            pool.submit(tx(i));
        }
        let staged = pool.next_batch(); // [0, 1, 2]
        pool.requeue(staged);
        let ids: Vec<u64> = pool.next_batch().tx_ids().map(|id| id.as_u64()).collect();
        assert_eq!(
            ids,
            vec![0, 1, 2],
            "requeued batch comes back first, in order"
        );
        let ids: Vec<u64> = pool.next_batch().tx_ids().map(|id| id.as_u64()).collect();
        assert_eq!(ids, vec![3, 4, 5]);
    }
}
