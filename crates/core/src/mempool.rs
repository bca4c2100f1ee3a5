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
//! The queue holds [`TxRun`]s, not transactions: a transaction that
//! continues the back slot's ids at the same size extends that slot, and
//! any other starts a new one. Ids come from counters and are admitted in
//! order, so a backlog of thousands is one slot, and a batch builds its
//! transactions from the runs it walks.
//!
//! # Commit pruning
//!
//! Every replica prunes every committed block from its pool, so
//! [`Mempool::mark_committed`] runs once per commit per node and must not
//! depend on how much is queued. It costs O(ids in the block), amortized:
//! the ids are recorded, a committed id at the front of the queue is
//! trimmed off, and one further back stays where it is as a *tombstone* — a
//! queued id that is committed. Tombstones are invisible from outside:
//! [`Mempool::len`], [`Mempool::is_empty`] and the capacity check count only
//! the `live` ids, a batch skips the tombstones it meets, and whenever they
//! come to outnumber the live ids one rebuild of the runs sweeps them out,
//! which keeps, counted in ids,
//!
//! ```text
//! queued ≤ 2 · live + batch_txs
//! ```
//!
//! after every operation; the slots holding them are never more. The sweep
//! walks fewer than two ids per tombstone it removes, and a tombstone is
//! made by exactly one committed id, so it adds O(1) to the cost of that id.
//!
//! # Two run sets
//!
//! What the pool knows about an id is two bits, each kept in an [`IdRuns`]:
//! `seen` holds every id ever admitted here or seen in a committed block,
//! `committed` every id seen committed. An id is *queued*, live in the
//! queue, iff it is seen and not committed; a queued id that is committed
//! is a tombstone. Nothing is hashed. Ids come from counters and this pool
//! admits and commits them in FIFO order, so each set is a few runs
//! `[start, end]`, about one per submitter, and a probe of an id in or just
//! above the highest run costs two compares. Neither set ever forgets an
//! id: dedup is for the pool's lifetime.
//!
//! The ids also arrive and commit as runs, and the pool takes a run whole,
//! as the queue stores it. [`Mempool::submit_run`] admits a run above every
//! id seen, within `capacity`, with one append to `seen` and one push onto
//! the queue. [`Mempool::mark_committed`] takes its leading ids that are the
//! queue's front ids, consecutive and above every committed id, with one
//! append to `committed` and one trim of the queue's front slots. Whatever
//! does not fit goes id by id, so either leaves the pool exactly as the
//! per-id path would.
//!
//! The worst case is ids in no order: each gap between two known ids costs a
//! run in each set and a queue slot, and a probe below the highest run one
//! B-tree search. A peer that picks scattered ids thus costs one tree entry
//! and one slot per id it gets admitted or committed, as a hash table would,
//! and admission is bounded by `capacity` live ids at a time. Nothing but
//! the commit rate bounds the sets' size (`docs/RUNTIME.md`, "Hostile
//! input").
//!
//! Everything here is integer arithmetic over explicitly ordered
//! collections: the same submission sequence yields the same batches on
//! every host and thread count, which the cross-thread determinism suite
//! relies on.

use lumiere_types::runs::IdRuns;
use lumiere_types::{Batch, Transaction, TxId, TxRun};
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

/// Bounded FIFO transaction pool with lifetime dedup by id.
#[derive(Debug, Clone)]
pub struct Mempool {
    cfg: MempoolConfig,
    /// Live ids in FIFO order, interleaved with tombstones (ids in
    /// `committed`; see the module docs), as runs. Every id is in `seen`,
    /// and no slot could extend the one before it.
    queue: VecDeque<TxRun>,
    /// Ids `queue` holds, tombstones included.
    queued: usize,
    /// Ids of `queue` that are not tombstones: what [`Mempool::len`] and
    /// the capacity check report.
    live: usize,
    /// Every id ever admitted or committed. Dedup is deliberately
    /// *persistent*: a transaction of a committed batch must not be
    /// re-admittable via a late gossip echo.
    seen: IdRuns,
    /// Every id seen committed, by *any* leader, whether or not this pool
    /// ever admitted it. Final.
    committed: IdRuns,
    /// Submissions rejected because the queue was full.
    shed: u64,
}

impl Mempool {
    /// An empty mempool with the given bounds.
    pub fn new(cfg: MempoolConfig) -> Self {
        Mempool {
            cfg,
            queue: VecDeque::new(),
            queued: 0,
            live: 0,
            seen: IdRuns::new(),
            committed: IdRuns::new(),
            shed: 0,
        }
    }

    /// Admits a transaction. Returns `false` (and ignores it) when the id
    /// was already seen or committed, or the queue is at capacity.
    pub fn submit(&mut self, tx: Transaction) -> bool {
        if self.live >= self.cfg.capacity {
            // Only a transaction that would otherwise have been admitted
            // counts as shed; a duplicate arriving at a full pool does not.
            if !self.seen.contains(tx.id.as_u64()) {
                self.shed += 1;
            }
            return false;
        }
        if !self.seen.insert(tx.id.as_u64()) {
            return false;
        }
        self.push(TxRun::one(tx));
        self.live += 1;
        true
    }

    /// Admits the ids of `run` in order, leaving the pool as a
    /// [`Mempool::submit`] of each would. A run above every id seen that
    /// fits in `capacity` — one arrival tick of a counter — is admitted in
    /// one step; any other goes through `submit` per id.
    pub fn submit_run(&mut self, run: TxRun) {
        let fresh = self
            .seen
            .last()
            .is_none_or(|last| run.first.as_u64() > last);
        if fresh && self.live + run.len as usize <= self.cfg.capacity {
            self.seen
                .append_run(run.first.as_u64(), run.last().as_u64());
            self.push(run);
            self.live += run.len as usize;
        } else {
            for tx in run.txs() {
                self.submit(tx);
            }
        }
    }

    /// Queues `run` at the back: it extends the back slot when its ids
    /// continue that slot's at the same size, and takes a slot of its own
    /// otherwise.
    fn push(&mut self, run: TxRun) {
        self.queued += run.len as usize;
        if let Some(back) = self.queue.back_mut() {
            let continues = back.last().as_u64().checked_add(1) == Some(run.first.as_u64());
            if continues && back.size == run.size {
                if let Some(len) = back.len.checked_add(run.len) {
                    back.len = len;
                    return;
                }
            }
        }
        self.queue.push_back(run);
    }

    /// Removes the queue's first `k` ids, slot by slot.
    fn trim_front(&mut self, mut k: usize) {
        self.queued -= k;
        while k > 0 {
            let front = self.queue.front_mut().expect("k ids are queued");
            if (front.len as usize) > k {
                front.first = TxId::new(front.first.as_u64() + k as u64);
                front.len -= k as u32;
                return;
            }
            k -= front.len as usize;
            self.queue.pop_front();
        }
    }

    /// The next batch a leader should propose: the first queued
    /// transactions, in FIFO order, that are neither committed nor in
    /// `in_flight`, bounded by `batch_txs` and `max_block_bytes`. Empty when
    /// nothing is eligible. Removes nothing: a transaction leaves the pool
    /// only by committing.
    ///
    /// `in_flight` is sorted: the ids the uncommitted chain the proposal
    /// extends already carries. Costs a binary search per stretch of
    /// consecutive in-flight ids met until every one has been met (the
    /// stretch is skipped whole), plus a probe of `committed` per id only
    /// while the queue holds tombstones; a transaction is built only for the
    /// batch.
    pub fn next_batch_excluding(&self, in_flight: &[TxId]) -> Batch {
        debug_assert!(in_flight.is_sorted(), "in_flight must be sorted");
        let tombstones = self.has_tombstones();
        // Queued ids are distinct, so once this many have matched, no later
        // id can.
        let mut unmet = in_flight.len();
        // Where the next queued id is expected in `in_flight`: the chain
        // carries the queue's front in queue order, so an id is usually the
        // one after the last one met, and needs no search.
        let mut cursor = 0;
        let mut txs = Vec::with_capacity(self.cfg.batch_txs.min(self.live));
        let mut bytes = 0u64;
        'runs: for run in &self.queue {
            let (first, len) = (run.first.as_u64(), run.len as u64);
            // The offset in `run` of the next id to read.
            let mut k = 0;
            while k < len {
                if txs.len() == self.cfg.batch_txs {
                    break 'runs;
                }
                let id = TxId::new(first + k);
                if unmet > 0 {
                    let met = if in_flight.get(cursor) == Some(&id) {
                        Some(cursor)
                    } else {
                        in_flight.binary_search(&id).ok()
                    };
                    if let Some(at) = met {
                        // `in_flight` is sorted and its ids distinct, so the
                        // ids of the run it holds from `id` on are those that
                        // follow `at` up to the first gap: skipped whole.
                        let stretch = in_flight[at..]
                            .iter()
                            .zip(k..len)
                            .take_while(|&(carried, at_k)| carried.as_u64() == first + at_k)
                            .count();
                        cursor = at + stretch;
                        unmet -= stretch;
                        k += stretch as u64;
                        continue;
                    }
                }
                k += 1;
                if tombstones && self.committed.contains(id.as_u64()) {
                    continue;
                }
                let tx_bytes = run.size as u64;
                if !txs.is_empty() && bytes + tx_bytes > self.cfg.max_block_bytes {
                    break 'runs;
                }
                bytes += tx_bytes;
                txs.push(Transaction::sized(id, run.size));
            }
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
        let mut ids = ids.into_iter();
        let rest = self.commit_front_run(&mut ids);
        for id in rest.into_iter().chain(ids) {
            // An id can commit twice (a Byzantine leader may propose one the
            // chain already carries), or commit before it was ever admitted
            // here: only the commit that finds the id queued may touch
            // `live`. A first commit of an unseen id makes it seen.
            let raw = id.as_u64();
            if !self.committed.insert(raw) || self.seen.insert(raw) {
                continue;
            }
            self.live -= 1;
            // Replicas queue in the same order the chain commits in, so the
            // id is usually the front one and leaves no tombstone.
            if self.queue.front().is_some_and(|run| run.first == id) {
                self.trim_front(1);
            }
        }
        while self.has_tombstones()
            && self
                .queue
                .front()
                .is_some_and(|run| self.committed.contains(run.first.as_u64()))
        {
            self.trim_front(1);
        }
        self.compact_if_sparse();
    }

    /// Commits the leading `ids` that are the queue's front ids in order,
    /// consecutive and above every committed id, in one step, and returns
    /// the first id it did not take. The ids it takes are those of the
    /// front slot and of each next slot that continues them. No tombstone
    /// can be among them (a tombstone's id is committed), so each is live
    /// and leaves from the front, as the per-id loop would have it.
    fn commit_front_run(&mut self, ids: &mut impl Iterator<Item = TxId>) -> Option<TxId> {
        let Some(front) = self.queue.front() else {
            return ids.next();
        };
        let start = front.first.as_u64();
        if self.committed.last().is_some_and(|last| start <= last) {
            return ids.next();
        }
        // The last id of the slots read so far, and the next slot to read.
        let (mut reach, mut slot) = (front.last().as_u64(), 1);
        let mut k = 0u64;
        let rest = loop {
            let Some(id) = ids.next() else {
                break None;
            };
            let raw = id.as_u64();
            if start.checked_add(k) != Some(raw) {
                break Some(id);
            }
            if raw > reach {
                // `raw` is `reach + 1`: the next slot must begin with it.
                match self.queue.get(slot) {
                    Some(next) if next.first == id => reach = next.last().as_u64(),
                    _ => break Some(id),
                }
                slot += 1;
            }
            k += 1;
        };
        if k > 0 {
            self.committed.append_run(start, start + (k - 1));
            self.live -= k as usize;
            self.trim_front(k as usize);
        }
        rest
    }

    fn has_tombstones(&self) -> bool {
        self.queued > self.live
    }

    /// Sweeps the tombstones out once they outnumber the live ids by more
    /// than a batch, so the queue's memory stays within twice what the live
    /// ids need: the runs are rebuilt from the live ids alone.
    fn compact_if_sparse(&mut self) {
        if self.queued > 2 * self.live + self.cfg.batch_txs {
            let old = std::mem::take(&mut self.queue);
            self.queued = 0;
            for tx in old.iter().flat_map(|run| run.txs()) {
                if !self.committed.contains(tx.id.as_u64()) {
                    self.push(TxRun::one(tx));
                }
            }
            debug_assert_eq!(self.queued, self.live);
        }
    }

    /// Entries held: one per run of the two id sets plus one per queue
    /// slot. A slot is a run of ids, live or tombstone, so a backlog of
    /// consecutive ids counts one however long it grows.
    pub fn state_entries(&self) -> usize {
        self.seen.runs() + self.committed.runs() + self.queue.len()
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

    /// The queued transactions, tombstones included, in queue order.
    fn queued_txs(pool: &Mempool) -> Vec<Transaction> {
        pool.queue.iter().flat_map(|run| run.txs()).collect()
    }

    /// Asserts everything observable without mutating, the memory bound in
    /// ids, the queue's id count, that no slot could have extended the one
    /// before it, the live queued transactions against the model's queue,
    /// in order, and the two id sets against the model's: for every id the
    /// model knows and both its neighbours, the pool has seen it iff the
    /// model admitted it or saw it committed, and holds it committed iff
    /// the model does.
    fn assert_same_state(pool: &Mempool, model: &EagerMempool) {
        assert_eq!(pool.len(), model.queue.len());
        assert_eq!(pool.is_empty(), model.queue.is_empty());
        assert_eq!(pool.shed(), model.shed);
        let queued = queued_txs(pool);
        assert_eq!(pool.queued, queued.len());
        assert!(
            pool.queued <= 2 * pool.len() + pool.config().batch_txs,
            "{} queued ids for {} live",
            pool.queued,
            pool.len()
        );
        for pair in pool.queue.iter().collect::<Vec<_>>().windows(2) {
            let joins = pair[0].last().as_u64().checked_add(1) == Some(pair[1].first.as_u64());
            assert!(!joins || pair[0].size != pair[1].size, "{pair:?}");
        }
        assert!(queued
            .iter()
            .filter(|tx| !pool.committed.contains(tx.id.as_u64()))
            .eq(&model.queue));
        for known in model.seen.union(&model.committed) {
            let raw = known.as_u64();
            for probe in [raw.wrapping_sub(1), raw, raw.wrapping_add(1)] {
                let id = TxId::new(probe);
                let known = model.seen.contains(&id) || model.committed.contains(&id);
                assert_eq!(pool.seen.contains(probe), known, "{id}");
                assert_eq!(
                    pool.committed.contains(probe),
                    model.committed.contains(&id),
                    "{id}"
                );
            }
        }
    }

    proptest! {
        /// Random interleavings of every operation, on a pool small enough
        /// that capacity, the byte budget and compaction are all hit, with a
        /// random in-flight set behind every batch: the tombstoning pool and
        /// the eager model must agree on every return value and every
        /// observable count after every step.
        ///
        /// Runs go in through `submit_run`: runs just above every id seen
        /// or one past it (the one-step path, extending the back slot or
        /// not), one whose size differs from the back slot's, and runs that
        /// overlap the ids seen, cross `capacity` or, in a quarter of the
        /// cases, end at `u64::MAX`. Single transactions vary in size, so
        /// consecutive ids take a slot each or share one. Commits include
        /// runs that match the queue's front and then diverge, while
        /// tombstones wait further back or not.
        ///
        /// Each of these hand mutations of [`Mempool`] fails it: ignoring
        /// `in_flight`; taking a tombstone into a batch; removing what a
        /// batch takes from the queue; stopping the `in_flight` searches
        /// after the first match; skipping a stretch of in-flight ids past
        /// its first gap, or one id past its end; never probing for
        /// tombstones;
        /// `submit_run` ignoring `capacity`; the commit run taken past the
        /// committed ids, tombstones and all; a commit run's end off by
        /// one; a commit run crossing into a slot that does not continue
        /// the ids; the back slot extended by a run of another size; the
        /// front trimmed by one id too few or too many.
        #[test]
        fn tombstoning_pool_matches_the_eager_model(
            ops in proptest::collection::vec(
                (0u8..19, 0u64..48, 1u64..12, any::<u64>()),
                1..400,
            ),
            near_top in 0u8..4,
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
                    // Four consecutive ids share a size, so some share a slot.
                    0..=8 => {
                        let tx = Transaction::sized(TxId::new(id), 200 + 50 * (id / 4 % 4) as u32);
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
                    // A run of up to `span` ids above every id known (next
                    // to the highest or one past it) at the back slot's
                    // size, or, picked by `mask`, at another size; one that
                    // overlaps the ids known; or one that ends at the top
                    // of the id space.
                    16 | 17 => {
                        let highest = model.seen.union(&model.committed).max();
                        let highest = highest.map(|id| id.as_u64());
                        let above = highest.map_or(0, |id| id.wrapping_add(1 + mask % 2));
                        let start = match (op, mask >> 1 & 3) {
                            (17, _) if near_top == 0 => u64::MAX - id % 8,
                            (_, 3) => highest.map_or(0, |id| id.saturating_sub(span / 2)),
                            _ => above,
                        };
                        let back = pool.queue.back().map_or(256, |run| run.size);
                        let size = match mask >> 1 & 3 {
                            2 => 200 + (back + 50) % 200,
                            _ => back,
                        };
                        let len = (span - 1).min(u64::MAX - start) as u32 + 1;
                        let run = TxRun::new(TxId::new(start), len, size);
                        pool.submit_run(run);
                        for tx in run.txs() {
                            model.submit(tx);
                        }
                    }
                    // Commit the first `span` queued ids, or, picked by
                    // `mask`, `span` consecutive ids from the first queued
                    // one, whether the queue holds them in that order or
                    // not; then diverge: a fresh id, an id further back, or
                    // the first one again.
                    18 => {
                        let mut run: Vec<TxId> = match model.queue.front() {
                            Some(front) if mask >> 2 & 1 == 1 => {
                                let first = front.id.as_u64();
                                (first..first.saturating_add(span)).map(TxId::new).collect()
                            }
                            _ => model.queue.iter().take(span as usize).map(|tx| tx.id).collect(),
                        };
                        run.push(match mask % 3 {
                            0 => TxId::new(u64::MAX / 2 + id),
                            1 => model.queue.back().map_or(TxId::new(id), |tx| tx.id),
                            _ => run.first().copied().unwrap_or(TxId::new(id)),
                        });
                        pool.mark_committed(run.iter().copied());
                        model.mark_committed(run);
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

    /// Commits `pool`'s next batch and checks that every id of it, and
    /// every id still queued, is turned away when submitted again.
    fn commit_next_batch_and_resubmit(pool: &mut Mempool) -> Batch {
        let batch = pool.next_batch();
        pool.mark_committed(batch.tx_ids());
        for tx in batch.txs.iter().chain(&queued_txs(pool)) {
            assert!(!pool.submit(*tx), "{} admitted twice", tx.id);
        }
        batch
    }

    /// Four submitters whose ids carry the node id in the high bits, as the
    /// live driver's do, gossiped to one pool in interleaved order: each
    /// set holds one run per submitter, however many ids go through.
    #[test]
    fn interleaved_submitters_cost_one_run_each() {
        let mut pool = Mempool::new(MempoolConfig {
            batch_txs: 64,
            ..MempoolConfig::default()
        });
        let id = |node: u64, k: u64| TxId::new(((node + 1) << 40) | k);
        let mut committed = 0;
        for round in 0..40 {
            for k in 20 * round as u64..20 * (round as u64 + 1) {
                for node in 0..4 {
                    assert!(pool.submit(Transaction::new(id(node, k))));
                }
            }
            committed += commit_next_batch_and_resubmit(&mut pool).len();
            assert_eq!(pool.len(), 80 * (round + 1) - committed);
            // Committed: each node's first 16 ids per commit so far; seen:
            // every id it sent.
            assert_eq!((pool.committed.runs(), pool.seen.runs()), (4, 4));
            assert_eq!(pool.state_entries(), 8 + pool.queue.len());
        }
        assert_eq!(committed, 40 * 64);
        assert!(!pool.submit(Transaction::new(id(3, 0))));
        assert!(pool.submit(Transaction::new(id(4, 0))), "a fifth submitter");
        assert_eq!(pool.state_entries(), 9 + pool.queue.len());
    }

    /// 12 000 consecutive ids of one size, arriving 48 a tick as the
    /// `sim_backlog` workload's do, every other tick as one run and the
    /// others one transaction at a time, with half of them committed in
    /// 64-id batches along the way: the backlog is one queue slot
    /// throughout, so what the pool holds does not grow with it.
    #[test]
    fn a_backlog_of_consecutive_ids_is_one_queue_slot() {
        let mut pool = Mempool::new(MempoolConfig {
            batch_txs: 64,
            ..MempoolConfig::default()
        });
        let mut committed = 0;
        for tick in 0..250u64 {
            let run = TxRun::new(TxId::new(1_000 + 48 * tick), 48, 256);
            if tick % 2 == 0 {
                pool.submit_run(run);
            } else {
                assert!(run.txs().all(|tx| pool.submit(tx)));
            }
            while committed + 64 <= 24 * (tick as usize + 1) {
                let batch = pool.next_batch();
                assert_eq!(batch.len(), 64);
                pool.mark_committed(batch.tx_ids());
                committed += 64;
            }
            assert_eq!(pool.queue.len(), 1, "tick {tick}");
            let runs = 2 + usize::from(committed > 0);
            assert_eq!(pool.state_entries(), runs, "tick {tick}");
        }
        assert_eq!((pool.len(), committed), (12_000 - 5_952, 5_952));
        assert_eq!(pool.queued, pool.len());
        assert_eq!(pool.queue[0], TxRun::new(TxId::new(6_952), 6_048, 256));
    }

    /// A counter that wraps past `u64::MAX`, as the simulator's
    /// `id_base.wrapping_add(k)` may: the ids on either side of the wrap
    /// are two runs, and dedup stays exact across it.
    #[test]
    fn ids_wrapping_past_the_top_of_the_id_space() {
        let mut pool = Mempool::new(MempoolConfig {
            batch_txs: 50,
            ..MempoolConfig::default()
        });
        let base = u64::MAX - 120;
        let mut next = 0u64;
        for _ in 0..20 {
            for _ in 0..30 {
                assert!(pool.submit(tx(base.wrapping_add(next))));
                next += 1;
            }
            commit_next_batch_and_resubmit(&mut pool);
            let wrapped = usize::from(next > 121);
            assert_eq!(pool.seen.runs(), 1 + wrapped);
            assert!(pool.committed.runs() <= 2);
            assert_eq!(
                pool.state_entries(),
                pool.seen.runs() + pool.committed.runs() + pool.queue.len()
            );
        }
        assert!(!pool.submit(tx(u64::MAX)) && !pool.submit(tx(0)));
        assert!(pool.submit(tx(base - 1)), "below the first id");
        assert_eq!(pool.seen.runs(), 2, "it joins the run the counter began");
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
        assert_eq!(pool.queued, 100, "tombstones stay until they dominate");
        // Committing an id twice, or one never seen, changes nothing.
        pool.mark_committed([TxId::new(1), TxId::new(3), TxId::new(1_000)]);
        assert_eq!(pool.len(), 60);
        // Tx 0 stays live at the front, so nothing can be popped there;
        // once the tombstones outnumber the live entries they are swept.
        pool.mark_committed((1..40).map(|i| TxId::new(2 * i)));
        assert_eq!(pool.len(), 21);
        assert_eq!(pool.queued, 21);
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
        assert_eq!((pool.queued, pool.queue.len()), (0, 0));
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
        assert_eq!((pool.len(), pool.queued), (1, 8));
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
        assert_eq!((pool.len(), pool.queued, pool.shed()), (0, 0, 0));
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
            pool.queued, 4,
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
