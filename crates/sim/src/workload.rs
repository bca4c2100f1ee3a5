//! Deterministic open-loop client workload generation.
//!
//! A [`WorkloadConfig`] describes client traffic as a constant arrival rate
//! of [`TX_BYTES`]-byte transactions. An [`ArrivalStream`] generates the
//! arrivals one millisecond tick at a time, as the run reaches them, with
//! pure integer arithmetic whose only inputs are the `(config, seed,
//! horizon)` triple — never the run's own events — so the same triple
//! yields byte-identical transactions at identical instants on every host
//! and thread count, which the cross-thread determinism suite relies on.
//!
//! The clients are **open loop**: they submit at the configured rate no
//! matter how the cluster is doing, so saturation shows up as growing
//! mempool queues (rising commit latency) and, past the mempool capacity,
//! as load shedding — exactly the throughput–latency behaviour the `load`
//! experiment plots.

use lumiere_types::{Duration, Time, Transaction, TxId};
use serde::{Deserialize, Serialize};

/// Wire size of every generated transaction, in bytes.
pub const TX_BYTES: u32 = 256;

/// An open-loop client workload plus the mempool bounds under which the
/// cluster absorbs it.
///
/// The mempool knobs live here (rather than on `SimConfig`) because they
/// only matter under load: without client traffic every batch is empty and
/// the bounds are never exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Arrival rate in transactions per second; arrivals are quantized to
    /// 1 ms ticks (several transactions may share a tick at high rates).
    pub rate_tps: u64,
    /// Maximum transactions per proposed batch.
    pub batch_txs: usize,
    /// Mempool capacity; arrivals beyond it are shed.
    pub capacity: usize,
}

impl WorkloadConfig {
    /// A constant-rate workload of [`TX_BYTES`]-byte transactions under the
    /// default mempool bounds.
    pub fn constant(rate_tps: u64) -> Self {
        let mempool = lumiere_core::MempoolConfig::default();
        WorkloadConfig {
            rate_tps,
            batch_txs: mempool.batch_txs,
            capacity: mempool.capacity,
        }
    }

    /// Sets the per-batch transaction bound.
    pub fn with_batch_txs(mut self, batch_txs: usize) -> Self {
        self.batch_txs = batch_txs;
        self
    }

    /// Sets the mempool capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// The mempool bounds this workload runs under: its own transaction and
    /// capacity bounds, and the default per-batch byte budget.
    pub fn mempool_config(&self) -> lumiere_core::MempoolConfig {
        lumiere_core::MempoolConfig {
            capacity: self.capacity,
            batch_txs: self.batch_txs,
            ..lumiere_core::MempoolConfig::default()
        }
    }

    /// The arrivals of a run, generated one tick at a time. Transaction
    /// ids are unique and derived from `seed`, so two runs with different
    /// seeds carry disjoint id spaces while equal seeds reproduce
    /// byte-identical traffic.
    pub fn stream(&self, seed: u64, horizon: Duration) -> ArrivalStream {
        let mut stream = ArrivalStream {
            config: *self,
            id_base: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            horizon_ms: (horizon.as_micros().max(0) / 1_000) as u64,
            next_ms: 0,
            acc: 0,
            generated: 0,
            tick: Time::ZERO,
            txs: Vec::new(),
            taken: 0,
        };
        stream.fill();
        stream
    }

    /// The whole arrival schedule of a run: `(instant, transaction)` pairs
    /// in non-decreasing time order, as [`stream`](Self::stream) yields
    /// them.
    pub fn arrivals(&self, seed: u64, horizon: Duration) -> Vec<(Time, Transaction)> {
        self.stream(seed, horizon).collect()
    }
}

/// A run's client arrivals, generated a millisecond tick at a time: a
/// reusable buffer holds the next tick that carries any, so the stream's
/// memory is one tick's arrivals whatever the rate and horizon. As an
/// iterator it yields `(instant, transaction)` pairs in time order.
#[derive(Debug)]
pub struct ArrivalStream {
    config: WorkloadConfig,
    id_base: u64,
    /// Ticks at or past this millisecond carry nothing.
    horizon_ms: u64,
    /// The next millisecond to integrate.
    next_ms: u64,
    /// Fixed-point integral of the rate not yet spent on arrivals.
    acc: u64,
    /// Transactions generated so far: the next id's offset from `id_base`.
    generated: u64,
    /// The instant of the arrivals in `txs`.
    tick: Time,
    txs: Vec<Transaction>,
    /// How many of `txs` have been yielded.
    taken: usize,
}

impl ArrivalStream {
    /// The instant of the next arrival, or `None` once the stream has
    /// reached the horizon.
    pub fn peek_time(&self) -> Option<Time> {
        (self.taken < self.txs.len()).then_some(self.tick)
    }

    /// The arrivals of the current tick not yet yielded.
    pub fn pending(&self) -> &[Transaction] {
        &self.txs[self.taken..]
    }

    /// Marks the first `k` of [`pending`](Self::pending) as yielded, moving
    /// on to the next tick once the current one is spent.
    pub fn consume(&mut self, k: usize) {
        debug_assert!(k <= self.pending().len());
        self.taken += k;
        if self.taken == self.txs.len() {
            self.fill();
        }
    }

    /// Refills the buffer with the next tick that carries arrivals, or
    /// leaves it empty at the horizon. Fixed-point integration of the rate:
    /// each simulated millisecond adds the txs/sec; every 1000 accumulated
    /// units is one arrival. Integer arithmetic
    /// only, so the schedule never drifts and is identical everywhere.
    fn fill(&mut self) {
        self.txs.clear();
        self.taken = 0;
        while self.txs.is_empty() && self.next_ms < self.horizon_ms {
            let ms = self.next_ms;
            self.next_ms += 1;
            self.acc += self.config.rate_tps;
            while self.acc >= 1_000 {
                self.acc -= 1_000;
                let id = TxId::new(self.id_base.wrapping_add(self.generated));
                self.txs.push(Transaction::sized(id, TX_BYTES));
                self.generated += 1;
            }
            self.tick = Time::from_micros(ms as i64 * 1_000);
        }
    }
}

impl Iterator for ArrivalStream {
    type Item = (Time, Transaction);

    fn next(&mut self) -> Option<(Time, Transaction)> {
        let tx = *self.txs.get(self.taken)?;
        let at = self.tick;
        self.consume(1);
        Some((at, tx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumiere_types::hash::IdSet;

    #[test]
    fn constant_profile_hits_the_mean_rate_exactly() {
        let w = WorkloadConfig::constant(500);
        let arrivals = w.arrivals(1, Duration::from_secs(4));
        assert_eq!(arrivals.len(), 2_000, "500 tps × 4 s");
        // Evenly spaced: consecutive gaps are all 2 ms.
        for pair in arrivals.windows(2) {
            assert_eq!((pair[1].0 - pair[0].0).as_micros(), 2_000);
        }
    }

    #[test]
    fn schedules_are_deterministic_and_ids_unique_per_seed() {
        let w = WorkloadConfig::constant(997);
        let a = w.arrivals(7, Duration::from_secs(2));
        let b = w.arrivals(7, Duration::from_secs(2));
        assert_eq!(a, b, "same seed must reproduce the same schedule");
        let ids: IdSet<u64> = a.iter().map(|(_, tx)| tx.id.as_u64()).collect();
        assert_eq!(ids.len(), a.len(), "transaction ids must be unique");
        let other: IdSet<u64> = w
            .arrivals(8, Duration::from_secs(2))
            .iter()
            .map(|(_, tx)| tx.id.as_u64())
            .collect();
        assert!(ids.is_disjoint(&other), "seeds carry disjoint id spaces");
    }

    /// The schedule the stream replaced, computed whole before a run by the
    /// same integration.
    fn precomputed(w: &WorkloadConfig, seed: u64, horizon: Duration) -> Vec<(Time, Transaction)> {
        let horizon_ms = horizon.as_micros().max(0) / 1_000;
        let id_base = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut out = Vec::new();
        let (mut acc, mut k) = (0, 0);
        for ms in 0..horizon_ms as u64 {
            acc += w.rate_tps;
            while acc >= 1_000 {
                acc -= 1_000;
                let tx = Transaction::sized(TxId::new(id_base.wrapping_add(k)), TX_BYTES);
                out.push((Time::from_micros(ms as i64 * 1_000), tx));
                k += 1;
            }
        }
        out
    }

    /// The stream's ticks strictly increase, each carries at least one
    /// arrival, all lie below the horizon (a whole number of milliseconds
    /// or not), and together they are the precomputed schedule. At 700 tps
    /// some milliseconds carry nothing; at 2 300 every one carries two or
    /// three.
    #[test]
    fn the_stream_yields_the_precomputed_schedule_one_tick_at_a_time() {
        for rate in [700, 2_300] {
            let w = WorkloadConfig::constant(rate);
            for horizon in [Duration::from_millis(400), Duration::from_micros(250_500)] {
                let mut stream = w.stream(9, horizon);
                let mut ticks: Vec<Time> = Vec::new();
                let mut joined = Vec::new();
                while let Some(at) = stream.peek_time() {
                    let txs = stream.pending().to_vec();
                    assert!(!txs.is_empty(), "{rate} tps: empty tick at {at:?}");
                    assert!(ticks.last().is_none_or(|&last| last < at));
                    assert!(at < Time::ZERO + horizon, "{rate} tps: {at:?}");
                    ticks.push(at);
                    for tx in txs {
                        assert_eq!(stream.next(), Some((at, tx)));
                        joined.push((at, tx));
                    }
                }
                assert_eq!(stream.next(), None);
                let expected = precomputed(&w, 9, horizon);
                let whole_ms = horizon.as_micros() / 1_000;
                if rate < 1_000 {
                    assert!((ticks.len() as i64) < whole_ms, "{rate} tps");
                } else {
                    assert!(joined.len() as i64 > 2 * ticks.len() as i64, "{rate} tps");
                }
                assert_eq!(joined, expected, "{rate} tps over {horizon:?}");
                assert_eq!(w.arrivals(9, horizon), expected);
            }
        }
    }

    #[test]
    fn transactions_carry_the_configured_size() {
        let w = WorkloadConfig::constant(10);
        for (_, tx) in w.arrivals(1, Duration::from_secs(1)) {
            assert_eq!(tx.size, TX_BYTES);
        }
        let pool_cfg = w.with_batch_txs(32).with_capacity(64).mempool_config();
        assert_eq!(pool_cfg.batch_txs, 32);
        assert_eq!(pool_cfg.capacity, 64);
        assert_eq!(
            pool_cfg.max_block_bytes,
            lumiere_core::MempoolConfig::default().max_block_bytes
        );
    }

    #[test]
    fn workload_config_round_trips_through_serde() {
        let w = WorkloadConfig::constant(250)
            .with_batch_txs(16)
            .with_capacity(900);
        let json = serde::json::to_string(&w);
        let back: WorkloadConfig = serde::json::from_str(&json).expect("deserializes");
        assert_eq!(back, w);
    }
}
