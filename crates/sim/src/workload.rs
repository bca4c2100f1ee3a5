//! Deterministic open-loop client workload generation.
//!
//! A [`WorkloadConfig`] describes client traffic as a constant arrival rate
//! of [`TX_BYTES`]-byte transactions. An [`ArrivalStream`] generates the
//! arrivals one millisecond tick at a time, as the run reaches them, with
//! pure integer arithmetic whose only inputs are the `(config, seed,
//! horizon)` triple — never the run's own events — so the same triple
//! yields byte-identical transactions at identical instants on every host
//! and thread count, which the cross-thread determinism suite relies on.
//! Ids come from one counter, so a tick's arrivals are a [`TxRun`]: the
//! stream holds the tick as its first id and a count, and hands it on whole
//! (two runs when the counter crosses `u64::MAX` inside it).
//!
//! The clients are **open loop**: they submit at the configured rate no
//! matter how the cluster is doing, so saturation shows up as growing
//! mempool queues (rising commit latency) and, past the mempool capacity,
//! as load shedding — exactly the throughput–latency behaviour the `load`
//! experiment plots.

use lumiere_types::{Duration, Time, Transaction, TxId, TxRun};
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
            next_id: 0,
            remaining: 0,
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

/// A run's client arrivals, generated a millisecond tick at a time: the
/// stream holds the next tick that carries any as its first id and a count,
/// so its memory is a few words whatever the rate and horizon. As an
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
    /// The instant of the current tick's arrivals.
    tick: Time,
    /// The id of the current tick's next arrival.
    next_id: u64,
    /// The current tick's arrivals not yet yielded.
    remaining: u64,
}

impl ArrivalStream {
    /// The instant of the next arrival, or `None` once the stream has
    /// reached the horizon.
    pub fn peek_time(&self) -> Option<Time> {
        (self.remaining > 0).then_some(self.tick)
    }

    /// The arrivals of the current tick not yet yielded, as one run cut at
    /// `u64::MAX` (and at `u32::MAX` ids): the rest of a tick whose ids
    /// wrap is the next run at the same instant. `None` once the stream has
    /// reached the horizon.
    pub fn pending(&self) -> Option<TxRun> {
        // Counted less one, so neither cut overflows.
        let more = (self.remaining.checked_sub(1)?)
            .min(u64::MAX - self.next_id)
            .min(u32::MAX as u64 - 1);
        let first = TxId::new(self.next_id);
        Some(TxRun::new(first, more as u32 + 1, TX_BYTES))
    }

    /// Marks the first `k` ids of [`pending`](Self::pending) as yielded,
    /// moving on to the next tick once the current one is spent.
    pub fn consume(&mut self, k: u32) {
        debug_assert!(self.pending().is_some_and(|run| k <= run.len));
        self.next_id = self.next_id.wrapping_add(k as u64);
        self.remaining -= k as u64;
        if self.remaining == 0 {
            self.fill();
        }
    }

    /// Moves on to the next tick that carries arrivals, or leaves none
    /// pending at the horizon. Fixed-point integration of the rate: each
    /// simulated millisecond adds the txs/sec; every 1000 accumulated units
    /// is one arrival. Integer arithmetic only, so the schedule never
    /// drifts and is identical everywhere.
    fn fill(&mut self) {
        while self.remaining == 0 && self.next_ms < self.horizon_ms {
            let ms = self.next_ms;
            self.next_ms += 1;
            self.acc += self.config.rate_tps;
            self.remaining = self.acc / 1_000;
            self.acc %= 1_000;
            self.tick = Time::from_micros(ms as i64 * 1_000);
        }
        self.next_id = self.id_base.wrapping_add(self.generated);
        self.generated += self.remaining;
    }
}

impl Iterator for ArrivalStream {
    type Item = (Time, Transaction);

    fn next(&mut self) -> Option<(Time, Transaction)> {
        let tx = Transaction::sized(self.pending()?.first, TX_BYTES);
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
                    let run = stream.pending().expect("a tick carries arrivals");
                    assert!(ticks.last().is_none_or(|&last| last < at));
                    assert!(at < Time::ZERO + horizon, "{rate} tps: {at:?}");
                    ticks.push(at);
                    for tx in run.txs() {
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

    /// A seed whose id base is `u64::MAX − 20`: at 48 000 tps the first
    /// tick's 48 ids are 21 up to `u64::MAX`, then 27 from zero, so the
    /// tick is two runs at one instant, and together the runs are the
    /// precomputed schedule.
    #[test]
    fn a_tick_whose_ids_wrap_is_two_runs_at_one_instant() {
        const SEED: u64 = 2_936_116_602_622_675_967;
        let w = WorkloadConfig::constant(48_000);
        let horizon = Duration::from_millis(5);
        let mut stream = w.stream(SEED, horizon);
        let top = TxRun::new(TxId::new(u64::MAX - 20), 21, TX_BYTES);
        assert_eq!(stream.pending(), Some(top));
        stream.consume(20);
        let last = TxRun::new(TxId::new(u64::MAX), 1, TX_BYTES);
        assert_eq!(stream.pending(), Some(last));
        stream.consume(1);
        assert_eq!(stream.peek_time(), Some(Time::ZERO), "the tick goes on");
        assert_eq!(
            stream.pending(),
            Some(TxRun::new(TxId::new(0), 27, TX_BYTES))
        );
        stream.consume(27);
        assert_eq!(stream.peek_time(), Some(Time::from_millis(1)));
        assert_eq!(
            stream.pending(),
            Some(TxRun::new(TxId::new(27), 48, TX_BYTES))
        );

        let mut joined = Vec::new();
        let mut stream = w.stream(SEED, horizon);
        while let (Some(at), Some(run)) = (stream.peek_time(), stream.pending()) {
            joined.extend(run.txs().map(|tx| (at, tx)));
            stream.consume(run.len);
        }
        assert_eq!(stream.pending(), None);
        assert_eq!(joined, precomputed(&w, SEED, horizon));
        assert_eq!(w.arrivals(SEED, horizon), joined);
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
