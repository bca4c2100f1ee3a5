//! Deterministic open-loop client workload generation.
//!
//! A [`WorkloadConfig`] describes client traffic as a mean arrival rate
//! shaped by an [`ArrivalProfile`] (constant, bursty, diurnal). The schedule
//! of arrivals is precomputed with pure integer arithmetic before the run
//! starts — the same `(config, seed, horizon)` triple yields byte-identical
//! transactions at identical instants on every host and thread count, which
//! the cross-thread determinism suite relies on.
//!
//! The clients are **open loop**: they submit at the configured rate no
//! matter how the cluster is doing, so saturation shows up as growing
//! mempool queues (rising commit latency) and, past the mempool capacity,
//! as load shedding — exactly the throughput–latency behaviour the `load`
//! experiment plots.

use lumiere_types::{Duration, Time, Transaction, TxId};
use serde::{Deserialize, Serialize};

/// The shape of the arrival rate over time. Each profile modulates the mean
/// rate of [`WorkloadConfig::rate_tps`]; arrivals are quantized to 1 ms
/// ticks (several transactions may share a tick at high rates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArrivalProfile {
    /// Evenly spaced arrivals at the mean rate.
    Constant,
    /// Baseline rate with periodic bursts: in every window of `period_ms`,
    /// the first `burst_ms` run at `multiplier`× the mean rate (so the
    /// long-run average is *above* the configured mean).
    Bursty {
        /// Window length in milliseconds.
        period_ms: u64,
        /// Length of the burst at the start of each window.
        burst_ms: u64,
        /// Rate multiplier during the burst.
        multiplier: u32,
    },
    /// A triangle wave between zero and twice the mean rate over
    /// `period_ms` — a compressed day/night cycle whose long-run average is
    /// the configured mean.
    Diurnal {
        /// Full cycle length in milliseconds.
        period_ms: u64,
    },
}

/// An open-loop client workload plus the mempool bounds under which the
/// cluster absorbs it.
///
/// The mempool knobs live here (rather than on `SimConfig`) because they
/// only matter under load: without client traffic every batch is empty and
/// the bounds are never exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Mean arrival rate in transactions per second.
    pub rate_tps: u64,
    /// Wire size of every generated transaction, in bytes.
    pub tx_bytes: u32,
    /// Arrival shape over time.
    pub profile: ArrivalProfile,
    /// Maximum transactions per proposed batch.
    pub batch_txs: usize,
    /// Maximum payload bytes per proposed batch.
    pub max_block_bytes: u64,
    /// Mempool capacity; arrivals beyond it are shed.
    pub capacity: usize,
}

impl WorkloadConfig {
    /// A constant-rate workload of 256-byte transactions under the default
    /// mempool bounds.
    pub fn constant(rate_tps: u64) -> Self {
        let mempool = lumiere_core::MempoolConfig::default();
        WorkloadConfig {
            rate_tps,
            tx_bytes: 256,
            profile: ArrivalProfile::Constant,
            batch_txs: mempool.batch_txs,
            max_block_bytes: mempool.max_block_bytes,
            capacity: mempool.capacity,
        }
    }

    /// Sets the arrival profile.
    pub fn with_profile(mut self, profile: ArrivalProfile) -> Self {
        self.profile = profile;
        self
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

    /// The mempool bounds this workload runs under.
    pub fn mempool_config(&self) -> lumiere_core::MempoolConfig {
        lumiere_core::MempoolConfig {
            capacity: self.capacity,
            batch_txs: self.batch_txs,
            max_block_bytes: self.max_block_bytes,
        }
    }

    /// The instantaneous rate (txs/sec) at millisecond `ms` of the run.
    fn rate_at_ms(&self, ms: u64) -> u64 {
        match self.profile {
            ArrivalProfile::Constant => self.rate_tps,
            ArrivalProfile::Bursty {
                period_ms,
                burst_ms,
                multiplier,
            } => {
                if ms % period_ms.max(1) < burst_ms {
                    self.rate_tps * multiplier as u64
                } else {
                    self.rate_tps
                }
            }
            ArrivalProfile::Diurnal { period_ms } => {
                let period = period_ms.max(2);
                let half = period / 2;
                let phase = ms % period;
                // Triangle wave: 0 at the cycle edges, `half` at the peak.
                let tri = if phase < half { phase } else { period - phase };
                self.rate_tps * 2 * tri / half
            }
        }
    }

    /// Precomputes the full arrival schedule for a run: `(instant,
    /// transaction)` pairs in non-decreasing time order. Transaction ids are
    /// unique and derived from `seed`, so two runs with different seeds
    /// carry disjoint id spaces while equal seeds reproduce byte-identical
    /// traffic.
    pub fn arrivals(&self, seed: u64, horizon: Duration) -> Vec<(Time, Transaction)> {
        let horizon_ms = horizon.as_micros().max(0) / 1_000;
        let id_base = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut out = Vec::new();
        // Fixed-point integration of the rate curve: each simulated
        // millisecond adds the instantaneous txs/sec; every 1000
        // accumulated units is one arrival. Integer arithmetic only, so the
        // schedule never drifts and is identical everywhere.
        let mut acc: u64 = 0;
        let mut k: u64 = 0;
        for ms in 0..horizon_ms as u64 {
            acc += self.rate_at_ms(ms);
            while acc >= 1_000 {
                acc -= 1_000;
                let tx = Transaction::sized(TxId::new(id_base.wrapping_add(k)), self.tx_bytes);
                out.push((Time::from_micros(ms as i64 * 1_000), tx));
                k += 1;
            }
        }
        out
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
        let w = WorkloadConfig::constant(997).with_profile(ArrivalProfile::Bursty {
            period_ms: 250,
            burst_ms: 50,
            multiplier: 4,
        });
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

    #[test]
    fn bursty_profile_front_loads_each_window() {
        let base = WorkloadConfig::constant(100);
        let bursty = base.with_profile(ArrivalProfile::Bursty {
            period_ms: 1_000,
            burst_ms: 100,
            multiplier: 10,
        });
        let horizon = Duration::from_secs(2);
        let n_base = base.arrivals(1, horizon).len();
        let n_bursty = bursty.arrivals(1, horizon).len();
        assert!(
            n_bursty > n_base,
            "bursts must add traffic: {n_bursty} ≤ {n_base}"
        );
        // During the burst the rate is 10×: the first 100 ms of each window
        // carry ~1 tx/ms.
        let in_first_burst = bursty
            .arrivals(1, horizon)
            .iter()
            .filter(|(t, _)| t.as_micros() < 100_000)
            .count();
        assert_eq!(in_first_burst, 100);
    }

    #[test]
    fn diurnal_profile_averages_the_mean_over_full_cycles() {
        let w =
            WorkloadConfig::constant(400).with_profile(ArrivalProfile::Diurnal { period_ms: 500 });
        // Two full cycles: the triangle wave integrates to the mean.
        let arrivals = w.arrivals(3, Duration::from_secs(1));
        let expected = 400;
        let got = arrivals.len() as i64;
        assert!(
            (got - expected).abs() <= 4,
            "diurnal mean drifted: got {got}, expected ≈{expected}"
        );
        // Quiet at the cycle edge, busy at the peak.
        let first_50ms = arrivals
            .iter()
            .filter(|(t, _)| t.as_micros() < 50_000)
            .count();
        let peak_50ms = arrivals
            .iter()
            .filter(|(t, _)| (225_000..275_000).contains(&t.as_micros()))
            .count();
        assert!(peak_50ms > first_50ms * 2, "peak must outpace the trough");
    }

    #[test]
    fn transactions_carry_the_configured_size() {
        let mut w = WorkloadConfig::constant(10);
        w.tx_bytes = 1_024;
        for (_, tx) in w.arrivals(1, Duration::from_secs(1)) {
            assert_eq!(tx.size, 1_024);
        }
        let mut w = w.with_batch_txs(32).with_capacity(64);
        w.max_block_bytes = 4_096;
        let pool_cfg = w.mempool_config();
        assert_eq!(pool_cfg.batch_txs, 32);
        assert_eq!(pool_cfg.max_block_bytes, 4_096);
        assert_eq!(pool_cfg.capacity, 64);
    }

    #[test]
    fn workload_config_round_trips_through_serde() {
        let w = WorkloadConfig::constant(250)
            .with_profile(ArrivalProfile::Diurnal { period_ms: 2_000 });
        let json = serde::json::to_string(&w);
        let back: WorkloadConfig = serde::json::from_str(&json).expect("deserializes");
        assert_eq!(back, w);
    }
}
