//! Core identifiers, time representation, view/epoch arithmetic and protocol
//! parameters shared by every crate in the Lumiere reproduction.
//!
//! The types in this crate are deliberately small, `Copy` where possible, and
//! free of protocol logic: they exist so that the crypto substrate, the
//! consensus engine, the pacemakers and the simulator all agree on what a
//! *processor*, a *view*, an *epoch* and a *point in simulated time* are.
//!
//! # Paper mapping
//!
//! Section 2 of the paper (the model): `n` processors of which `f < n/3` may
//! be Byzantine ([`Params`]), views `v` with clock time `c_v = Γ·v` and the
//! sentinel view `-1` of Algorithm 1 ([`View`]), epochs as contiguous view
//! batches ([`Epoch`], [`view::EpochLayout`]), the known delay bound Δ and
//! partial-synchrony GST ([`Duration`], [`Time`]). All simulated time is
//! integer microseconds, so every measurement in the Table 1 reports is
//! exact.
//!
//! # Example
//!
//! ```
//! use lumiere_types::{Params, ProcessId, View, Duration};
//!
//! let params = Params::new(7, Duration::from_millis(50));
//! assert_eq!(params.f, 2);
//! assert_eq!(params.quorum(), 5);
//! assert!(params.gamma() > Duration::ZERO);
//! let v = View::new(12);
//! assert!(v.is_initial());
//! assert_eq!(ProcessId::new(3).as_usize(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod hash;
pub mod id;
pub mod memo;
pub mod params;
pub mod runs;
pub mod slash;
pub mod stake;
pub mod time;
pub mod tx;
pub mod view;
pub mod wire;

pub use error::{Error, Result};
pub use id::ProcessId;
pub use memo::Memo;
pub use params::{Params, DEFAULT_VIEW_ROUNDS};
pub use slash::SlashEvidence;
pub use stake::StakeTable;
pub use time::{Duration, Time, TimeRange};
pub use tx::{Batch, Transaction, TxId, TxRun};
pub use view::{Epoch, View};
pub use wire::{Reader, Wire, WireError};

/// Nearest-rank percentile over an ascending-sorted sample:
/// `percentile(s, 50)` is the median, `percentile(s, 100)` the maximum, and
/// an empty sample reads as `T::default()`. The simulator's and the live
/// driver's latency percentiles both come from here, so the two report
/// alike.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: u64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (sorted.len() as u64 * p)
        .div_ceil(100)
        .clamp(1, sorted.len() as u64);
    sorted[rank as usize - 1]
}

/// The nearest-rank p50, p95 and p99 of `samples`, each what [`percentile`]
/// reads off them sorted, found by three selections instead of a sort: p99
/// first, then p95 among the samples up to it, then p50 among those up to
/// p95. Reorders `samples`.
pub fn p50_p95_p99<T: Copy + Default + Ord>(samples: &mut [T]) -> [T; 3] {
    let len = samples.len() as u64;
    if len == 0 {
        return [T::default(); 3];
    }
    let mut end = samples.len();
    let [p99, p95, p50] = [99, 95, 50].map(|p| {
        let k = ((len * p).div_ceil(100).clamp(1, len) - 1) as usize;
        let at = *samples[..end].select_nth_unstable(k).1;
        end = k + 1;
        at
    });
    [p50, p95, p99]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank_on_sorted_samples() {
        assert_eq!(percentile::<Duration>(&[], 50), Duration::ZERO);
        let one = [Duration::from_millis(5)];
        assert_eq!(percentile(&one, 1), Duration::from_millis(5));
        assert_eq!(percentile(&one, 100), Duration::from_millis(5));
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&ms, 50), Duration::from_millis(50));
        assert_eq!(percentile(&ms, 95), Duration::from_millis(95));
        assert_eq!(percentile(&ms, 99), Duration::from_millis(99));
    }

    fn sorted_percentiles(mut samples: Vec<Duration>) -> [Duration; 3] {
        samples.sort_unstable();
        [50, 95, 99].map(|p| percentile(&samples, p))
    }

    #[test]
    fn three_selections_read_what_the_sort_reads_on_edge_samples() {
        let ms = Duration::from_millis;
        for samples in [
            vec![],
            vec![ms(5)],
            vec![ms(3); 40],
            (1..=100).rev().map(ms).collect(),
        ] {
            let want = sorted_percentiles(samples.clone());
            assert_eq!(p50_p95_p99(&mut samples.clone()), want, "{samples:?}");
        }
    }

    proptest::proptest! {
        #[test]
        fn three_selections_read_what_the_sort_reads(
            micros in proptest::collection::vec(0..2_000i64, 0..300),
        ) {
            let samples: Vec<Duration> = micros.into_iter().map(Duration::from_micros).collect();
            let want = sorted_percentiles(samples.clone());
            proptest::prop_assert_eq!(p50_p95_p99(&mut samples.clone()), want);
        }
    }
}
