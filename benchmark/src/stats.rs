//! The estimators every timing in the benchmark goes through.
//!
//! Interference on a shared machine only ever *adds* time to a deterministic
//! unit of work, so the low end of a run's unit times is the signal and the
//! rest is the machine. [`fast5`] — the mean of the five fastest units — is
//! the one estimator end-to-end wall-clock metrics are derived from; median,
//! p90 and mean are reported as diagnostics only (see `README.md`, "Method").

/// Units discarded at the start of every run (allocator, caches and branch
/// predictors settle within the first few).
pub const WARMUP_UNITS: usize = 10;

/// How many of the fastest samples [`fast5`] averages.
pub const FAST_K: usize = 5;

/// Mean of the [`FAST_K`] smallest samples (of all of them when fewer).
pub fn fast5(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let k = FAST_K.min(sorted.len()).max(1);
    sorted.iter().take(k).sum::<f64>() / k as f64
}

/// Indices of the [`FAST_K`] smallest samples, fastest first.
pub fn fastest_indices(samples: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..samples.len()).collect();
    order.sort_unstable_by(|&a, &b| samples[a].total_cmp(&samples[b]));
    order.truncate(FAST_K);
    order
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0.0 when
/// empty.
pub fn percentile(samples: &[f64], p: u32) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = (sorted.len() * p as usize)
        .div_ceil(100)
        .clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `num / den`, defined as 0.0 on an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Arithmetic mean; 0.0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Median with the midpoint rule for even counts (what Python's
/// `statistics.median` returns, so `selfcheck` agrees with the driver).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)`
/// (exclusive method) — the spread the driver holds each metric's bound
/// against.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |k: usize| {
        // Exclusive method: position k·(n+1)/4 on a 1-based axis, clamped
        // to the data like CPython does (which extrapolates at the ends).
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    let mid = median(&sorted);
    if mid == 0.0 {
        return 0.0;
    }
    (quartile(3) - quartile(1)) / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast5_is_the_mean_of_the_five_smallest() {
        let v = [9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0];
        assert_eq!(fast5(&v), 3.0);
        assert_eq!(fast5(&[4.0, 2.0]), 3.0);
        assert_eq!(fastest_indices(&v), vec![1, 3, 5, 7, 8]);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert!((quartile_spread(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0; 10]), 0.0);
    }

    #[test]
    fn percentile_and_median_follow_their_rules() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 50), 2.0);
        assert_eq!(percentile(&v, 90), 4.0);
        assert_eq!(percentile(&[], 50), 0.0);
    }
}
