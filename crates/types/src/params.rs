//! Protocol parameters.

use crate::stake::StakeTable;
use crate::time::Duration;
use crate::view::EpochLayout;

/// The number of network round trips (`x` in Section 2, ⋄1) the underlying
/// protocol needs to complete a view once synchronized: with the chained
/// HotStuff-style engine used in this reproduction a view takes at most three
/// message delays (proposal, votes, QC broadcast), so `x = 3`.
pub const DEFAULT_VIEW_ROUNDS: u32 = 3;

/// System-wide protocol parameters.
///
/// `n` is the number of processors, `f = ⌊(n-1)/3⌋` the maximum number of
/// Byzantine processors tolerated, `delta_cap` the known message-delay bound
/// Δ of the partial synchrony model, and `x` the number of message delays the
/// underlying protocol needs to finish a view (⋄1 in Section 2).
///
/// The per-protocol view duration Γ is derived from these values exactly as
/// in the paper:
///
/// * LP22: `Γ = (x+1)·Δ` (Section 3.2),
/// * Fever / Basic Lumiere: `Γ = 2(x+1)·Δ` (Section 3.3),
/// * Lumiere: `Γ = 2(x+2)·Δ` (Sections 3.5 and 4).
///
/// # Example
///
/// ```
/// use lumiere_types::{Params, Duration};
/// let p = Params::new(10, Duration::from_millis(20));
/// assert_eq!(p.f, 3);
/// assert_eq!(p.quorum(), 7);
/// assert_eq!(p.small_quorum(), 4);
/// assert_eq!(p.gamma(), Duration::from_millis(20) * 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Number of processors.
    pub n: usize,
    /// Maximum number of Byzantine processors tolerated, `⌊(n-1)/3⌋`.
    pub f: usize,
    /// The known bound Δ on message delay after GST.
    pub delta_cap: Duration,
    /// Number of message delays a view needs once synchronized (`x ≥ 2`).
    pub view_rounds: u32,
}

impl Params {
    /// Creates parameters for an `n`-processor system with message-delay
    /// bound `delta_cap`, using [`DEFAULT_VIEW_ROUNDS`] for `x`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` (at least one fault must be tolerable) or if
    /// `delta_cap` is not strictly positive.
    pub fn new(n: usize, delta_cap: Duration) -> Self {
        Self::with_view_rounds(n, delta_cap, DEFAULT_VIEW_ROUNDS)
    }

    /// Creates parameters with an explicit `x` (the ⋄1 view-completion
    /// factor).
    ///
    /// # Panics
    ///
    /// Panics if `n < 4`, `delta_cap <= 0`, or `view_rounds < 2`.
    pub fn with_view_rounds(n: usize, delta_cap: Duration, view_rounds: u32) -> Self {
        assert!(n >= 4, "need at least 4 processors, got {n}");
        assert!(
            delta_cap > Duration::ZERO,
            "the delay bound Δ must be positive"
        );
        assert!(view_rounds >= 2, "the paper requires x >= 2");
        Params {
            n,
            f: (n - 1) / 3,
            delta_cap,
            view_rounds,
        }
    }

    /// The quorum size `2f + 1` used for QCs and ECs.
    pub fn quorum(&self) -> usize {
        2 * self.f + 1
    }

    /// The small quorum size `f + 1` used for VCs and TCs.
    pub fn small_quorum(&self) -> usize {
        self.f + 1
    }

    /// The table certificate tallies count distinct signers against: the
    /// `n` processors, so thresholds are the paper's processor counts.
    /// Allocation-free, so it is cheap to call on every aggregation and
    /// verification.
    pub fn stakes(&self) -> StakeTable {
        StakeTable::uniform(self.n)
    }

    /// Lumiere's view duration `Γ = 2(x+2)·Δ` (Section 4).
    pub fn gamma(&self) -> Duration {
        self.delta_cap * (2 * (self.view_rounds as i64 + 2))
    }

    /// Fever's / Basic Lumiere's view duration `Γ = 2(x+1)·Δ` (Section 3.3).
    pub fn fever_gamma(&self) -> Duration {
        self.delta_cap * (2 * (self.view_rounds as i64 + 1))
    }

    /// LP22's view duration `Γ = (x+1)·Δ` (Section 3.2).
    pub fn lp22_gamma(&self) -> Duration {
        self.delta_cap * (self.view_rounds as i64 + 1)
    }

    /// The deadline slack for Lumiere leaders: an honest leader only produces
    /// a QC for view `v` if it can do so within `Γ/2 − 2Δ` of sending the VC
    /// for `v` (or of producing the previous QC when `v` is non-initial).
    pub fn leader_qc_window(&self) -> Duration {
        self.gamma() / 2 - self.delta_cap * 2
    }

    /// Epoch layout for full Lumiere: `10n` views per epoch (Section 4).
    pub fn lumiere_epoch_layout(&self) -> EpochLayout {
        EpochLayout::new(10 * self.n as u64)
    }

    /// Epoch layout for Basic Lumiere: `2(f+1)` views per epoch (Section 3.4).
    pub fn basic_lumiere_epoch_layout(&self) -> EpochLayout {
        EpochLayout::new(2 * (self.f as u64 + 1))
    }

    /// Epoch layout for LP22: `f+1` views per epoch (Section 3.2).
    pub fn lp22_epoch_layout(&self) -> EpochLayout {
        EpochLayout::new(self.f as u64 + 1)
    }

    /// Number of QCs a single leader must produce within an epoch for the
    /// Lumiere success criterion (each leader gets 10 views per epoch).
    pub fn success_qcs_per_leader(&self) -> u8 {
        10
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_threshold_is_floor_n_minus_one_over_three() {
        assert_eq!(Params::new(4, Duration::from_millis(1)).f, 1);
        assert_eq!(Params::new(6, Duration::from_millis(1)).f, 1);
        assert_eq!(Params::new(7, Duration::from_millis(1)).f, 2);
        assert_eq!(Params::new(10, Duration::from_millis(1)).f, 3);
        assert_eq!(Params::new(100, Duration::from_millis(1)).f, 33);
    }

    #[test]
    fn quorums_follow_f() {
        let p = Params::new(10, Duration::from_millis(1));
        assert_eq!(p.quorum(), 7);
        assert_eq!(p.small_quorum(), 4);
    }

    #[test]
    fn stake_table_counts_the_n_processors() {
        let p = Params::new(10, Duration::from_millis(1));
        assert_eq!(p.stakes(), StakeTable::uniform(10));
        assert_eq!(p.stakes().n(), 10);
    }

    #[test]
    fn gammas_match_paper_formulas() {
        let delta = Duration::from_millis(10);
        let p = Params::with_view_rounds(7, delta, 3);
        assert_eq!(p.gamma(), delta * 10); // 2(x+2)Δ
        assert_eq!(p.fever_gamma(), delta * 8); // 2(x+1)Δ
        assert_eq!(p.lp22_gamma(), delta * 4); // (x+1)Δ
        assert_eq!(p.leader_qc_window(), delta * 3); // Γ/2 − 2Δ
    }

    #[test]
    fn epoch_layouts_match_paper_lengths() {
        let p = Params::new(7, Duration::from_millis(1));
        assert_eq!(p.lumiere_epoch_layout().epoch_len(), 70);
        assert_eq!(p.basic_lumiere_epoch_layout().epoch_len(), 6);
        assert_eq!(p.lp22_epoch_layout().epoch_len(), 3);
    }

    #[test]
    fn leader_qc_window_is_positive_for_x_at_least_two() {
        for x in 2..8 {
            let p = Params::with_view_rounds(7, Duration::from_millis(5), x);
            assert!(p.leader_qc_window() > Duration::ZERO);
        }
    }

    #[test]
    #[should_panic(expected = "at least 4 processors")]
    fn rejects_tiny_systems() {
        let _ = Params::new(3, Duration::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "x >= 2")]
    fn rejects_small_x() {
        let _ = Params::with_view_rounds(4, Duration::from_millis(1), 1);
    }
}
