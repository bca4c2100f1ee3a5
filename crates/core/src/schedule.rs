//! Leader schedules.
//!
//! Each pacemaker family uses a different mapping from views to leaders:
//!
//! * LP22 (Section 3.2): `lead(v) = v mod n` — one view per leader,
//! * Fever / Basic Lumiere (Sections 3.3–3.4): `lead(v) = ⌊v/2⌋ mod n` —
//!   two consecutive views per leader,
//! * Lumiere (Section 4): two consecutive views per leader, ordered by a
//!   permutation that alternates with its reverse every `2n` views so that
//!   the last leader of every epoch equals the first leader of the next
//!   (the footnote-2 property).

use lumiere_types::{ProcessId, View};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;

/// A deterministic mapping from views to leaders.
///
/// A clone is O(1): the only table, Lumiere's permutation, is shared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaderSchedule {
    /// `lead(v) = v mod n` (LP22).
    RoundRobin {
        /// Number of processors.
        n: usize,
    },
    /// `lead(v) = ⌊v/2⌋ mod n` (Fever, Basic Lumiere): each leader gets two
    /// consecutive views.
    HalfRoundRobin {
        /// Number of processors.
        n: usize,
    },
    /// Lumiere's schedule (Section 4): within each window of `2n` views the
    /// leaders follow a fixed permutation (two consecutive views each);
    /// alternate windows use the reversed permutation, which guarantees that
    /// the leader of the last view of window `k` equals the leader of the
    /// first view of window `k+1` — in particular the last leader of every
    /// epoch equals the first leader of the next epoch.
    PairedReverse {
        /// The base permutation of processor indices, shared by every
        /// replica built from one cluster's configuration.
        order: Arc<[ProcessId]>,
    },
}

impl LeaderSchedule {
    /// LP22's round-robin schedule.
    pub fn round_robin(n: usize) -> Self {
        assert!(n > 0);
        LeaderSchedule::RoundRobin { n }
    }

    /// Fever's / Basic Lumiere's two-views-per-leader round robin.
    pub fn half_round_robin(n: usize) -> Self {
        assert!(n > 0);
        LeaderSchedule::HalfRoundRobin { n }
    }

    /// Lumiere's paired-reverse schedule over a seeded random permutation.
    pub fn lumiere(n: usize, seed: u64) -> Self {
        assert!(n > 0);
        let mut order: Arc<[ProcessId]> = ProcessId::all(n).collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x004c_756d_6965_7265_u64);
        Arc::get_mut(&mut order)
            .expect("a fresh order has one owner")
            .shuffle(&mut rng);
        LeaderSchedule::PairedReverse { order }
    }

    /// Number of processors covered by the schedule.
    pub fn n(&self) -> usize {
        match self {
            LeaderSchedule::RoundRobin { n } | LeaderSchedule::HalfRoundRobin { n } => *n,
            LeaderSchedule::PairedReverse { order } => order.len(),
        }
    }

    /// The leader of view `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is negative (the sentinel view has no leader).
    pub fn leader(&self, view: View) -> ProcessId {
        let v = view.as_i64();
        assert!(v >= 0, "the sentinel view has no leader");
        match self {
            LeaderSchedule::RoundRobin { n } => ProcessId::new((v as usize) % n),
            LeaderSchedule::HalfRoundRobin { n } => ProcessId::new(((v / 2) as usize) % n),
            LeaderSchedule::PairedReverse { order } => {
                let n = order.len() as i64;
                let window = v / (2 * n);
                let idx = (v / 2) % n;
                if window % 2 == 0 {
                    order[idx as usize]
                } else {
                    order[(n - 1 - idx) as usize]
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles_through_everyone() {
        let s = LeaderSchedule::round_robin(4);
        let leaders: Vec<_> = (0..8).map(|v| s.leader(View::new(v)).as_usize()).collect();
        assert_eq!(leaders, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn half_round_robin_gives_two_consecutive_views() {
        let s = LeaderSchedule::half_round_robin(3);
        let leaders: Vec<_> = (0..8).map(|v| s.leader(View::new(v)).as_usize()).collect();
        assert_eq!(leaders, vec![0, 0, 1, 1, 2, 2, 0, 0]);
    }

    #[test]
    fn lumiere_schedule_gives_each_leader_two_consecutive_views() {
        let s = LeaderSchedule::lumiere(5, 3);
        for v in (0..200).step_by(2) {
            assert_eq!(
                s.leader(View::new(v)),
                s.leader(View::new(v + 1)),
                "views {v} and {} must share a leader",
                v + 1
            );
        }
    }

    #[test]
    fn lumiere_schedule_is_fair_within_a_window() {
        let n = 7;
        let s = LeaderSchedule::lumiere(n, 11);
        let mut counts = vec![0usize; n];
        for v in 0..(2 * n as i64) {
            counts[s.leader(View::new(v)).as_usize()] += 1;
        }
        assert!(
            counts.iter().all(|&c| c == 2),
            "each leader twice: {counts:?}"
        );
    }

    #[test]
    fn lumiere_schedule_has_matching_epoch_boundaries() {
        // The property required by footnote 2: the last leader of epoch e is
        // the first leader of epoch e+1, where an epoch is 10n views.
        for n in [4usize, 5, 7, 10, 13] {
            let s = LeaderSchedule::lumiere(n, 42);
            let epoch_len = 10 * n as i64;
            for e in 0..6i64 {
                let last = View::new(epoch_len * (e + 1) - 1);
                let first_next = View::new(epoch_len * (e + 1));
                assert_eq!(
                    s.leader(last),
                    s.leader(first_next),
                    "n={n}, epoch {e}: boundary leaders must match"
                );
            }
        }
    }

    #[test]
    fn window_boundaries_always_chain() {
        // Stronger property of the paired-reverse construction: every 2n-view
        // window ends with the leader that starts the next window.
        let n = 6;
        let s = LeaderSchedule::lumiere(n, 5);
        let window = 2 * n as i64;
        for k in 0..20i64 {
            assert_eq!(
                s.leader(View::new(window * (k + 1) - 1)),
                s.leader(View::new(window * (k + 1)))
            );
        }
    }

    #[test]
    fn seeds_change_the_permutation_but_not_the_structure() {
        let a = LeaderSchedule::lumiere(10, 1);
        let b = LeaderSchedule::lumiere(10, 2);
        assert_ne!(a, b);
        assert_eq!(a.n(), 10);
    }

    #[test]
    #[should_panic(expected = "no leader")]
    fn sentinel_view_has_no_leader() {
        LeaderSchedule::round_robin(4).leader(View::SENTINEL);
    }
}
