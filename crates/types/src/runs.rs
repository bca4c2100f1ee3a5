//! An exact set of 64-bit ids, held as runs of consecutive ids.
//!
//! Transaction ids come from counters — the simulator's workload adds `k` to
//! a per-seed base, the live driver puts its node id in the high bits and a
//! counter below — and a FIFO mempool admits and commits them in order. A
//! set of such ids is a handful of runs `[start, end]`, one per submitter,
//! however many ids it holds: a run's `end` is a watermark that stands for
//! every id from its `start` up, as deets' `committed_slot` does for slots
//! (SNIPPETS.md #3).
//!
//! [`IdRuns`] keeps its runs disjoint and never adjacent: an insert that
//! fills the gap between two runs merges them. It never forgets an id. The
//! highest run is held outside the tree, so an id inside it or just above it
//! costs two compares; every other id costs one B-tree search (about 20 ns
//! even on a one-entry map, which is why the top run is held apart). Ids in
//! no order at all cost one run per gap, one tree entry each: no worse than
//! one hash-table entry per id, and nothing is hashed, so there is no table
//! for a peer to flood.

use std::collections::BTreeMap;

/// A set of `u64` ids as disjoint, non-adjacent inclusive runs.
#[derive(Debug, Clone, Default)]
pub struct IdRuns {
    /// Every run but the highest, `start → end`.
    below: BTreeMap<u64, u64>,
    /// The highest run, `(start, end)`; `None` while the set is empty.
    top: Option<(u64, u64)>,
}

impl IdRuns {
    /// The empty set.
    pub fn new() -> Self {
        IdRuns::default()
    }

    /// Whether `id` is in the set.
    #[inline]
    pub fn contains(&self, id: u64) -> bool {
        match self.top {
            Some((start, end)) if id >= start => id <= end,
            Some(_) => self
                .below
                .range(..=id)
                .next_back()
                .is_some_and(|(_, &end)| id <= end),
            None => false,
        }
    }

    /// Adds `id`; returns whether it was absent.
    #[inline]
    pub fn insert(&mut self, id: u64) -> bool {
        match self.top {
            None => {
                self.top = Some((id, id));
                true
            }
            Some((start, end)) if id >= start => {
                if id <= end {
                    return false;
                }
                if id == end + 1 {
                    self.top = Some((start, id));
                } else {
                    self.below.insert(start, end);
                    self.top = Some((id, id));
                }
                true
            }
            Some((top_start, _)) => self.insert_below(id, top_start),
        }
    }

    /// [`IdRuns::insert`] of an id below the top run, which starts at
    /// `top_start > id`.
    fn insert_below(&mut self, id: u64, top_start: u64) -> bool {
        let prev = self.below.range(..=id).next_back().map(|(&s, &e)| (s, e));
        // `end < id` below, and `id < top_start`, so no `+ 1` overflows.
        let start = match prev {
            Some((_, end)) if id <= end => return false,
            Some((start, end)) if end + 1 == id => start,
            _ => id,
        };
        let next_start = self
            .below
            .range(id + 1..)
            .next()
            .map_or(top_start, |(&s, _)| s);
        if next_start != id + 1 {
            self.below.insert(start, id);
        } else if next_start == top_start {
            if start < id {
                self.below.remove(&start);
            }
            self.top = self.top.map(|(_, end)| (start, end));
        } else {
            let end = self.below.remove(&next_start).expect("the next run");
            self.below.insert(start, end);
        }
        true
    }

    /// The highest id held, if any.
    #[inline]
    pub fn last(&self) -> Option<u64> {
        self.top.map(|(_, end)| end)
    }

    /// Adds every id from `start` to `end` inclusive, all of them above
    /// every id held (`start` above [`IdRuns::last`], `start <= end`): one
    /// compare, and one new run only if `start` leaves a gap.
    #[inline]
    pub fn append_run(&mut self, start: u64, end: u64) {
        debug_assert!(start <= end && self.last().is_none_or(|last| start > last));
        self.top = match self.top {
            // `top_end < start`, so the `+ 1` cannot overflow.
            Some((top_start, top_end)) if top_end + 1 == start => Some((top_start, end)),
            Some((top_start, top_end)) => {
                self.below.insert(top_start, top_end);
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }

    /// The number of runs held: the set's size in memory, in entries.
    pub fn runs(&self) -> usize {
        self.below.len() + usize::from(self.top.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The number of maximal runs of consecutive ids in `model`.
    fn model_runs(model: &BTreeSet<u64>) -> usize {
        model
            .iter()
            .filter(|&&id| id == 0 || !model.contains(&(id - 1)))
            .count()
    }

    /// One step of a model check.
    enum Op {
        Insert(u64),
        /// [`IdRuns::append_run`] of `len + 1` ids starting `gap` above
        /// the highest id held; skipped where that passes `u64::MAX`.
        Append {
            gap: u64,
            len: u64,
        },
    }

    /// Inserts `ids` into both sides; see [`check_ops`].
    fn check(ids: impl IntoIterator<Item = u64>) {
        check_ops(ids.into_iter().map(Op::Insert));
    }

    /// Applies `ops` to both sides, checking every return value (an
    /// appended id must be absent from the model), then `contains` for each
    /// id the model holds and for both its neighbours, `last`, and the run
    /// count.
    fn check_ops(ops: impl IntoIterator<Item = Op>) {
        let mut set = IdRuns::new();
        let mut model = BTreeSet::new();
        for op in ops {
            match op {
                Op::Insert(id) => {
                    prop_assert_eq!(set.insert(id), model.insert(id), "insert {}", id);
                }
                Op::Append { gap, len } => {
                    let start = set
                        .last()
                        .map_or(Some(gap), |last| last.checked_add(1 + gap));
                    let Some((start, end)) = start.and_then(|s| Some((s, s.checked_add(len)?)))
                    else {
                        continue;
                    };
                    set.append_run(start, end);
                    for id in start..=end {
                        prop_assert!(model.insert(id), "append {}..={} holds {}", start, end, id);
                    }
                }
            }
            for &known in &model {
                for probe in [known.wrapping_sub(1), known, known.wrapping_add(1)] {
                    prop_assert_eq!(
                        set.contains(probe),
                        model.contains(&probe),
                        "contains {}",
                        probe
                    );
                }
            }
            prop_assert_eq!(set.last(), model.last().copied());
            prop_assert_eq!(set.runs(), model_runs(&model));
        }
    }

    proptest! {
        /// Ids near a random base (gaps that fill, inserts just below the
        /// top run, repeats), near both ends of the id space, descending
        /// runs, scattered ids and runs appended above the highest id (next
        /// to it or past a gap, and cut off near `u64::MAX`), interleaved.
        #[test]
        fn runs_match_a_btreeset_model(
            ops in proptest::collection::vec((0u8..7, 0u64..24, any::<u64>()), 1..120),
            base in any::<u64>(),
        ) {
            let ops = ops.into_iter().enumerate().map(|(step, (shape, near, wild))| {
                match shape {
                    0 | 1 => Op::Insert(base.wrapping_add(near)),
                    2 => Op::Insert(near),
                    3 => Op::Insert(u64::MAX - near),
                    // Counting down from the base's neighbourhood.
                    4 => Op::Insert(base.wrapping_add(48).wrapping_sub(step as u64)),
                    5 => Op::Insert(wild),
                    _ => Op::Append { gap: near % 3, len: wild % 6 },
                }
            });
            check_ops(ops);
        }
    }

    #[test]
    fn both_ends_of_the_id_space() {
        check([u64::MAX, 0, u64::MAX - 1, 1, u64::MAX, 0]);
        let mut set = IdRuns::new();
        for id in [u64::MAX - 2, u64::MAX, u64::MAX - 1] {
            assert!(set.insert(id));
        }
        assert_eq!(set.runs(), 1);
        assert!(set.contains(u64::MAX) && !set.contains(u64::MAX - 3));
    }

    #[test]
    fn a_filled_gap_merges_two_runs() {
        let mut set = IdRuns::new();
        for id in [10, 11, 13, 14, 20, 21] {
            set.insert(id);
        }
        assert_eq!(set.runs(), 3);
        // Between two runs below the top.
        assert!(set.insert(12));
        assert_eq!(set.runs(), 2);
        // Between the tree and the top run, by extending each side.
        for id in [15, 16, 17, 19, 18] {
            assert!(set.insert(id));
        }
        assert_eq!(set.runs(), 1);
        assert!((10..=21).all(|id| set.contains(id)));
        assert!(!set.contains(9) && !set.contains(22));
    }

    #[test]
    fn in_order_ids_stay_one_run_and_descending_ones_merge() {
        let mut up = IdRuns::new();
        assert!((0..10_000).all(|id| up.insert(id)));
        assert_eq!(up.runs(), 1);
        let mut down = IdRuns::new();
        assert!((0..1_000).rev().all(|id| down.insert(id)));
        assert_eq!(down.runs(), 1);
        assert!(!down.insert(500));
    }

    #[test]
    fn interleaved_counters_cost_one_run_each() {
        let mut set = IdRuns::new();
        for k in 0..1_000u64 {
            for node in 1..=4u64 {
                assert!(set.insert((node << 40) | k));
            }
        }
        assert_eq!(set.runs(), 4);
        assert!(set.contains((2 << 40) | 999) && !set.contains((2 << 40) | 1_000));
    }
}
