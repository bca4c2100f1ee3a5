//! Views and epochs.
//!
//! Views are numbered by signed integers so that the sentinel view `-1`
//! used by Algorithm 1 ("`view(p)`, initially -1") is representable. The
//! *clock time* associated with view `v ≥ 0` is `c_v := Γ·v`; negative views
//! have no clock time.

use crate::time::Duration;
use crate::wire::{put_i64, Reader, Wire, WireError};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// A view number.
///
/// ```
/// use lumiere_types::View;
/// let v = View::new(6);
/// assert!(v.is_initial());
/// assert!(!v.next().is_initial());
/// assert_eq!(v.next().prev(), v);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct View(i64);

/// An epoch number (a contiguous batch of views; the batch length is a
/// protocol parameter, see [`crate::Params`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Epoch(i64);

impl View {
    /// The sentinel "no view entered yet" value used by Algorithm 1.
    pub const SENTINEL: View = View(-1);
    /// View zero, the first real view of the execution.
    pub const ZERO: View = View(0);

    /// Creates a view from its number.
    pub const fn new(v: i64) -> Self {
        View(v)
    }

    /// Returns the raw view number.
    pub const fn as_i64(self) -> i64 {
        self.0
    }

    /// The following view.
    pub const fn next(self) -> View {
        View(self.0 + 1)
    }

    /// The preceding view.
    pub const fn prev(self) -> View {
        View(self.0 - 1)
    }

    /// Whether the view is *initial* in the sense of Fever / Lumiere
    /// (Section 3.3/3.4): even views are initial, odd views are non-initial
    /// "grace period" views.
    pub const fn is_initial(self) -> bool {
        self.0 >= 0 && self.0 % 2 == 0
    }

    /// The clock time `c_v = Γ · v` associated with this view.
    ///
    /// # Panics
    ///
    /// Panics if the view is negative (the sentinel has no clock time).
    pub fn clock_time(self, gamma: Duration) -> Duration {
        assert!(self.0 >= 0, "negative view {self} has no clock time");
        gamma * self.0
    }
}

/// Wire form: the signed view number (8 bytes), so the `-1` sentinel
/// travels as itself.
impl Wire for View {
    fn encoded_len(&self) -> usize {
        8
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_i64(out, self.0);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.i64("View").map(View)
    }
}

impl Epoch {
    /// The sentinel "no epoch entered yet" value used by Algorithm 1.
    pub const SENTINEL: Epoch = Epoch(-1);
    /// Epoch zero.
    pub const ZERO: Epoch = Epoch(0);

    /// Creates an epoch from its number.
    pub const fn new(e: i64) -> Self {
        Epoch(e)
    }

    /// Returns the raw epoch number.
    pub const fn as_i64(self) -> i64 {
        self.0
    }

    /// The following epoch.
    pub const fn next(self) -> Epoch {
        Epoch(self.0 + 1)
    }

    /// The preceding epoch.
    pub const fn prev(self) -> Epoch {
        Epoch(self.0 - 1)
    }

    /// First view of this epoch, `V(e) = e · epoch_len` (defined for `e ≥ 0`).
    pub fn first_view(self, epoch_len: u64) -> View {
        View(self.0 * epoch_len as i64)
    }
}

/// Epoch arithmetic for a fixed epoch length.
///
/// The paper uses three different epoch lengths: `f+1` views (LP22),
/// `2(f+1)` views (Basic Lumiere) and `10n` views (full Lumiere). This helper
/// centralises the `V(e)` / `E(v)` maps so each protocol gets consistent
/// arithmetic.
///
/// ```
/// use lumiere_types::view::EpochLayout;
/// use lumiere_types::{Epoch, View};
/// let layout = EpochLayout::new(10);
/// assert_eq!(layout.first_view(Epoch::new(2)), View::new(20));
/// assert_eq!(layout.epoch_of(View::new(25)), Epoch::new(2));
/// assert!(layout.is_epoch_view(View::new(30)));
/// assert!(!layout.is_epoch_view(View::new(31)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochLayout {
    epoch_len: u64,
}

impl EpochLayout {
    /// Creates a layout with `epoch_len` views per epoch.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_len == 0`.
    pub fn new(epoch_len: u64) -> Self {
        assert!(epoch_len > 0, "epoch length must be positive");
        EpochLayout { epoch_len }
    }

    /// Number of views per epoch.
    pub fn epoch_len(&self) -> u64 {
        self.epoch_len
    }

    /// `V(e)`: the first view of epoch `e`.
    pub fn first_view(&self, epoch: Epoch) -> View {
        epoch.first_view(self.epoch_len)
    }

    /// The last view of epoch `e`.
    pub fn last_view(&self, epoch: Epoch) -> View {
        View::new(self.first_view(epoch.next()).as_i64() - 1)
    }

    /// `E(v)`: the epoch to which view `v` belongs (floor division, defined
    /// for `v ≥ 0`; the sentinel view `-1` maps to the sentinel epoch `-1`).
    pub fn epoch_of(&self, view: View) -> Epoch {
        if view.as_i64() < 0 {
            return Epoch::SENTINEL;
        }
        Epoch::new(view.as_i64().div_euclid(self.epoch_len as i64))
    }

    /// Whether `v` is the first view of some epoch (an *epoch view*).
    pub fn is_epoch_view(&self, view: View) -> bool {
        view.as_i64() >= 0 && view.as_i64() % self.epoch_len as i64 == 0
    }

    /// The first epoch view strictly greater than `view`.
    pub fn next_epoch_view_after(&self, view: View) -> View {
        let e = self.epoch_of(View::new(view.as_i64().max(-1)));
        if view.as_i64() < 0 {
            return View::ZERO;
        }
        self.first_view(e.next())
    }
}

/// One record per view (or per epoch), reached by offset from a base rather
/// than by hashing the view number.
///
/// The records sit in one contiguous run starting at `base`; a view below
/// the base or past the end has no record. [`ViewWindow::get`] never grows
/// the run, so it is safe on any number a peer names;
/// [`ViewWindow::get_or_insert`] extends the run up to the requested view and
/// is for views this processor's own progress has reached — its clock, or a
/// certificate it has **verified** — which never run further ahead than
/// honest clocks have. Whatever a single peer can name (pools of
/// individual messages, parked proposals) belongs in an ordered map keyed by
/// view instead, where a far-future view costs one entry.
///
/// The base is the horizon below which nothing is kept: a lookup under it
/// answers "no record" and an insert under it is refused.
/// [`ViewWindow::prune_below`] advances it, dropping the records it passes.
///
/// ```
/// use lumiere_types::view::ViewWindow;
/// let mut flags: ViewWindow<bool> = ViewWindow::new(0);
/// *flags.get_or_insert(3).unwrap() = true;
/// assert_eq!(flags.len(), 4);
/// assert_eq!(flags.get(3), Some(&true));
/// assert_eq!(flags.get(2), Some(&false));
/// assert_eq!(flags.get(i64::MAX), None);
/// assert!(flags.get_or_insert(-1).is_none());
/// flags.prune_below(3);
/// assert_eq!((flags.base(), flags.len(), flags.get(2)), (3, 1, None));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewWindow<T> {
    base: i64,
    slots: VecDeque<T>,
}

impl<T: Default> ViewWindow<T> {
    /// An empty window whose first record, once inserted, is `base`'s.
    pub fn new(base: i64) -> Self {
        ViewWindow {
            base,
            slots: VecDeque::new(),
        }
    }

    /// The horizon: the lowest index a record may exist for.
    pub fn base(&self) -> i64 {
        self.base
    }

    /// Number of records held (`base..base + len`).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no record has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Offset of `index` from the base; `None` below the base or when the
    /// distance does not fit the address space.
    fn offset(&self, index: i64) -> Option<usize> {
        usize::try_from(index.checked_sub(self.base)?).ok()
    }

    /// The record of `index`, if one exists. Never grows the window.
    pub fn get(&self, index: i64) -> Option<&T> {
        self.slots.get(self.offset(index)?)
    }

    /// Mutable access to the record of `index`, if one exists. Never grows
    /// the window.
    pub fn get_mut(&mut self, index: i64) -> Option<&mut T> {
        let offset = self.offset(index)?;
        self.slots.get_mut(offset)
    }

    /// The record of `index`, first extending the window with default
    /// records up to it. `None` below the base. See the type's
    /// documentation for which indices may be passed here.
    pub fn get_or_insert(&mut self, index: i64) -> Option<&mut T> {
        let offset = self.offset(index)?;
        if offset >= self.slots.len() {
            self.slots.resize_with(offset.checked_add(1)?, T::default);
        }
        self.slots.get_mut(offset)
    }

    /// Advances the base to `index`, dropping every record below it; an
    /// `index` at or below the base changes nothing. Once a quarter or less
    /// of the allocation is in use it shrinks to twice what is, so a window
    /// that was long once does not stay that size. Costs the records
    /// dropped, amortised, not the ones kept.
    pub fn prune_below(&mut self, index: i64) {
        let Some(offset) = self.offset(index) else {
            return;
        };
        self.slots.drain(..offset.min(self.slots.len()));
        if self.slots.len() < self.slots.capacity() / 4 {
            self.slots.shrink_to(2 * self.slots.len());
        }
        self.base = index;
    }

    /// Every record with its index, in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (i64, &T)> {
        (self.base..).zip(&self.slots)
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_views_are_even() {
        assert!(View::new(0).is_initial());
        assert!(!View::new(1).is_initial());
        assert!(View::new(2).is_initial());
        assert!(!View::SENTINEL.is_initial());
    }

    #[test]
    fn clock_time_scales_with_gamma() {
        let gamma = Duration::from_millis(10);
        assert_eq!(View::new(0).clock_time(gamma), Duration::ZERO);
        assert_eq!(View::new(3).clock_time(gamma), Duration::from_millis(30));
    }

    #[test]
    #[should_panic(expected = "no clock time")]
    fn sentinel_clock_time_panics() {
        let _ = View::SENTINEL.clock_time(Duration::from_millis(1));
    }

    #[test]
    fn epoch_layout_maps_views_and_epochs() {
        let layout = EpochLayout::new(8);
        assert_eq!(layout.first_view(Epoch::new(0)), View::new(0));
        assert_eq!(layout.first_view(Epoch::new(3)), View::new(24));
        assert_eq!(layout.last_view(Epoch::new(3)), View::new(31));
        assert_eq!(layout.epoch_of(View::new(0)), Epoch::new(0));
        assert_eq!(layout.epoch_of(View::new(7)), Epoch::new(0));
        assert_eq!(layout.epoch_of(View::new(8)), Epoch::new(1));
        assert_eq!(layout.epoch_of(View::SENTINEL), Epoch::SENTINEL);
        assert!(layout.is_epoch_view(View::new(16)));
        assert!(!layout.is_epoch_view(View::new(17)));
    }

    #[test]
    fn next_epoch_view_after_is_strictly_greater() {
        let layout = EpochLayout::new(5);
        assert_eq!(layout.next_epoch_view_after(View::SENTINEL), View::new(0));
        assert_eq!(layout.next_epoch_view_after(View::new(0)), View::new(5));
        assert_eq!(layout.next_epoch_view_after(View::new(4)), View::new(5));
        assert_eq!(layout.next_epoch_view_after(View::new(5)), View::new(10));
    }

    #[test]
    fn a_window_grows_only_through_get_or_insert() {
        let mut w: ViewWindow<u8> = ViewWindow::new(0);
        assert!(w.is_empty());
        // Reads and `get_mut` leave it empty, whatever they name.
        for index in [0, 5, -1, i64::MAX, i64::MIN] {
            assert_eq!(w.get(index), None);
            assert!(w.get_mut(index).is_none());
        }
        assert!(w.is_empty());
        // Own progress: inserting view 5 creates 0..=5, defaults elsewhere.
        *w.get_or_insert(5).unwrap() = 9;
        assert_eq!(w.len(), 6);
        assert_eq!(w.get(5), Some(&9));
        assert_eq!(w.get(4), Some(&0));
        // An earlier view is already there: no growth, same record.
        *w.get_or_insert(2).unwrap() = 7;
        assert_eq!(w.len(), 6);
        *w.get_mut(2).unwrap() += 1;
        assert_eq!(w.get(2), Some(&8));
        // One past the end is absent until inserted.
        assert_eq!(w.get(6), None);
        assert!(w.get_mut(6).is_none());
        assert_eq!(w.len(), 6);
        let held: Vec<(i64, u8)> = w.iter().map(|(i, v)| (i, *v)).collect();
        assert_eq!(held, vec![(0, 0), (1, 0), (2, 8), (3, 0), (4, 0), (5, 9)]);
    }

    #[test]
    fn a_window_refuses_everything_below_its_base() {
        let mut w: ViewWindow<u8> = ViewWindow::new(0);
        for index in [-1, -2, i64::MIN] {
            assert!(w.get_or_insert(index).is_none());
        }
        assert!(w.is_empty());
        // A base of -1 gives the sentinel view a record of its own, at
        // offset zero.
        let mut w: ViewWindow<u8> = ViewWindow::new(View::SENTINEL.as_i64());
        *w.get_or_insert(-1).unwrap() = 1;
        assert_eq!(w.len(), 1);
        *w.get_or_insert(0).unwrap() = 2;
        assert_eq!((w.get(-1), w.get(0), w.get(-2)), (Some(&1), Some(&2), None));
    }

    #[test]
    fn pruning_advances_the_base_and_never_moves_it_back() {
        let mut w: ViewWindow<u8> = ViewWindow::new(0);
        for i in 0..6 {
            *w.get_or_insert(i).unwrap() = i as u8;
        }
        w.prune_below(4);
        assert_eq!((w.base(), w.len()), (4, 2));
        let held: Vec<(i64, u8)> = w.iter().map(|(i, v)| (i, *v)).collect();
        assert_eq!(held, vec![(4, 4), (5, 5)]);
        // Below the new base: no record, and none may be made.
        assert_eq!(w.get(3), None);
        assert!(w.get_or_insert(3).is_none());
        // A lower or equal horizon is a no-op.
        w.prune_below(1);
        w.prune_below(4);
        assert_eq!((w.base(), w.len()), (4, 2));
        // Past the end: the window empties and starts over at the horizon.
        w.prune_below(9);
        assert_eq!((w.base(), w.len()), (9, 0));
        *w.get_or_insert(10).unwrap() = 1;
        assert_eq!((w.get(9), w.get(10)), (Some(&0), Some(&1)));
    }

    #[test]
    fn window_offsets_are_checked_not_cast() {
        // `i64::MAX - (-1)` overflows; `i64::MIN - 1` overflows the other
        // way; a huge in-range distance is simply past the end.
        let mut w: ViewWindow<u8> = ViewWindow::new(-1);
        w.get_or_insert(3);
        for index in [i64::MAX, i64::MAX - 1, 1 << 40, i64::MIN] {
            assert_eq!(w.get(index), None);
            assert!(w.get_mut(index).is_none());
        }
        let mut w: ViewWindow<u8> = ViewWindow::new(1);
        assert_eq!(w.get(i64::MIN), None);
        assert!(w.get_or_insert(i64::MIN).is_none());
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn sentinel_relationships() {
        assert_eq!(View::SENTINEL.next(), View::ZERO);
        assert_eq!(Epoch::SENTINEL.next(), Epoch::ZERO);
        assert_eq!(Epoch::ZERO.prev(), Epoch::SENTINEL);
    }
}
