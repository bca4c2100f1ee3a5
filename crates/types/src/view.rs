//! Views and epochs.
//!
//! Views are numbered by signed integers so that the sentinel view `-1`
//! used by Algorithm 1 ("`view(p)`, initially -1") is representable. The
//! *clock time* associated with view `v ≥ 0` is `c_v := Γ·v`; negative views
//! have no clock time.

use crate::time::Duration;
use crate::wire::{put_i64, Reader, Wire, WireError};
use serde::{Deserialize, Serialize};
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
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
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

    /// Iterates over all views in `[self, end)`.
    pub fn range_to(self, end: View) -> impl Iterator<Item = View> {
        (self.0..end.0).map(View)
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

    /// Position of `view` within its epoch (`0..epoch_len`).
    pub fn offset_in_epoch(&self, view: View) -> u64 {
        assert!(view.as_i64() >= 0, "sentinel view has no epoch offset");
        (view.as_i64() % self.epoch_len as i64) as u64
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
        assert_eq!(layout.offset_in_epoch(View::new(17)), 1);
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
    fn view_range_iterates_half_open() {
        let views: Vec<_> = View::new(2).range_to(View::new(5)).collect();
        assert_eq!(views, vec![View::new(2), View::new(3), View::new(4)]);
    }

    #[test]
    fn sentinel_relationships() {
        assert_eq!(View::SENTINEL.next(), View::ZERO);
        assert_eq!(Epoch::SENTINEL.next(), Epoch::ZERO);
        assert_eq!(Epoch::ZERO.prev(), Epoch::SENTINEL);
    }
}
