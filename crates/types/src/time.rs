//! Simulated time.
//!
//! All protocols in this workspace run against a discrete-event simulator, so
//! time is represented as an integer number of **microseconds** since the
//! start of the execution. Using integers keeps the simulation fully
//! deterministic and makes equality comparisons (which the paper's
//! pseudocode relies on, e.g. "upon `lc(p) == c_v`") exact.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// An absolute point in simulated time (microseconds since the start of the
/// execution).
///
/// ```
/// use lumiere_types::{Time, Duration};
/// let t = Time::ZERO + Duration::from_millis(3);
/// assert_eq!(t.as_micros(), 3_000);
/// assert_eq!(t - Time::ZERO, Duration::from_millis(3));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Time(i64);

/// A span of simulated time (microseconds).
///
/// Durations are signed so that clock arithmetic (gaps, offsets) never
/// silently underflows; protocol code asserts non-negativity where required.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Duration(i64);

impl Time {
    /// The origin of simulated time.
    pub const ZERO: Time = Time(0);
    /// A time later than any time reachable in practice by the simulator.
    pub const MAX: Time = Time(i64::MAX / 4);

    /// Creates a time from a microsecond count.
    pub const fn from_micros(micros: i64) -> Self {
        Time(micros)
    }

    /// Creates a time from a millisecond count.
    pub const fn from_millis(millis: i64) -> Self {
        Time(millis * 1_000)
    }

    /// Returns the number of microseconds since the origin.
    pub const fn as_micros(self) -> i64 {
        self.0
    }

    /// Returns the time as fractional milliseconds (for reports).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Duration elapsed since `earlier` (may be negative if `earlier` is in
    /// the future).
    pub fn since(self, earlier: Time) -> Duration {
        Duration(self.0 - earlier.0)
    }

    /// The later of two times.
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// The earlier of two times.
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }

    /// Quantizes the time **down** to the nearest multiple of `grid`
    /// (identity for a non-positive grid). Used by the simulator's
    /// sampling-based metrics at large `n`.
    ///
    /// ```
    /// use lumiere_types::{Time, Duration};
    /// let grid = Duration::from_millis(2);
    /// assert_eq!(Time::from_millis(7).quantize_down(grid), Time::from_millis(6));
    /// assert_eq!(Time::from_millis(6).quantize_down(grid), Time::from_millis(6));
    /// assert_eq!(Time::from_millis(7).quantize_down(Duration::ZERO), Time::from_millis(7));
    /// ```
    pub fn quantize_down(self, grid: Duration) -> Time {
        let g = grid.as_micros();
        if g <= 0 {
            return self;
        }
        Time(self.0.div_euclid(g) * g)
    }
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from microseconds.
    pub const fn from_micros(micros: i64) -> Self {
        Duration(micros)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: i64) -> Self {
        Duration(millis * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: i64) -> Self {
        Duration(secs * 1_000_000)
    }

    /// Returns the duration in microseconds.
    pub const fn as_micros(self) -> i64 {
        self.0
    }

    /// Returns the duration as fractional milliseconds (for reports).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The larger of two durations.
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }

    /// Saturating conversion to a non-negative duration.
    pub fn clamp_non_negative(self) -> Duration {
        Duration(self.0.max(0))
    }
}

/// A half-open window of simulated time `[from, until)`.
///
/// Used by adversary schedules (crash/recovery windows, time-targeted delay
/// rules). An empty window (`until ≤ from`) contains no instant at all;
/// [`TimeRange::always`] spans every reachable simulated time.
///
/// ```
/// use lumiere_types::{Time, TimeRange};
/// let w = TimeRange::new(Time::from_millis(10), Time::from_millis(20));
/// assert!(w.contains(Time::from_millis(10)));
/// assert!(!w.contains(Time::from_millis(20)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TimeRange {
    /// First instant inside the window.
    pub from: Time,
    /// First instant after the window.
    pub until: Time,
}

impl TimeRange {
    /// Creates the window `[from, until)`.
    pub const fn new(from: Time, until: Time) -> Self {
        TimeRange { from, until }
    }

    /// The window containing every reachable simulated time.
    pub const fn always() -> Self {
        TimeRange {
            from: Time::ZERO,
            until: Time::MAX,
        }
    }

    /// Whether `t` falls inside the window.
    pub fn contains(self, t: Time) -> bool {
        self.from <= t && t < self.until
    }

    /// Whether the window contains no instant at all.
    pub fn is_empty(self) -> bool {
        self.until <= self.from
    }

    /// The length of the window (zero for empty windows).
    pub fn length(self) -> Duration {
        (self.until - self.from).clamp_non_negative()
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Time {
    type Output = Time;
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, rhs: Time) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<i64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: i64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<i64> for Duration {
    type Output = Duration;
    fn div(self, rhs: i64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Neg for Duration {
    type Output = Duration;
    fn neg(self) -> Duration {
        Duration(-self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_duration_arithmetic() {
        let t0 = Time::from_millis(10);
        let d = Duration::from_millis(5);
        assert_eq!(t0 + d, Time::from_millis(15));
        assert_eq!((t0 + d) - t0, d);
        assert_eq!(t0 - d, Time::from_millis(5));
        assert_eq!(t0.since(Time::ZERO), Duration::from_millis(10));
    }

    #[test]
    fn duration_scaling() {
        let d = Duration::from_millis(2);
        assert_eq!(d * 3, Duration::from_millis(6));
        assert_eq!(Duration::from_millis(6) / 3, d);
        assert_eq!(-d, Duration::from_micros(-2000));
        assert_eq!((-d).clamp_non_negative(), Duration::ZERO);
    }

    #[test]
    fn conversions() {
        assert_eq!(Duration::from_secs(1).as_micros(), 1_000_000);
        assert_eq!(Time::from_millis(1).as_micros(), 1_000);
        assert!((Duration::from_millis(1).as_millis_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn min_max() {
        let a = Time::from_millis(1);
        let b = Time::from_millis(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(
            Duration::from_millis(1).max(Duration::from_millis(2)),
            Duration::from_millis(2)
        );
        assert_eq!(
            Duration::from_millis(1).min(Duration::from_millis(2)),
            Duration::from_millis(1)
        );
    }

    #[test]
    fn display_renders_milliseconds() {
        assert_eq!(Time::from_millis(2).to_string(), "2.000ms");
        assert_eq!(Duration::from_micros(1500).to_string(), "1.500ms");
    }

    #[test]
    fn time_ranges_are_half_open() {
        let w = TimeRange::new(Time::from_millis(5), Time::from_millis(8));
        assert!(w.contains(Time::from_millis(5)));
        assert!(w.contains(Time::from_millis(7)));
        assert!(!w.contains(Time::from_millis(8)));
        assert!(!w.contains(Time::from_millis(4)));
        assert!(!w.is_empty());
        assert_eq!(w.length(), Duration::from_millis(3));
    }

    #[test]
    fn empty_and_always_windows() {
        let empty = TimeRange::new(Time::from_millis(5), Time::from_millis(5));
        assert!(empty.is_empty());
        assert!(!empty.contains(Time::from_millis(5)));
        assert_eq!(empty.length(), Duration::ZERO);
        let backwards = TimeRange::new(Time::from_millis(9), Time::from_millis(3));
        assert!(backwards.is_empty());
        assert_eq!(backwards.length(), Duration::ZERO);
        let always = TimeRange::always();
        assert!(always.contains(Time::ZERO));
        assert!(always.contains(Time::from_millis(1_000_000)));
    }
}
