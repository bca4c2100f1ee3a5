//! Pausable, bumpable local clocks.
//!
//! Section 2 of the paper: every processor maintains a local clock value
//! `lc(p)`, initially 0, that advances in real time after GST except while
//! paused, and that the protocol may *bump* forward (never backward).

use lumiere_types::{Duration, Time};

/// A processor's local clock.
///
/// The clock stores the reading it had at an *anchor* instant of real
/// (simulated) time and whether it is paused; the current reading is derived
/// from the anchor, so queries never mutate state.
///
/// ```
/// use lumiere_core::LocalClock;
/// use lumiere_types::{Duration, Time};
///
/// let mut clock = LocalClock::new(Time::ZERO);
/// assert_eq!(clock.reading(Time::from_millis(5)), Duration::from_millis(5));
/// clock.pause(Time::from_millis(5));
/// assert_eq!(clock.reading(Time::from_millis(9)), Duration::from_millis(5));
/// clock.unpause(Time::from_millis(9));
/// clock.bump_to(Duration::from_millis(20), Time::from_millis(10));
/// assert_eq!(clock.reading(Time::from_millis(10)), Duration::from_millis(20));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalClock {
    reading_at_anchor: Duration,
    anchor: Time,
    paused: bool,
}

impl LocalClock {
    /// Creates a clock reading 0 at `now`.
    pub fn new(now: Time) -> Self {
        LocalClock {
            reading_at_anchor: Duration::ZERO,
            anchor: now,
            paused: false,
        }
    }

    /// The current reading at real time `now`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `now` precedes the last anchor — the
    /// simulator always presents non-decreasing times.
    pub fn reading(&self, now: Time) -> Duration {
        debug_assert!(now >= self.anchor, "time went backwards");
        if self.paused {
            self.reading_at_anchor
        } else {
            self.reading_at_anchor + (now - self.anchor)
        }
    }

    /// Pauses the clock at `now`. Pausing an already-paused clock is a
    /// no-op.
    pub fn pause(&mut self, now: Time) {
        if !self.paused {
            self.reading_at_anchor = self.reading(now);
            self.anchor = now;
            self.paused = true;
        }
    }

    /// Unpauses the clock at `now`. Unpausing a running clock is a no-op.
    pub fn unpause(&mut self, now: Time) {
        if self.paused {
            self.anchor = now;
            self.paused = false;
        }
    }

    /// Bumps the clock forward to `target` if its reading is currently
    /// lower; never moves the clock backwards. Returns `true` if the reading
    /// changed. The paused/running state is preserved.
    pub fn bump_to(&mut self, target: Duration, now: Time) -> bool {
        if self.reading(now) < target {
            self.reading_at_anchor = target;
            self.anchor = now;
            true
        } else {
            false
        }
    }

    /// The real time at which the reading will first equal `target`, given
    /// no further pauses or bumps. Returns `None` if the clock is paused and
    /// has not yet reached `target`.
    pub fn real_time_at(&self, target: Duration, now: Time) -> Option<Time> {
        let current = self.reading(now);
        if current >= target {
            Some(now)
        } else if self.paused {
            None
        } else {
            Some(now + (target - current))
        }
    }

    /// The real time at which the reading next reaches a multiple of
    /// `period` above the current one: the wake-up grid a pacemaker's
    /// clock-driven triggers sit on. `None` while the clock is paused.
    pub fn next_tick(&self, period: Duration, now: Time) -> Option<Time> {
        if self.paused {
            return None;
        }
        let period = period.as_micros();
        let target = (self.reading(now).as_micros() / period + 1) * period;
        self.real_time_at(Duration::from_micros(target), now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn advances_in_real_time_when_running() {
        let clock = LocalClock::new(Time::from_millis(2));
        assert_eq!(clock.reading(Time::from_millis(2)), Duration::ZERO);
        assert_eq!(
            clock.reading(Time::from_millis(12)),
            Duration::from_millis(10)
        );
    }

    #[test]
    fn pause_freezes_and_unpause_resumes() {
        let mut clock = LocalClock::new(Time::ZERO);
        clock.pause(Time::from_millis(3));
        assert!(clock.paused);
        assert_eq!(
            clock.reading(Time::from_millis(10)),
            Duration::from_millis(3)
        );
        clock.unpause(Time::from_millis(10));
        assert_eq!(
            clock.reading(Time::from_millis(14)),
            Duration::from_millis(7)
        );
    }

    #[test]
    fn double_pause_and_double_unpause_are_no_ops() {
        let mut clock = LocalClock::new(Time::ZERO);
        clock.pause(Time::from_millis(1));
        clock.pause(Time::from_millis(5));
        assert_eq!(
            clock.reading(Time::from_millis(9)),
            Duration::from_millis(1)
        );
        clock.unpause(Time::from_millis(9));
        clock.unpause(Time::from_millis(12));
        assert_eq!(
            clock.reading(Time::from_millis(12)),
            Duration::from_millis(4)
        );
    }

    #[test]
    fn bump_only_moves_forward() {
        let mut clock = LocalClock::new(Time::ZERO);
        assert!(clock.bump_to(Duration::from_millis(10), Time::from_millis(2)));
        assert_eq!(
            clock.reading(Time::from_millis(2)),
            Duration::from_millis(10)
        );
        // Bumping to a smaller target does nothing.
        assert!(!clock.bump_to(Duration::from_millis(4), Time::from_millis(3)));
        assert_eq!(
            clock.reading(Time::from_millis(3)),
            Duration::from_millis(11)
        );
    }

    #[test]
    fn bump_preserves_paused_state() {
        let mut clock = LocalClock::new(Time::ZERO);
        clock.pause(Time::from_millis(1));
        clock.bump_to(Duration::from_millis(8), Time::from_millis(4));
        assert!(clock.paused);
        assert_eq!(
            clock.reading(Time::from_millis(20)),
            Duration::from_millis(8)
        );
    }

    #[test]
    fn real_time_at_accounts_for_pause() {
        let mut clock = LocalClock::new(Time::ZERO);
        assert_eq!(
            clock.real_time_at(Duration::from_millis(7), Time::from_millis(2)),
            Some(Time::from_millis(7))
        );
        clock.pause(Time::from_millis(2));
        assert_eq!(
            clock.real_time_at(Duration::from_millis(7), Time::from_millis(2)),
            None
        );
        // Already reached targets are "now" even when paused.
        assert_eq!(
            clock.real_time_at(Duration::from_millis(1), Time::from_millis(3)),
            Some(Time::from_millis(3))
        );
    }

    proptest! {
        /// The wake-up grid is the formula each pacemaker wrote out before
        /// it was shared: the next even multiple of Γ (Fever, Basic Lumiere,
        /// Lumiere: a period of 2Γ) or the next multiple of Γ (LP22), above
        /// the reading, negative readings included; and no wake-up while the
        /// clock is paused.
        #[test]
        fn next_tick_is_each_pacemakers_old_grid(
            reading in -10_000_000i64..10_000_000,
            gamma in 1i64..100_000,
            at in 0i64..1_000_000,
        ) {
            let now = Time::from_micros(at);
            let mut clock = LocalClock {
                reading_at_anchor: Duration::from_micros(reading),
                anchor: now,
                paused: false,
            };
            let fever = Duration::from_micros(2 * (reading / (2 * gamma) + 1) * gamma);
            let lp22 = Duration::from_micros((reading / gamma + 1) * gamma);
            let grid = Duration::from_micros(gamma);
            for (period, target) in [(grid * 2, fever), (grid, lp22)] {
                prop_assert!(target > clock.reading(now));
                prop_assert_eq!(clock.next_tick(period, now), clock.real_time_at(target, now));
            }
            clock.pause(now);
            prop_assert_eq!(clock.next_tick(grid * 2, now), None);
            prop_assert_eq!(clock.next_tick(grid, now), None);
        }

        /// The core monotonicity invariant used throughout the correctness
        /// proof (Lemma 5.2): the clock never runs backwards, no matter the
        /// interleaving of pauses, unpauses and bumps.
        #[test]
        fn clock_is_monotone(ops in proptest::collection::vec((0u8..4, 0i64..1000), 1..60)) {
            let mut clock = LocalClock::new(Time::ZERO);
            let mut now = Time::ZERO;
            let mut last = Duration::ZERO;
            for (op, arg) in ops {
                now += Duration::from_micros(arg);
                match op {
                    0 => clock.pause(now),
                    1 => clock.unpause(now),
                    2 => { clock.bump_to(Duration::from_micros(arg * 7), now); }
                    _ => {}
                }
                let reading = clock.reading(now);
                prop_assert!(reading >= last, "clock went backwards: {last} -> {reading}");
                last = reading;
            }
        }
    }
}
