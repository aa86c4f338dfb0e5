//! Simulation time: a monotone clock with millisecond resolution.
//!
//! The whole workspace agrees on one time representation so that traces,
//! schedules and billing periods can be compared across crates. Internally
//! both [`SimTime`] (a point on the simulation timeline) and [`SimDuration`]
//! (a span) are a count of **milliseconds**; a millisecond is fine-grained
//! enough for VM migrations (seconds to minutes) and web response times
//! (tens of milliseconds to tens of seconds) while keeping all arithmetic in
//! exact integers — no floating-point clock drift over long runs.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Milliseconds in one second.
pub const MILLIS_PER_SEC: u64 = 1_000;
/// Milliseconds in one minute.
pub const MILLIS_PER_MIN: u64 = 60 * MILLIS_PER_SEC;
/// Milliseconds in one hour.
pub const MILLIS_PER_HOUR: u64 = 60 * MILLIS_PER_MIN;
/// Milliseconds in one (simulated) day.
pub const MILLIS_PER_DAY: u64 = 24 * MILLIS_PER_HOUR;

/// A point on the simulation timeline (milliseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A non-negative span of simulated time (milliseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Builds a time point from raw milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Builds a time point from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * MILLIS_PER_SEC)
    }

    /// Builds a time point from whole minutes.
    #[inline]
    pub const fn from_mins(m: u64) -> Self {
        SimTime(m * MILLIS_PER_MIN)
    }

    /// Builds a time point from whole hours.
    #[inline]
    pub const fn from_hours(h: u64) -> Self {
        SimTime(h * MILLIS_PER_HOUR)
    }

    /// Raw milliseconds since the simulation epoch.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float (loses sub-ms nothing: exact).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_SEC as f64
    }

    /// Whole minutes since the epoch (truncating).
    #[inline]
    pub const fn as_mins(self) -> u64 {
        self.0 / MILLIS_PER_MIN
    }

    /// Whole hours since the epoch (truncating).
    #[inline]
    pub const fn as_hours(self) -> u64 {
        self.0 / MILLIS_PER_HOUR
    }

    /// Hours since the epoch as a float; handy for diurnal load curves.
    #[inline]
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_HOUR as f64
    }

    /// The time-of-day component in `[0, 24)` hours, used by workload
    /// generators to evaluate diurnal profiles.
    #[inline]
    pub fn hour_of_day(self) -> f64 {
        (self.0 % MILLIS_PER_DAY) as f64 / MILLIS_PER_HOUR as f64
    }

    /// Zero-based index of the simulated day this instant falls in.
    #[inline]
    pub const fn day_index(self) -> u64 {
        self.0 / MILLIS_PER_DAY
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a span from raw milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Builds a span from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * MILLIS_PER_SEC)
    }

    /// Builds a span from a float number of seconds (rounded to ms,
    /// clamped at zero).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * MILLIS_PER_SEC as f64).round() as u64)
    }

    /// Builds a span from whole minutes.
    #[inline]
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * MILLIS_PER_MIN)
    }

    /// Builds a span from whole hours.
    #[inline]
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * MILLIS_PER_HOUR)
    }

    /// Builds a span from whole days.
    #[inline]
    pub const fn from_days(d: u64) -> Self {
        SimDuration(d * MILLIS_PER_DAY)
    }

    /// Raw milliseconds.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// The span in seconds as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_SEC as f64
    }

    /// The span in hours as a float (used for watt-hour integration).
    #[inline]
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_HOUR as f64
    }

    /// True when the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Integer number of `tick`-sized steps contained in this span
    /// (truncating). Panics on a zero tick, which is always a config bug.
    #[inline]
    pub fn ticks(self, tick: SimDuration) -> u64 {
        assert!(tick.0 > 0, "tick duration must be positive");
        self.0 / tick.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration((self.0 as f64 * rhs.max(0.0)).round() as u64)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{self}")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0;
        let d = ms / MILLIS_PER_DAY;
        let h = (ms % MILLIS_PER_DAY) / MILLIS_PER_HOUR;
        let m = (ms % MILLIS_PER_HOUR) / MILLIS_PER_MIN;
        let s = (ms % MILLIS_PER_MIN) / MILLIS_PER_SEC;
        let rem = ms % MILLIS_PER_SEC;
        if rem == 0 {
            write!(f, "{d}d{h:02}:{m:02}:{s:02}")
        } else {
            write!(f, "{d}d{h:02}:{m:02}:{s:02}.{rem:03}")
        }
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(MILLIS_PER_HOUR) && self.0 > 0 {
            write!(f, "{}h", self.0 / MILLIS_PER_HOUR)
        } else if self.0.is_multiple_of(MILLIS_PER_MIN) && self.0 > 0 {
            write!(f, "{}min", self.0 / MILLIS_PER_MIN)
        } else if self.0.is_multiple_of(MILLIS_PER_SEC) {
            write!(f, "{}s", self.0 / MILLIS_PER_SEC)
        } else {
            write!(f, "{}ms", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(60), SimTime::from_mins(1));
        assert_eq!(SimTime::from_mins(60), SimTime::from_hours(1));
        assert_eq!(SimDuration::from_hours(24), SimDuration::from_days(1));
    }

    #[test]
    fn add_sub_roundtrip() {
        let t = SimTime::from_mins(10) + SimDuration::from_secs(30);
        assert_eq!(t.as_millis(), 10 * MILLIS_PER_MIN + 30 * MILLIS_PER_SEC);
        assert_eq!(t - SimTime::from_mins(10), SimDuration::from_secs(30));
    }

    #[test]
    fn sub_saturates() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(5);
        assert_eq!(early - late, SimDuration::ZERO);
        assert_eq!(late - early, SimDuration::from_secs(4));
    }

    #[test]
    fn hour_of_day_wraps() {
        let t = SimTime::from_hours(25);
        assert!((t.hour_of_day() - 1.0).abs() < 1e-12);
        assert_eq!(t.day_index(), 1);
    }

    #[test]
    fn duration_float_conversions() {
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d.as_millis(), 1500);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_mins(10);
        assert_eq!(d * 3, SimDuration::from_mins(30));
        assert_eq!(d / 2, SimDuration::from_mins(5));
        assert_eq!(d * 0.5, SimDuration::from_mins(5));
    }

    #[test]
    fn display_formats() {
        let t = SimTime::from_hours(26) + SimDuration::from_secs(61);
        assert_eq!(format!("{t}"), "1d02:01:01");
        assert_eq!(format!("{}", SimDuration::from_mins(90)), "90min");
        assert_eq!(format!("{}", SimDuration::from_hours(2)), "2h");
        assert_eq!(format!("{}", SimDuration::from_millis(250)), "250ms");
    }

    #[test]
    fn ticks_counts_steps() {
        assert_eq!(
            SimDuration::from_hours(1).ticks(SimDuration::from_mins(10)),
            6
        );
        assert_eq!(
            SimDuration::from_mins(25).ticks(SimDuration::from_mins(10)),
            2
        );
    }
}
