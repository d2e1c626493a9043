//! Instants and durations with microsecond resolution.
//!
//! Rivulet's protocol logic is written against virtual time so that the
//! discrete-event simulator can run experiments deterministically. The
//! live (threaded) driver maps [`Time`] to microseconds elapsed since
//! driver start-up, so the same protocol code runs unchanged on wall
//! clocks.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use crate::wire::{Wire, WireError, WireReader, WireWriter};

/// A span of time with microsecond resolution.
///
/// A thin wrapper over a `u64` count of microseconds; unlike
/// [`std::time::Duration`] it is `Copy`-cheap to encode on the wire and
/// supports the saturating arithmetic the protocol code needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from whole microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        Self(micros)
    }

    /// Creates a duration from whole milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        Self(millis * 1_000)
    }

    /// Creates a duration from whole seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        Self(secs * 1_000_000)
    }

    /// Returns the duration as whole microseconds.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration as whole milliseconds (truncating).
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the duration as fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns `self * factor`, saturating at `u64::MAX` microseconds.
    #[must_use]
    pub fn saturating_mul(self, factor: u64) -> Self {
        Self(self.0.saturating_mul(factor))
    }

    /// Integer division of durations, yielding how many times `other`
    /// fits into `self`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is [`Duration::ZERO`].
    #[must_use]
    pub fn div_duration(self, other: Duration) -> u64 {
        assert!(other.0 != 0, "division by zero-length duration");
        self.0 / other.0
    }

    /// Scales the duration by a non-negative float, rounding to the
    /// nearest microsecond.
    #[must_use]
    pub fn mul_f64(self, factor: f64) -> Self {
        debug_assert!(factor >= 0.0, "negative duration scale");
        Self((self.0 as f64 * factor).round() as u64)
    }

    /// Converts to a [`std::time::Duration`] for use by the live driver.
    #[must_use]
    pub fn to_std(self) -> std::time::Duration {
        std::time::Duration::from_micros(self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == 0 {
            write!(f, "0s")
        } else if self.0.is_multiple_of(1_000_000) {
            write!(f, "{}s", self.0 / 1_000_000)
        } else if self.0.is_multiple_of(1_000) {
            write!(f, "{}ms", self.0 / 1_000)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

impl From<std::time::Duration> for Duration {
    fn from(d: std::time::Duration) -> Self {
        Self(u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
    }
}

impl Add for Duration {
    type Output = Duration;

    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;

    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Wire for Duration {
    fn encode(&self, w: &mut WireWriter) {
        self.0.encode(w);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self(u64::decode(r)?))
    }
}

/// An instant of time: microseconds elapsed since the start of the run.
///
/// Under the simulator this is virtual time; under the live driver it
/// is wall-clock time since driver start. All protocol timestamps
/// (event emission, keep-alive deadlines, polling slots) use this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The origin of the run.
    pub const ZERO: Time = Time(0);

    /// The latest representable instant; useful as an "infinite"
    /// deadline sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates an instant from microseconds since the origin.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        Self(micros)
    }

    /// Creates an instant from milliseconds since the origin.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        Self(millis * 1_000)
    }

    /// Creates an instant from seconds since the origin.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        Self(secs * 1_000_000)
    }

    /// Microseconds since the origin.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since the origin (truncating).
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional seconds since the origin.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Time elapsed from `earlier` to `self`, or [`Duration::ZERO`] if
    /// `earlier` is later than `self`.
    #[must_use]
    pub fn duration_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the instant `d` after `self`, saturating at [`Time::MAX`].
    #[must_use]
    pub fn saturating_add(self, d: Duration) -> Time {
        Time(self.0.saturating_add(d.as_micros()))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl Add<Duration> for Time {
    type Output = Time;

    fn add(self, rhs: Duration) -> Time {
        self.saturating_add(rhs)
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Time> for Time {
    type Output = Duration;

    fn sub(self, rhs: Time) -> Duration {
        self.duration_since(rhs)
    }
}

impl Wire for Time {
    fn encode(&self, w: &mut WireWriter) {
        self.0.encode(w);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self(u64::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::roundtrip;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_secs(2), Duration::from_millis(2_000));
        assert_eq!(Duration::from_millis(3), Duration::from_micros(3_000));
        assert_eq!(Duration::from_secs(1).as_micros(), 1_000_000);
    }

    #[test]
    fn duration_arithmetic() {
        let a = Duration::from_millis(500);
        let b = Duration::from_millis(250);
        assert_eq!(a + b, Duration::from_millis(750));
        assert_eq!(a - b, Duration::from_millis(250));
        assert_eq!(b - a, Duration::ZERO, "subtraction saturates");
        assert_eq!(a.saturating_mul(4), Duration::from_secs(2));
        assert_eq!(
            Duration::from_secs(10).div_duration(Duration::from_secs(3)),
            3
        );
    }

    #[test]
    fn duration_mul_f64_rounds() {
        assert_eq!(
            Duration::from_micros(10).mul_f64(0.25),
            Duration::from_micros(3)
        );
        assert_eq!(
            Duration::from_secs(1).mul_f64(1.5),
            Duration::from_millis(1_500)
        );
    }

    #[test]
    #[should_panic(expected = "division by zero-length duration")]
    fn div_by_zero_duration_panics() {
        let _ = Duration::from_secs(1).div_duration(Duration::ZERO);
    }

    #[test]
    fn time_arithmetic() {
        let t = Time::from_secs(24);
        assert_eq!(t + Duration::from_secs(3), Time::from_secs(27));
        assert_eq!(Time::from_secs(27) - t, Duration::from_secs(3));
        assert_eq!(t - Time::from_secs(30), Duration::ZERO, "elapsed saturates");
        assert_eq!(Time::MAX + Duration::from_secs(1), Time::MAX);
    }

    #[test]
    fn display_picks_natural_unit() {
        assert_eq!(Duration::ZERO.to_string(), "0s");
        assert_eq!(Duration::from_secs(2).to_string(), "2s");
        assert_eq!(Duration::from_millis(20).to_string(), "20ms");
        assert_eq!(Duration::from_micros(7).to_string(), "7us");
        assert_eq!(Time::from_millis(1_500).to_string(), "t=1.500000s");
    }

    #[test]
    fn std_duration_conversion() {
        let d: Duration = std::time::Duration::from_millis(42).into();
        assert_eq!(d, Duration::from_millis(42));
        assert_eq!(d.to_std(), std::time::Duration::from_millis(42));
    }

    #[test]
    fn wire_roundtrip_time() {
        roundtrip(&Time::from_micros(123_456_789));
        roundtrip(&Duration::from_micros(u64::MAX));
    }
}
