//! Simulation time.
//!
//! All simulated components share a single timeline measured in whole seconds
//! since the simulation epoch, which is defined to be **Monday 00:00**. Using
//! whole seconds keeps event ordering exact and hashable; nothing in the
//! reproduced system needs sub-second resolution (the paper's tightest
//! sampling period is one minute).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// Seconds in a minute.
pub const MINUTE: u64 = 60;
/// Seconds in an hour.
pub const HOUR: u64 = 3_600;
/// Seconds in a day.
pub const DAY: u64 = 86_400;

/// An instant on the simulation timeline (seconds since Monday 00:00).
///
/// # Examples
///
/// ```
/// use pmware_world::{SimTime, SimDuration, Weekday};
///
/// let t = SimTime::from_day_time(1, 9, 30, 0); // Tuesday 09:30
/// assert_eq!(t.weekday(), Weekday::Tuesday);
/// assert_eq!(t.hour_of_day(), 9);
/// let later = t + SimDuration::from_minutes(45);
/// assert_eq!(later.minute_of_hour(), 15);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimTime(u64);

/// A span of simulation time in whole seconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimDuration(u64);

/// Day of the week; the simulation epoch is a Monday.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Weekday {
    /// Day 0, 7, 14, …
    Monday,
    /// Day 1, 8, 15, …
    Tuesday,
    /// Day 2, 9, 16, …
    Wednesday,
    /// Day 3, 10, 17, …
    Thursday,
    /// Day 4, 11, 18, …
    Friday,
    /// Day 5, 12, 19, …
    Saturday,
    /// Day 6, 13, 20, …
    Sunday,
}

impl Weekday {
    /// All weekdays, Monday first.
    pub const ALL: [Weekday; 7] = [
        Weekday::Monday,
        Weekday::Tuesday,
        Weekday::Wednesday,
        Weekday::Thursday,
        Weekday::Friday,
        Weekday::Saturday,
        Weekday::Sunday,
    ];

    /// Returns `true` for Saturday and Sunday.
    pub fn is_weekend(self) -> bool {
        matches!(self, Weekday::Saturday | Weekday::Sunday)
    }
}

impl SimTime {
    /// The simulation epoch: Monday 00:00.
    pub const EPOCH: SimTime = SimTime(0);

    /// Creates a time from raw seconds since the epoch.
    pub const fn from_seconds(seconds: u64) -> Self {
        SimTime(seconds)
    }

    /// Creates a time from a day index and a time of day.
    ///
    /// # Panics
    ///
    /// Panics if `hour >= 24`, `minute >= 60`, or `second >= 60`.
    pub fn from_day_time(day: u64, hour: u64, minute: u64, second: u64) -> Self {
        assert!(hour < 24, "hour {hour} out of range");
        assert!(minute < 60, "minute {minute} out of range");
        assert!(second < 60, "second {second} out of range");
        SimTime(day * DAY + hour * HOUR + minute * MINUTE + second)
    }

    /// Seconds since the epoch.
    pub const fn as_seconds(self) -> u64 {
        self.0
    }

    /// Day index since the epoch (day 0 is a Monday).
    pub const fn day(self) -> u64 {
        self.0 / DAY
    }

    /// Seconds elapsed since this day's midnight.
    pub const fn seconds_of_day(self) -> u64 {
        self.0 % DAY
    }

    /// Hour of day, `0..24`.
    pub const fn hour_of_day(self) -> u64 {
        self.seconds_of_day() / HOUR
    }

    /// Minute of hour, `0..60`.
    pub const fn minute_of_hour(self) -> u64 {
        (self.seconds_of_day() % HOUR) / MINUTE
    }

    /// Day of the week.
    pub fn weekday(self) -> Weekday {
        Weekday::ALL[(self.day() % 7) as usize]
    }

    /// Midnight of the day this instant falls on.
    pub const fn midnight(self) -> SimTime {
        SimTime(self.day() * DAY)
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from whole seconds.
    pub const fn from_seconds(seconds: u64) -> Self {
        SimDuration(seconds)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_minutes(minutes: u64) -> Self {
        SimDuration(minutes * MINUTE)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * HOUR)
    }

    /// Creates a duration from whole days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * DAY)
    }

    /// The duration in whole seconds.
    pub const fn as_seconds(self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by a scalar, rounding to whole seconds.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration((self.0 as f64 * factor).round().max(0.0) as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

use std::iter::Sum;

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "day {} {:02}:{:02}:{:02}",
            self.day(),
            self.hour_of_day(),
            self.minute_of_hour(),
            self.seconds_of_day() % MINUTE
        )
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s < MINUTE {
            write!(f, "{s}s")
        } else if s < HOUR {
            write!(f, "{}m{:02}s", s / MINUTE, s % MINUTE)
        } else {
            write!(f, "{}h{:02}m", s / HOUR, (s % HOUR) / MINUTE)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_monday_midnight() {
        assert_eq!(SimTime::EPOCH.weekday(), Weekday::Monday);
        assert_eq!(SimTime::EPOCH.hour_of_day(), 0);
        assert_eq!(SimTime::EPOCH.day(), 0);
    }

    #[test]
    fn day_time_decomposition() {
        let t = SimTime::from_day_time(3, 14, 45, 30);
        assert_eq!(t.day(), 3);
        assert_eq!(t.weekday(), Weekday::Thursday);
        assert_eq!(t.hour_of_day(), 14);
        assert_eq!(t.minute_of_hour(), 45);
        assert_eq!(t.seconds_of_day() % 60, 30);
    }

    #[test]
    #[should_panic(expected = "hour 24 out of range")]
    fn from_day_time_rejects_bad_hour() {
        let _ = SimTime::from_day_time(0, 24, 0, 0);
    }

    #[test]
    fn weekday_cycles_weekly() {
        for day in 0..21 {
            let t = SimTime::from_day_time(day, 12, 0, 0);
            assert_eq!(t.weekday(), Weekday::ALL[(day % 7) as usize]);
        }
        assert!(SimTime::from_day_time(5, 0, 0, 0).weekday().is_weekend());
        assert!(SimTime::from_day_time(6, 0, 0, 0).weekday().is_weekend());
        assert!(!SimTime::from_day_time(7, 0, 0, 0).weekday().is_weekend());
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_day_time(0, 23, 30, 0);
        let later = t + SimDuration::from_hours(1);
        assert_eq!(later.day(), 1);
        assert_eq!(later.hour_of_day(), 0);
        assert_eq!(later - t, SimDuration::from_hours(1));
        // Saturating subtraction below epoch.
        assert_eq!(SimTime::EPOCH - SimDuration::from_hours(5), SimTime::EPOCH);
        assert_eq!(t - later, SimDuration::ZERO);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_seconds(100);
        let b = SimTime::from_seconds(300);
        assert_eq!(b.since(a).as_seconds(), 200);
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_minutes(2).as_seconds(), 120);
        assert_eq!(SimDuration::from_hours(1).as_seconds(), 3_600);
        assert_eq!(SimDuration::from_days(2).as_seconds(), 172_800);
        assert_eq!(SimDuration::from_seconds(90).mul_f64(2.0).as_seconds(), 180);
        assert_eq!(
            SimDuration::from_seconds(10).saturating_sub(SimDuration::from_seconds(20)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_minutes).sum();
        assert_eq!(total, SimDuration::from_minutes(10));
    }

    #[test]
    fn midnight_truncates() {
        let t = SimTime::from_day_time(5, 17, 3, 9);
        assert_eq!(t.midnight(), SimTime::from_day_time(5, 0, 0, 0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            SimTime::from_day_time(2, 9, 5, 7).to_string(),
            "day 2 09:05:07"
        );
        assert_eq!(SimDuration::from_seconds(45).to_string(), "45s");
        assert_eq!(SimDuration::from_seconds(125).to_string(), "2m05s");
        assert_eq!(SimDuration::from_seconds(3_720).to_string(), "1h02m");
    }

    #[test]
    fn ordering_and_hashing_derives() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(SimTime::from_seconds(5));
        set.insert(SimTime::from_seconds(5));
        assert_eq!(set.len(), 1);
        assert!(SimTime::from_seconds(1) < SimTime::from_seconds(2));
    }
}
