//! Simulation time: a nanosecond-resolution monotonic clock.
//!
//! All timing in the reproduction is expressed in [`SimTime`] instants and
//! [`SimDuration`] spans. Nanosecond resolution comfortably covers the
//! paper's regime: sub-microsecond switch decisions (§2.1) up to the
//! month-scale 32-bit millisecond timestamp wraparound (§4.2).

use core::ops::{Add, AddAssign, Sub};

/// An instant of simulated time, nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since the epoch.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole + fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    pub fn from_nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000_000)
    }

    /// Nanoseconds in the span.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span in fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The span in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Multiply by an integer factor.
    pub fn times(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
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

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl core::fmt::Display for SimTime {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl core::fmt::Display for SimDuration {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}µs", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// Time to clock `bytes` onto a link of `rate_bps` bits per second.
pub fn transmission_time(bytes: usize, rate_bps: u64) -> SimDuration {
    debug_assert!(rate_bps > 0, "link rate must be positive");
    // ns = bits * 1e9 / rate. Use u128 to avoid overflow on fast links.
    let bits = bytes as u128 * 8;
    SimDuration(((bits * 1_000_000_000) / rate_bps as u128) as u64)
}

/// Number of whole bytes clocked onto a link of `rate_bps` within `dur`.
pub fn bytes_in(dur: SimDuration, rate_bps: u64) -> usize {
    ((dur.0 as u128 * rate_bps as u128) / (8 * 1_000_000_000)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_micros(5);
        assert_eq!(t.as_nanos(), 5_000);
        assert_eq!((t + SimDuration::from_nanos(1)) - t, SimDuration(1));
        assert_eq!(SimTime(3) - SimTime(10), SimDuration::ZERO, "saturating");
    }

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimDuration::from_secs(1).as_secs_f64(), 1.0);
    }

    #[test]
    fn transmission_times_match_hand_calcs() {
        // 1500 bytes at 10 Mb/s = 1.2 ms.
        assert_eq!(
            transmission_time(1500, 10_000_000),
            SimDuration::from_micros(1200)
        );
        // 1500 bytes at 1 Gb/s = 12 µs.
        assert_eq!(
            transmission_time(1500, 1_000_000_000),
            SimDuration::from_micros(12)
        );
        // 1 byte at 8 bit/s = 1 s.
        assert_eq!(transmission_time(1, 8), SimDuration::from_secs(1));
    }

    #[test]
    fn bytes_in_inverts_transmission_time() {
        for rate in [10_000_000u64, 100_000_000, 1_000_000_000] {
            for n in [1usize, 64, 576, 1500] {
                let d = transmission_time(n, rate);
                assert_eq!(bytes_in(d, rate), n);
            }
        }
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000µs");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn no_overflow_at_high_rates_and_sizes() {
        // A terabit link and a huge burst must not overflow.
        let d = transmission_time(usize::MAX / 16, 1_000_000_000_000);
        assert!(d.0 > 0);
    }
}
