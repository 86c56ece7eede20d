//! Maximum-packet-lifetime enforcement from creation timestamps (§4.2).
//!
//! Sirpent deliberately has no TTL: "the creation timestamp requires no
//! update in intermediate routers, thereby eliminating the associated
//! processing load". Instead, "the receiver discards packets that are
//! older than an acceptable period based on its recent history of
//! communication. For example, a host with a low reception rate that has
//! not crashed recently can accept relatively old packets without risk
//! whereas a recently booted machine might discard packets older than its
//! boot time."
//!
//! Timestamps are 32-bit milliseconds modulo 2³² ("wrap-around occurs in
//! roughly one month"); comparisons are wraparound-aware.

/// Why a packet was rejected by the lifetime filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifetimeReject {
    /// Older than the acceptance window.
    TooOld,
    /// Claims to be from further in the future than clock sync allows —
    /// bogus or maliciously stamped.
    FromFuture,
    /// Created before this host last booted — could predate the crash
    /// that makes old state dangerous.
    PreBoot,
}

/// The receiver-side packet lifetime filter.
#[derive(Debug, Clone, Copy)]
pub struct LifetimeFilter {
    /// Maximum acceptable age in ms (the MPL).
    pub max_age_ms: u32,
    /// Allowed apparent future skew in ms (clock sync residual).
    pub max_future_ms: u32,
    /// The local timestamp at which this host booted (0 = long ago /
    /// unknown, disables the pre-boot check).
    pub boot_time_ms: u32,
}

impl LifetimeFilter {
    /// A filter for a long-running host: accept up to `max_age_ms`, no
    /// boot cutoff.
    pub fn steady(max_age_ms: u32, max_future_ms: u32) -> LifetimeFilter {
        LifetimeFilter {
            max_age_ms,
            max_future_ms,
            boot_time_ms: 0,
        }
    }

    /// Wraparound-aware signed age of a timestamp at local time `now`:
    /// positive = packet is that many ms old.
    pub fn age_ms(now: u32, timestamp: u32) -> i64 {
        // Interpret the wrapped difference as a signed 32-bit quantity.
        now.wrapping_sub(timestamp) as i32 as i64
    }

    /// Full acceptance check. Timestamp 0 means "invalid, ignore" and is
    /// accepted (§4.2: reserved for booting machines' queries).
    pub fn accept(&self, now: u32, timestamp: u32) -> Result<(), LifetimeReject> {
        if timestamp == crate::TIMESTAMP_INVALID {
            return Ok(());
        }
        let age = Self::age_ms(now, timestamp);
        if age < 0 {
            if (-age) as u32 > self.max_future_ms {
                return Err(LifetimeReject::FromFuture);
            }
            return Ok(());
        }
        if age as u32 > self.max_age_ms {
            return Err(LifetimeReject::TooOld);
        }
        if self.boot_time_ms != 0 {
            // Created before boot? boot_time is in the same wrapped
            // domain; a packet older than (now - boot) predates boot.
            let uptime = Self::age_ms(now, self.boot_time_ms);
            if uptime >= 0 && age > uptime {
                return Err(LifetimeReject::PreBoot);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOUR_MS: u32 = 3_600_000;

    #[test]
    fn fresh_packets_accepted_old_rejected() {
        let f = LifetimeFilter::steady(30_000, 5_000);
        let now = 10 * HOUR_MS;
        assert_eq!(f.accept(now, now - 1_000), Ok(()));
        assert_eq!(f.accept(now, now - 30_000), Ok(()));
        assert_eq!(
            f.accept(now, now - 30_001),
            Err(LifetimeReject::TooOld),
            "past the MPL"
        );
    }

    #[test]
    fn future_tolerance_matches_sync_residual() {
        let f = LifetimeFilter::steady(30_000, 5_000);
        let now = HOUR_MS;
        assert_eq!(f.accept(now, now + 4_999), Ok(()), "skew within residual");
        assert_eq!(f.accept(now, now + 5_001), Err(LifetimeReject::FromFuture));
    }

    #[test]
    fn invalid_timestamp_ignored() {
        let f = LifetimeFilter::steady(1, 1);
        assert_eq!(f.accept(123456, 0), Ok(()), "0 = ignore (§4.2)");
    }

    #[test]
    fn wraparound_comparisons_work() {
        let f = LifetimeFilter::steady(60_000, 5_000);
        // now just past the wrap, timestamp just before it.
        let now = 10_000u32;
        let ts = u32::MAX - 20_000; // ≈ 30 s ago across the wrap
        assert_eq!(LifetimeFilter::age_ms(now, ts), 30_001);
        assert_eq!(f.accept(now, ts), Ok(()));
        // And a genuinely old cross-wrap packet is rejected.
        let ts_old = u32::MAX - 100_000;
        assert_eq!(f.accept(now, ts_old), Err(LifetimeReject::TooOld));
    }

    #[test]
    fn recently_booted_host_rejects_pre_boot_packets() {
        // §4.2: "a recently booted machine might discard packets older
        // than its boot time".
        let f = LifetimeFilter {
            max_age_ms: 600_000, // 10 min MPL
            max_future_ms: 5_000,
            boot_time_ms: HOUR_MS, // booted at t=1h
        };
        let now = HOUR_MS + 60_000; // up for one minute
        assert_eq!(f.accept(now, HOUR_MS + 30_000), Ok(()), "post-boot ok");
        assert_eq!(
            f.accept(now, HOUR_MS - 30_000),
            Err(LifetimeReject::PreBoot),
            "pre-boot packet rejected even though within MPL"
        );
        // A long-running host (boot cutoff 0) would have accepted it.
        let steady = LifetimeFilter::steady(600_000, 5_000);
        assert_eq!(steady.accept(now, HOUR_MS - 30_000), Ok(()));
    }

    #[test]
    fn month_scale_wraparound_claim() {
        // §4.2: "wrap-around occurs in roughly one month". 2^32 ms ≈
        // 49.7 days — sanity-check the arithmetic the claim rests on.
        let days = (1u64 << 32) as f64 / 86_400_000.0;
        assert!((49.0..51.0).contains(&days));
    }
}
