//! The three instrument kinds: counters, fixed-point gauges, and
//! log₂-bucketed histograms.
//!
//! Instruments are owned by the component they measure as plain struct
//! fields — the hot path increments a `u64`, never looks anything up by
//! name. Names only enter the picture at scrape time, when a component
//! publishes its instruments into a [`crate::registry::Registry`].

/// A monotonically increasing event count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    v: u64,
}

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Counter {
        Counter { v: 0 }
    }

    /// Count one event.
    pub fn inc(&mut self) {
        self.v = self.v.saturating_add(1);
    }

    /// Count `n` events.
    pub fn add(&mut self, n: u64) {
        self.v = self.v.saturating_add(n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v
    }
}

/// Scale for fractional gauge values: a gauge holding a ratio stores
/// `ratio × FIXED_SCALE`, keeping the whole metrics surface integer
/// (floating point would make scrape output platform-sensitive).
pub const FIXED_SCALE: i64 = 1000;

/// A point-in-time level. Fixed-point: integral quantities (queue
/// depths, bits/s) are stored as-is; fractional ones are scaled by
/// [`FIXED_SCALE`], as documented per name in [`crate::names`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauge {
    v: i64,
}

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Gauge {
        Gauge { v: 0 }
    }

    /// Set the level.
    pub fn set(&mut self, v: i64) {
        self.v = v;
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.v
    }
}

/// Bucket count of [`Histogram`]: one bucket per power of two over the
/// full `u64` sample range.
pub const BUCKETS: usize = 64;

/// A log₂-bucketed histogram over `u64` samples (nanoseconds, bytes,
/// queue depths, …).
///
/// Bucket `i` holds samples in `[2^i, 2^(i+1))` (bucket 0 additionally
/// holds zero), so bucket upper bounds are strictly increasing —
/// the monotonicity property the tests pin down. Merging two histograms
/// adds bucket counts pointwise, which makes merge associative and
/// count-conserving: aggregation order across nodes can never change a
/// scrape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket a sample falls into: `floor(log₂(v))`, with zero in
    /// bucket 0.
    pub const fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (63 - v.leading_zeros()) as usize
        }
    }

    /// Inclusive upper bound of bucket `i` (saturates at `u64::MAX`).
    pub const fn bucket_bound(i: usize) -> u64 {
        if i >= BUCKETS - 1 {
            u64::MAX
        } else {
            (2u64 << i) - 1
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram into this one (pointwise bucket addition).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (wide, so `u64`-range samples cannot wrap).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest sample, zero when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, zero when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, zero when empty.
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / self.count as u128) as u64
        }
    }

    /// Per-bucket counts.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// The upper bound of the bucket containing the `q`-quantile sample
    /// (`q` in per-mille, so `quantile_pm(500)` is p50 and
    /// `quantile_pm(990)` is p99 — integer arithmetic keeps scrapes
    /// deterministic). Zero when empty.
    pub fn quantile_pm(&self, q_pm: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Rank of the target sample, 1-based, ceiling division.
        let rank = ((self.count as u128 * q_pm.min(1000) as u128).div_ceil(1000)).max(1);
        let mut seen = 0u128;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c as u128;
            if seen >= rank {
                return Self::bucket_bound(i);
            }
        }
        Self::bucket_bound(BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counter_and_gauge_basics() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let mut g = Gauge::new();
        g.set(-3);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn bucket_edges() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(u64::MAX), 63);
        assert_eq!(Histogram::bucket_bound(0), 1);
        assert_eq!(Histogram::bucket_bound(1), 3);
        assert_eq!(Histogram::bucket_bound(63), u64::MAX);
    }

    #[test]
    fn quantiles_on_known_data() {
        let mut h = Histogram::new();
        for v in [1u64, 1, 1, 1000] {
            h.record(v);
        }
        // p50 rank = 2 → bucket 0 (bound 1); p99 rank = 4 → bucket of
        // 1000 (2^9..2^10-1 → bound 1023).
        assert_eq!(h.quantile_pm(500), 1);
        assert_eq!(h.quantile_pm(990), 1023);
        assert_eq!(h.mean(), (1 + 1 + 1 + 1000) / 4);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.quantile_pm(500), 0);
    }

    fn from_samples(samples: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &s in samples {
            h.record(s);
        }
        h
    }

    proptest! {
        /// Bucket upper bounds are strictly increasing and every sample
        /// lands in the bucket whose range contains it.
        #[test]
        fn bucket_monotonicity(v in any::<u64>()) {
            for i in 1..BUCKETS {
                prop_assert!(Histogram::bucket_bound(i) > Histogram::bucket_bound(i - 1));
            }
            let b = Histogram::bucket_of(v);
            prop_assert!(v <= Histogram::bucket_bound(b));
            if b > 0 {
                prop_assert!(v > Histogram::bucket_bound(b - 1));
            }
        }

        /// count == Σ bucket counts, preserved by record and merge.
        #[test]
        fn count_conservation(
            xs in proptest::collection::vec(any::<u64>(), 0..64),
            ys in proptest::collection::vec(any::<u64>(), 0..64),
        ) {
            let mut a = from_samples(&xs);
            let b = from_samples(&ys);
            prop_assert_eq!(a.count(), xs.len() as u64);
            prop_assert_eq!(a.buckets().iter().sum::<u64>(), a.count());
            a.merge(&b);
            prop_assert_eq!(a.count(), (xs.len() + ys.len()) as u64);
            prop_assert_eq!(a.buckets().iter().sum::<u64>(), a.count());
            prop_assert_eq!(
                a.sum(),
                xs.iter().map(|&v| v as u128).sum::<u128>()
                    + ys.iter().map(|&v| v as u128).sum::<u128>()
            );
        }

        /// (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c), and merge agrees with recording
        /// the concatenated sample stream directly.
        #[test]
        fn merge_associativity(
            xs in proptest::collection::vec(any::<u64>(), 0..48),
            ys in proptest::collection::vec(any::<u64>(), 0..48),
            zs in proptest::collection::vec(any::<u64>(), 0..48),
        ) {
            let (a, b, c) = (from_samples(&xs), from_samples(&ys), from_samples(&zs));
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            prop_assert_eq!(&left, &right);
            let mut all = xs.clone();
            all.extend_from_slice(&ys);
            all.extend_from_slice(&zs);
            prop_assert_eq!(&left, &from_samples(&all));
        }
    }
}
