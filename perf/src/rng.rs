//! Seed-derived structure for the workload generators.
//!
//! Every input the benchmark feeds the stack is a pure function of the
//! `--seed` argument through this SplitMix64 stream — the measured
//! crates never see the seed, only the generated flows, schedules and
//! op mixes.

/// SplitMix64 finalizer: one well-mixed word from any input word.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams of the same
    /// seed by `salt` (one salt per generator).
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(mix(seed ^ mix(salt)))
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1).
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift: unbiased enough for workload shaping and, unlike
        // `%`, uses the high bits.
        ((self.next() as u128 * n.max(1) as u128) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean, in whole units (≥ 1).
    pub fn exp(&mut self, mean: f64) -> u64 {
        let u = 1.0 - self.unit();
        ((-u.ln() * mean) as u64).max(1)
    }

    /// Heavy-tailed (Pareto, shape 1.5) integer in `1..=cap`.
    pub fn heavy_tail(&mut self, scale: f64, cap: u64) -> u64 {
        let u = 1.0 - self.unit();
        ((scale / u.powf(1.0 / 1.5)) as u64).clamp(1, cap)
    }
}

/// Zipf(s = 1) sampler over `0..n` by inverse-CDF table lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build the table for a population of `n` ranks.
    pub fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n.max(1) {
            acc += 1.0 / r as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draw a rank (0 = most popular).
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds_and_salts() {
        let draw = |seed, salt| {
            let mut r = Rng::new(seed, salt);
            (0..8).map(|_| r.next()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
    }

    #[test]
    fn bounded_draws_stay_in_range() {
        let mut r = Rng::new(1, 1);
        let z = Zipf::new(100);
        for _ in 0..10_000 {
            assert!(r.below(10) < 10);
            assert!((3..=9).contains(&r.range(3, 9)));
            assert!((1..=64).contains(&r.heavy_tail(2.0, 64)));
            assert!(z.sample(&mut r) < 100);
        }
    }

    #[test]
    fn zipf_head_is_heavier_than_tail() {
        let mut r = Rng::new(3, 3);
        let z = Zipf::new(1000);
        let head = (0..20_000).filter(|_| z.sample(&mut r) < 10).count();
        assert!(
            head > 5_000,
            "top 1% of ranks draws >25% of samples: {head}"
        );
    }
}
