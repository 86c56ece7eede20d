//! The paper's §6.2 workload models.
//!
//! §6.2 of the paper builds its header-overhead arithmetic on a measured
//! packet-size mix: "half the packets are close to minimum size (for the
//! transport layer), one quarter are maximum size and the rest are more
//! or less uniformly distributed between these two extremes. Using this
//! approximation in general, the average packet size is roughly 3/8 of
//! the maximum packet size." The hop-count model likewise follows §6.2's
//! locality argument ("the expected number of hops per packet for many
//! applications \[is\] significantly less than one").
//!
//! Both models draw from a caller-supplied RNG so simulations stay
//! deterministic.

use rand::Rng;

/// The paper's empirical packet-size mix (§6.2).
#[derive(Debug, Clone, Copy)]
pub struct PacketSizeMix {
    /// Minimum (transport-layer) packet size in bytes.
    pub min: usize,
    /// Maximum packet size in bytes.
    pub max: usize,
}

impl PacketSizeMix {
    /// The paper's running example: 2 KB maximum.
    pub fn paper_default() -> PacketSizeMix {
        PacketSizeMix { min: 64, max: 2048 }
    }

    /// Draw one packet size: 1/2 minimum, 1/4 maximum, 1/4 uniform
    /// in between.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let r: f64 = rng.gen();
        if r < 0.5 {
            self.min
        } else if r < 0.75 {
            self.max
        } else {
            rng.gen_range(self.min..=self.max)
        }
    }

    /// The analytic mean of the mix:
    /// `min/2 + max/4 + (min+max)/2/4`.
    pub fn mean(&self) -> f64 {
        let (min, max) = (self.min as f64, self.max as f64);
        0.5 * min + 0.25 * max + 0.25 * (min + max) / 2.0
    }

    /// The paper's headline approximation: mean ≈ 3/8 · max (it neglects
    /// the `min` terms).
    pub fn paper_mean_approx(&self) -> f64 {
        0.375 * self.max as f64
    }
}

/// Hop-count model with the §6.2 locality argument: most communication is
/// local (0 routers traversed); the remainder decays geometrically up to
/// a global-scale maximum (telephone-network hop counts of 5–6).
#[derive(Debug, Clone, Copy)]
pub struct HopModel {
    /// Probability a packet is local (0 router hops).
    pub p_local: f64,
    /// Geometric continuation probability for each extra hop beyond the
    /// first.
    pub p_more: f64,
    /// Hard ceiling on hops.
    pub max_hops: usize,
}

impl HopModel {
    /// Parameters reproducing the paper's "average number of hops is 0.2"
    /// (§6.2, counting 0 hops as local): p_local chosen so that
    /// E\[hops\] ≈ 0.2 with a mild geometric tail.
    pub fn paper_default() -> HopModel {
        // E[h] = (1 - p_local) * E[h | h >= 1]; with p_more = 0.3,
        // E[h | h>=1] = 1/(1-0.3) ≈ 1.43, so 1 - p_local = 0.2/1.43 = 0.14.
        HopModel {
            p_local: 0.86,
            p_more: 0.3,
            max_hops: 6,
        }
    }

    /// Draw a hop count.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        if rng.gen::<f64>() < self.p_local {
            return 0;
        }
        let mut h = 1;
        while h < self.max_hops && rng.gen::<f64>() < self.p_more {
            h += 1;
        }
        h
    }

    /// Analytic expected hop count.
    pub fn mean(&self) -> f64 {
        // E = (1-p_local) * sum_{h>=1} h * p_more^(h-1) * (1-p_more),
        // truncated at max_hops (mass at the ceiling).
        let mut e = 0.0;
        let mut p_reach = 1.0; // P(h >= k | h >= 1)
        for k in 1..=self.max_hops {
            let p_here = if k == self.max_hops {
                p_reach
            } else {
                p_reach * (1.0 - self.p_more)
            };
            e += k as f64 * p_here;
            p_reach *= self.p_more;
        }
        (1.0 - self.p_local) * e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn size_mix_matches_paper_statistics() {
        let mix = PacketSizeMix::paper_default();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let mut sum = 0usize;
        let mut mins = 0usize;
        let mut maxs = 0usize;
        for _ in 0..n {
            let s = mix.sample(&mut rng);
            assert!((mix.min..=mix.max).contains(&s));
            sum += s;
            if s == mix.min {
                mins += 1;
            }
            if s == mix.max {
                maxs += 1;
            }
        }
        let mean = sum as f64 / n as f64;
        assert!((mean - mix.mean()).abs() < 10.0, "mean={mean}");
        // Paper: "average packet size is roughly 3/8 of the maximum".
        assert!((mean / mix.max as f64 - 0.375).abs() < 0.05);
        let f_min = mins as f64 / n as f64;
        // Uniform part can also land exactly on min, so ≥ 0.5.
        assert!((f_min - 0.5).abs() < 0.01, "f_min={f_min}");
        let f_max = maxs as f64 / n as f64;
        assert!((f_max - 0.25).abs() < 0.01, "f_max={f_max}");
    }

    #[test]
    fn mean_formula_consistency() {
        let mix = PacketSizeMix { min: 0, max: 2048 };
        // With min = 0 the analytic mean is exactly 3/8 max.
        assert!((mix.mean() - mix.paper_mean_approx()).abs() < 1e-9);
    }

    #[test]
    fn hop_model_mean_near_paper() {
        let hm = HopModel::paper_default();
        assert!(
            (hm.mean() - 0.2).abs() < 0.02,
            "analytic mean {} should be ≈0.2",
            hm.mean()
        );
        let mut rng = StdRng::seed_from_u64(2);
        let n = 200_000;
        let total: usize = (0..n).map(|_| hm.sample(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - hm.mean()).abs() < 0.01, "sampled mean {mean}");
    }

    #[test]
    fn hop_model_respects_ceiling() {
        let hm = HopModel {
            p_local: 0.0,
            p_more: 1.0,
            max_hops: 6,
        };
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert_eq!(hm.sample(&mut rng), 6);
        }
    }
}
