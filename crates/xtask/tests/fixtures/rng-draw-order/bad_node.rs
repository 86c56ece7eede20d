//! Violating fixture: node code forking a private RNG stream. Even a
//! seeded private stream desynchronizes replay — its draws do not come
//! out of the engine's seeded sequence.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Private stream: seeded locally instead of drawn from the Context.
pub fn jitter_nanos() -> u64 {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(0xB1A5);
    rng.gen_range(0..128)
}
