//! Clean fixture: all randomness flows through the engine-owned,
//! seeded stream behind `Context::rng()`.

use rand::Rng;

/// Draws come from the engine's stream, in event order.
pub fn jitter_nanos(rng: &mut impl Rng) -> u64 {
    rng.gen_range(0..128)
}
