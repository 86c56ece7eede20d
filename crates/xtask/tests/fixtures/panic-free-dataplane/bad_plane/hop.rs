//! An unmarked submodule of a marked `mod.rs`: still the data plane.

pub fn hop(q: &[u8]) -> u8 {
    assert!(!q.is_empty(), "empty packet");
    q.first().copied().unwrap_or(0)
}
