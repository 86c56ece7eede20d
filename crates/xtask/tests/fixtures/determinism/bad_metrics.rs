//! Violating fixture: nondeterminism sources in simulation code are
//! flagged at their own sites.

use std::collections::HashMap;

/// Hash-ordered state.
pub struct Metrics {
    counts: HashMap<u8, u64>,
}

impl Metrics {
    /// Iterates in hash order — varies per process.
    pub fn dump(&self) -> Vec<(u8, u64)> {
        let mut out = Vec::new();
        for (k, v) in self.counts.iter() {
            out.push((*k, *v));
        }
        out
    }

    /// Wall-clock read.
    pub fn stamp_nanos(&self) -> u64 {
        std::time::Instant::now().elapsed().as_nanos() as u64
    }
}
