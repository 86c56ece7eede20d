//! Clean fixture: ordered containers and SimTime-derived state only.

use std::collections::BTreeMap;

/// Ordered state.
pub struct Metrics {
    counts: BTreeMap<u8, u64>,
}

impl Metrics {
    /// Iterates in key order — identical on every run.
    pub fn dump(&self) -> Vec<(u8, u64)> {
        let mut out = Vec::new();
        for (k, v) in self.counts.iter() {
            out.push((*k, *v));
        }
        out
    }

    /// Time comes from the simulation clock, never the host.
    pub fn stamp_nanos(&self, sim_now_nanos: u64) -> u64 {
        sim_now_nanos
    }
}
