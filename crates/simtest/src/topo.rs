//! Large-topology shapes for scale tests — ring, grid, seeded
//! random-regular, up to 10 000 nodes — and the adjacency generator the
//! [`te`](crate::te) flash crowd (and, through it, `perf/`'s mesh
//! fixture) builds its routers over.
//!
//! The [`spec`](crate::spec) module's scenario generator deliberately
//! caps rails at 12 nodes so chaos invariants stay tractable; scale
//! runs need orders of magnitude more. [`adjacency`] draws **no RNG**:
//! the random-regular shape takes its circulant offsets from
//! [`splitmix64`] of the seed, so the same `(seed, shape, n)` is the
//! same graph in every process.

use sirpent_sim::splitmix64;

/// Topology family of a mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoShape {
    /// A bidirectional cycle: degree 2 everywhere.
    Ring,
    /// A rectangular mesh with the given column count (the last row may
    /// be partial); degree ≤ 4.
    Grid {
        /// Columns per row.
        cols: usize,
    },
    /// Seeded random-regular graph built from `degree/2` distinct
    /// circulant offsets drawn from the seed; degree is even.
    Random {
        /// Even target degree (2..=8).
        degree: usize,
    },
}

/// Undirected adjacency lists of an `n`-node mesh of the given shape,
/// a pure function of the arguments; a node's port number for a link is
/// the link's index in its list (degree stays ≤ 8, so ports fit
/// comfortably in `u8`).
pub fn adjacency(seed: u64, shape: TopoShape, n: usize) -> Vec<Vec<usize>> {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let connect = |adj: &mut Vec<Vec<usize>>, a: usize, b: usize| {
        if a == b || adj[a].contains(&b) {
            return;
        }
        adj[a].push(b);
        adj[b].push(a);
    };
    match shape {
        TopoShape::Ring => {
            for i in 0..n {
                connect(&mut adj, i, (i + 1) % n);
            }
        }
        TopoShape::Grid { cols } => {
            for i in 0..n {
                if (i + 1) % cols != 0 && i + 1 < n {
                    connect(&mut adj, i, i + 1);
                }
                if i + cols < n {
                    connect(&mut adj, i, i + cols);
                }
            }
        }
        TopoShape::Random { degree } => {
            // `degree/2` distinct circulant offsets from the seed:
            // regular, connected for offset 1-free graphs often
            // enough, and fully reproducible. Collisions probe to
            // the next unused offset.
            let half = n / 2;
            let mut offsets: Vec<u64> = Vec::new();
            let mut j = 0u64;
            while offsets.len() < degree / 2 {
                let mut off = 1 + splitmix64(seed ^ (0xC1AC ^ j)) % half.max(1) as u64;
                while offsets.contains(&off) {
                    off = 1 + (off % half.max(1) as u64);
                }
                offsets.push(off);
                j += 1;
            }
            for off in offsets {
                for i in 0..n {
                    connect(&mut adj, i, (i + off as usize) % n);
                }
            }
        }
    }
    adj
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::te::TeWorkload;

    #[test]
    fn shapes_build_valid_adjacency() {
        for (shape, n) in [
            (TopoShape::Ring, 10),
            (TopoShape::Grid { cols: 4 }, 11),
            (TopoShape::Random { degree: 4 }, 50),
        ] {
            let adj = adjacency(9, shape, n);
            assert_eq!(adj.len(), n);
            for (a, nbrs) in adj.iter().enumerate() {
                assert!(nbrs.len() <= 8, "degree fits ports");
                for &b in nbrs {
                    assert!(adj[b].contains(&a), "symmetric");
                    assert_ne!(a, b, "no self loops");
                }
            }
        }
    }

    #[test]
    fn grid_cap_at_ten_thousand_nodes_builds() {
        let mut spec = TeWorkload {
            nodes: 99_999, // clamps to 10_000
            shape: TopoShape::Grid { cols: 100 },
            ..TeWorkload::small(3)
        };
        spec.normalize();
        assert_eq!(spec.nodes, 10_000);
        assert_eq!(adjacency(spec.seed, spec.shape, spec.nodes).len(), 10_000);
    }
}
