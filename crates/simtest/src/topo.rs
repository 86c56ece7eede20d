//! Parameterized large-topology generators for scale tests (ring, grid,
//! seeded random-regular) up to 10 000 nodes — the workloads behind the
//! sharded-engine digest invariants.
//!
//! The [`spec`](crate::spec) module's scenario generator deliberately
//! caps rails at 12 nodes so chaos invariants stay tractable; scale
//! runs need orders of magnitude more. A [`TopoSpec`] describes a
//! mesh of [`te::FlowNode`]s relaying TTL-limited frames along
//! hash-chosen walks with **zero RNG draws anywhere**, so a run's
//! digest depends only on the topology and workload, not on shard count
//! or thread count: the same spec produces byte-identical digests
//! serial, sharded 2/4/8 ways, on any number of worker threads.
//!
//! Two design points keep digests shard-invariant (DESIGN.md §11):
//! * every forward is re-scheduled through a content-hashed timer delay,
//!   so two frames virtually never transit the same node at the same
//!   nanosecond (the only place engine tie-break order could leak);
//! * per-node accumulators fold delivery records commutatively, so the
//!   residual tie order — if one ever occurs — still cannot show.

use sirpent_sim::{NodeId, ShardedSimulator, SimTime, Simulator};

use crate::scenario::splitmix64;
use crate::te;

/// Topology family of a [`TopoSpec`].
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
    /// circulant offsets drawn from the spec seed; degree is even.
    Random {
        /// Even target degree (2..=8).
        degree: usize,
    },
}

/// A deterministic large-topology workload: shape + node count +
/// sources that each inject TTL-limited relay frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoSpec {
    /// Master seed: derives offsets, send times, and markers.
    pub seed: u64,
    /// Topology family.
    pub shape: TopoShape,
    /// Node count (3..=10_000 after [`TopoSpec::normalize`]).
    pub nodes: usize,
    /// How many nodes act as frame sources.
    pub sources: usize,
    /// Frames injected per source.
    pub frames_per_source: usize,
    /// Hops every frame travels before it is delivered.
    pub ttl: u8,
    /// Frame payload length in bytes (2-byte route cursor + `ttl`
    /// out-ports + 8-byte marker + pad).
    pub payload_len: usize,
    /// Propagation delay of every link, nanoseconds.
    pub prop_ns: u64,
    /// Data rate of every link, bits per second.
    pub rate_bps: u64,
    /// Injection window: all source sends land in `[1us, horizon/2]`,
    /// and runs execute until `horizon_ns`.
    pub horizon_ns: u64,
}

/// What one topo run produced: enough to compare runs for byte
/// equality and to rate engine throughput.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoReport {
    /// Canonical per-node digest of the run (see [`te::digest`]).
    pub digest: String,
    /// Total events the engine dispatched.
    pub events: u64,
}

impl TopoSpec {
    /// Derive a modest test-sized spec from a seed (16..=96 nodes, all
    /// three shapes exercised). Larger runs build a spec by hand.
    pub fn from_seed(seed: u64) -> TopoSpec {
        let r = |salt: u64| splitmix64(seed ^ salt);
        let shape = match r(1) % 3 {
            0 => TopoShape::Ring,
            1 => TopoShape::Grid {
                cols: 3 + (r(2) % 6) as usize,
            },
            _ => TopoShape::Random {
                degree: 2 + 2 * (r(3) % 3) as usize,
            },
        };
        let mut spec = TopoSpec {
            seed,
            shape,
            nodes: 16 + (r(4) % 81) as usize,
            sources: 2 + (r(5) % 8) as usize,
            frames_per_source: 1 + (r(6) % 4) as usize,
            ttl: 4 + (r(7) % 13) as u8,
            payload_len: 16 + 8 * (r(8) % 24) as usize,
            prop_ns: 1_000 + 500 * (r(9) % 5),
            rate_bps: 10_000_000,
            horizon_ns: 400_000_000,
        };
        spec.normalize();
        spec
    }

    /// Clamp every field into its runnable range. Idempotent; both the
    /// seed generator and the fixture parser funnel through here.
    pub fn normalize(&mut self) {
        self.nodes = self.nodes.clamp(3, 10_000);
        match &mut self.shape {
            TopoShape::Ring => {}
            TopoShape::Grid { cols } => {
                *cols = (*cols).clamp(2, self.nodes);
            }
            TopoShape::Random { degree } => {
                // Even, at least 2, and low enough that distinct
                // circulant offsets exist (and ports fit in u8).
                *degree = (*degree & !1).clamp(2, 8.min((self.nodes - 1) & !1));
            }
        }
        self.sources = self.sources.clamp(1, self.nodes);
        self.frames_per_source = self.frames_per_source.clamp(1, 64);
        self.ttl = self.ttl.clamp(1, 32);
        self.payload_len = self.payload_len.clamp(10 + self.ttl as usize, 1_500);
        self.prop_ns = self.prop_ns.clamp(500, 1_000_000);
        self.rate_bps = self.rate_bps.clamp(1_000_000, 10_000_000_000);
        self.horizon_ns = self.horizon_ns.clamp(1_000_000, 10_000_000_000);
    }

    /// Serialize as a normalized, line-oriented text fixture.
    pub fn to_fixture_string(&self) -> String {
        let shape = match self.shape {
            TopoShape::Ring => "ring".to_string(),
            TopoShape::Grid { cols } => format!("grid {cols}"),
            TopoShape::Random { degree } => format!("random {degree}"),
        };
        format!(
            "topo-fixture v1\n\
             seed {}\n\
             shape {}\n\
             nodes {}\n\
             sources {}\n\
             frames {}\n\
             ttl {}\n\
             payload {}\n\
             prop_ns {}\n\
             rate_bps {}\n\
             horizon_ns {}\n",
            self.seed,
            shape,
            self.nodes,
            self.sources,
            self.frames_per_source,
            self.ttl,
            self.payload_len,
            self.prop_ns,
            self.rate_bps,
            self.horizon_ns,
        )
    }

    /// Parse a fixture produced by [`TopoSpec::to_fixture_string`]. The
    /// result is normalized, so round-tripping is exact for any spec
    /// that has itself been normalized.
    pub fn from_fixture_string(text: &str) -> Result<TopoSpec, String> {
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some("topo-fixture v1") {
            return Err("missing 'topo-fixture v1' header".into());
        }
        let mut spec = TopoSpec {
            seed: 0,
            shape: TopoShape::Ring,
            nodes: 3,
            sources: 1,
            frames_per_source: 1,
            ttl: 1,
            payload_len: 16,
            prop_ns: 2_000,
            rate_bps: 10_000_000,
            horizon_ns: 400_000_000,
        };
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut it = line.split_whitespace();
            let key = it.next().unwrap_or("");
            let parse = |v: Option<&str>, what: &str| -> Result<u64, String> {
                v.ok_or_else(|| format!("{what}: missing value"))?
                    .parse::<u64>()
                    .map_err(|e| format!("{what}: {e}"))
            };
            match key {
                "seed" => spec.seed = parse(it.next(), "seed")?,
                "shape" => match it.next() {
                    Some("ring") => spec.shape = TopoShape::Ring,
                    Some("grid") => {
                        spec.shape = TopoShape::Grid {
                            cols: parse(it.next(), "grid cols")? as usize,
                        }
                    }
                    Some("random") => {
                        spec.shape = TopoShape::Random {
                            degree: parse(it.next(), "random degree")? as usize,
                        }
                    }
                    other => return Err(format!("unknown shape {other:?}")),
                },
                "nodes" => spec.nodes = parse(it.next(), "nodes")? as usize,
                "sources" => spec.sources = parse(it.next(), "sources")? as usize,
                "frames" => spec.frames_per_source = parse(it.next(), "frames")? as usize,
                "ttl" => spec.ttl = parse(it.next(), "ttl")?.min(255) as u8,
                "payload" => spec.payload_len = parse(it.next(), "payload")? as usize,
                "prop_ns" => spec.prop_ns = parse(it.next(), "prop_ns")?,
                "rate_bps" => spec.rate_bps = parse(it.next(), "rate_bps")?,
                "horizon_ns" => spec.horizon_ns = parse(it.next(), "horizon_ns")?,
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        spec.normalize();
        Ok(spec)
    }

    /// Undirected adjacency lists for this spec, deterministically
    /// derived; a node's port number for a link is the link's index in
    /// its list (degree stays ≤ 8, so ports fit comfortably in `u8`).
    pub fn adjacency(&self) -> Vec<Vec<usize>> {
        let n = self.nodes;
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let connect = |adj: &mut Vec<Vec<usize>>, a: usize, b: usize| {
            if a == b || adj[a].contains(&b) {
                return;
            }
            adj[a].push(b);
            adj[b].push(a);
        };
        match self.shape {
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
                    let mut off = 1 + splitmix64(self.seed ^ (0xC1AC ^ j)) % half.max(1) as u64;
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

    /// The planned `(send time, source node, marker)` injections.
    pub fn injections(&self) -> Vec<(SimTime, usize, u64)> {
        let stride = (self.nodes / self.sources).max(1);
        let window = (self.horizon_ns / 2).max(1);
        let mut plan = Vec::with_capacity(self.sources * self.frames_per_source);
        for s in 0..self.sources {
            let node = (s * stride) % self.nodes;
            for f in 0..self.frames_per_source {
                let salt = ((s as u64) << 32) | f as u64;
                let at = 1_000 + splitmix64(self.seed ^ salt) % window;
                let marker = splitmix64(self.seed ^ salt ^ 0x00AD_BEEF);
                plan.push((SimTime(at), node, marker));
            }
        }
        plan
    }

    /// The out-port walk of the frame `marker` injected at `src`: `ttl`
    /// hops, each out-port hash-chosen from `(node, marker, hops left)`
    /// — a function of the spec alone, so the whole walk is known
    /// before the run starts and rides in the frame as a source route.
    fn walk(&self, adj: &[Vec<usize>], src: usize, marker: u64) -> Vec<u8> {
        let mut at = src;
        (0..self.ttl)
            .rev()
            .map(|left| {
                let h = splitmix64(marker ^ (at as u64).rotate_left(17) ^ (left as u64) << 56);
                let port = (h % adj[at].len() as u64) as usize;
                at = adj[at][port];
                port as u8
            })
            .collect()
    }
}

/// Instantiate a spec: a [`te::mesh`] of [`te::FlowNode`]s over the
/// adjacency lists, and one single-packet flow per planned injection.
pub fn build(spec: &TopoSpec) -> Simulator {
    let mut spec = spec.clone();
    spec.normalize();
    let adj = spec.adjacency();
    let (mut sim, _) = te::mesh(
        spec.seed,
        &adj,
        spec.payload_len,
        spec.rate_bps,
        spec.prop_ns,
    );
    for (at, node, marker) in spec.injections() {
        let walk = spec.walk(&adj, node, marker);
        te::inject(
            &mut sim,
            NodeId(node),
            walk,
            marker,
            std::iter::once(at.as_nanos()),
        );
    }
    sim
}

/// Digest a finished topo run (see [`te::digest`]).
fn report(sim: &Simulator, nodes: usize) -> TopoReport {
    let (digest, events) = te::digest(sim, nodes);
    TopoReport { digest, events }
}

/// Build and run a spec on the serial engine.
pub fn execute(spec: &TopoSpec) -> TopoReport {
    let mut spec = spec.clone();
    spec.normalize();
    let mut sim = build(&spec);
    sim.run_until(SimTime(spec.horizon_ns));
    report(&sim, spec.nodes)
}

/// Build and run a spec on the sharded engine (`shards` spatial shards,
/// `threads` workers), merging back to serial before digesting.
pub fn execute_sharded(spec: &TopoSpec, shards: usize, threads: usize) -> TopoReport {
    let mut spec = spec.clone();
    spec.normalize();
    let sim = build(&spec);
    let mut sharded = ShardedSimulator::split(sim, shards);
    sharded.run_until(SimTime(spec.horizon_ns), threads);
    report(&sharded.into_serial(), spec.nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_round_trips_for_64_seeds() {
        for seed in 0..64u64 {
            let spec = TopoSpec::from_seed(seed);
            let text = spec.to_fixture_string();
            let back = TopoSpec::from_fixture_string(&text).expect("fixture parses");
            assert_eq!(spec, back, "round-trip mismatch for seed {seed}");
            // Normalization is idempotent through the text form.
            assert_eq!(text, back.to_fixture_string());
        }
    }

    #[test]
    fn fixture_parser_rejects_garbage() {
        assert!(TopoSpec::from_fixture_string("nope").is_err());
        assert!(TopoSpec::from_fixture_string("topo-fixture v1\nshape dodecahedron\n").is_err());
        assert!(TopoSpec::from_fixture_string("topo-fixture v1\nnodes many\n").is_err());
    }

    #[test]
    fn shapes_build_valid_adjacency() {
        for (shape, n) in [
            (TopoShape::Ring, 10),
            (TopoShape::Grid { cols: 4 }, 11),
            (TopoShape::Random { degree: 4 }, 50),
        ] {
            let spec = TopoSpec {
                seed: 9,
                shape,
                nodes: n,
                sources: 2,
                frames_per_source: 1,
                ttl: 4,
                payload_len: 32,
                prop_ns: 2_000,
                rate_bps: 10_000_000,
                horizon_ns: 10_000_000,
            };
            let adj = spec.adjacency();
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
        let mut spec = TopoSpec::from_seed(3);
        spec.nodes = 99_999; // clamps to 10_000
        spec.shape = TopoShape::Grid { cols: 100 };
        spec.normalize();
        assert_eq!(spec.nodes, 10_000);
        let adj = spec.adjacency();
        assert_eq!(adj.len(), 10_000);
    }

    #[test]
    fn run_twice_is_identical() {
        let spec = TopoSpec::from_seed(11);
        assert_eq!(execute(&spec), execute(&spec));
    }

    #[test]
    fn frames_actually_relay() {
        // Every injected frame is delivered exactly once, `ttl` hops
        // from its source, at the end of its pre-computed walk.
        for seed in 0..32u64 {
            let spec = TopoSpec::from_seed(seed);
            let adj = spec.adjacency();
            let mut sim = build(&spec);
            sim.run_until(SimTime(spec.horizon_ns));
            let nodes: Vec<&te::FlowNode> = (0..spec.nodes).map(|i| sim.node(NodeId(i))).collect();
            let injections = spec.injections();
            assert_eq!(
                nodes.iter().map(|n| n.delivered).sum::<u64>(),
                injections.len() as u64,
                "seed {seed}: delivered == injections"
            );
            assert_eq!(nodes.iter().map(|n| n.tx_fail).sum::<u64>(), 0);
            for (_, src, marker) in injections {
                let walk = spec.walk(&adj, src, marker);
                assert_eq!(walk.len(), spec.ttl as usize);
                let end = walk.iter().fold(src, |at, &p| adj[at][p as usize]);
                let got = nodes[end].done.get(&marker).map(|&(count, _)| count);
                assert_eq!(got, Some(1), "seed {seed}: frame {marker:#x} ends its walk");
            }
        }
    }
}
