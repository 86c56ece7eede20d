//! The shared mesh fixture: `ViperRouter`s on a `simtest` mesh
//! adjacency, `SirpentHost`s on access ports, and a directory whose TE
//! view is built from the same adjacency.
//!
//! The *machine* (adjacency, link delays, host placement) is fixed by
//! [`TOPO_SEED`]; the `--seed` argument shapes only the traffic laid on
//! it. That keeps every `sim_` metric a property of the stack under a
//! seeded load instead of a property of which random graph the seed
//! happened to draw.

use std::sync::Arc;

use sirpent::directory::te::LinkMetrics;
use sirpent::directory::{
    AccessSpec, Advisory, Directory, Peer, Security, TeTopology, TokenIssue, Topology,
};
use sirpent::host::{HostPortKind, SirpentHost};
use sirpent::router::viper::{AuthConfig, ViperConfig, ViperRouter};
use sirpent::sim::{ChannelId, Node, NodeId, SimDuration, Simulator};
use sirpent::token::{AuthPolicy, SealingKey, TokenMinter};
use sirpent::transport::{EndpointConfig, HostClock, LifetimeFilter, RatePacer};
use sirpent::wire::viper::Priority;
use sirpent::wire::vmtp::EntityId;
use sirpent::Net;
use sirpent_simtest::{TeWorkload, TopoShape};

use crate::rng::mix;
use crate::timed::{NodeKind, Probe, Timed};

/// Seed of the fixed machine. Chosen (see `good_topo_seed` in the
/// tests) so two of the circulant offsets differ by one at both fixture
/// sizes: together with the ring edges
/// that closes triangles, which is what gives `Topology::protect` skip
/// links for ALT branches to land on.
pub const TOPO_SEED: u64 = 42;

/// Token-domain master secret (routers derive their sealing keys from
/// it; the directory's minter holds it).
pub const TOKEN_MASTER: u64 = 0x5149_5250_454e_5421;

/// Trunk and access line rate: 1 Gb/s, the upper end of §5's regime.
pub const LINK_BPS: u64 = 1_000_000_000;
/// Access-link propagation delay.
pub const ACCESS_PROP: SimDuration = SimDuration(5_000);
/// Link MTU: the VIPER transmission unit plus link-framing slack.
pub const LINK_MTU: usize = 1_564;
/// Token verification delay under the blocking policy (ISSUE: 200 µs).
pub const VERIFY_DELAY: SimDuration = SimDuration(200_000);

/// How big a mesh to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshSize {
    /// Router count.
    pub routers: usize,
    /// Host count (each on its own router's access port).
    pub hosts: usize,
}

impl MeshSize {
    /// The benchmark fixture.
    pub const FULL: MeshSize = MeshSize {
        routers: 1_024,
        hosts: 256,
    };
    /// The `--smoke` fixture.
    pub const SMOKE: MeshSize = MeshSize {
        routers: 64,
        hosts: 32,
    };
}

/// The static machine description — a pure function of the size.
#[derive(Debug, Clone)]
pub struct Mesh {
    /// Undirected adjacency; router `i`'s port for `adj[i][j]` is `j+1`.
    pub adj: Vec<Vec<usize>>,
    /// Host `h` hangs off router `host_router[h]`.
    pub host_router: Vec<usize>,
}

/// Router index → router id (0 stays free so ids read unambiguously).
pub fn router_id(idx: usize) -> u32 {
    idx as u32 + 1
}

/// Host index → transport entity / directory host id.
pub fn host_entity(h: usize) -> u32 {
    100_000 + h as u32
}

impl Mesh {
    /// Derive the machine for `size`.
    pub fn new(size: MeshSize) -> Mesh {
        let adj = TeWorkload {
            shape: TopoShape::Random { degree: 6 },
            nodes: size.routers,
            ..TeWorkload::heavy(TOPO_SEED)
        }
        .adjacency();
        // Hosts on distinct routers, spread by a fixed stride walk.
        let mut taken = vec![false; size.routers];
        let mut host_router = Vec::with_capacity(size.hosts);
        let mut at = 0usize;
        for h in 0..size.hosts {
            at = (at + 1 + (mix(TOPO_SEED ^ h as u64) % 7) as usize) % size.routers;
            while taken[at] {
                at = (at + 1) % size.routers;
            }
            taken[at] = true;
            host_router.push(at);
        }
        Mesh { adj, host_router }
    }

    /// Whether trunk `{a, b}` is the long side of a triangle: some
    /// router neighbours both ends and sits between them on the ring.
    fn is_express(&self, a: usize, b: usize) -> bool {
        let n = self.adj.len();
        let dist = |x: usize, y: usize| ((x + n - y) % n).min((y + n - x) % n);
        let d = dist(a, b);
        self.adj[a]
            .iter()
            .any(|&c| self.adj[b].contains(&c) && dist(a, c) < d && dist(c, b) < d)
    }

    /// Trunk propagation delay of the undirected link `{a, b}`, hashed
    /// from the endpoints: 150–280 µs (30–55 km of fibre) for ordinary
    /// trunks, 570–630 µs for express trunks (the long side of a
    /// triangle). Three reasons for this shape: path latencies form a
    /// smooth distribution instead of a hop-count staircase, so
    /// `sim_rtt_p50_us` does not jump between seeds; a hop's propagation
    /// exceeds the 200 µs blocking token verification, so a flow's first
    /// packet beats the host's `2 × base_rtt` retransmission timer and
    /// the token workload measures verification, not spurious
    /// retransmits; and an express trunk is always slower than the
    /// two-hop way round it, so shortest routes take the two hops and the
    /// express trunk is what `Topology::protect` finds as their skip link.
    pub fn trunk_prop(&self, a: usize, b: usize) -> SimDuration {
        let (lo, hi) = (a.min(b) as u64, a.max(b) as u64);
        let h = mix(TOPO_SEED ^ (lo << 32 | hi));
        if self.is_express(a, b) {
            SimDuration(570_000 + h % 60_001)
        } else {
            SimDuration(150_000 + h % 130_001)
        }
    }

    /// Router `r`'s access port (one past its trunk ports).
    pub fn access_port(&self, r: usize) -> u8 {
        self.adj[r].len() as u8 + 1
    }

    /// The directory's weighted TE view of this machine.
    pub fn te_topology(&self) -> TeTopology {
        let mut te = TeTopology::new();
        for (a, row) in self.adj.iter().enumerate() {
            for (j, &b) in row.iter().enumerate() {
                te.add_link(
                    router_id(a),
                    j as u8 + 1,
                    Peer::Router(router_id(b)),
                    link_metrics(self.trunk_prop(a, b)),
                );
            }
        }
        for (h, &r) in self.host_router.iter().enumerate() {
            te.add_link(
                router_id(r),
                self.access_port(r),
                Peer::Host(host_entity(h)),
                link_metrics(ACCESS_PROP),
            );
        }
        te
    }

    /// The wiring map `Topology::protect` computes ALT branches over.
    pub fn protect_topology(&self) -> Topology {
        let mut t = Topology::new();
        for (a, row) in self.adj.iter().enumerate() {
            for (j, &b) in row.iter().enumerate() {
                t.add_link(router_id(a), j as u8 + 1, Peer::Router(router_id(b)));
            }
        }
        for (h, &r) in self.host_router.iter().enumerate() {
            t.add_link(
                router_id(r),
                self.access_port(r),
                Peer::Host(host_entity(h)),
            );
        }
        t
    }

    /// The access link of host `h`, as a route record's first leg.
    pub fn access_spec() -> AccessSpec {
        AccessSpec {
            host_port: 0,
            ethernet_next: None,
            bandwidth_bps: LINK_BPS,
            prop_delay: ACCESS_PROP,
            mtu: LINK_MTU,
        }
    }
}

/// A 1 Gb/s link of the given propagation delay, as the directory sees
/// it.
pub fn link_metrics(prop_delay: SimDuration) -> LinkMetrics {
    LinkMetrics {
        bandwidth_bps: LINK_BPS,
        prop_delay,
        mtu: LINK_MTU,
        cost: 1,
        security: Security::Controlled,
    }
}

/// `TeRoute::weight_ns` recomputed from an advisory's route record
/// (propagation plus 1 µs per transit hop — the directory's search
/// weight; `te_advisories` does not hand the `TeRoute` itself back).
pub fn route_weight_ns(adv: &Advisory) -> u64 {
    adv.route
        .hops
        .iter()
        .map(|h| h.prop_delay.as_nanos() + 1_000)
        .sum()
}

/// A directory over `mesh`'s TE view, minting per-hop tokens when
/// `tokens` is set (the minter's nonce stream follows `seed`).
pub fn directory(te: TeTopology, tokens: bool, seed: u64) -> Directory {
    let dir = Directory::new().with_te(te);
    if !tokens {
        return dir;
    }
    dir.with_tokens(TokenIssue {
        minter: TokenMinter::new(TOKEN_MASTER, seed),
        max_priority: Priority::HIGHEST,
        reverse_ok: true,
        byte_limit: 0,
        expiry_s: 0,
    })
}

/// One full-duplex trunk of the live network.
#[derive(Debug, Clone, Copy)]
pub struct Trunk {
    /// Lower-indexed router end.
    pub a: usize,
    /// Higher-indexed router end.
    pub b: usize,
    /// `a`'s port on this trunk.
    pub a_port: u8,
    /// `b`'s port on this trunk.
    pub b_port: u8,
    /// The `a → b` simplex channel.
    pub ab: ChannelId,
    /// The `b → a` simplex channel.
    pub ba: ChannelId,
}

/// The live network: simulator plus the handles the workloads need.
pub struct Live {
    /// The simulator holding every node.
    pub sim: Simulator,
    /// Router node ids, by router index.
    pub routers: Vec<NodeId>,
    /// Host node ids, by host index.
    pub hosts: Vec<NodeId>,
    /// Every trunk, in `(a, port)` order.
    pub trunks: Vec<Trunk>,
    /// Every directed channel, for utilization accounting.
    pub channels: Vec<ChannelId>,
    /// The host → router channel of every access link.
    pub uplinks: Vec<ChannelId>,
}

fn add_node<N: Node>(
    sim: &mut Simulator,
    node: N,
    kind: NodeKind,
    probe: Option<&Arc<Probe>>,
) -> NodeId {
    match probe {
        None => sim.add_node(Box::new(node)),
        Some(p) => sim.add_node(Box::new(Timed::new(node, kind, p))),
    }
}

impl Live {
    /// Instantiate `mesh`: one `ViperRouter` per vertex (token-checking
    /// when `tokens`), one `SirpentHost` per access port, 1 Gb/s links.
    /// With a `probe`, every node is boxed in [`Timed`].
    pub fn build(mesh: &Mesh, sim_seed: u64, tokens: bool, probe: Option<&Arc<Probe>>) -> Live {
        let mut net = Net::new(sim_seed);
        let mut routers = Vec::with_capacity(mesh.adj.len());
        for (r, row) in mesh.adj.iter().enumerate() {
            let ports: Vec<u8> = (1..=row.len() as u8 + 1).collect();
            let mut cfg = ViperConfig::basic(router_id(r), &ports);
            // Deep enough that the open-loop load never tail-drops: a
            // queue-full drop would be a workload-sizing artefact, and
            // the output checks would flag it.
            cfg.queue_capacity = 256;
            if tokens {
                cfg.auth = Some(AuthConfig {
                    key: SealingKey::derive(TOKEN_MASTER, router_id(r)),
                    policy: AuthPolicy::Blocking,
                    verify_delay: VERIFY_DELAY,
                    require_token: true,
                });
            }
            routers.push(add_node(
                &mut net.sim,
                ViperRouter::new(cfg),
                NodeKind::Router,
                probe,
            ));
        }
        let mut hosts = Vec::with_capacity(mesh.host_router.len());
        for h in 0..mesh.host_router.len() {
            let endpoint = EndpointConfig {
                entity: EntityId(host_entity(h) as u64),
                clock: HostClock::perfect(1_000_000),
                lifetime: LifetimeFilter::steady(60_000, 5_000),
                seg_size: sirpent::build::DEFAULT_SEG_SIZE,
                pacer: RatePacer::new(LINK_BPS, LINK_BPS / 10, LINK_BPS),
            };
            let host = SirpentHost::new(endpoint, vec![(0, HostPortKind::PointToPoint)]);
            hosts.push(add_node(&mut net.sim, host, NodeKind::Host, probe));
        }
        let mut trunks = Vec::new();
        let mut channels = Vec::new();
        let mut uplinks = Vec::with_capacity(mesh.host_router.len());
        for (a, row) in mesh.adj.iter().enumerate() {
            for (j, &b) in row.iter().enumerate() {
                if a > b {
                    continue;
                }
                let b_port = mesh.adj[b]
                    .iter()
                    .position(|&x| x == a)
                    .expect("adjacency is symmetric") as u8
                    + 1;
                let a_port = j as u8 + 1;
                let (ab, ba) = net.sim.p2p(
                    routers[a],
                    a_port,
                    routers[b],
                    b_port,
                    LINK_BPS,
                    mesh.trunk_prop(a, b),
                );
                trunks.push(Trunk {
                    a,
                    b,
                    a_port,
                    b_port,
                    ab,
                    ba,
                });
                channels.extend([ab, ba]);
            }
        }
        for (h, &r) in mesh.host_router.iter().enumerate() {
            let (up, down) = net.sim.p2p(
                hosts[h],
                0,
                routers[r],
                mesh.access_port(r),
                LINK_BPS,
                ACCESS_PROP,
            );
            channels.extend([up, down]);
            uplinks.push(up);
        }
        Live {
            sim: net.into_sim(),
            routers,
            hosts,
            trunks,
            channels,
            uplinks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_is_symmetric_connected_and_hosts_are_distinct() {
        for size in [MeshSize::SMOKE, MeshSize::FULL] {
            let m = Mesh::new(size);
            assert_eq!(m.adj.len(), size.routers);
            for (a, row) in m.adj.iter().enumerate() {
                assert!(row.len() >= 6 && row.len() <= 8, "degree {}", row.len());
                for &b in row {
                    assert!(m.adj[b].contains(&a));
                }
            }
            let mut seen = vec![false; size.routers];
            let mut stack = vec![0];
            seen[0] = true;
            while let Some(n) = stack.pop() {
                for &b in &m.adj[n] {
                    if !seen[b] {
                        seen[b] = true;
                        stack.push(b);
                    }
                }
            }
            assert!(seen.iter().all(|&s| s), "one component");
            let mut hr = m.host_router.clone();
            hr.sort_unstable();
            hr.dedup();
            assert_eq!(hr.len(), size.hosts);
        }
    }

    #[test]
    fn machine_does_not_depend_on_anything_but_size() {
        let a = Mesh::new(MeshSize::SMOKE);
        let b = Mesh::new(MeshSize::SMOKE);
        assert_eq!(a.adj, b.adj);
        assert_eq!(a.host_router, b.host_router);
        assert_eq!(a.trunk_prop(3, 9), a.trunk_prop(9, 3));
    }

    /// The property `TOPO_SEED` was picked for: at both sizes every
    /// router has express trunks (the long side of a triangle), each
    /// slower than the two-hop way round it.
    #[test]
    fn good_topo_seed_closes_triangles() {
        for size in [MeshSize::SMOKE, MeshSize::FULL] {
            let m = Mesh::new(size);
            let express: Vec<usize> = m.adj[0]
                .iter()
                .copied()
                .filter(|&b| m.is_express(0, b))
                .collect();
            assert_eq!(express.len(), 2, "router 0 has two express trunks");
            for b in express {
                let round = m.adj[0]
                    .iter()
                    .filter(|&&c| m.adj[b].contains(&c))
                    .map(|&c| m.trunk_prop(0, c).as_nanos() + m.trunk_prop(c, b).as_nanos())
                    .min()
                    .expect("a triangle has a third corner");
                assert!(m.trunk_prop(0, b).as_nanos() > round + 1_000);
            }
        }
    }
}
