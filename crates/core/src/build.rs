//! Builder for assembling internetworks.
//!
//! [`Net`] wraps the simulator with defaults appropriate to the paper's
//! regime (10 Mb/s Ethernet-era links up to gigabit trunks) and keeps
//! what it wires, so the network is stated once: [`Net::directory`] is
//! the directory's map of exactly the routers, hosts and point-to-point
//! links that were wired, and [`Net::routes`] asks it for the routes
//! between two of the hosts (§3: a client never writes a route down).

use std::collections::BTreeMap;

use sirpent_directory::{AccessSpec, Directory, LinkMetrics, Peer, Security, TeQuery, TeTopology};
use sirpent_router::viper::{ViperConfig, ViperRouter};
use sirpent_sim::{ChannelId, NodeId, SimDuration, Simulator};
use sirpent_transport::{EndpointConfig, HostClock, LifetimeFilter, RatePacer};
use sirpent_wire::viper::Priority;
use sirpent_wire::vmtp::EntityId;
use sirpent_wire::VIPER_TRANSMISSION_UNIT;

use crate::compile::CompiledRoute;
use crate::host::{HostPortKind, SirpentHost};

/// Default segment payload per transport packet: "roughly 1 kilobyte
/// transport packet plus up to 500 bytes of VIPER header information"
/// within the 1500-byte transmission unit (§5).
pub const DEFAULT_SEG_SIZE: usize = 1000;

/// One end of a link: a node and its port.
type End = (NodeId, u8);

/// A point-to-point link as wired.
struct Link {
    ends: [End; 2],
    rate_bps: u64,
    prop: SimDuration,
}

/// An internetwork under construction.
pub struct Net {
    /// The underlying simulator (public: attach custom nodes freely;
    /// what is wired through it directly is not in the directory's map).
    pub sim: Simulator,
    /// The directory's name for each router and host added here.
    peers: BTreeMap<NodeId, Peer>,
    /// MTU of each configured router port.
    mtus: BTreeMap<End, usize>,
    links: Vec<Link>,
}

impl Net {
    /// Start building with a deterministic seed.
    pub fn new(seed: u64) -> Net {
        Net {
            sim: Simulator::new(seed),
            peers: BTreeMap::new(),
            mtus: BTreeMap::new(),
            links: Vec::new(),
        }
    }

    /// Default endpoint configuration for a host with the given entity
    /// id: a perfect clock, a 60 s / 5 s lifetime filter, 1000-byte
    /// segments, an 8 Mb/s pacer.
    pub fn default_endpoint(entity: u64) -> EndpointConfig {
        EndpointConfig {
            entity: EntityId(entity),
            clock: HostClock::perfect(1_000_000),
            lifetime: LifetimeFilter::steady(60_000, 5_000),
            seg_size: DEFAULT_SEG_SIZE,
            pacer: RatePacer::new(8_000_000, 500_000, 8_000_000),
        }
    }

    /// Add a Sirpent host with default endpoint settings.
    pub fn host(&mut self, entity: u64, ports: Vec<(u8, HostPortKind)>) -> NodeId {
        self.host_with(Self::default_endpoint(entity), ports)
    }

    /// Add a Sirpent host with explicit endpoint settings. The directory
    /// knows it as `Peer::Host(entity)`; its host ids are 32-bit, so a
    /// host with a wider entity is left off the map.
    pub fn host_with(
        &mut self,
        endpoint: EndpointConfig,
        ports: Vec<(u8, HostPortKind)>,
    ) -> NodeId {
        let id = u32::try_from(endpoint.entity.0).ok();
        let node = self
            .sim
            .add_node(Box::new(SirpentHost::new(endpoint, ports)));
        self.peers.extend(id.map(|id| (node, Peer::Host(id))));
        node
    }

    /// Add a VIPER router.
    pub fn viper(&mut self, cfg: ViperConfig) -> NodeId {
        let (id, ports) = (cfg.router_id, cfg.ports.clone());
        let node = self.sim.add_node(Box::new(ViperRouter::new(cfg)));
        self.peers.insert(node, Peer::Router(id));
        self.mtus
            .extend(ports.iter().map(|p| ((node, p.port), p.mtu)));
        node
    }

    /// Full-duplex point-to-point link; returns its two simplex channels
    /// (`a`→`b`, `b`→`a`).
    pub fn p2p(
        &mut self,
        a: NodeId,
        a_port: u8,
        b: NodeId,
        b_port: u8,
        rate_bps: u64,
        prop: SimDuration,
    ) -> (ChannelId, ChannelId) {
        self.links.push(Link {
            ends: [(a, a_port), (b, b_port)],
            rate_bps,
            prop,
        });
        self.sim.p2p(a, a_port, b, b_port, rate_bps, prop)
    }

    /// Shared Ethernet segment over the listed (node, port) stations.
    /// The directory's map has no multi-access links, so a bus is not in
    /// it.
    pub fn bus(
        &mut self,
        rate_bps: u64,
        prop: SimDuration,
        stations: &[(NodeId, u8)],
    ) -> ChannelId {
        let ch = self.sim.add_channel(rate_bps, prop);
        for &(n, p) in stations {
            self.sim.attach(ch, n, p);
        }
        ch
    }

    /// Every link in both directions, as (near end, far end, link).
    fn directed(&self) -> impl Iterator<Item = (End, End, &Link)> {
        self.links
            .iter()
            .flat_map(|l| [(l.ends[0], l.ends[1], l), (l.ends[1], l.ends[0], l)])
    }

    /// A directory whose TE map is the network as wired so far: one link
    /// per configured router port that a [`Net::p2p`] link leaves from
    /// toward a router or host added here, with the link's rate and
    /// delay, the port's MTU, cost 1, [`Security::Controlled`].
    pub fn directory(&self) -> Directory {
        let mut te = TeTopology::new();
        for (near, far, link) in self.directed() {
            let (Some(&Peer::Router(router)), Some(&peer), Some(&mtu)) = (
                self.peers.get(&near.0),
                self.peers.get(&far.0),
                self.mtus.get(&near),
            ) else {
                continue;
            };
            let metrics = LinkMetrics {
                bandwidth_bps: link.rate_bps,
                prop_delay: link.prop,
                mtu,
                cost: 1,
                security: Security::Controlled,
            };
            te.add_link(router, near.1, peer, metrics);
        }
        Directory::new().with_te(te)
    }

    /// Ask `dir` for the routes from host `from` to host `to`, compiled
    /// and paired with their advertised residual capacity, ready for
    /// `install_routes[_weighted]`. Each of `from`'s access links, in
    /// host-port order, contributes the routes `q` admits from the
    /// router it lands on (tokens, when `dir` issues them, are charged
    /// to `account`); a link straight to `to` contributes the direct
    /// route. Empty when nothing wired connects the two.
    pub fn routes(
        &self,
        dir: &mut Directory,
        from: NodeId,
        to: NodeId,
        q: &TeQuery,
        account: u32,
    ) -> Vec<(CompiledRoute, u64)> {
        let mut access: Vec<_> = self
            .directed()
            .filter(|(near, ..)| near.0 == from)
            .collect();
        access.sort_by_key(|(near, ..)| near.1);
        let mut routes = Vec::new();
        for (near, far, link) in access {
            let spec = AccessSpec {
                host_port: near.1,
                ethernet_next: None,
                bandwidth_bps: link.rate_bps,
                prop_delay: link.prop,
                mtu: *self.mtus.get(&far).unwrap_or(&VIPER_TRANSMISSION_UNIT),
            };
            if far.0 == to {
                routes.push((CompiledRoute::direct(&spec, Vec::new()), link.rate_bps));
            } else if let (Some(&Peer::Router(first)), Some(&dst)) =
                (self.peers.get(&far.0), self.peers.get(&to))
            {
                for adv in dir.te_advisories(first, dst, q, &spec, &[], account) {
                    let route = CompiledRoute::compile(&adv.route, &adv.tokens, Priority::NORMAL);
                    routes.push((route, adv.residual_bps));
                }
            }
        }
        routes
    }

    /// Finish building.
    pub fn into_sim(self) -> Simulator {
        self.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assembles_nodes() {
        let mut net = Net::new(1);
        let h1 = net.host(1, vec![(0, HostPortKind::PointToPoint)]);
        let h2 = net.host(2, vec![(0, HostPortKind::PointToPoint)]);
        let r = net.viper(ViperConfig::basic(1, &[1, 2]));
        net.p2p(h1, 0, r, 1, 10_000_000, SimDuration::from_micros(2));
        net.p2p(r, 2, h2, 0, 10_000_000, SimDuration::from_micros(2));
        let sim = net.into_sim();
        assert_eq!(sim.node::<SirpentHost>(h1).entity(), EntityId(1));
        assert_eq!(sim.node::<SirpentHost>(h2).entity(), EntityId(2));
        let _ = sim.node::<ViperRouter>(r);
    }
}
