//! `Net` is the directory's map: `net.directory()` knows exactly what was
//! wired, and every route `net.routes` hands out works on the real
//! routers.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sirpent::directory::{LinkMetrics, Peer, Security, TeQuery};
use sirpent::host::{HostPortKind, SirpentHost};
use sirpent::router::scripted::ScriptedHost;
use sirpent::router::viper::ViperConfig;
use sirpent::sim::{NodeId, SimDuration, SimTime};
use sirpent::wire::vmtp::EntityId;
use sirpent::Net;

const SEEDS: std::ops::Range<u64> = 0..48;
/// Ports 1..=PORTS on every router: more than any one router can be
/// asked for (2 chain links, 5 chords, 8 access links, the stranger).
const PORTS: u8 = 16;

/// Every router port has its own MTU.
fn mtu(router: u32, port: u8) -> usize {
    1564 + 100 * ((router as usize + port as usize) % 3)
}

/// A random small mesh and what was wired into it, by router port.
struct Mesh {
    net: Net,
    /// (node, entity) per host.
    hosts: Vec<(NodeId, u64)>,
    router_ids: Vec<u32>,
    wired: BTreeMap<(u32, u8), (Peer, LinkMetrics)>,
}

#[derive(Clone, Copy)]
enum End {
    Router(usize),
    Host(usize, u8),
    Stranger,
}

/// 2–6 routers with gapped ids, joined in a chain plus random chords;
/// 2–4 hosts with one or two access links each; one scripted node on a
/// router port, which `Net` cannot name. Every link draws its own rate
/// and delay.
fn mesh(seed: u64) -> Mesh {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Net::new(seed);
    let routers: Vec<(NodeId, u32)> = (0..rng.gen_range(2..=6u32))
        .map(|i| {
            let id = 10 * i + rng.gen_range(1..10u32);
            let mut cfg = ViperConfig::basic(id, &(1..=PORTS).collect::<Vec<_>>());
            for p in cfg.ports.iter_mut() {
                p.mtu = mtu(id, p.port);
            }
            (net.viper(cfg), id)
        })
        .collect();
    let hosts: Vec<(NodeId, u64)> = (0..rng.gen_range(2..=4u64))
        .map(|h| {
            let ports = (0..2).map(|p| (p, HostPortKind::PointToPoint)).collect();
            (net.host(0xA0 + h, ports), 0xA0 + h)
        })
        .collect();
    let stranger = net.sim.add_node(Box::new(ScriptedHost::new()));

    let n = routers.len();
    let mut links: Vec<(End, End)> = (1..n)
        .map(|i| (End::Router(i - 1), End::Router(i)))
        .collect();
    for _ in 0..rng.gen_range(0..n) {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        links.extend((a != b).then_some((End::Router(a), End::Router(b))));
    }
    for h in 0..hosts.len() {
        for port in 0..rng.gen_range(1..=2u8) {
            links.push((End::Host(h, port), End::Router(rng.gen_range(0..n))));
        }
    }
    links.push((End::Stranger, End::Router(0)));

    let mut used = vec![0u8; n];
    let mut wired = BTreeMap::new();
    for (a, b) in links {
        // (node, port, the directory's name for the node if it has one)
        let mut resolve = |end| match end {
            End::Router(r) => {
                used[r] += 1;
                (routers[r].0, used[r], Some(Peer::Router(routers[r].1)))
            }
            End::Host(h, port) => (hosts[h].0, port, Some(Peer::Host(hosts[h].1 as u32))),
            End::Stranger => (stranger, 0, None),
        };
        let (a, b) = (resolve(a), resolve(b));
        let rate = [10_000_000, 100_000_000][rng.gen_range(0..2usize)];
        let prop = SimDuration::from_micros(rng.gen_range(1..50));
        net.p2p(a.0, a.1, b.0, b.1, rate, prop);
        for (near, far) in [(a, b), (b, a)] {
            if let (Some(Peer::Router(id)), Some(peer)) = (near.2, far.2) {
                let metrics = LinkMetrics {
                    bandwidth_bps: rate,
                    prop_delay: prop,
                    mtu: mtu(id, near.1),
                    cost: 1,
                    security: Security::Controlled,
                };
                wired.insert((id, near.1), (peer, metrics));
            }
        }
    }
    Mesh {
        net,
        hosts,
        router_ids: routers.iter().map(|r| r.1).collect(),
        wired,
    }
}

#[test]
fn the_directory_maps_exactly_the_wired_router_ports() {
    let mut links = 0;
    for seed in SEEDS {
        let m = mesh(seed);
        let dir = m.net.directory();
        let te = dir.te().expect("the directory carries the map");
        for &id in &m.router_ids {
            for port in 0..=u8::MAX {
                let want = m.wired.get(&(id, port));
                assert_eq!(te.peer(id, port), want.map(|w| w.0), "seed {seed}");
                assert_eq!(te.metrics(id, port), want.map(|w| w.1), "seed {seed}");
            }
        }
        links += m.wired.len();
    }
    assert!(links > 4 * SEEDS.end as usize, "meshes were not trivial");
}

#[test]
fn every_route_issued_is_delivered_and_answered() {
    let (mut issued, mut multi_hop) = (0, 0);
    for seed in SEEDS {
        let m = mesh(seed);
        let mut rng = StdRng::seed_from_u64(!seed);
        let a = rng.gen_range(0..m.hosts.len());
        let b = (a + rng.gen_range(1..m.hosts.len())) % m.hosts.len();
        let ((a, _), (b, entity)) = (m.hosts[a], m.hosts[b]);
        let q = TeQuery {
            k: 3,
            ..TeQuery::default()
        };
        let routes = m.net.routes(&mut m.net.directory(), a, b, &q, 1);
        assert!(!routes.is_empty(), "seed {seed}: the mesh is connected");
        issued += routes.len();
        // Each route alone, on a network of its own: the same seed wires
        // the same nodes.
        for (i, (route, _)) in routes.into_iter().enumerate() {
            multi_hop += usize::from(route.router_ids.len() > 1);
            let mut sim = mesh(seed).net.into_sim();
            sim.node_mut::<SirpentHost>(a)
                .install_routes(EntityId(entity), vec![route]);
            sim.node_mut::<SirpentHost>(b).echo = true;
            sim.node_mut::<SirpentHost>(a).queue_request(
                SimTime::ZERO,
                EntityId(entity),
                b"by the map".to_vec(),
            );
            SirpentHost::start(&mut sim, a);
            sim.run_until(SimTime(50_000_000));
            let (client, server) = (sim.node::<SirpentHost>(a), sim.node::<SirpentHost>(b));
            assert_eq!(server.inbox.len(), 1, "seed {seed} route {i}: delivered");
            assert_eq!(client.inbox.len(), 1, "seed {seed} route {i}: answered");
            assert_eq!(client.endpoint().stats.retransmissions, 0);
        }
    }
    assert!(issued > SEEDS.end as usize && multi_hop > 0);
}

#[test]
fn a_client_gets_its_routes_per_access_link_in_host_port_order() {
    // E4c's shape — two access links, a router behind each, both one hop
    // from the server — wired out of order, plus a third link straight
    // to the server.
    let mut net = Net::new(1);
    let ports = |n| (0..n).map(|p| (p, HostPortKind::PointToPoint)).collect();
    let client = net.host(0xC, ports(3));
    let server = net.host(0x5, ports(3));
    let r1 = net.viper(ViperConfig::basic(1, &[1, 2]));
    let r2 = net.viper(ViperConfig::basic(2, &[1, 2]));
    let (rate, prop) = (10_000_000, SimDuration::from_micros(5));
    net.p2p(client, 2, server, 2, rate, prop);
    net.p2p(client, 1, r2, 1, rate, prop);
    net.p2p(r2, 2, server, 1, rate, prop);
    net.p2p(client, 0, r1, 1, rate, prop);
    net.p2p(r1, 2, server, 0, rate, prop);

    let routes = net.routes(&mut net.directory(), client, server, &TeQuery::default(), 1);
    let seen: Vec<(u8, &[u32])> = routes
        .iter()
        .map(|(r, _)| (r.host_port, &r.router_ids[..]))
        .collect();
    assert_eq!(seen, [(0, &[1][..]), (1, &[2][..]), (2, &[][..])]);
    assert_eq!(
        routes[2].0.segments.len(),
        1,
        "direct: the local segment alone"
    );
    assert!(routes.iter().all(|(_, residual)| *residual == rate));
}
