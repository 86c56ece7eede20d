//! Behavioural tests for the Sirpent host stack.

use sirpent::compile::CompiledRoute;
use sirpent::directory::{
    AccessSpec, EthernetHop, HopSpec, RouteRecord, Security, TeQuery, TokenIssue,
};
use sirpent::host::{HostEvent, HostPortKind, SirpentHost};
use sirpent::router::link::{LinkFrame, RateControlMsg};
use sirpent::router::scripted::ScriptedHost;
use sirpent::router::viper::{PortConfig, PortKind, ViperConfig, ViperRouter};
use sirpent::sim::{ChannelId, FaultConfig, NodeId, SimDuration, SimTime, Simulator};
use sirpent::telemetry;
use sirpent::token::TokenMinter;
use sirpent::transport::FailoverPolicy;
use sirpent::wire::ethernet;
use sirpent::wire::packet::{PacketBuilder, PacketView};
use sirpent::wire::viper::{Priority, SegmentRepr, PORT_LOCAL};
use sirpent::wire::vmtp::EntityId;
use sirpent::Net;

const RATE: u64 = 10_000_000;
const PROP: SimDuration = SimDuration(5_000);

fn p2p_ports(n: usize) -> Vec<(u8, HostPortKind)> {
    (0..n as u8)
        .map(|p| (p, HostPortKind::PointToPoint))
        .collect()
}

/// The routes `net`'s directory issues from `from` to `to`.
fn routes(net: &Net, from: NodeId, to: NodeId) -> Vec<CompiledRoute> {
    net.routes(&mut net.directory(), from, to, &TeQuery::default(), 1)
        .into_iter()
        .map(|(route, _)| route)
        .collect()
}

/// What the directory issues a client with one access link per listed
/// router, each router one hop from the server: one route per link, in
/// host-port order. Tests of the client's side alone install these on a
/// host whose links end at scripted peers.
fn routes_via(routers: &[u32]) -> Vec<CompiledRoute> {
    let mut net = Net::new(0);
    let a = net.host(0xA, p2p_ports(routers.len()));
    let b = net.host(0xB, p2p_ports(routers.len()));
    for (port, &id) in (0..).zip(routers) {
        let r = net.viper(ViperConfig::basic(id, &[1, 2]));
        net.p2p(a, port, r, 1, RATE, PROP);
        net.p2p(r, 2, b, port, RATE, PROP);
    }
    routes(&net, a, b)
}

#[test]
fn hosts_exchange_over_ethernet_access() {
    // Both hosts share an Ethernet with the router; the whole §2 packet
    // layout ([enetHdr1, seg(+enetHdr2), data]) goes over real buses.
    let mac_a = ethernet::Address::from_index(0xA);
    let mac_b = ethernet::Address::from_index(0xB);
    let mac_r1 = ethernet::Address::from_index(0x21);
    let mac_r2 = ethernet::Address::from_index(0x22);

    let mut net = Net::new(3);
    let a = net.host(0xA, vec![(0, HostPortKind::Ethernet { mac: mac_a })]);
    let b = net.host(0xB, vec![(0, HostPortKind::Ethernet { mac: mac_b })]);
    let mut cfg = ViperConfig::basic(1, &[]);
    cfg.ports = vec![
        PortConfig {
            port: 1,
            kind: PortKind::Ethernet { mac: mac_r1 },
            mtu: 1550,
        },
        PortConfig {
            port: 2,
            kind: PortKind::Ethernet { mac: mac_r2 },
            mtu: 1550,
        },
    ];
    let r = net.viper(cfg);
    net.bus(RATE, PROP, &[(a, 0), (r, 1)]);
    net.bus(RATE, PROP, &[(r, 2), (b, 0)]);
    let mut sim = net.into_sim();

    let route = CompiledRoute::compile(
        &RouteRecord {
            access: AccessSpec {
                host_port: 0,
                ethernet_next: Some(EthernetHop {
                    src: mac_a,
                    dst: mac_r1,
                }),
                bandwidth_bps: RATE,
                prop_delay: PROP,
                mtu: 1550,
            },
            hops: vec![HopSpec {
                router_id: 1,
                port: 2,
                ethernet_next: Some(EthernetHop {
                    src: mac_r2,
                    dst: mac_b,
                }),
                bandwidth_bps: RATE,
                prop_delay: PROP,
                mtu: 1550,
                cost: 1,
                security: Security::Controlled,
            }],
            endpoint_selector: vec![],
        },
        &[],
        Priority::NORMAL,
    );
    sim.node_mut::<SirpentHost>(a)
        .install_routes(EntityId(0xB), vec![route]);
    sim.node_mut::<SirpentHost>(b).echo = true;
    sim.node_mut::<SirpentHost>(a).queue_request(
        SimTime::ZERO,
        EntityId(0xB),
        b"ethernet all the way".to_vec(),
    );
    SirpentHost::start(&mut sim, a);
    sim.run_until(SimTime(100_000_000));

    let client = sim.node::<SirpentHost>(a);
    assert_eq!(client.inbox.len(), 1);
    assert_eq!(client.inbox[0].message, b"ethernet all the way");
    // The reply used the reversed Ethernet headers end to end.
    assert_eq!(sim.node::<SirpentHost>(b).stats.responses_sent, 1);
}

#[test]
fn misrouted_packet_counted_and_ignored() {
    // Deliver a Sirpent packet whose leading segment is NOT local: a
    // host is not a router and must count + drop it (E12 bookkeeping).
    let mut net = Net::new(4);
    let a = net.host(0xA, vec![(0, HostPortKind::PointToPoint)]);
    let x = net.sim.add_node(Box::new(ScriptedHost::new()));
    net.p2p(x, 0, a, 0, RATE, PROP);
    let mut sim = net.into_sim();

    let pkt = PacketBuilder::new()
        .segment(SegmentRepr::minimal(7)) // transit segment, not local
        .segment(SegmentRepr::minimal(PORT_LOCAL))
        .payload(b"lost".to_vec())
        .build()
        .unwrap();
    sim.node_mut::<ScriptedHost>(x).plan(
        SimTime::ZERO,
        0,
        LinkFrame::Sirpent {
            ff_hint: 0,
            packet: pkt.into(),
        }
        .into_p2p_frame(),
    );
    ScriptedHost::start(&mut sim, x);
    sim.run_until(SimTime(10_000_000));

    let host = sim.node::<SirpentHost>(a);
    assert_eq!(host.stats.misrouted, 1);
    assert!(host.inbox.is_empty());
}

#[test]
fn backpressure_slows_pacer_and_switches_routes() {
    let mut net = Net::new(5);
    let a = net.host(
        0xA,
        vec![
            (0, HostPortKind::PointToPoint),
            (1, HostPortKind::PointToPoint),
        ],
    );
    let x = net.sim.add_node(Box::new(ScriptedHost::new()));
    let y = net.sim.add_node(Box::new(ScriptedHost::new()));
    net.p2p(x, 0, a, 0, RATE, PROP);
    net.p2p(y, 0, a, 1, RATE, PROP);
    let mut sim = net.into_sim();

    {
        let h = sim.node_mut::<SirpentHost>(a);
        h.set_failover(FailoverPolicy::default());
        h.install_routes(EntityId(0xB), routes_via(&[9, 8]));
        assert_eq!(h.current_route_index(EntityId(0xB)), Some(0));
    }

    // A rate-control message arrives naming router 9 (on the current
    // route).
    let rc = RateControlMsg {
        congested_router: 9,
        congested_port: 2,
        allowed_bps: 1_000_000,
        queue_len: 9,
    };
    sim.node_mut::<ScriptedHost>(x).plan(
        SimTime::ZERO,
        0,
        LinkFrame::RateControl(rc).into_p2p_frame(),
    );
    ScriptedHost::start(&mut sim, x);
    sim.run_until(SimTime(10_000_000));

    let h = sim.node::<SirpentHost>(a);
    assert_eq!(h.stats.backpressure_received, 1);
    assert!(
        h.endpoint().pacer.rate_bps <= 1_000_000,
        "pacer clamped to the granted rate"
    );
    assert_eq!(
        h.current_route_index(EntityId(0xB)),
        Some(1),
        "switched away from the congested router"
    );
    assert!(h
        .events
        .iter()
        .any(|e| matches!(e, HostEvent::RouteSwitched { index: 1, .. })));
}

#[test]
fn backpressure_for_foreign_router_does_not_switch() {
    let mut net = Net::new(6);
    let a = net.host(
        0xA,
        vec![
            (0, HostPortKind::PointToPoint),
            (1, HostPortKind::PointToPoint),
        ],
    );
    let x = net.sim.add_node(Box::new(ScriptedHost::new()));
    net.p2p(x, 0, a, 0, RATE, PROP);
    let dummy = net.sim.add_node(Box::new(ScriptedHost::new()));
    net.p2p(dummy, 0, a, 1, RATE, PROP);
    let mut sim = net.into_sim();
    sim.node_mut::<SirpentHost>(a)
        .install_routes(EntityId(0xB), routes_via(&[9, 8]));

    let rc = RateControlMsg {
        congested_router: 777, // not on any installed route
        congested_port: 2,
        allowed_bps: 1_000_000,
        queue_len: 9,
    };
    sim.node_mut::<ScriptedHost>(x).plan(
        SimTime::ZERO,
        0,
        LinkFrame::RateControl(rc).into_p2p_frame(),
    );
    ScriptedHost::start(&mut sim, x);
    sim.run_until(SimTime(10_000_000));

    let h = sim.node::<SirpentHost>(a);
    assert_eq!(h.current_route_index(EntityId(0xB)), Some(0), "no switch");
}

#[test]
fn truncated_packets_are_flagged_not_accepted() {
    // Small next-hop MTU truncates the request; the receiving host
    // notices the marker and the transport never delivers the damaged
    // message; the sender retransmits but the route simply can't carry
    // it (give-up after max attempts).
    let mut net = Net::new(7);
    let a = net.host(0xA, vec![(0, HostPortKind::PointToPoint)]);
    let b = net.host(0xB, vec![(0, HostPortKind::PointToPoint)]);
    let mut cfg = ViperConfig::basic(1, &[1, 2]);
    cfg.ports[1].mtu = 400; // too small for a ~1 KB request packet
    let r = net.viper(cfg);
    net.p2p(a, 0, r, 1, RATE, PROP);
    net.p2p(r, 2, b, 0, RATE, PROP);
    let routes = routes(&net, a, b);
    let mut sim = net.into_sim();
    sim.node_mut::<SirpentHost>(a)
        .install_routes(EntityId(0xB), routes);
    sim.node_mut::<SirpentHost>(a)
        .queue_request(SimTime::ZERO, EntityId(0xB), vec![9u8; 900]);
    SirpentHost::start(&mut sim, a);
    sim.run_until(SimTime(2_000_000_000));

    let server = sim.node::<SirpentHost>(b);
    assert!(server.inbox.is_empty(), "truncated data never delivered");
    assert!(server.stats.truncated_seen > 0, "marker was detected (§2)");
    assert!(sim.node::<ViperRouter>(r).stats.truncated > 0);
    let client = sim.node::<SirpentHost>(a);
    assert!(client
        .events
        .iter()
        .any(|e| matches!(e, HostEvent::GaveUp { .. })));
}

#[test]
fn intra_host_selector_is_carried_in_local_segment() {
    // §2.2: Sirpent unifies inter- and intra-host addressing — the
    // final local segment's portInfo selects the endpoint within the
    // host. Verify the compiled route carries it onto the wire.
    let mut net = Net::new(8);
    let a = net.host(0xA, p2p_ports(1));
    let b = net.host(0xB, p2p_ports(1));
    net.p2p(a, 0, b, 0, RATE, PROP);
    let mut route = routes(&net, a, b).remove(0);
    route.segments.last_mut().unwrap().port_info = vec![0xE0, 0x01];
    let pkt = PacketBuilder::new()
        .route(route.segments.clone())
        .payload(b"x".to_vec())
        .build()
        .unwrap();
    let view = sirpent::wire::packet::PacketView::parse(&pkt).unwrap();
    assert_eq!(view.route.last().unwrap().port, PORT_LOCAL);
    assert_eq!(view.route.last().unwrap().port_info, vec![0xE0, 0x01]);
}

#[test]
fn endpoint_selector_demultiplexes_within_a_host() {
    // Two logical services on one host, distinguished purely by the
    // local segment's selector: the wrong selector is refused, the
    // right one (or a wildcard-empty one) delivers.
    let mut net = Net::new(8);
    let a = net.host(0xA, vec![(0, HostPortKind::PointToPoint)]);
    let b = net.host(0xB, vec![(0, HostPortKind::PointToPoint)]);
    let r = net.viper(ViperConfig::basic(1, &[1, 2]));
    net.p2p(a, 0, r, 1, RATE, PROP);
    net.p2p(r, 2, b, 0, RATE, PROP);
    let route = routes(&net, a, b).remove(0);
    let mut sim = net.into_sim();
    sim.node_mut::<SirpentHost>(b).endpoint_selector = vec![0x51];

    // The client names the endpoint within the server in the route's
    // final, local segment.
    let route_with = |sel: Vec<u8>| {
        let mut route = route.clone();
        route.segments.last_mut().unwrap().port_info = sel;
        route
    };

    // Wrong selector first.
    sim.node_mut::<SirpentHost>(a)
        .install_routes(EntityId(0xB), vec![route_with(vec![0x99])]);
    sim.node_mut::<SirpentHost>(a).queue_request(
        SimTime::ZERO,
        EntityId(0xB),
        b"to the wrong socket".to_vec(),
    );
    SirpentHost::start(&mut sim, a);
    sim.run_until(SimTime(100_000_000));
    {
        let server = sim.node::<SirpentHost>(b);
        assert!(server.inbox.is_empty());
        assert!(server.stats.wrong_endpoint > 0);
    }

    // Correct selector delivers.
    let t = sim.now();
    sim.node_mut::<SirpentHost>(a)
        .install_routes(EntityId(0xB), vec![route_with(vec![0x51])]);
    sim.node_mut::<SirpentHost>(a)
        .queue_request(t, EntityId(0xB), b"to the right socket".to_vec());
    SirpentHost::start(&mut sim, a);
    sim.run_until(SimTime(t.as_nanos() + 100_000_000));
    let server = sim.node::<SirpentHost>(b);
    assert_eq!(server.inbox.len(), 1);
    assert_eq!(server.inbox[0].message, b"to the right socket");
}

#[test]
fn compressed_ethernet_port_info_saves_bytes_and_still_routes() {
    // §2 footnote: the portInfo may carry only destination + type; the
    // router fills in its own source address when forwarding.
    let mac_a = ethernet::Address::from_index(0xA1);
    let mac_b = ethernet::Address::from_index(0xB1);
    let mac_r1 = ethernet::Address::from_index(0x31);
    let mac_r2 = ethernet::Address::from_index(0x32);

    let mut net = Net::new(11);
    let a = net.host(0xA, vec![(0, HostPortKind::Ethernet { mac: mac_a })]);
    let b = net.host(0xB, vec![(0, HostPortKind::Ethernet { mac: mac_b })]);
    let mut cfg = ViperConfig::basic(1, &[]);
    cfg.ports = vec![
        PortConfig {
            port: 1,
            kind: PortKind::Ethernet { mac: mac_r1 },
            mtu: 1550,
        },
        PortConfig {
            port: 2,
            kind: PortKind::Ethernet { mac: mac_r2 },
            mtu: 1550,
        },
    ];
    let r = net.viper(cfg);
    net.bus(RATE, PROP, &[(a, 0), (r, 1)]);
    net.bus(RATE, PROP, &[(r, 2), (b, 0)]);
    let mut sim = net.into_sim();

    let record = RouteRecord {
        access: AccessSpec {
            host_port: 0,
            ethernet_next: Some(EthernetHop {
                src: mac_a,
                dst: mac_r1,
            }),
            bandwidth_bps: RATE,
            prop_delay: PROP,
            mtu: 1550,
        },
        hops: vec![HopSpec {
            router_id: 1,
            port: 2,
            ethernet_next: Some(EthernetHop {
                src: mac_r2,
                dst: mac_b,
            }),
            bandwidth_bps: RATE,
            prop_delay: PROP,
            mtu: 1550,
            cost: 1,
            security: Security::Controlled,
        }],
        endpoint_selector: vec![],
    };
    let full = CompiledRoute::compile(&record, &[], Priority::NORMAL);
    let compressed = CompiledRoute::compile_opts(&record, &[], Priority::NORMAL, true);
    assert_eq!(
        full.header_bytes() - compressed.header_bytes(),
        6,
        "6 bytes saved per Ethernet hop"
    );

    sim.node_mut::<SirpentHost>(a)
        .install_routes(EntityId(0xB), vec![compressed]);
    sim.node_mut::<SirpentHost>(b).echo = true;
    sim.node_mut::<SirpentHost>(a).queue_request(
        SimTime::ZERO,
        EntityId(0xB),
        b"compressed".to_vec(),
    );
    SirpentHost::start(&mut sim, a);
    sim.run_until(SimTime(100_000_000));

    let client = sim.node::<SirpentHost>(a);
    assert_eq!(client.inbox.len(), 1, "routed and replied");
    assert_eq!(client.inbox[0].message, b"compressed");
}

#[test]
fn oversize_route_is_refused_and_counted_not_silently_dropped() {
    // A 1000 B request over an n-hop token route: every hop adds a
    // 32-byte-token segment, so past some n the packet no longer fits
    // the 1500-byte transmission unit. Up to that boundary the host
    // sends; one hop more it must refuse *and say so* in its stats.
    let token_route = |n: u32| {
        let mut net = Net::new(0);
        let a = net.host(0xA, p2p_ports(1));
        let b = net.host(0xB, p2p_ports(1));
        let mut prev = (a, 0);
        for id in 1..=n {
            let r = net.viper(ViperConfig::basic(id, &[1, 2]));
            net.p2p(prev.0, prev.1, r, 1, RATE, PROP);
            prev = (r, 2);
        }
        net.p2p(prev.0, prev.1, b, 0, RATE, PROP);
        let mut dir = net.directory().with_tokens(TokenIssue {
            minter: TokenMinter::new(0xA5, 9),
            max_priority: Priority::NORMAL,
            reverse_ok: true,
            byte_limit: 0,
            expiry_s: 0,
        });
        let route = net
            .routes(&mut dir, a, b, &TeQuery::default(), 1)
            .remove(0)
            .0;
        assert_eq!(route.segments[0].port_token.len(), 32);
        route
    };
    // (packets that reached the wire, builds refused) for an n-hop route.
    let attempt = |n: u32| {
        let mut net = Net::new(9);
        let a = net.host(0xA, vec![(0, HostPortKind::PointToPoint)]);
        let tap = net.sim.add_node(Box::new(ScriptedHost::new()));
        net.p2p(a, 0, tap, 0, RATE, PROP);
        let mut sim = net.into_sim();
        sim.node_mut::<SirpentHost>(a)
            .install_routes(EntityId(0xB), vec![token_route(n)]);
        sim.node_mut::<SirpentHost>(a)
            .queue_request(SimTime::ZERO, EntityId(0xB), vec![7u8; 1000]);
        SirpentHost::start(&mut sim, a);
        sim.run_until(SimTime(5_000_000));
        let sent: Vec<usize> = sim
            .node::<ScriptedHost>(tap)
            .received_p2p()
            .iter()
            .map(|(_, lf)| match lf {
                LinkFrame::Sirpent { packet, .. } => packet.len(),
                _ => 0,
            })
            .collect();
        (sent, sim.node::<SirpentHost>(a).stats.build_refused)
    };

    let longest = (1..48)
        .take_while(|&n| !attempt(n).0.is_empty())
        .last()
        .expect("a one-hop route fits");
    let (sent, refused) = attempt(longest);
    assert_eq!(refused, 0, "the longest fitting route is not refused");
    assert!(sent.iter().all(|&len| len <= 1500 && len + 40 > 1500));

    let (sent, refused) = attempt(longest + 1);
    assert!(sent.is_empty(), "one more hop: nothing reaches the wire");
    assert!(refused > 0, "and the refusal is counted");
}

#[test]
fn message_over_32_members_is_refused_and_counted() {
    // 33 segments of the default 1000 bytes: the transport cannot carry
    // it as one packet group. The request is not sent — and the host
    // says so instead of just spending the transaction id.
    let mut net = Net::new(12);
    let a = net.host(0xA, vec![(0, HostPortKind::PointToPoint)]);
    let tap = net.sim.add_node(Box::new(ScriptedHost::new()));
    net.p2p(a, 0, tap, 0, RATE, PROP);
    let mut sim = net.into_sim();
    let host = sim.node_mut::<SirpentHost>(a);
    host.install_routes(EntityId(0xB), routes_via(&[9]));
    host.queue_request(SimTime::ZERO, EntityId(0xB), vec![1u8; 32_001]);
    host.queue_request(SimTime::ZERO, EntityId(0xB), vec![2u8; 10]);
    SirpentHost::start(&mut sim, a);
    sim.run_until(SimTime(1_000_000));

    let host = sim.node::<SirpentHost>(a);
    assert_eq!(host.stats.message_refused, 1);
    assert_eq!(host.stats.requests_sent, 1, "the sendable one went out");
    assert_eq!(sim.node::<ScriptedHost>(tap).received.len(), 1);
}

#[test]
fn packet_without_a_route_is_counted_not_silently_dropped() {
    // A request toward a destination nobody installed a route for: the
    // transport accepts it, every attempt finds no path, and each one is
    // counted until the client gives up.
    let mut net = Net::new(13);
    let a = net.host(0xA, vec![(0, HostPortKind::PointToPoint)]);
    let tap = net.sim.add_node(Box::new(ScriptedHost::new()));
    net.p2p(a, 0, tap, 0, RATE, PROP);
    let mut sim = net.into_sim();
    sim.node_mut::<SirpentHost>(a).queue_request(
        SimTime::ZERO,
        EntityId(0xB),
        b"to nowhere".to_vec(),
    );
    SirpentHost::start(&mut sim, a);
    sim.run_until(SimTime(2_000_000_000));

    let host = sim.node::<SirpentHost>(a);
    assert_eq!(host.stats.requests_sent, 1);
    assert_eq!(host.stats.no_route, 5, "the send and four retransmissions");
    assert!(matches!(host.events[..], [HostEvent::GaveUp { .. }]));
    assert!(sim.node::<ScriptedHost>(tap).received.is_empty());
}

/// Two hosts either side of one router, and the client's link: the
/// channel to the router, and the one on which the router forwards the
/// server's frames to the client.
fn client_router_server(seed: u64) -> (Simulator, NodeId, NodeId, (ChannelId, ChannelId)) {
    let mut net = Net::new(seed);
    let a = net.host(0xA, vec![(0, HostPortKind::PointToPoint)]);
    let b = net.host(0xB, vec![(0, HostPortKind::PointToPoint)]);
    let r = net.viper(ViperConfig::basic(1, &[1, 2]));
    let client_link = net.p2p(a, 0, r, 1, RATE, PROP);
    net.p2p(r, 2, b, 0, RATE, PROP);
    let routes = routes(&net, a, b);
    let mut sim = net.into_sim();
    sim.node_mut::<SirpentHost>(a)
        .install_routes(EntityId(0xB), routes);
    (sim, a, b, client_link)
}

/// Run `sim` until `channel` has carried `n - 1` frames, then lose the
/// `n`th.
fn lose_frame(sim: &mut Simulator, channel: ChannelId, n: u64) {
    let carried = |sim: &Simulator| sim.channel_stats(channel).frames;
    while carried(sim) < n - 1 {
        assert!(sim.step(), "the frames before it come through");
    }
    let lossy = FaultConfig {
        drop_prob: 1.0,
        corrupt_prob: 0.0,
    };
    sim.set_faults(channel, lossy);
    while carried(sim) < n {
        assert!(sim.step(), "frame {n} is sent");
    }
    sim.set_faults(channel, FaultConfig::default());
    assert_eq!(sim.channel_stats(channel).drops, 1);
}

#[test]
fn completed_transactions_leave_no_open_state() {
    // Lossless path, single- and multi-packet messages both ways: when
    // the last response is in, neither host holds a request tracker, a
    // sent group or a partial reassembly, and telemetry says the same.
    let (mut sim, a, b, _) = client_router_server(14);
    sim.node_mut::<SirpentHost>(b).auto_respond = Some(vec![0xA5; 2_500]);
    for i in 0..20u64 {
        let len = if i % 2 == 0 { 64 } else { 3_000 };
        sim.node_mut::<SirpentHost>(a).queue_request(
            SimTime(i * 20_000_000),
            EntityId(0xB),
            vec![0x5A; len],
        );
    }
    SirpentHost::start(&mut sim, a);
    sim.run_until(SimTime(200_000_000));
    assert!(
        sim.node::<SirpentHost>(a).open_transactions() > 0,
        "mid-run there is state to hold"
    );
    sim.run_until(SimTime(1_000_000_000));

    let (client, server) = (sim.node::<SirpentHost>(a), sim.node::<SirpentHost>(b));
    assert_eq!(client.rtt_samples.len(), 20);
    assert_eq!(server.stats.responses_sent, 20);
    assert_eq!(client.open_transactions(), 0);
    assert_eq!(server.open_transactions(), 0);
    let fleet = sim.scrape_telemetry().unwrap();
    let open = fleet.get(telemetry::names::HOST_OPEN_TRANSACTIONS);
    assert_eq!(open, Some(&telemetry::registry::Metric::Gauge(0)));
}

#[test]
fn a_probe_recovers_a_response_lost_after_the_request_was_acked() {
    // The server's ack gets through and its response does not. The
    // client's request group is then fully acknowledged, and must stay
    // until the response arrives: the retransmission timer has nothing
    // to resend and probes from it, the server answers the replay from
    // its transaction record, and only then is everything retired.
    let (mut sim, a, b, (_, to_client)) = client_router_server(15);
    sim.node_mut::<SirpentHost>(b).auto_respond = Some(vec![0xA5; 200]);
    sim.node_mut::<SirpentHost>(a)
        .queue_request(SimTime::ZERO, EntityId(0xB), vec![0x5A; 300]);
    SirpentHost::start(&mut sim, a);

    // The server sends the ack, then the response: lose exactly the
    // second frame the router forwards to the client.
    lose_frame(&mut sim, to_client, 2);

    sim.run_until(SimTime(2_000_000_000));
    let (client, server) = (sim.node::<SirpentHost>(a), sim.node::<SirpentHost>(b));
    assert_eq!(
        client.rtt_samples.len(),
        1,
        "the probe brought the response"
    );
    assert_eq!(client.inbox[0].message, vec![0xA5; 200]);
    assert_eq!(client.endpoint().stats.retransmissions, 1, "one probe");
    assert_eq!(server.endpoint().stats.duplicates, 1, "seen as a replay");
    assert_eq!(server.stats.responses_sent, 1, "re-sent, not re-answered");
    assert!(client.events.is_empty(), "nobody gave up");
    assert_eq!(client.open_transactions(), 0);
    assert_eq!(server.open_transactions(), 0);
}

#[test]
fn a_response_whose_ack_is_lost_leaves_no_open_state() {
    // The server keeps a response only to answer a replay and times
    // nothing, so losing the client's ack of it leaves nothing open: no
    // retransmission follows, and nothing waits for an ack.
    let (mut sim, a, b, (to_server, _)) = client_router_server(16);
    sim.node_mut::<SirpentHost>(b).auto_respond = Some(vec![0xA5; 200]);
    sim.node_mut::<SirpentHost>(a)
        .queue_request(SimTime::ZERO, EntityId(0xB), vec![0x5A; 300]);
    SirpentHost::start(&mut sim, a);

    // The client sends its request, then its ack of the response: lose
    // that second frame.
    lose_frame(&mut sim, to_server, 2);

    sim.run_until(SimTime(2_000_000_000));
    let (client, server) = (sim.node::<SirpentHost>(a), sim.node::<SirpentHost>(b));
    assert_eq!(client.rtt_samples.len(), 1);
    assert_eq!(client.endpoint().stats.acks_sent, 1);
    assert_eq!(server.endpoint().stats.retransmissions, 0);
    assert_eq!(client.open_transactions(), 0);
    assert_eq!(server.open_transactions(), 0);
}

/// Queue `n` requests from `a` to `0xB`, one a millisecond from `from`,
/// and run until all are answered.
fn transactions(sim: &mut Simulator, a: NodeId, from: SimTime, n: u64) {
    for i in 0..n {
        let at = from + SimDuration::from_millis(i);
        sim.node_mut::<SirpentHost>(a)
            .queue_request(at, EntityId(0xB), vec![0x5A; 64]);
    }
    SirpentHost::start(sim, a);
    sim.run_until(from + SimDuration::from_secs(1));
}

#[test]
fn replay_state_returns_to_its_size_two_retention_periods_later() {
    // Ten times more transactions leave ten times more replay entries,
    // but only for a while: once both hosts next run two retention
    // periods on, what the burst left is gone, and N new transactions
    // hold what N held before.
    let (mut sim, a, b, _) = client_router_server(17);
    sim.node_mut::<SirpentHost>(b).auto_respond = Some(vec![0xA5; 64]);
    let entries = |sim: &Simulator| {
        let [a, b] = [a, b].map(|h| sim.node::<SirpentHost>(h).endpoint().replay_entries());
        (a, b)
    };
    let n = 20;
    transactions(&mut sim, a, SimTime::ZERO, n);
    // The client keeps each response's id; the server each request's id
    // and the response it sent.
    let after_n = entries(&sim);
    assert_eq!(after_n, (20, 40));
    transactions(&mut sim, a, SimTime(1_000_000_000), 10 * n);
    assert_eq!(entries(&sim), (220, 440));

    let period = sim.node::<SirpentHost>(a).endpoint().retention();
    assert_eq!(period, SimDuration::from_secs(65), "60 s MPL + 5 s skew");
    transactions(&mut sim, a, SimTime(2_000_000_000) + period.times(2), n);
    assert_eq!(entries(&sim), after_n);
    let (client, server) = (sim.node::<SirpentHost>(a), sim.node::<SirpentHost>(b));
    assert_eq!(client.rtt_samples.len() as u64, 12 * n);
    assert_eq!(server.endpoint().stats.duplicates, 0);
    assert_eq!(client.open_transactions(), 0);
}

#[test]
fn a_probe_just_inside_the_retention_period_is_answered() {
    // As `a_probe_recovers_a_response_lost_after_the_request_was_acked`,
    // but the client's timer runs for almost a whole retention period,
    // and the server's replay state has aged a generation meanwhile: the
    // probe still finds the request and the response kept for it.
    let mut net = Net::new(18);
    let a = net.host(0xA, vec![(0, HostPortKind::PointToPoint)]);
    let b = net.host(0xB, vec![(0, HostPortKind::PointToPoint)]);
    let r = net.viper(ViperConfig::basic(1, &[1, 2]));
    let to_client = net.p2p(a, 0, r, 1, RATE, PROP).1;
    net.p2p(r, 2, b, 0, RATE, PROP);
    let mut slow = routes(&net, a, b);
    let mut sim = net.into_sim();
    let period = sim.node::<SirpentHost>(b).endpoint().retention();
    // The first timeout is twice the base RTT: 10 ms short of a period.
    slow[0].base_rtt = SimDuration((period.as_nanos() - 10_000_000) / 2);
    sim.node_mut::<SirpentHost>(a)
        .install_routes(EntityId(0xB), slow);
    sim.node_mut::<SirpentHost>(b).auto_respond = Some(vec![0xA5; 200]);
    // Half a period in, so the server's state changes generation before
    // the probe comes.
    let sent = SimTime::ZERO + SimDuration(period.as_nanos() / 2);
    sim.node_mut::<SirpentHost>(a)
        .queue_request(sent, EntityId(0xB), vec![0x5A; 300]);
    SirpentHost::start(&mut sim, a);
    lose_frame(&mut sim, to_client, 2);

    sim.run_until(sent + period + SimDuration::from_secs(1));
    let (client, server) = (sim.node::<SirpentHost>(a), sim.node::<SirpentHost>(b));
    assert_eq!(
        client.rtt_samples.len(),
        1,
        "the probe brought the response"
    );
    assert!(client.rtt_samples[0].1 + SimDuration::from_millis(11) > period);
    assert_eq!(client.inbox[0].message, vec![0xA5; 200]);
    assert_eq!(client.endpoint().stats.retransmissions, 1, "one probe");
    assert_eq!(server.endpoint().stats.duplicates, 1, "seen as a replay");
    assert_eq!(server.stats.responses_sent, 1, "re-sent, not re-answered");
    assert_eq!(client.open_transactions(), 0);
}

#[test]
fn a_request_given_up_on_retires_two_retention_periods_later() {
    // A silent server acks and never answers, so the client gives up.
    // Its tracker stays for a late response, and goes once the client
    // next runs two retention periods on.
    let (mut sim, a, b, _) = client_router_server(19);
    sim.node_mut::<SirpentHost>(a)
        .queue_request(SimTime::ZERO, EntityId(0xB), vec![0x5A; 64]);
    SirpentHost::start(&mut sim, a);
    sim.run_until(SimTime(2_000_000_000));
    let client = sim.node::<SirpentHost>(a);
    let gave_up = |e: &HostEvent| matches!(e, HostEvent::GaveUp { .. });
    assert!(client.events.iter().any(gave_up));
    assert_eq!(client.open_transactions(), 1, "kept for a late response");

    let period = client.endpoint().retention();
    sim.node_mut::<SirpentHost>(b).auto_respond = Some(vec![0xA5; 64]);
    transactions(&mut sim, a, SimTime(2_000_000_000) + period.times(2), 1);
    let client = sim.node::<SirpentHost>(a);
    assert_eq!(client.rtt_samples.len(), 1, "the next request's");
    assert_eq!(client.open_transactions(), 0);
}

#[test]
fn rate_control_events_come_out_in_destination_order() {
    // Twelve destinations all transit router 9 and all have an alternate,
    // so one rate-control frame naming router 9 switches every one of
    // them. The host keeps routes in a hash map; the events must not
    // inherit its iteration order.
    let mut net = Net::new(10);
    let a = net.host(
        0xA,
        vec![
            (0, HostPortKind::PointToPoint),
            (1, HostPortKind::PointToPoint),
        ],
    );
    let x = net.sim.add_node(Box::new(ScriptedHost::new()));
    let y = net.sim.add_node(Box::new(ScriptedHost::new()));
    net.p2p(x, 0, a, 0, RATE, PROP);
    net.p2p(y, 0, a, 1, RATE, PROP);
    let mut sim = net.into_sim();

    let dsts: Vec<EntityId> = (0..12u64).map(|i| EntityId(0xB00 + i * 5 % 12)).collect();
    let routes = routes_via(&[9, 8]);
    for &dst in &dsts {
        sim.node_mut::<SirpentHost>(a)
            .install_routes(dst, routes.clone());
    }
    let rc = RateControlMsg {
        congested_router: 9,
        congested_port: 2,
        allowed_bps: 1_000_000,
        queue_len: 9,
    };
    sim.node_mut::<ScriptedHost>(x).plan(
        SimTime::ZERO,
        0,
        LinkFrame::RateControl(rc).into_p2p_frame(),
    );
    ScriptedHost::start(&mut sim, x);
    sim.run_until(SimTime(10_000_000));

    let switched: Vec<EntityId> = sim
        .node::<SirpentHost>(a)
        .events
        .iter()
        .map(|e| match e {
            HostEvent::RouteSwitched { dst, index: 1, .. } => *dst,
            other => panic!("unexpected event {other:?}"),
        })
        .collect();
    let mut want = dsts;
    want.sort();
    assert_eq!(switched, want);
}

#[test]
fn first_frame_on_the_wire_is_link_header_then_built_packet() {
    // What a host puts on a link is `[tag, ff_hint] ++ PacketBuilder::build()`
    // — behind the 14-byte header on an Ethernet — with the link header
    // composed in the frame's owned header and the packet as its body.
    let mac_a = ethernet::Address::from_index(0xA);
    let mac_r = ethernet::Address::from_index(0x21);
    let eth_route = CompiledRoute::compile(
        &RouteRecord {
            access: AccessSpec {
                host_port: 0,
                ethernet_next: Some(EthernetHop {
                    src: mac_a,
                    dst: mac_r,
                }),
                bandwidth_bps: RATE,
                prop_delay: PROP,
                mtu: 1550,
            },
            hops: vec![],
            endpoint_selector: vec![],
        },
        &[],
        Priority::NORMAL,
    );
    let eth_header = ethernet::Repr {
        dst: mac_r,
        src: mac_a,
        ethertype: ethernet::EtherType::Sirpent,
    }
    .to_bytes();
    let cases = [
        (
            HostPortKind::PointToPoint,
            routes_via(&[9]).remove(0),
            vec![],
        ),
        (HostPortKind::Ethernet { mac: mac_a }, eth_route, eth_header),
    ];
    for (kind, route, mut link_header) in cases {
        let mut net = Net::new(11);
        let a = net.host(0xA, vec![(0, kind)]);
        let tap = net.sim.add_node(Box::new(ScriptedHost::new()));
        net.bus(RATE, PROP, &[(a, 0), (tap, 0)]);
        let mut sim = net.into_sim();
        sim.node_mut::<SirpentHost>(a)
            .install_routes(EntityId(0xB), vec![route.clone()]);
        sim.node_mut::<SirpentHost>(a).queue_request(
            SimTime::ZERO,
            EntityId(0xB),
            b"first".to_vec(),
        );
        SirpentHost::start(&mut sim, a);
        sim.run_until(SimTime(1_000_000));

        let frame = &sim.node::<ScriptedHost>(tap).received[0].frame;
        link_header.extend([1, 0]); // Sirpent tag, feed-forward hint 0
        assert_eq!(frame.header(), &link_header[..]);
        let packet = frame.body();
        let view = PacketView::parse(packet).unwrap();
        let rebuilt = PacketBuilder::new()
            .route(route.segments)
            .recovery(route.recovery)
            .payload(view.data(packet))
            .build()
            .unwrap();
        assert_eq!(packet.as_slice(), &rebuilt[..]);
        assert_eq!(frame.to_vec(), [link_header, rebuilt].concat());
    }
}
