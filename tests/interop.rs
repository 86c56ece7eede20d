//! Sirpent over IP (§2.3): source-routed traffic crossing a cloud of
//! standard store-and-forward IP routers as one logical hop, including
//! trailer-built replies re-crossing the cloud.

use sirpent::host::{HostPortKind, SirpentHost};
use sirpent::router::ip::{IpConfig, IpRouter, RouteEntry};
use sirpent::router::link::LinkFrame;
use sirpent::router::scripted::ScriptedHost;
use sirpent::router::viper::{PortConfig, PortKind};
use sirpent::sim::stats::DropReason;
use sirpent::sim::{
    ChaosAction, ChaosEvent, FaultSchedule, NodeId, SimDuration, SimTime, Simulator,
};
use sirpent::telemetry::names;
use sirpent::wire::ipish::{self, Address};
use sirpent::wire::packet::PacketBuilder;
use sirpent::wire::viper::{Flags, Priority, SegmentRepr, PORT_LOCAL};
use sirpent::wire::vmtp::EntityId;
use sirpent::{CompiledRoute, GatewayConfig, IpGateway, Net, IPPROTO_SIRPENT};

const RATE: u64 = 10_000_000;
const PROP: SimDuration = SimDuration(10_000);

const GW1_IP: Address = Address(0x0A000101); // 10.0.1.1
const GW2_IP: Address = Address(0x0A000201); // 10.0.2.1
const ENCAP_TO_GW2: u8 = 100; // GW1's logical port across the cloud
const ENCAP_TO_GW1: u8 = 100; // GW2's logical port back

/// host A — GW1 — [IP router] — GW2 — host B, with A's route to B
/// installed and B echoing. Returns the simulator and
/// `[a, b, gw1, gw2, cloud]`.
fn across_the_cloud(seed: u64) -> (Simulator, [NodeId; 5]) {
    let mut net = Net::new(seed);
    let a = net.host(0xA, vec![(0, HostPortKind::PointToPoint)]);
    let b = net.host(0xB, vec![(0, HostPortKind::PointToPoint)]);
    let gw1 = net.sim.add_node(Box::new(IpGateway::new(GatewayConfig {
        my_ip: GW1_IP,
        ip_port: 2,
        encap_map: vec![(ENCAP_TO_GW2, GW2_IP)],
        local_ports: vec![1],
        process_delay: SimDuration::from_micros(30),
        ttl: 16,
    })));
    let gw2 = net.sim.add_node(Box::new(IpGateway::new(GatewayConfig {
        my_ip: GW2_IP,
        ip_port: 2,
        encap_map: vec![(ENCAP_TO_GW1, GW1_IP)],
        local_ports: vec![1],
        process_delay: SimDuration::from_micros(30),
        ttl: 16,
    })));
    // One IP router in the middle of the cloud.
    let cloud = net.sim.add_node(Box::new(
        IpRouter::new(IpConfig {
            process_delay: SimDuration::from_micros(50),
            ports: vec![
                PortConfig {
                    port: 1,
                    kind: PortKind::PointToPoint,
                    mtu: 1600,
                },
                PortConfig {
                    port: 2,
                    kind: PortKind::PointToPoint,
                    mtu: 1600,
                },
            ],
            routes: vec![
                RouteEntry {
                    prefix: GW2_IP,
                    prefix_len: 24,
                    out_port: 2,
                    next_hop_mac: None,
                },
                RouteEntry {
                    prefix: GW1_IP,
                    prefix_len: 24,
                    out_port: 1,
                    next_hop_mac: None,
                },
            ],
            queue_capacity: 64,
        })
        .expect("ip config"),
    ));
    net.p2p(a, 0, gw1, 1, RATE, PROP);
    net.p2p(gw1, 2, cloud, 1, RATE, PROP);
    net.p2p(cloud, 2, gw2, 2, RATE, PROP);
    net.p2p(gw2, 1, b, 0, RATE, PROP);
    let mut sim = net.into_sim();

    // A's route: [GW1: across the cloud][GW2: out local port 1][local].
    let route = CompiledRoute {
        host_port: 0,
        first_eth: None,
        segments: vec![
            SegmentRepr {
                port: ENCAP_TO_GW2,
                flags: Flags {
                    vnt: true,
                    ..Default::default()
                },
                ..Default::default()
            },
            SegmentRepr {
                port: 1,
                flags: Flags {
                    vnt: true,
                    ..Default::default()
                },
                ..Default::default()
            },
            SegmentRepr {
                port: PORT_LOCAL,
                priority: Priority::NORMAL,
                ..Default::default()
            },
        ],
        recovery: vec![],
        path_mtu: 1400,
        base_rtt: SimDuration::from_millis(5),
        router_ids: vec![],
    };
    sim.node_mut::<SirpentHost>(a)
        .install_routes(EntityId(0xB), vec![route]);
    sim.node_mut::<SirpentHost>(b).echo = true;
    (sim, [a, b, gw1, gw2, cloud])
}

#[test]
fn sirpent_crosses_ip_cloud_and_reply_returns() {
    let (mut sim, [a, b, gw1, gw2, cloud]) = across_the_cloud(55);
    sim.node_mut::<SirpentHost>(a).queue_request(
        SimTime::ZERO,
        EntityId(0xB),
        b"across the internet".to_vec(),
    );
    SirpentHost::start(&mut sim, a);
    sim.run_until(SimTime(100_000_000));

    // B got the request; A got the echo back — all via the cloud.
    let server = sim.node::<SirpentHost>(b);
    assert_eq!(server.inbox.len(), 1);
    assert_eq!(server.inbox[0].message, b"across the internet");

    let client = sim.node::<SirpentHost>(a);
    assert_eq!(client.inbox.len(), 1, "reply recrossed the cloud");
    assert_eq!(client.inbox[0].message, b"across the internet");

    // Gateways actually encapsulated/decapsulated (both directions:
    // request + its ack + response + its ack = ≥2 each way).
    let g1 = sim.node::<IpGateway>(gw1);
    let g2 = sim.node::<IpGateway>(gw2);
    assert!(g1.stats.encapsulated >= 2, "{:?}", g1.stats);
    assert!(g1.stats.decapsulated >= 2);
    assert!(g2.stats.encapsulated >= 2);
    assert!(g2.stats.decapsulated >= 2);
    assert_eq!(g1.stats.dropped, 0);

    // The IP router in the cloud did standard IP work on every crossing.
    let c = sim.node::<IpRouter>(cloud);
    assert!(c.stats.forwarded >= 4);
    assert_eq!(c.stats.total_drops(), 0);
}

/// A gateway that crashes while transmitting comes back with its ports
/// free: the crash loses what it held and what it was sending, and
/// nothing sent afterwards waits behind a transmission that will never
/// complete.
#[test]
fn gateway_forwards_again_after_a_crash_mid_transmission() {
    let (mut sim, [a, _, gw1, ..]) = across_the_cloud(57);
    // The request reaches GW1 at ≈ 80 µs and, after the 30 µs processing
    // delay, takes ≈ 80 µs more to clock out toward the cloud.
    let crash = |at, action| ChaosEvent {
        at: SimTime(at),
        action,
    };
    sim.install_schedule(
        FaultSchedule::new(vec![
            crash(150_000, ChaosAction::RouterCrash { node: gw1 }),
            crash(1_000_000, ChaosAction::RouterRestart { node: gw1 }),
        ])
        .expect("no probabilities to reject"),
    );
    for (at, msg) in [
        (0, b"lost with the crash"),
        (50_000_000, b"after the restart!!"),
    ] {
        sim.node_mut::<SirpentHost>(a)
            .queue_request(SimTime(at), EntityId(0xB), msg.to_vec());
    }
    SirpentHost::start(&mut sim, a);
    sim.run_until(SimTime(200_000_000));

    assert_eq!(
        sim.chaos_stats().drops[DropReason::RouterDown],
        1,
        "the crash caught GW1 mid-transmission"
    );
    let answers = &sim.node::<SirpentHost>(a).inbox;
    assert_eq!(answers.len(), 2, "the first by retransmission");
    assert_eq!(answers[1].message, b"after the restart!!");
}

/// An IP-like datagram from GW2 carrying `protocol`, addressed to `dst`.
fn datagram(ident: u16, protocol: u8, dst: Address) -> Vec<u8> {
    let mut d = ipish::Repr {
        tos: 0,
        total_len: (ipish::HEADER_LEN + 4) as u16,
        ident,
        dont_frag: false,
        more_frags: false,
        frag_offset: 0,
        ttl: 9,
        protocol,
        src: GW2_IP,
        dst,
    }
    .to_bytes();
    d.extend_from_slice(&[1, 2, 3, 4]);
    d
}

/// A scripted outsider on GW1's cloud-facing port. Returns the
/// simulator and `[outsider, gw]`.
fn outsider_on_the_cloud_side(seed: u64) -> (Simulator, [NodeId; 2]) {
    let mut net = Net::new(seed);
    let outsider = net.sim.add_node(Box::new(ScriptedHost::new()));
    let gw = net.sim.add_node(Box::new(IpGateway::new(GatewayConfig {
        my_ip: GW1_IP,
        ip_port: 2,
        encap_map: vec![(ENCAP_TO_GW2, GW2_IP)],
        local_ports: vec![1],
        process_delay: SimDuration::from_micros(10),
        ttl: 16,
    })));
    net.p2p(outsider, 0, gw, 2, RATE, PROP);
    (net.into_sim(), [outsider, gw])
}

/// Wrong-protocol and wrong-address datagrams are dropped at the
/// gateway, not misinterpreted.
#[test]
fn gateway_rejects_foreign_datagrams() {
    let (mut sim, [outsider, gw]) = outsider_on_the_cloud_side(56);
    {
        let h = sim.node_mut::<ScriptedHost>(outsider);
        // The right address but a foreign (UDP-ish) protocol.
        let d1 = datagram(1, 17, GW1_IP);
        h.plan(SimTime::ZERO, 0, LinkFrame::Ipish(d1).into_p2p_frame());
        // The Sirpent protocol but addressed elsewhere.
        let d2 = datagram(2, IPPROTO_SIRPENT, Address(0x0A00FFFF));
        h.plan(SimTime(1_000_000), 0, LinkFrame::Ipish(d2).into_p2p_frame());
    }
    ScriptedHost::start(&mut sim, outsider);
    sim.run_until(SimTime(10_000_000));

    let g = sim.node::<IpGateway>(gw);
    assert_eq!(g.stats.dropped, 2);
    assert_eq!(g.stats.decapsulated, 0);
}

/// The gateway publishes the routers' pipeline surface: a fleet scrape
/// counts the packet it refused.
#[test]
fn gateway_drops_reach_the_telemetry_scrape() {
    let (mut sim, [outsider, gw]) = outsider_on_the_cloud_side(59);
    let foreign = datagram(1, 17, GW1_IP);
    sim.node_mut::<ScriptedHost>(outsider).plan(
        SimTime::ZERO,
        0,
        LinkFrame::Ipish(foreign).into_p2p_frame(),
    );
    ScriptedHost::start(&mut sim, outsider);
    sim.run_until(SimTime(10_000_000));

    let g = sim.node::<IpGateway>(gw);
    assert_eq!(g.stats.pipeline.total_drops(), 1);
    assert_eq!(g.queued_frames(), 0);
    let fleet = sim.scrape_telemetry().expect("scrape");
    assert_eq!(
        fleet.counter(names::ROUTER_DROPS_TOTAL),
        g.stats.pipeline.total_drops()
    );
    assert!(fleet.get(names::ROUTER_QUEUE_DEPTH).is_some());
}

/// A frame the engine kills while it is still clocking into the gateway
/// is one loss, counted once upstream: the gateway forgets its hold on
/// it rather than encapsulating it when the processing delay is up.
#[test]
fn gateway_does_not_forward_a_frame_killed_in_flight() {
    const MBPS_1: u64 = 1_000_000;
    let mut sim = Simulator::new(58);
    let sender = sim.add_node(Box::new(ScriptedHost::new()));
    let cloud = sim.add_node(Box::new(ScriptedHost::new()));
    let gw = sim.add_node(Box::new(IpGateway::new(GatewayConfig {
        my_ip: GW1_IP,
        ip_port: 2,
        encap_map: vec![(ENCAP_TO_GW2, GW2_IP)],
        local_ports: vec![1],
        process_delay: SimDuration::from_micros(30),
        ttl: 16,
    })));
    let (into_gw, _) = sim.p2p(sender, 0, gw, 1, MBPS_1, SimDuration::from_micros(5));
    sim.p2p(gw, 2, cloud, 0, RATE, PROP);
    // Across the cloud, then local: a 200 B payload takes 1.6 ms to clock
    // in at 1 Mb/s, and the link dies 0.5 ms in.
    let packet = PacketBuilder::new()
        .segment(SegmentRepr::minimal(ENCAP_TO_GW2))
        .segment(SegmentRepr::minimal(PORT_LOCAL))
        .payload(vec![0xAB; 200])
        .build()
        .expect("packet");
    let frame = LinkFrame::Sirpent {
        ff_hint: 0,
        packet: packet.into(),
    };
    sim.node_mut::<ScriptedHost>(sender)
        .plan(SimTime::ZERO, 0, frame.into_p2p_frame());
    sim.install_schedule(
        FaultSchedule::new(vec![ChaosEvent {
            at: SimTime(500_000),
            action: ChaosAction::LinkDown { ch: into_gw },
        }])
        .expect("no probabilities to reject"),
    );
    ScriptedHost::start(&mut sim, sender);
    sim.run_until(SimTime(100_000_000));

    assert_eq!(sim.chaos_stats().drops[DropReason::LinkDown], 1);
    assert_eq!(sim.node::<IpGateway>(gw).stats.encapsulated, 0);
    assert!(sim.node::<ScriptedHost>(cloud).received.is_empty());
}
