//! Sirpent over IP (§2.3): source-routed traffic crossing a cloud of
//! standard store-and-forward IP routers as one logical hop, including
//! trailer-built replies re-crossing the cloud. The gateways at either
//! side are VIPER routers with a tunnel port binding.

use sirpent::host::{HostPortKind, SirpentHost};
use sirpent::router::ip::{IpConfig, IpRouter, RouteEntry};
use sirpent::router::link::LinkFrame;
use sirpent::router::scripted::ScriptedHost;
use sirpent::router::viper::{
    AuthConfig, PortConfig, PortKind, SwitchMode, ViperConfig, ViperRouter,
};
use sirpent::router::PortBinding;
use sirpent::sim::stats::DropReason;
use sirpent::sim::{
    ChannelId, ChaosAction, ChaosEvent, FaultSchedule, NodeId, SimDuration, SimTime, Simulator,
};
use sirpent::telemetry::names;
use sirpent::token::{AuthPolicy, Grant, TokenMinter};
use sirpent::wire::buf::PacketBuf;
use sirpent::wire::ethernet;
use sirpent::wire::ipish::{self, Address, Datagram, IPPROTO_SIRPENT};
use sirpent::wire::packet::PacketBuilder;
use sirpent::wire::trailer::Trailer;
use sirpent::wire::viper::{Flags, Priority, SegmentRepr, PORT_LOCAL};
use sirpent::wire::vmtp::EntityId;
use sirpent::{CompiledRoute, Net};

const RATE: u64 = 10_000_000;
const PROP: SimDuration = SimDuration(10_000);

const GW1_IP: Address = Address(0x0A000101); // 10.0.1.1
const GW2_IP: Address = Address(0x0A000201); // 10.0.2.1
/// Each gateway's port value across the cloud to the other.
const TUNNEL: u8 = 100;
/// Each gateway's physical port facing the cloud.
const CLOUD_PORT: u8 = 2;

/// A gateway: a store-and-forward VIPER router (30 µs per packet, a
/// host-grade node) with local port 1 and the cloud behind port 2, where
/// port value [`TUNNEL`] is one logical hop across the cloud from
/// `local` to the gateway at `remote`.
fn gateway(router_id: u32, local: Address, remote: Address) -> ViperConfig {
    let mut cfg = ViperConfig::basic(router_id, &[1, CLOUD_PORT]);
    cfg.mode = SwitchMode::StoreAndForward {
        process_delay: SimDuration::from_micros(30),
    };
    let tunnel = PortBinding::Tunnel {
        via: CLOUD_PORT,
        local,
        remote,
    };
    cfg.logical.bind(TUNNEL, tunnel);
    cfg
}

/// Token checking under the blocking policy, for router `router_id`.
fn auth(minter: &TokenMinter, router_id: u32) -> AuthConfig {
    AuthConfig {
        key: minter.router_key(router_id),
        policy: AuthPolicy::Blocking,
        verify_delay: SimDuration::from_micros(100),
        require_token: true,
    }
}

/// A token for `port` at `router_id` that also covers the reply.
fn token(minter: &mut TokenMinter, router_id: u32, port: u8) -> Vec<u8> {
    minter
        .mint(Grant {
            router_id,
            port,
            max_priority: Priority::new(5),
            reverse_ok: true,
            account: 7,
            byte_limit: 0,
            expiry_s: 0,
        })
        .to_vec()
}

/// The station of node `i` on the cloud's Ethernets.
fn station(i: u32) -> ethernet::Address {
    ethernet::Address::from_index(i)
}

/// host A — GW1 — [IP router] — GW2 — host B, with A's route to B
/// installed and B echoing. With `auth`, both gateways check tokens
/// under its minter, and A's route carries its two tokens (GW1's, GW2's).
/// With `ethernet`, the two links of the cloud are Ethernets (stations
/// 1 and 2 the gateways', 11 and 12 the IP router's), so A's route names
/// the IP router's station for the hop into the tunnel.
/// Returns the simulator and `[a, b, gw1, gw2, cloud]`.
fn across_the_cloud(
    seed: u64,
    auth: Option<(&TokenMinter, [Vec<u8>; 2])>,
    ethernet: bool,
) -> (Simulator, [NodeId; 5]) {
    let kind = |i| match ethernet {
        true => PortKind::Ethernet { mac: station(i) },
        false => PortKind::PointToPoint,
    };
    let mut net = Net::new(seed);
    let a = net.host(0xA, vec![(0, HostPortKind::PointToPoint)]);
    let b = net.host(0xB, vec![(0, HostPortKind::PointToPoint)]);
    let mut cfg1 = gateway(1, GW1_IP, GW2_IP);
    let mut cfg2 = gateway(2, GW2_IP, GW1_IP);
    let [token1, token2] = match auth {
        Some((minter, tokens)) => {
            cfg1.auth = Some(self::auth(minter, 1));
            cfg2.auth = Some(self::auth(minter, 2));
            tokens
        }
        None => Default::default(),
    };
    cfg1.ports[1].kind = kind(1);
    cfg2.ports[1].kind = kind(2);
    let gw1 = net.viper(cfg1);
    let gw2 = net.viper(cfg2);
    // One IP router in the middle of the cloud.
    let cloud = net.sim.add_node(Box::new(
        IpRouter::new(IpConfig {
            process_delay: SimDuration::from_micros(50),
            ports: vec![
                PortConfig {
                    port: 1,
                    kind: kind(11),
                    mtu: 1600,
                },
                PortConfig {
                    port: 2,
                    kind: kind(12),
                    mtu: 1600,
                },
            ],
            routes: vec![
                RouteEntry {
                    prefix: GW2_IP,
                    prefix_len: 24,
                    out_port: 2,
                    next_hop_mac: ethernet.then(|| station(2)),
                },
                RouteEntry {
                    prefix: GW1_IP,
                    prefix_len: 24,
                    out_port: 1,
                    next_hop_mac: ethernet.then(|| station(1)),
                },
            ],
            queue_capacity: 64,
        })
        .expect("ip config"),
    ));
    net.p2p(a, 0, gw1, 1, RATE, PROP);
    net.p2p(gw1, CLOUD_PORT, cloud, 1, RATE, PROP);
    net.p2p(cloud, 2, gw2, CLOUD_PORT, RATE, PROP);
    net.p2p(gw2, 1, b, 0, RATE, PROP);
    let mut sim = net.into_sim();

    // A's route: [GW1: across the cloud][GW2: out local port 1][local].
    let route = CompiledRoute {
        host_port: 0,
        first_eth: None,
        segments: vec![
            SegmentRepr {
                port: TUNNEL,
                flags: Flags {
                    vnt: !ethernet,
                    ..Default::default()
                },
                port_token: token1,
                port_info: match ethernet {
                    true => ethernet::Repr {
                        dst: station(11),
                        src: station(1),
                        ethertype: ethernet::EtherType::Ipish,
                    }
                    .to_bytes(),
                    false => vec![],
                },
                ..Default::default()
            },
            SegmentRepr {
                port: 1,
                flags: Flags {
                    vnt: true,
                    ..Default::default()
                },
                port_token: token2,
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
    crosses_and_returns(55, false);
}

/// As above, over Ethernets: the request's `portInfo` names the IP
/// router's station for the way in, and the arrival's reversed Ethernet
/// header, recorded in the trailer, names it for the reply.
#[test]
fn sirpent_crosses_an_ethernet_cloud_and_reply_returns() {
    crosses_and_returns(63, true);
}

fn crosses_and_returns(seed: u64, ethernet: bool) {
    let (mut sim, [a, b, gw1, gw2, cloud]) = across_the_cloud(seed, None, ethernet);
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

    // Both gateways forwarded both ways (request + its ack + response +
    // its ack: ≥ 2 into the tunnel and ≥ 2 out of it each) and refused
    // nothing.
    for gw in [gw1, gw2] {
        let g = &sim.node::<ViperRouter>(gw).stats;
        assert!(g.forwarded >= 4, "{g:?}");
        assert_eq!(g.total_drops(), 0, "{g:?}");
    }

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
    let (mut sim, [a, _, gw1, ..]) = across_the_cloud(57, None, false);
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

/// A token minted for GW1's tunnel port value carries the request across
/// the cloud, and the reply back through it; a forged one is refused at
/// the tunnel entry and nothing reaches the cloud.
#[test]
fn tokens_are_checked_at_the_tunnel_entry() {
    let mut minter = TokenMinter::new(0x5EED_7E11, 3);
    let tokens = [token(&mut minter, 1, TUNNEL), token(&mut minter, 2, 1)];
    let mut forged = tokens.clone();
    forged[0][5] ^= 0x40;
    for (tokens, honest) in [(tokens, true), (forged, false)] {
        let (mut sim, [a, b, gw1, gw2, cloud]) =
            across_the_cloud(60, Some((&minter, tokens)), false);
        sim.node_mut::<SirpentHost>(a).queue_request(
            SimTime::ZERO,
            EntityId(0xB),
            b"with a ticket".to_vec(),
        );
        SirpentHost::start(&mut sim, a);
        sim.run_until(SimTime(100_000_000));

        let g1 = &sim.node::<ViperRouter>(gw1).stats;
        if honest {
            assert_eq!(sim.node::<SirpentHost>(a).inbox.len(), 1, "echo came back");
            assert!(g1.token_decrypts >= 1, "{g1:?}");
            assert_eq!(g1.total_drops(), 0, "{g1:?}");
            assert_eq!(sim.node::<ViperRouter>(gw2).stats.total_drops(), 0);
        } else {
            assert!(sim.node::<SirpentHost>(b).inbox.is_empty());
            assert!(g1.drops[DropReason::TokenRejected] >= 1, "{g1:?}");
            assert_eq!(g1.total_drops(), g1.drops[DropReason::TokenRejected]);
            assert_eq!(g1.forwarded, 0);
            assert_eq!(sim.node::<IpRouter>(cloud).stats.forwarded, 0);
        }
    }
}

/// The header of a 24-byte IP-like datagram from GW2 carrying
/// `protocol`, addressed to `dst`.
fn header(ident: u16, protocol: u8, dst: Address) -> ipish::Repr {
    ipish::Repr {
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
}

/// The datagram under `hdr`, with a 4-byte body.
fn datagram(hdr: ipish::Repr) -> Datagram {
    Datagram::new(&hdr, PacketBuf::from(&[1, 2, 3, 4]))
}

/// A scripted outsider on GW1's cloud-facing port. Returns the
/// simulator and `[outsider, gw]`.
fn outsider_on_the_cloud_side(seed: u64) -> (Simulator, [NodeId; 2]) {
    let mut net = Net::new(seed);
    let outsider = net.sim.add_node(Box::new(ScriptedHost::new()));
    let gw = net.viper(gateway(1, GW1_IP, GW2_IP));
    net.p2p(outsider, 0, gw, CLOUD_PORT, RATE, PROP);
    (net.into_sim(), [outsider, gw])
}

/// Wrong-protocol, wrong-address, unknown-sender and wrong-length
/// datagrams are dropped at the gateway, not misinterpreted.
#[test]
fn gateway_rejects_foreign_datagrams() {
    let (mut sim, [outsider, gw]) = outsider_on_the_cloud_side(56);
    {
        let h = sim.node_mut::<ScriptedHost>(outsider);
        let sirpent = |ident| header(ident, IPPROTO_SIRPENT, GW1_IP);
        let foreign = [
            // The right address but a foreign (UDP-ish) protocol.
            header(1, 17, GW1_IP),
            // The Sirpent protocol but addressed elsewhere.
            header(2, IPPROTO_SIRPENT, Address(0x0A00FFFF)),
            // From an address bound to no tunnel.
            ipish::Repr {
                src: Address(0x0A000301),
                ..sirpent(3)
            },
            // A `total_len` shorter than the header...
            ipish::Repr {
                total_len: 10,
                ..sirpent(4)
            },
            // ...and one past the body.
            ipish::Repr {
                total_len: (ipish::HEADER_LEN + 5) as u16,
                ..sirpent(5)
            },
        ];
        for (i, hdr) in foreign.into_iter().enumerate() {
            let at = SimTime(i as u64 * 1_000_000);
            h.plan(at, 0, LinkFrame::Ipish(datagram(hdr)).into_p2p_frame());
        }
    }
    ScriptedHost::start(&mut sim, outsider);
    sim.run_until(SimTime(10_000_000));

    let g = sim.node::<ViperRouter>(gw);
    assert_eq!(g.stats.drops[DropReason::BadFrame], 1);
    assert_eq!(g.stats.drops[DropReason::NoRoute], 2);
    assert_eq!(g.stats.drops[DropReason::BadLength], 2);
    assert_eq!(g.stats.total_drops(), 5);
    assert_eq!(g.stats.forwarded, 0);
    assert_eq!(g.stats.local, 0);
}

/// The gateway publishes the routers' pipeline surface: a fleet scrape
/// counts the packet it refused.
#[test]
fn gateway_drops_reach_the_telemetry_scrape() {
    let (mut sim, [outsider, gw]) = outsider_on_the_cloud_side(59);
    let foreign = datagram(header(1, 17, GW1_IP));
    sim.node_mut::<ScriptedHost>(outsider).plan(
        SimTime::ZERO,
        0,
        LinkFrame::Ipish(foreign).into_p2p_frame(),
    );
    ScriptedHost::start(&mut sim, outsider);
    sim.run_until(SimTime(10_000_000));

    let g = sim.node::<ViperRouter>(gw);
    assert_eq!(g.stats.total_drops(), 1);
    assert_eq!(g.queued_frames(), 0);
    let fleet = sim.scrape_telemetry().expect("scrape");
    assert_eq!(
        fleet.counter(names::ROUTER_DROPS_TOTAL),
        g.stats.total_drops()
    );
    assert!(fleet.get(names::ROUTER_QUEUE_DEPTH).is_some());
}

/// A sender on GW1's local port 1 and a scripted cloud on its port 2,
/// whose MTU is `cloud_mtu`. Returns the simulator, the channel into
/// the gateway and `[sender, cloud, gw]`.
fn into_the_tunnel(seed: u64, rate: u64, cloud_mtu: usize) -> (Simulator, ChannelId, [NodeId; 3]) {
    let mut sim = Simulator::new(seed);
    let sender = sim.add_node(Box::new(ScriptedHost::new()));
    let cloud = sim.add_node(Box::new(ScriptedHost::new()));
    let mut cfg = gateway(1, GW1_IP, GW2_IP);
    cfg.ports[1].mtu = cloud_mtu;
    let gw = sim.add_node(Box::new(ViperRouter::new(cfg)));
    let (into_gw, _) = sim.p2p(sender, 0, gw, 1, rate, SimDuration::from_micros(5));
    sim.p2p(gw, CLOUD_PORT, cloud, 0, RATE, PROP);
    (sim, into_gw, [sender, cloud, gw])
}

/// A frame the engine kills while it is still clocking into the gateway
/// is one loss, counted once upstream: the gateway forgets its hold on
/// it rather than encapsulating it when the processing delay is up.
#[test]
fn gateway_does_not_forward_a_frame_killed_in_flight() {
    const MBPS_1: u64 = 1_000_000;
    let (mut sim, into_gw, [sender, cloud, gw]) = into_the_tunnel(58, MBPS_1, 1600);
    // Across the cloud, then local: a 200 B payload takes 1.6 ms to clock
    // in at 1 Mb/s, and the link dies 0.5 ms in.
    let packet = PacketBuilder::new()
        .segment(SegmentRepr::minimal(TUNNEL))
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
    assert_eq!(sim.node::<ViperRouter>(gw).stats.forwarded, 0);
    assert!(sim.node::<ScriptedHost>(cloud).received.is_empty());
}

/// A packet too long for one datagram never puts a wrapped `total_len`
/// on the cloud link: under a datagram-sized MTU it is truncated to fit,
/// with the §2 marker, the IP header counted against the MTU; under a
/// larger one it is refused, one counted drop.
#[test]
fn an_oversize_packet_never_wraps_the_datagram_length() {
    for (cloud_mtu, truncated) in [(1564, true), (100_000, false)] {
        let (mut sim, _, [sender, cloud, gw]) = into_the_tunnel(61, RATE, cloud_mtu);
        let packet = PacketBuilder::new()
            .segment(SegmentRepr::minimal(TUNNEL))
            .segment(SegmentRepr::minimal(PORT_LOCAL))
            .payload(vec![0x70; 70_000])
            .without_mtu_check()
            .build()
            .expect("packet");
        let frame = LinkFrame::Sirpent {
            ff_hint: 0,
            packet: packet.into(),
        };
        sim.node_mut::<ScriptedHost>(sender)
            .plan(SimTime::ZERO, 0, frame.into_p2p_frame());
        ScriptedHost::start(&mut sim, sender);
        sim.run_until(SimTime(200_000_000));

        let stats = &sim.node::<ViperRouter>(gw).stats;
        let on_the_cloud = sim.node::<ScriptedHost>(cloud).received_p2p();
        if !truncated {
            assert_eq!(stats.drops[DropReason::BadLength], 1, "{stats:?}");
            assert_eq!(stats.total_drops(), 1);
            assert!(on_the_cloud.is_empty());
            continue;
        }
        assert_eq!(stats.truncated, 1);
        assert_eq!(stats.total_drops(), 0);
        assert_eq!(on_the_cloud.len(), 1);
        let LinkFrame::Ipish(d) = &on_the_cloud[0].1 else {
            panic!("the tunnel sends datagrams");
        };
        assert_eq!(d.len() + LinkFrame::TAG_LEN, cloud_mtu);
        let hdr = ipish::Repr::parse(d.header()).expect("datagram");
        assert_eq!(usize::from(hdr.total_len), d.len());
        assert_eq!(
            (hdr.protocol, hdr.ttl, hdr.src, hdr.dst),
            (IPPROTO_SIRPENT, ipish::DEFAULT_TTL, GW1_IP, GW2_IP)
        );
        let inner = &d.payload;
        let marked = Trailer::parse(inner).expect("trailer").truncated;
        assert!(marked.is_some(), "the far side can detect the truncation");
    }
}

/// A broadcast that came through the tunnel is copied out every port but
/// the cloud it crossed: no plain Sirpent frame goes back onto the cloud,
/// whose IP routers would refuse it.
#[test]
fn a_broadcast_through_the_tunnel_stays_off_the_cloud() {
    const BROADCAST: u8 = 255;
    let mut sim = Simulator::new(62);
    let local = sim.add_node(Box::new(ScriptedHost::new()));
    let cloud = sim.add_node(Box::new(ScriptedHost::new()));
    let mut cfg = gateway(1, GW1_IP, GW2_IP);
    cfg.logical.bind(BROADCAST, PortBinding::Broadcast);
    let gw = sim.add_node(Box::new(ViperRouter::new(cfg)));
    sim.p2p(gw, 1, local, 0, RATE, PROP);
    sim.p2p(gw, CLOUD_PORT, cloud, 0, RATE, PROP);
    let packet = PacketBuilder::new()
        .segment(SegmentRepr::minimal(BROADCAST))
        .segment(SegmentRepr::minimal(PORT_LOCAL))
        .payload(vec![0xBC; 64])
        .build()
        .expect("packet");
    let hdr = ipish::Repr {
        total_len: ipish::checked_total_len(packet.len()).expect("one datagram"),
        ..header(1, IPPROTO_SIRPENT, GW1_IP)
    };
    let d = Datagram::new(&hdr, packet.into());
    sim.node_mut::<ScriptedHost>(cloud).plan(
        SimTime::ZERO,
        0,
        LinkFrame::Ipish(d).into_p2p_frame(),
    );
    ScriptedHost::start(&mut sim, cloud);
    sim.run_until(SimTime(10_000_000));

    let g = &sim.node::<ViperRouter>(gw).stats;
    assert_eq!(g.total_drops(), 0, "{g:?}");
    assert_eq!(sim.node::<ScriptedHost>(local).received.len(), 1);
    assert!(sim.node::<ScriptedHost>(cloud).received.is_empty());
}
