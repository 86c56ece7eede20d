//! Behavioural tests for the VIPER router: the §2/§5 pipeline end to end
//! on real simulated wires.

use sirpent_router::link::LinkFrame;
use sirpent_router::logical::{PortBinding, TrunkStrategy};
use sirpent_router::scripted::ScriptedHost;
use sirpent_router::viper::{
    AuthConfig, CongestionConfig, DropReason, PortConfig, PortKind, SwitchMode, ViperConfig,
    ViperRouter,
};
use sirpent_sim::{NodeId, SimDuration, SimTime, Simulator};
use sirpent_token::{AuthPolicy, Grant, TokenMinter};
use sirpent_wire::buf::{FrameBuf, PacketBuf};
use sirpent_wire::packet::{PacketBuilder, PacketView};
use sirpent_wire::viper::{Flags, Priority, SegmentRepr, PORT_LOCAL};
use sirpent_wire::{ethernet, trailer};

const MBPS_10: u64 = 10_000_000;
const PROP: SimDuration = SimDuration(2_000); // 2 µs

fn seg(port: u8) -> SegmentRepr {
    SegmentRepr::minimal(port)
}

fn local() -> SegmentRepr {
    SegmentRepr::minimal(PORT_LOCAL)
}

fn sirpent_frame(packet: Vec<u8>) -> FrameBuf {
    LinkFrame::Sirpent {
        ff_hint: 0,
        packet: packet.into(),
    }
    .into_p2p_frame()
}

/// host A (port0) — router R (port1 in, port2 out) — host B (port0).
fn one_router(cfg: ViperConfig) -> (Simulator, NodeId, NodeId, NodeId) {
    let mut sim = Simulator::new(7);
    let a = sim.add_node(Box::new(ScriptedHost::new()));
    let b = sim.add_node(Box::new(ScriptedHost::new()));
    let r = sim.add_node(Box::new(ViperRouter::new(cfg)));
    sim.p2p(a, 0, r, 1, MBPS_10, PROP);
    sim.p2p(r, 2, b, 0, MBPS_10, PROP);
    (sim, a, r, b)
}

#[test]
fn forwards_and_builds_return_hop() {
    let (mut sim, a, r, b) = one_router(ViperConfig::basic(1, &[1, 2]));
    let pkt = PacketBuilder::new()
        .segment(seg(2))
        .segment(local())
        .payload(b"through the serpent".to_vec())
        .build()
        .unwrap();
    sim.node_mut::<ScriptedHost>(a)
        .plan(SimTime::ZERO, 0, sirpent_frame(pkt));
    ScriptedHost::start(&mut sim, a);
    sim.run(10_000);

    let rx = sim.node::<ScriptedHost>(b).received_p2p();
    assert_eq!(rx.len(), 1);
    let LinkFrame::Sirpent { packet, .. } = &rx[0].1 else {
        panic!("wrong kind")
    };
    let view = PacketView::parse(packet).unwrap();
    assert_eq!(view.route.len(), 1, "only the local segment remains");
    assert_eq!(view.route[0].port, PORT_LOCAL);
    assert_eq!(view.data(packet), b"through the serpent");
    assert_eq!(view.trailer.return_hops.len(), 1);
    assert_eq!(
        view.trailer.return_hops[0].port, 1,
        "return hop names the arrival port"
    );
    assert!(view.trailer.return_hops[0].flags.rpf);
    assert_eq!(sim.node::<ViperRouter>(r).stats.forwarded, 1);
}

#[test]
fn cut_through_beats_store_and_forward() {
    let payload = vec![0x11u8; 1000];
    let build = || {
        PacketBuilder::new()
            .segment(seg(2))
            .segment(local())
            .payload(payload.clone())
            .build()
            .unwrap()
    };

    let run = |mode: SwitchMode| -> SimTime {
        let mut cfg = ViperConfig::basic(1, &[1, 2]);
        cfg.mode = mode;
        let (mut sim, a, _r, b) = one_router(cfg);
        sim.node_mut::<ScriptedHost>(a)
            .plan(SimTime::ZERO, 0, sirpent_frame(build()));
        ScriptedHost::start(&mut sim, a);
        sim.run(10_000);
        let rx = &sim.node::<ScriptedHost>(b).received;
        assert_eq!(rx.len(), 1);
        rx[0].last_bit
    };

    let ct = run(SwitchMode::CutThrough);
    let sf = run(SwitchMode::StoreAndForward {
        process_delay: SimDuration::from_micros(50),
    });
    // The packet is ~1015 bytes ≈ 812 µs of wire time per hop. Store and
    // forward pays it twice (plus processing); cut-through pays it once
    // plus the header time.
    let ct_us = ct.as_nanos() as f64 / 1e3;
    let sf_us = sf.as_nanos() as f64 / 1e3;
    assert!(
        sf_us - ct_us > 700.0,
        "expected ≈ one packet time saved; ct={ct_us}µs sf={sf_us}µs"
    );
}

#[test]
fn two_routers_reply_route_works() {
    // A — R1 — R2 — B, then B replies using the constructed return route.
    let mut sim = Simulator::new(9);
    let a = sim.add_node(Box::new(ScriptedHost::new()));
    let b = sim.add_node(Box::new(ScriptedHost::new()));
    let r1 = sim.add_node(Box::new(ViperRouter::new(ViperConfig::basic(1, &[1, 2]))));
    let r2 = sim.add_node(Box::new(ViperRouter::new(ViperConfig::basic(2, &[1, 2]))));
    sim.p2p(a, 0, r1, 1, MBPS_10, PROP);
    sim.p2p(r1, 2, r2, 1, MBPS_10, PROP);
    sim.p2p(r2, 2, b, 0, MBPS_10, PROP);

    let pkt = PacketBuilder::new()
        .segment(seg(2))
        .segment(seg(2))
        .segment(local())
        .payload(b"request".to_vec())
        .build()
        .unwrap();
    sim.node_mut::<ScriptedHost>(a)
        .plan(SimTime::ZERO, 0, sirpent_frame(pkt));
    ScriptedHost::start(&mut sim, a);
    sim.run(10_000);

    // B received it; reconstruct the reply route (network-independent
    // reversal, §2) and send a response back.
    let reply_pkt = {
        let rx = sim.node::<ScriptedHost>(b).received_p2p();
        assert_eq!(rx.len(), 1);
        let LinkFrame::Sirpent { packet, .. } = &rx[0].1 else {
            panic!()
        };
        let view = PacketView::parse(packet).unwrap();
        let route = sirpent_wire::packet::reply_route(&view);
        assert_eq!(
            route.iter().map(|s| s.port).collect::<Vec<_>>(),
            vec![1, 1, 0],
            "reversed arrival ports"
        );
        PacketBuilder::new()
            .route(route)
            .payload(b"response".to_vec())
            .build()
            .unwrap()
    };
    let t = sim.now();
    sim.node_mut::<ScriptedHost>(b)
        .plan(t, 0, sirpent_frame(reply_pkt));
    ScriptedHost::start(&mut sim, b);
    sim.run(10_000);

    let rx_a = sim.node::<ScriptedHost>(a).received_p2p();
    assert_eq!(rx_a.len(), 1, "reply came back to the origin");
    let LinkFrame::Sirpent { packet, .. } = &rx_a[0].1 else {
        panic!()
    };
    let view = PacketView::parse(packet).unwrap();
    assert_eq!(view.data(packet), b"response");
    // And the reply itself built a return route pointing forward again.
    assert_eq!(view.trailer.return_hops.len(), 2);
    assert_eq!(sim.node::<ViperRouter>(r1).stats.forwarded, 2);
    assert_eq!(sim.node::<ViperRouter>(r2).stats.forwarded, 2);
}

#[test]
fn ethernet_hop_swaps_addresses_in_return_info() {
    // Host A and router share an Ethernet; router forwards onto a p2p
    // link to B.
    let mut sim = Simulator::new(11);
    let a = sim.add_node(Box::new(ScriptedHost::new()));
    let b = sim.add_node(Box::new(ScriptedHost::new()));
    let mac_a = ethernet::Address::from_index(10);
    let mac_r = ethernet::Address::from_index(20);
    let mut cfg = ViperConfig::basic(3, &[]);
    cfg.ports = vec![
        PortConfig {
            port: 1,
            kind: PortKind::Ethernet { mac: mac_r },
            mtu: 1600,
        },
        PortConfig {
            port: 2,
            kind: PortKind::PointToPoint,
            mtu: 1600,
        },
    ];
    let r = sim.add_node(Box::new(ViperRouter::new(cfg)));
    let bus = sim.add_channel(MBPS_10, PROP);
    sim.attach(bus, a, 0);
    sim.attach(bus, r, 1);
    sim.p2p(r, 2, b, 0, MBPS_10, PROP);
    sim.node_mut::<ScriptedHost>(a).mac = Some(mac_a);

    let pkt = PacketBuilder::new()
        .segment(seg(2))
        .segment(local())
        .payload(b"over ethernet".to_vec())
        .build()
        .unwrap();
    let frame = LinkFrame::Sirpent {
        ff_hint: 0,
        packet: pkt.into(),
    }
    .into_ethernet_frame(mac_a, mac_r);
    sim.node_mut::<ScriptedHost>(a)
        .plan(SimTime::ZERO, 0, frame);
    ScriptedHost::start(&mut sim, a);
    sim.run(10_000);

    let rx = sim.node::<ScriptedHost>(b).received_p2p();
    assert_eq!(rx.len(), 1);
    let LinkFrame::Sirpent { packet, .. } = &rx[0].1 else {
        panic!()
    };
    let view = PacketView::parse(packet).unwrap();
    let hop = &view.trailer.return_hops[0];
    assert_eq!(hop.port, 1);
    // The return hop's portInfo is the *reversed* Ethernet header:
    // dst = original source (A), src = router.
    let hdr = ethernet::Repr::parse(&hop.port_info).unwrap();
    assert_eq!(hdr.dst, mac_a, "reply will go back to A");
    assert_eq!(hdr.src, mac_r);
}

#[test]
fn priority_queue_orders_blocked_packets() {
    // Input at 10 Mb/s, output at 1 Mb/s: packets pile up in the output
    // queue and must leave in VIPER priority order (5 > 1 > 15).
    let mut sim = Simulator::new(19);
    let a = sim.add_node(Box::new(ScriptedHost::new()));
    let b = sim.add_node(Box::new(ScriptedHost::new()));
    let r = sim.add_node(Box::new(ViperRouter::new(ViperConfig::basic(1, &[1, 2]))));
    sim.p2p(a, 0, r, 1, MBPS_10, PROP);
    sim.p2p(r, 2, b, 0, 1_000_000, PROP); // slow output

    let mk = |prio: u8, tag: u8, len: usize| {
        PacketBuilder::new()
            .segment(SegmentRepr {
                port: 2,
                priority: Priority::new(prio),
                ..Default::default()
            })
            .segment(local())
            .payload(vec![tag; len])
            .build()
            .unwrap()
    };
    {
        let h = sim.node_mut::<ScriptedHost>(a);
        // Filler occupies the slow output for ~8 ms.
        h.plan(SimTime::ZERO, 0, sirpent_frame(mk(0, 0xAA, 1000)));
        // These three all arrive while the filler transmits.
        h.plan(SimTime(1_000_000), 0, sirpent_frame(mk(1, 1, 200)));
        h.plan(SimTime(2_000_000), 0, sirpent_frame(mk(15, 15, 200)));
        h.plan(SimTime(3_000_000), 0, sirpent_frame(mk(5, 5, 200)));
    }
    ScriptedHost::start(&mut sim, a);
    sim.run_until(SimTime(60_000_000));

    let rx = sim.node::<ScriptedHost>(b).received_p2p();
    let tags: Vec<u8> = rx
        .iter()
        .filter_map(|(_, f)| {
            let LinkFrame::Sirpent { packet, .. } = f else {
                return None;
            };
            let view = PacketView::parse(packet).ok()?;
            Some(view.data(packet)[0])
        })
        .collect();
    assert_eq!(tags, vec![0xAA, 5, 1, 15], "VIPER priority order");
}

#[test]
fn preemptive_priority_aborts_in_flight_transmission() {
    let (mut sim, a, r, b) = one_router(ViperConfig::basic(1, &[1, 2]));
    let low = PacketBuilder::new()
        .segment(seg(2))
        .segment(local())
        .payload(vec![0x01; 1200])
        .build()
        .unwrap();
    let urgent = PacketBuilder::new()
        .segment(SegmentRepr {
            port: 2,
            priority: Priority::new(7),
            ..Default::default()
        })
        .segment(local())
        .payload(vec![0x07; 100])
        .build()
        .unwrap();
    {
        let h = sim.node_mut::<ScriptedHost>(a);
        h.plan(SimTime::ZERO, 0, sirpent_frame(low));
        // Arrives while `low` is being forwarded (low takes ~970 µs of
        // wire time to B starting ≈ 10 µs).
        h.plan(SimTime(300_000), 0, sirpent_frame(urgent));
    }
    ScriptedHost::start(&mut sim, a);
    sim.run(100_000);

    let stats = &sim.node::<ViperRouter>(r).stats;
    assert_eq!(stats.drops.get(DropReason::Preempted), 1);
    // B sees the aborted partial announced then aborted, and the urgent
    // packet completes.
    let complete: Vec<u8> = sim
        .node::<ScriptedHost>(b)
        .received_p2p()
        .iter()
        .filter_map(|(_, f)| {
            let LinkFrame::Sirpent { packet, .. } = f else {
                return None;
            };
            PacketView::parse(packet).ok().map(|v| v.data(packet)[0])
        })
        .collect();
    assert!(complete.contains(&0x07), "urgent delivered: {complete:?}");
}

#[test]
fn drop_if_blocked_discards_when_port_busy() {
    let (mut sim, a, r, b) = one_router(ViperConfig::basic(1, &[1, 2]));
    let filler = PacketBuilder::new()
        .segment(seg(2))
        .segment(local())
        .payload(vec![0xF1; 1200])
        .build()
        .unwrap();
    let dib = PacketBuilder::new()
        .segment(SegmentRepr {
            port: 2,
            flags: Flags {
                dib: true,
                ..Default::default()
            },
            ..Default::default()
        })
        .segment(local())
        .payload(vec![0xD1; 100])
        .build()
        .unwrap();
    {
        let h = sim.node_mut::<ScriptedHost>(a);
        h.plan(SimTime::ZERO, 0, sirpent_frame(filler));
        h.plan(SimTime(300_000), 0, sirpent_frame(dib));
    }
    ScriptedHost::start(&mut sim, a);
    sim.run(100_000);

    let stats = &sim.node::<ViperRouter>(r).stats;
    assert_eq!(stats.drops.get(DropReason::DropIfBlocked), 1);
    let datas: Vec<u8> = sim
        .node::<ScriptedHost>(b)
        .received_p2p()
        .iter()
        .filter_map(|(_, f)| {
            let LinkFrame::Sirpent { packet, .. } = f else {
                return None;
            };
            PacketView::parse(packet).ok().map(|v| v.data(packet)[0])
        })
        .collect();
    assert_eq!(datas, vec![0xF1], "only the filler got through");
}

#[test]
fn mtu_truncation_appends_marker() {
    let mut cfg = ViperConfig::basic(1, &[1, 2]);
    cfg.ports[1].mtu = 500; // small next-hop MTU on port 2
    let (mut sim, a, r, b) = one_router(cfg);
    let pkt = PacketBuilder::new()
        .segment(seg(2))
        .segment(local())
        .payload(vec![0x3C; 900])
        .build()
        .unwrap();
    sim.node_mut::<ScriptedHost>(a)
        .plan(SimTime::ZERO, 0, sirpent_frame(pkt));
    ScriptedHost::start(&mut sim, a);
    sim.run(100_000);

    assert_eq!(sim.node::<ViperRouter>(r).stats.truncated, 1);
    let rx = sim.node::<ScriptedHost>(b).received_p2p();
    assert_eq!(rx.len(), 1);
    let LinkFrame::Sirpent { packet, .. } = &rx[0].1 else {
        panic!()
    };
    assert!(packet.len() <= 500);
    let t = trailer::Trailer::parse(packet).unwrap();
    assert!(
        t.truncated.is_some(),
        "receiver can detect the truncation (§2)"
    );
}

// ---------- tokens ----------------------------------------------------

fn token_cfg(policy: AuthPolicy, require: bool) -> (ViperConfig, TokenMinter) {
    let minter = TokenMinter::new(0xD0_0D, 5);
    let key = minter.router_key(1);
    let mut cfg = ViperConfig::basic(1, &[1, 2]);
    cfg.auth = Some(AuthConfig {
        key,
        policy,
        verify_delay: SimDuration::from_micros(200),
        require_token: require,
    });
    (cfg, minter)
}

fn tokened_packet(minter: &mut TokenMinter, tag: u8) -> Vec<u8> {
    let tok = minter.mint(Grant {
        router_id: 1,
        port: 2,
        max_priority: Priority::new(5),
        reverse_ok: true,
        account: 77,
        byte_limit: 0,
        expiry_s: 0,
    });
    PacketBuilder::new()
        .segment(SegmentRepr {
            port: 2,
            port_token: tok.to_vec(),
            ..Default::default()
        })
        .segment(local())
        .payload(vec![tag; 64])
        .build()
        .unwrap()
}

#[test]
fn valid_token_forwards_and_accounts() {
    let (cfg, mut minter) = token_cfg(AuthPolicy::Optimistic, true);
    let (mut sim, a, r, b) = one_router(cfg);
    let p1 = tokened_packet(&mut minter, 1);
    {
        let h = sim.node_mut::<ScriptedHost>(a);
        h.plan(SimTime::ZERO, 0, sirpent_frame(p1.clone()));
        h.plan(SimTime(5_000_000), 0, sirpent_frame(p1));
    }
    ScriptedHost::start(&mut sim, a);
    sim.run(100_000);

    assert_eq!(sim.node::<ScriptedHost>(b).received.len(), 2);
    let router = sim.node::<ViperRouter>(r);
    assert_eq!(router.stats.token_decrypts, 1, "second check hits cache");
    assert_eq!(router.stats.token_cache_hits, 1);
    let acct = router.token_cache().unwrap().accounting().usage(77);
    assert_eq!(acct.packets, 2);
}

#[test]
fn missing_token_dropped_when_required() {
    let (cfg, _minter) = token_cfg(AuthPolicy::Optimistic, true);
    let (mut sim, a, r, b) = one_router(cfg);
    let pkt = PacketBuilder::new()
        .segment(seg(2))
        .segment(local())
        .payload(b"tokenless".to_vec())
        .build()
        .unwrap();
    sim.node_mut::<ScriptedHost>(a)
        .plan(SimTime::ZERO, 0, sirpent_frame(pkt));
    ScriptedHost::start(&mut sim, a);
    sim.run(100_000);
    assert!(sim.node::<ScriptedHost>(b).received.is_empty());
    assert_eq!(
        sim.node::<ViperRouter>(r)
            .stats
            .drops
            .get(DropReason::TokenMissing),
        1
    );
}

#[test]
fn forged_token_passes_once_optimistically_then_blocked() {
    let (cfg, _minter) = token_cfg(AuthPolicy::Optimistic, true);
    let (mut sim, a, r, b) = one_router(cfg);
    let forged = PacketBuilder::new()
        .segment(SegmentRepr {
            port: 2,
            port_token: vec![0xEE; 32],
            ..Default::default()
        })
        .segment(local())
        .payload(vec![9; 32])
        .build()
        .unwrap();
    {
        let h = sim.node_mut::<ScriptedHost>(a);
        h.plan(SimTime::ZERO, 0, sirpent_frame(forged.clone()));
        h.plan(SimTime(5_000_000), 0, sirpent_frame(forged));
    }
    ScriptedHost::start(&mut sim, a);
    sim.run(100_000);

    // §2.2 worst case: the first forged packet slips through; the second
    // hits the flagged cache entry and is stopped.
    assert_eq!(sim.node::<ScriptedHost>(b).received.len(), 1);
    assert_eq!(
        sim.node::<ViperRouter>(r)
            .stats
            .drops
            .get(DropReason::TokenRejected),
        1
    );
}

#[test]
fn blocking_policy_delays_first_packet() {
    let (cfg, mut minter) = token_cfg(AuthPolicy::Blocking, true);
    let (mut sim, a, _r, b) = one_router(cfg);
    let pkt = tokened_packet(&mut minter, 5);
    sim.node_mut::<ScriptedHost>(a)
        .plan(SimTime::ZERO, 0, sirpent_frame(pkt.clone()));
    // A second packet later: cached, no block delay.
    sim.node_mut::<ScriptedHost>(a)
        .plan(SimTime(5_000_000), 0, sirpent_frame(pkt));
    ScriptedHost::start(&mut sim, a);
    sim.run(100_000);

    let rx = &sim.node::<ScriptedHost>(b).received;
    assert_eq!(rx.len(), 2);
    // First delivery pays the 200 µs verification block; the second only
    // the pipeline. Compare the two forwarding latencies.
    let d1 = rx[0].last_bit.as_nanos();
    let d2 = rx[1].last_bit.as_nanos() - 5_000_000;
    assert!(
        d1 > d2 + 150_000,
        "first packet blocked for verification: d1={d1} d2={d2}"
    );
}

// ---------- logical ports & multicast ---------------------------------

#[test]
fn trunk_spreads_load_over_members() {
    // Router with a trunk port 100 = {2, 3}; two receivers.
    let mut sim = Simulator::new(21);
    let a = sim.add_node(Box::new(ScriptedHost::new()));
    let b = sim.add_node(Box::new(ScriptedHost::new()));
    let c = sim.add_node(Box::new(ScriptedHost::new()));
    let mut cfg = ViperConfig::basic(1, &[1, 2, 3]);
    cfg.logical.bind(
        100,
        PortBinding::Trunk {
            members: vec![2, 3],
            strategy: TrunkStrategy::FirstFree,
        },
    );
    let r = sim.add_node(Box::new(ViperRouter::new(cfg)));
    sim.p2p(a, 0, r, 1, MBPS_10, PROP);
    sim.p2p(r, 2, b, 0, MBPS_10, PROP);
    sim.p2p(r, 3, c, 0, MBPS_10, PROP);

    // Back-to-back packets: the second should pick the other member
    // while the first still occupies channel 2.
    for i in 0..4u64 {
        let pkt = PacketBuilder::new()
            .segment(seg(100))
            .segment(local())
            .payload(vec![i as u8; 800])
            .build()
            .unwrap();
        sim.node_mut::<ScriptedHost>(a)
            .plan(SimTime(i * 10_000), 0, sirpent_frame(pkt));
    }
    ScriptedHost::start(&mut sim, a);
    sim.run(100_000);

    let nb = sim.node::<ScriptedHost>(b).received.len();
    let nc = sim.node::<ScriptedHost>(c).received.len();
    assert_eq!(nb + nc, 4);
    assert!(nb >= 1 && nc >= 1, "both members used: b={nb} c={nc}");
}

#[test]
fn multicast_set_and_broadcast_fan_out() {
    let mut sim = Simulator::new(22);
    let a = sim.add_node(Box::new(ScriptedHost::new()));
    let b = sim.add_node(Box::new(ScriptedHost::new()));
    let c = sim.add_node(Box::new(ScriptedHost::new()));
    let mut cfg = ViperConfig::basic(1, &[1, 2, 3]);
    cfg.logical.bind(200, PortBinding::MulticastSet(vec![2, 3]));
    cfg.logical.bind(255, PortBinding::Broadcast);
    let r = sim.add_node(Box::new(ViperRouter::new(cfg)));
    sim.p2p(a, 0, r, 1, MBPS_10, PROP);
    sim.p2p(r, 2, b, 0, MBPS_10, PROP);
    sim.p2p(r, 3, c, 0, MBPS_10, PROP);

    let mc = PacketBuilder::new()
        .segment(seg(200))
        .segment(local())
        .payload(b"to the group".to_vec())
        .build()
        .unwrap();
    let bc = PacketBuilder::new()
        .segment(seg(255))
        .segment(local())
        .payload(b"to everyone".to_vec())
        .build()
        .unwrap();
    {
        let h = sim.node_mut::<ScriptedHost>(a);
        h.plan(SimTime::ZERO, 0, sirpent_frame(mc));
        h.plan(SimTime(2_000_000), 0, sirpent_frame(bc));
    }
    ScriptedHost::start(&mut sim, a);
    sim.run(100_000);

    // Both receivers get both packets; the sender's port (1) is excluded
    // from the broadcast.
    for node in [b, c] {
        let rx = sim.node::<ScriptedHost>(node).received_p2p();
        assert_eq!(rx.len(), 2);
    }
    assert_eq!(sim.node::<ScriptedHost>(a).received.len(), 0);
    assert_eq!(sim.node::<ViperRouter>(r).stats.forwarded, 4);
}

#[test]
fn tree_multicast_routes_each_branch() {
    let mut sim = Simulator::new(23);
    let a = sim.add_node(Box::new(ScriptedHost::new()));
    let b = sim.add_node(Box::new(ScriptedHost::new()));
    let c = sim.add_node(Box::new(ScriptedHost::new()));
    let cfg = ViperConfig::basic(1, &[1, 2, 3]);
    let r = sim.add_node(Box::new(ViperRouter::new(cfg)));
    sim.p2p(a, 0, r, 1, MBPS_10, PROP);
    sim.p2p(r, 2, b, 0, MBPS_10, PROP);
    sim.p2p(r, 3, c, 0, MBPS_10, PROP);

    // Tree segment with two branches: [port2, local] and [port3, local].
    let info =
        sirpent_router::multicast::encode_tree(&[vec![seg(2), local()], vec![seg(3), local()]])
            .unwrap();
    let tree_seg = SegmentRepr {
        port: 0, // ignored under TRB
        flags: Flags {
            tree: true,
            ..Default::default()
        },
        port_info: info,
        ..Default::default()
    };
    // Build manually: the tree segment then payload (no local segment at
    // top level — each branch carries its own).
    let mut pkt = tree_seg.to_bytes();
    pkt.extend_from_slice(b"branching");
    let mut pkt = PacketBuf::from_vec(pkt);
    trailer::Entry::Base.append_to_buf(&mut pkt).unwrap();

    sim.node_mut::<ScriptedHost>(a)
        .plan(SimTime::ZERO, 0, sirpent_frame(pkt.to_vec()));
    ScriptedHost::start(&mut sim, a);
    sim.run(100_000);

    for node in [b, c] {
        let rx = sim.node::<ScriptedHost>(node).received_p2p();
        assert_eq!(rx.len(), 1, "each subtree gets one copy");
        let LinkFrame::Sirpent { packet, .. } = &rx[0].1 else {
            panic!()
        };
        let view = PacketView::parse(packet).unwrap();
        assert_eq!(view.data(packet), b"branching");
        assert_eq!(view.route.len(), 1, "only its own local segment");
    }
}

#[test]
fn logical_hop_splices_route() {
    // Port 150 at R1 expands to [port 2 (to R2), …]: the client
    // addresses the transit as one hop.
    let mut sim = Simulator::new(24);
    let a = sim.add_node(Box::new(ScriptedHost::new()));
    let b = sim.add_node(Box::new(ScriptedHost::new()));
    let mut cfg1 = ViperConfig::basic(1, &[1, 2]);
    cfg1.logical
        .bind(150, PortBinding::Splice(vec![seg(2), seg(2)]));
    let r1 = sim.add_node(Box::new(ViperRouter::new(cfg1)));
    let r2 = sim.add_node(Box::new(ViperRouter::new(ViperConfig::basic(2, &[1, 2]))));
    sim.p2p(a, 0, r1, 1, MBPS_10, PROP);
    sim.p2p(r1, 2, r2, 1, MBPS_10, PROP);
    sim.p2p(r2, 2, b, 0, MBPS_10, PROP);

    // The client's route: logical hop 150, then local — two segments for
    // what is physically a two-router path.
    let pkt = PacketBuilder::new()
        .segment(seg(150))
        .segment(local())
        .payload(b"spliced".to_vec())
        .build()
        .unwrap();
    sim.node_mut::<ScriptedHost>(a)
        .plan(SimTime::ZERO, 0, sirpent_frame(pkt));
    ScriptedHost::start(&mut sim, a);
    sim.run(100_000);

    let rx = sim.node::<ScriptedHost>(b).received_p2p();
    assert_eq!(rx.len(), 1, "logical hop expanded and delivered");
    let LinkFrame::Sirpent { packet, .. } = &rx[0].1 else {
        panic!()
    };
    let view = PacketView::parse(packet).unwrap();
    assert_eq!(view.data(packet), b"spliced");
}

// ---------- congestion control ----------------------------------------

#[test]
fn congestion_sends_backpressure_and_upstream_installs_limit() {
    // A — R1 — R2 — B where R2's output to B is the bottleneck (1 Mb/s).
    let mut sim = Simulator::new(31);
    let a = sim.add_node(Box::new(ScriptedHost::new()));
    let b = sim.add_node(Box::new(ScriptedHost::new()));
    let congestion = CongestionConfig {
        enabled: true,
        queue_high: 3,
        decrease_factor: 0.5,
        min_rate_bps: 100_000,
        increase_step_bps: 500_000,
        increase_interval: SimDuration::from_millis(20),
        signal_interval: SimDuration::from_millis(1),
        use_feedforward: false,
    };
    let mut cfg1 = ViperConfig::basic(1, &[1, 2]);
    cfg1.congestion = congestion;
    let mut cfg2 = ViperConfig::basic(2, &[1, 2]);
    cfg2.congestion = congestion;
    let r1 = sim.add_node(Box::new(ViperRouter::new(cfg1)));
    let r2 = sim.add_node(Box::new(ViperRouter::new(cfg2)));
    sim.p2p(a, 0, r1, 1, MBPS_10, PROP);
    sim.p2p(r1, 2, r2, 1, MBPS_10, PROP);
    sim.p2p(r2, 2, b, 0, 1_000_000, PROP); // bottleneck

    // Flood: 40 × 500-byte packets at 10 Mb/s pace ⇒ 10× overload of the
    // 1 Mb/s bottleneck.
    for i in 0..40u64 {
        let pkt = PacketBuilder::new()
            .segment(seg(2))
            .segment(seg(2))
            .segment(local())
            .payload(vec![i as u8; 500])
            .build()
            .unwrap();
        sim.node_mut::<ScriptedHost>(a)
            .plan(SimTime(i * 450_000), 0, sirpent_frame(pkt));
    }
    ScriptedHost::start(&mut sim, a);
    sim.run_until(SimTime(100_000_000)); // 100 ms

    let r2s = sim.node::<ViperRouter>(r2);
    assert!(
        r2s.stats.backpressure_sent > 0,
        "congested router signalled upstream"
    );
    let r1s = sim.node::<ViperRouter>(r1);
    assert!(
        r1s.stats.limits_installed > 0 || r1s.active_limits() > 0,
        "upstream installed a soft rate limit"
    );
    // The bottleneck queue stayed bounded (rate control prevents a
    // sustained mismatch, §2.2).
    assert!(
        r2s.stats.max_queue <= 3 + 40 / 4,
        "queue bounded: {}",
        r2s.stats.max_queue
    );
}

#[test]
fn rate_limits_recover_after_congestion_clears() {
    let mut sim = Simulator::new(32);
    let a = sim.add_node(Box::new(ScriptedHost::new()));
    let b = sim.add_node(Box::new(ScriptedHost::new()));
    let congestion = CongestionConfig {
        enabled: true,
        queue_high: 2,
        decrease_factor: 0.3,
        min_rate_bps: 200_000,
        increase_step_bps: 2_000_000,
        increase_interval: SimDuration::from_millis(5),
        signal_interval: SimDuration::from_millis(1),
        use_feedforward: false,
    };
    let mut cfg1 = ViperConfig::basic(1, &[1, 2]);
    cfg1.congestion = congestion;
    let r1 = sim.add_node(Box::new(ViperRouter::new(cfg1)));
    sim.p2p(a, 0, r1, 1, MBPS_10, PROP);
    sim.p2p(r1, 2, b, 0, MBPS_10, PROP);

    // Inject a rate-control message directly (as if from a downstream
    // congested router), then verify the limit dissolves by additive
    // increase.
    let rc = sirpent_router::link::RateControlMsg {
        congested_router: 9,
        congested_port: 4,
        allowed_bps: 1_000_000,
        queue_len: 10,
    };
    sim.node_mut::<ScriptedHost>(b).plan(
        SimTime::ZERO,
        0,
        LinkFrame::RateControl(rc).into_p2p_frame(),
    );
    ScriptedHost::start(&mut sim, b);
    sim.run_until(SimTime(2_000_000));
    assert_eq!(sim.node::<ViperRouter>(r1).active_limits(), 1);

    // (10 Mb/s − 1 Mb/s) / 2 Mb/s per 5 ms ⇒ gone within ~25 ms.
    sim.run_until(SimTime(50_000_000));
    assert_eq!(
        sim.node::<ViperRouter>(r1).active_limits(),
        0,
        "soft state dissolved by additive increase"
    );
}

#[test]
fn cut_through_never_outruns_the_arriving_tail() {
    // Input at 10 Mb/s, output at 100 Mb/s: the router cannot finish
    // transmitting before the tail has arrived — the forwarded frame's
    // completion is pinned to the ingress tail, not the (10× faster)
    // egress wire time (§2.1 notes cut-through applies when rates match;
    // the implementation must stay causal when they don't).
    let mut sim = Simulator::new(41);
    let a = sim.add_node(Box::new(ScriptedHost::new()));
    let b = sim.add_node(Box::new(ScriptedHost::new()));
    let r = sim.add_node(Box::new(ViperRouter::new(ViperConfig::basic(1, &[1, 2]))));
    sim.p2p(a, 0, r, 1, MBPS_10, PROP);
    sim.p2p(r, 2, b, 0, MBPS_10 * 10, PROP);

    let pkt = PacketBuilder::new()
        .segment(seg(2))
        .segment(local())
        .payload(vec![0xCA; 1000])
        .build()
        .unwrap();
    let frame_len = sirpent_frame(pkt.clone()).len();
    sim.node_mut::<ScriptedHost>(a)
        .plan(SimTime::ZERO, 0, sirpent_frame(pkt));
    ScriptedHost::start(&mut sim, a);
    sim.run(10_000);

    let rx = &sim.node::<ScriptedHost>(b).received;
    assert_eq!(rx.len(), 1);
    // Ingress tail reaches the router at frame_len·8/10M + prop.
    let ingress_tail_ns = frame_len as u64 * 800 + PROP.as_nanos();
    assert!(
        rx[0].last_bit.as_nanos() >= ingress_tail_ns + PROP.as_nanos(),
        "egress tail {} must trail ingress tail {} plus propagation",
        rx[0].last_bit.as_nanos(),
        ingress_tail_ns
    );
    // And the payload is intact.
    let LinkFrame::Sirpent { packet, .. } = LinkFrame::from_p2p_frame(&rx[0].frame).unwrap() else {
        panic!()
    };
    let view = PacketView::parse(&packet).unwrap();
    assert!(view.data(&packet).iter().all(|&x| x == 0xCA));
}

// ---------- one event per hop -----------------------------------------

#[test]
fn an_upstream_abort_reaches_every_copy_of_a_fanned_out_packet() {
    // A — R1 — R2 ⇒ {B, C}. R2 fans a long low-priority packet out to
    // B and C, cutting through; a priority-7 packet then preempts it on
    // R1 → R2 mid-flight. R2 must abort both copies on the wire: the
    // packet was charged as dropped at R1, so no copy may arrive.
    for binding in [
        PortBinding::MulticastSet(vec![2, 3]),
        PortBinding::Broadcast,
    ] {
        let mut sim = Simulator::new(25);
        let a = sim.add_node(Box::new(ScriptedHost::new()));
        let b = sim.add_node(Box::new(ScriptedHost::new()));
        let c = sim.add_node(Box::new(ScriptedHost::new()));
        let r1 = sim.add_node(Box::new(ViperRouter::new(ViperConfig::basic(1, &[1, 2]))));
        let mut cfg2 = ViperConfig::basic(2, &[1, 2, 3]);
        cfg2.logical.bind(200, binding);
        let r2 = sim.add_node(Box::new(ViperRouter::new(cfg2)));
        sim.p2p(a, 0, r1, 1, MBPS_10, PROP);
        sim.p2p(r1, 2, r2, 1, MBPS_10, PROP);
        sim.p2p(r2, 2, b, 0, MBPS_10, PROP);
        sim.p2p(r2, 3, c, 0, MBPS_10, PROP);

        let low = PacketBuilder::new()
            .segment(seg(2))
            .segment(seg(200))
            .segment(local())
            .payload(vec![0x01; 1200])
            .build()
            .unwrap();
        let urgent = PacketBuilder::new()
            .segment(SegmentRepr {
                port: 2,
                priority: Priority::new(7),
                ..Default::default()
            })
            .segment(seg(2))
            .segment(local())
            .payload(vec![0x07; 100])
            .build()
            .unwrap();
        {
            let h = sim.node_mut::<ScriptedHost>(a);
            h.plan(SimTime::ZERO, 0, sirpent_frame(low));
            // R1 → R2 takes ~970 µs for `low`; this lands mid-way.
            h.plan(SimTime(300_000), 0, sirpent_frame(urgent));
        }
        ScriptedHost::start(&mut sim, a);
        sim.run_until(SimTime(10_000_000));

        let payloads = |n: NodeId| -> Vec<u8> {
            sim.node::<ScriptedHost>(n)
                .received_p2p()
                .iter()
                .filter_map(|(_, f)| {
                    let LinkFrame::Sirpent { packet, .. } = f else {
                        return None;
                    };
                    PacketView::parse(packet).ok().map(|v| v.data(packet)[0])
                })
                .collect()
        };
        assert_eq!(payloads(b), vec![0x07], "only the urgent packet reaches B");
        assert!(payloads(c).is_empty(), "no copy reaches C");
        for n in [b, c] {
            assert_eq!(
                sim.node::<ScriptedHost>(n).aborted,
                1,
                "its copy was retracted"
            );
        }
        // Every copy a router started is accounted once: delivered whole
        // downstream, or preempted there.
        let (s1, s2) = (
            &sim.node::<ViperRouter>(r1).stats,
            &sim.node::<ViperRouter>(r2).stats,
        );
        assert_eq!(s1.drops.get(DropReason::Preempted), 1, "charged at R1");
        assert_eq!(
            s1.forwarded,
            1 + 1,
            "R1 started `low` and the urgent packet"
        );
        assert_eq!(
            s2.drops.get(DropReason::Preempted),
            2,
            "both copies aborted"
        );
        assert_eq!(
            s2.forwarded,
            2 + 1,
            "R2 started two copies and the urgent packet"
        );
        assert_eq!(s2.forwarded, payloads(b).len() as u64 + 2);
        assert_eq!(s2.total_drops(), 2);
    }
}

#[test]
fn a_quiet_chain_makes_every_decision_in_the_frames_own_event() {
    use sirpent_sim::{ChaosAction, ChaosEvent, FaultSchedule};
    use sirpent_telemetry::names;

    // A — R1 — R2 — B, one packet every 2 ms, on links longer than a
    // router's decision delay (5.3 µs at 10 Mb/s: two bytes of link
    // header, four of segment, then 500 ns). Alone on their links, the
    // routers decide every hop as its frame arrives. A chaos action due
    // inside R1's first decision window (first bit at 20 µs) sends that
    // one decision back to a timer.
    const LONG: SimDuration = SimDuration(20_000);
    let run = |chaos: bool| {
        let mut sim = Simulator::new(26);
        let a = sim.add_node(Box::new(ScriptedHost::new()));
        let b = sim.add_node(Box::new(ScriptedHost::new()));
        let r1 = sim.add_node(Box::new(ViperRouter::new(ViperConfig::basic(1, &[1, 2]))));
        let r2 = sim.add_node(Box::new(ViperRouter::new(ViperConfig::basic(2, &[1, 2]))));
        sim.p2p(a, 0, r1, 1, MBPS_10, LONG);
        sim.p2p(r1, 2, r2, 1, MBPS_10, LONG);
        sim.p2p(r2, 2, b, 0, MBPS_10, LONG);
        for i in 0..5u64 {
            let pkt = PacketBuilder::new()
                .segment(seg(2))
                .segment(seg(2))
                .segment(local())
                .payload(vec![i as u8; 64])
                .build()
                .unwrap();
            sim.node_mut::<ScriptedHost>(a)
                .plan(SimTime(i * 2_000_000), 0, sirpent_frame(pkt));
        }
        if chaos {
            let action = ChaosEvent {
                at: SimTime(22_000),
                action: ChaosAction::PartitionEnd,
            };
            sim.install_schedule(FaultSchedule::new(vec![action]).unwrap());
        }
        ScriptedHost::start(&mut sim, a);
        sim.run_until(SimTime(20_000_000));
        let reg = sim.scrape_telemetry().unwrap();
        (
            reg.counter(names::ROUTER_DECISIONS_DEFERRED_TOTAL),
            reg.counter(names::SIM_COMPLETIONS_ARMED_TOTAL),
            sim.node::<ScriptedHost>(b).received.len(),
            sim.node::<ViperRouter>(r1).stats.decisions_deferred,
        )
    };
    // The host arms each of its five sends; no router frame ever waits.
    assert_eq!(run(false), (0, 5, 5, 0), "quiet chain");
    assert_eq!(run(true), (1, 5, 5, 1), "chaos inside R1's first window");
}
