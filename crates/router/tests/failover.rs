//! In-network failover: a VIPER router adjacent to a failure splices the
//! packet onto its alternate branch (Slick-Packets style) in one hop
//! time — and, when no branch exists, a dead wire and a crashed peer
//! router are indistinguishable to the forwarding decision.

use sirpent_router::link::LinkFrame;
use sirpent_router::scripted::ScriptedHost;
use sirpent_router::viper::{DropReason, ViperConfig, ViperRouter};
use sirpent_sim::{
    ChaosAction, ChaosEvent, FaultSchedule, NodeId, SimDuration, SimTime, Simulator,
};
use sirpent_wire::buf::FrameBuf;
use sirpent_wire::packet::{PacketBuilder, PacketView};
use sirpent_wire::viper::{AltBranch, SegmentRepr, PORT_LOCAL};

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

/// host A —(p1)R1(p2)—(p1)R2(p2)— host B, plus a bypass wire from R1
/// port 3 straight to B port 4. Returns the simulator, the node ids, and
/// the forward R1→R2 channel for fault injection.
fn bypass_topology() -> (
    Simulator,
    NodeId,
    NodeId,
    NodeId,
    NodeId,
    sirpent_sim::ChannelId,
) {
    let mut sim = Simulator::new(11);
    let a = sim.add_node(Box::new(ScriptedHost::new()));
    let b = sim.add_node(Box::new(ScriptedHost::new()));
    let r1 = sim.add_node(Box::new(ViperRouter::new(ViperConfig::basic(
        1,
        &[1, 2, 3],
    ))));
    let r2 = sim.add_node(Box::new(ViperRouter::new(ViperConfig::basic(2, &[1, 2]))));
    sim.p2p(a, 0, r1, 1, MBPS_10, PROP);
    let (r1_to_r2, _) = sim.p2p(r1, 2, r2, 1, MBPS_10, PROP);
    sim.p2p(r2, 2, b, 0, MBPS_10, PROP);
    sim.p2p(r1, 3, b, 4, MBPS_10, PROP);
    (sim, a, b, r1, r2, r1_to_r2)
}

/// The two-hop route A→R1→R2→B, protected at R1: if R1's primary next
/// hop is unreachable, divert out port 3 onto the one-segment recovery
/// route (the local terminator — the bypass wire lands directly on B).
fn protected_packet() -> Vec<u8> {
    let mut first = seg(2);
    first.alt = Some(AltBranch { port: 3, splice: 0 });
    PacketBuilder::new()
        .segment(first)
        .segment(seg(2))
        .segment(local())
        .recovery(vec![local()])
        .payload(b"around the break".to_vec())
        .build()
        .unwrap()
}

fn unprotected_packet() -> Vec<u8> {
    PacketBuilder::new()
        .segment(seg(2))
        .segment(seg(2))
        .segment(local())
        .payload(b"no way around".to_vec())
        .build()
        .unwrap()
}

fn fault_at_zero(action: ChaosAction) -> FaultSchedule {
    FaultSchedule::new(vec![ChaosEvent {
        at: SimTime::ZERO,
        action,
    }])
    .unwrap()
}

#[test]
fn protected_route_without_faults_takes_the_primary_path() {
    let (mut sim, a, b, r1, r2, _) = bypass_topology();
    sim.node_mut::<ScriptedHost>(a)
        .plan(SimTime::ZERO, 0, sirpent_frame(protected_packet()));
    ScriptedHost::start(&mut sim, a);
    sim.run(100_000);

    let rx = sim.node::<ScriptedHost>(b).received_p2p();
    assert_eq!(rx.len(), 1);
    let LinkFrame::Sirpent { packet, .. } = &rx[0].1 else {
        panic!("wrong kind")
    };
    let view = PacketView::parse(packet).unwrap();
    assert_eq!(view.route.len(), 1);
    assert_eq!(view.route[0].port, PORT_LOCAL);
    assert_eq!(view.recovery.len(), 1, "unused detour rides through");
    assert_eq!(view.data(packet), b"around the break");
    // Both routers forwarded; nothing diverted; the trailer names both
    // arrival ports.
    assert_eq!(sim.node::<ViperRouter>(r1).stats.failover.diversions, 0);
    assert_eq!(sim.node::<ViperRouter>(r2).stats.forwarded, 1);
    assert_eq!(view.trailer.return_hops.len(), 2);
}

#[test]
fn diverts_around_downed_link_onto_the_bypass() {
    let (mut sim, a, b, r1, r2, fwd) = bypass_topology();
    sim.install_schedule(fault_at_zero(ChaosAction::LinkDown { ch: fwd }));
    sim.node_mut::<ScriptedHost>(a)
        .plan(SimTime::ZERO, 0, sirpent_frame(protected_packet()));
    ScriptedHost::start(&mut sim, a);
    sim.run(100_000);

    let rx = sim.node::<ScriptedHost>(b).received_p2p();
    assert_eq!(rx.len(), 1, "delivered over the bypass");
    let LinkFrame::Sirpent { packet, .. } = &rx[0].1 else {
        panic!("wrong kind")
    };
    let view = PacketView::parse(packet).unwrap();
    // The detour replaced the remaining primary route: one local
    // segment, no recovery block left.
    assert_eq!(view.route.len(), 1);
    assert_eq!(view.route[0].port, PORT_LOCAL);
    assert!(view.recovery.is_empty());
    assert_eq!(view.data(packet), b"around the break");
    // Only R1 touched the packet; its return hop names the arrival port.
    assert_eq!(view.trailer.return_hops.len(), 1);
    assert_eq!(view.trailer.return_hops[0].port, 1);
    let s1 = &sim.node::<ViperRouter>(r1).stats;
    assert_eq!(s1.failover.diversions, 1);
    assert_eq!(s1.drops.get(DropReason::NextHopDown), 0);
    assert_eq!(sim.node::<ViperRouter>(r2).stats.forwarded, 0);
}

#[test]
fn diverts_around_crashed_peer_router_onto_the_bypass() {
    let (mut sim, a, b, r1, r2, _) = bypass_topology();
    sim.install_schedule(fault_at_zero(ChaosAction::RouterCrash { node: r2 }));
    sim.node_mut::<ScriptedHost>(a)
        .plan(SimTime::ZERO, 0, sirpent_frame(protected_packet()));
    ScriptedHost::start(&mut sim, a);
    sim.run(100_000);

    let rx = sim.node::<ScriptedHost>(b).received_p2p();
    assert_eq!(rx.len(), 1, "delivered over the bypass");
    assert_eq!(sim.node::<ViperRouter>(r1).stats.failover.diversions, 1);
}

/// The satellite regression: with no alternate encoded, a down *link*
/// and a down *peer router* at the same hop must be the same failure to
/// the forwarding decision — one `NextHopDown` drop, not two different
/// reasons depending on which half of the hop died.
#[test]
fn link_down_and_router_down_drop_identically_without_alternate() {
    let run = |action: ChaosAction| -> sirpent_sim::stats::DropCounters {
        let (mut sim, a, b, r1, _r2, _) = bypass_topology();
        sim.install_schedule(fault_at_zero(action));
        sim.node_mut::<ScriptedHost>(a)
            .plan(SimTime::ZERO, 0, sirpent_frame(unprotected_packet()));
        ScriptedHost::start(&mut sim, a);
        sim.run(100_000);
        assert!(sim.node::<ScriptedHost>(b).received_p2p().is_empty());
        let s = &sim.node::<ViperRouter>(r1).stats;
        assert_eq!(s.drops.get(DropReason::NextHopDown), 1);
        assert_eq!(s.failover.no_alternate, 1);
        s.drops.clone()
    };

    let (_, _, _, _, r2, fwd) = bypass_topology();
    let link = run(ChaosAction::LinkDown { ch: fwd });
    let crash = run(ChaosAction::RouterCrash { node: r2 });
    let link_counts: Vec<(DropReason, u64)> = link.iter().collect();
    let crash_counts: Vec<(DropReason, u64)> = crash.iter().collect();
    assert_eq!(
        link_counts, crash_counts,
        "the full drop ledger must be identical for both fault kinds"
    );
}

#[test]
fn dead_alternate_cannot_rescue_and_drops_next_hop_down() {
    let (mut sim, a, b, r1, r2, fwd) = bypass_topology();
    sim.install_schedule(
        FaultSchedule::new(vec![
            ChaosEvent {
                at: SimTime::ZERO,
                action: ChaosAction::LinkDown { ch: fwd },
            },
            ChaosEvent {
                at: SimTime::ZERO,
                action: ChaosAction::RouterCrash { node: b },
            },
        ])
        .unwrap(),
    );
    sim.node_mut::<ScriptedHost>(a)
        .plan(SimTime::ZERO, 0, sirpent_frame(protected_packet()));
    ScriptedHost::start(&mut sim, a);
    sim.run(100_000);

    let s1 = &sim.node::<ViperRouter>(r1).stats;
    assert_eq!(s1.failover.diversions, 0);
    assert_eq!(s1.failover.alternate_down, 1);
    assert_eq!(s1.drops.get(DropReason::NextHopDown), 1);
    assert_eq!(sim.node::<ViperRouter>(r2).stats.forwarded, 0);
}
