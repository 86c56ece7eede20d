//! FAILOVER — in-network diversion vs end-to-end route switching.
//!
//! Slick-Packets-style alternate branches put the failover decision
//! *inside the network*: the router adjacent to a dead link or crashed
//! peer splices the packet onto a pre-computed alternate branch at
//! route time — no detection timeout, no retransmission, no routing
//! protocol. Three measurements:
//!
//! 1. **Diversion latency**: a 200-packet stream crosses a protected
//!    two-router chain whose middle link dies mid-stream. With an
//!    equal-length alternate, diverted packets pay (at most) one hop
//!    time over the primary-path latency, and the stream never stalls.
//! 2. **Ablation**: the identical stream with alternates stripped loses
//!    every packet routed while the link is down — the service
//!    interruption is the full outage window.
//! 3. **End-to-end baseline (E4c)**: the transport-layer failover from
//!    E4, run by the same function — the client detects by timeout and switches to a disjoint
//!    route. Fast (~0.15 ms), but it costs a timeout round trip and the
//!    in-flight transaction; the in-network divert costs neither.

use super::e4::end_to_end_failover;
use crate::json::obj;
use crate::topo::frame;
use crate::{Report, Table};
use sirpent::router::link::LinkFrame;
use sirpent::router::scripted::ScriptedHost;
use sirpent::router::viper::{DropReason, ViperConfig, ViperRouter};
use sirpent::sim::{ChaosAction, ChaosEvent, FaultSchedule, SimDuration, SimTime, Simulator};
use sirpent::wire::packet::{PacketBuilder, PacketView};
use sirpent::wire::viper::{AltBranch, SegmentRepr, PORT_LOCAL};

const RATE: u64 = 10_000_000;
const PROP: SimDuration = SimDuration(2_000); // 2 µs

const N_PACKETS: u32 = 200;
const SPACING_NS: u64 = 500_000; // one packet every 500 µs
const DOWN_AT: SimTime = SimTime(25_250_000); // mid-stream, between sends
const UP_AT: SimTime = SimTime(75_000_000);

fn seg(port: u8) -> SegmentRepr {
    SegmentRepr::minimal(port)
}

fn payload(idx: u32) -> Vec<u8> {
    let mut p = vec![0u8; 256];
    p[..4].copy_from_slice(&idx.to_le_bytes());
    p
}

/// A→R1→R2→B over ports 2, protected at R1 by an equal-length detour
/// R1(p3)→R3→B(p4): route `[2|alt 3/0, 2, local]`, recovery
/// `[2, local]`.
fn armed_packet(idx: u32) -> Vec<u8> {
    let mut first = seg(2);
    first.alt = Some(AltBranch { port: 3, splice: 0 });
    PacketBuilder::new()
        .segment(first)
        .segment(seg(2))
        .segment(SegmentRepr::minimal(PORT_LOCAL))
        .recovery(vec![seg(2), SegmentRepr::minimal(PORT_LOCAL)])
        .payload(payload(idx))
        .build()
        .expect("valid armed packet")
}

/// The identical route with the alternate stripped — the control arm.
fn stripped_packet(idx: u32) -> Vec<u8> {
    PacketBuilder::new()
        .segment(seg(2))
        .segment(seg(2))
        .segment(SegmentRepr::minimal(PORT_LOCAL))
        .payload(payload(idx))
        .build()
        .expect("valid stripped packet")
}

struct StreamResult {
    /// (index, arrival port, end-to-end latency seconds) per delivery.
    delivered: Vec<(u32, u8, f64)>,
    /// Longest gap between consecutive deliveries, seconds.
    max_gap_s: f64,
    diversions: u64,
    next_hop_down_drops: u64,
}

/// Run the 200-packet stream over the bypass topology with the middle
/// link down for [`DOWN_AT`], [`UP_AT`]).
fn stream(armed: bool) -> StreamResult {
    let mut sim = Simulator::new(97);
    let a = sim.add_node(Box::new(ScriptedHost::new()));
    let b = sim.add_node(Box::new(ScriptedHost::new()));
    let r1 = sim.add_node(Box::new(ViperRouter::new(ViperConfig::basic(
        1,
        &[1, 2, 3],
    ))));
    let r2 = sim.add_node(Box::new(ViperRouter::new(ViperConfig::basic(2, &[1, 2]))));
    let r3 = sim.add_node(Box::new(ViperRouter::new(ViperConfig::basic(3, &[1, 2]))));
    sim.p2p(a, 0, r1, 1, RATE, PROP);
    let (fwd, _) = sim.p2p(r1, 2, r2, 1, RATE, PROP);
    sim.p2p(r2, 2, b, 0, RATE, PROP);
    // The equal-length alternate: one extra router, same rates, same
    // propagation — a diverted packet crosses exactly as many wires.
    sim.p2p(r1, 3, r3, 1, RATE, PROP);
    sim.p2p(r3, 2, b, 4, RATE, PROP);

    sim.install_schedule(
        FaultSchedule::new(vec![
            ChaosEvent {
                at: DOWN_AT,
                action: ChaosAction::LinkDown { ch: fwd },
            },
            ChaosEvent {
                at: UP_AT,
                action: ChaosAction::LinkUp { ch: fwd },
            },
        ])
        .expect("ordered schedule"),
    );

    let mut send_at = vec![SimTime::ZERO; N_PACKETS as usize];
    {
        let host = sim.node_mut::<ScriptedHost>(a);
        for i in 0..N_PACKETS {
            let at = SimTime(u64::from(i) * SPACING_NS);
            send_at[i as usize] = at;
            let pkt = if armed {
                armed_packet(i)
            } else {
                stripped_packet(i)
            };
            host.plan(at, 0, frame(pkt));
        }
    }
    ScriptedHost::start(&mut sim, a);
    sim.run_until(SimTime(200_000_000));

    let mut delivered = Vec::new();
    let mut arrivals = Vec::new();
    for rec in &sim.node::<ScriptedHost>(b).received {
        let Ok(LinkFrame::Sirpent { packet, .. }) = LinkFrame::from_p2p_frame(&rec.frame) else {
            continue;
        };
        let view = PacketView::parse(&packet).expect("delivered packet parses");
        let data = view.data(&packet);
        let idx = u32::from_le_bytes(data[..4].try_into().expect("payload carries the index"));
        let lat = (rec.last_bit.as_nanos() - send_at[idx as usize].as_nanos()) as f64 / 1e9;
        delivered.push((idx, rec.port, lat));
        arrivals.push(rec.last_bit);
    }
    arrivals.sort();
    let max_gap_s = arrivals
        .windows(2)
        .map(|w| (w[1].as_nanos() - w[0].as_nanos()) as f64 / 1e9)
        .fold(0.0, f64::max);
    let s1 = &sim.node::<ViperRouter>(r1).stats;
    StreamResult {
        delivered,
        max_gap_s,
        diversions: s1.failover.diversions,
        next_hop_down_drops: s1.drops.get(DropReason::NextHopDown),
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.collect();
    if v.is_empty() {
        f64::NAN
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn in_window(idx: u32) -> bool {
    let at = u64::from(idx) * SPACING_NS;
    at >= DOWN_AT.as_nanos() && at < UP_AT.as_nanos()
}

/// Run FAILOVER.
pub fn run() -> Report {
    let mut r = Report::default();
    // ---- 1+2: the stream, armed vs stripped -------------------------------
    let mut t = Table::new(
        "FAILOVER-a — 200-packet stream, middle link down for 50 ms mid-stream",
        &[
            "arm",
            "delivered",
            "lost",
            "diversions",
            "nhd drops",
            "primary lat",
            "diverted lat",
            "max gap",
        ],
    );
    let mut rows = Vec::new();
    let mut diversion_extra_us = f64::NAN;
    for armed in [true, false] {
        let s = stream(armed);
        let lost = N_PACKETS as usize - s.delivered.len();
        // Arrival on port 4 means the packet crossed the detour.
        let primary_us = mean(
            s.delivered
                .iter()
                .filter(|&&(_, port, _)| port != 4)
                .map(|&(_, _, lat)| lat * 1e6),
        );
        let diverted_us = mean(
            s.delivered
                .iter()
                .filter(|&&(_, port, _)| port == 4)
                .map(|&(_, _, lat)| lat * 1e6),
        );
        t.row(&[
            &(if armed { "armed" } else { "stripped" }),
            &s.delivered.len(),
            &lost,
            &s.diversions,
            &s.next_hop_down_drops,
            &format!("{primary_us:.1} µs"),
            &(if diverted_us.is_nan() {
                "—".to_string()
            } else {
                format!("{diverted_us:.1} µs")
            }),
            &format!("{:.2} ms", s.max_gap_s * 1e3),
        ]);
        if armed {
            diversion_extra_us = diverted_us - primary_us;
            // At most the one frame already on the dead wire is lost;
            // every packet *routed* during the outage is diverted.
            r.gate(lost <= 1, format!("armed arm lost {lost} packets"));
            r.gate(
                s.diversions >= 90,
                format!("only {} diversions across a 50 ms outage", s.diversions),
            );
            r.gate(
                s.max_gap_s < 0.005,
                format!("armed stream stalled for {:.1} ms", s.max_gap_s * 1e3),
            );
        } else {
            r.gate(
                s.diversions == 0,
                format!("stripped arm diverted {} packets", s.diversions),
            );
            r.gate(
                s.max_gap_s > 0.040,
                "stripped stream should stall for the outage window",
            );
            // Everything routed at R1 during the window dies there.
            let in_win = (0..N_PACKETS).filter(|&i| in_window(i)).count();
            r.gate(
                lost >= in_win,
                format!("stripped arm lost {lost}, expected at least {in_win}"),
            );
        }
        rows.push(obj! {
            armed: armed,
            delivered: s.delivered.len(),
            lost: lost,
            diversions: s.diversions,
            next_hop_down_drops: s.next_hop_down_drops,
            primary_latency_us: primary_us,
            diverted_latency_us: diverted_us,
            max_delivery_gap_ms: s.max_gap_s * 1e3,
        });
    }
    r.table(&t);
    r.note(format!(
        "the divert is decided locally at route time, so the armed stream never\n\
         stalls: with an equal-length alternate the diverted packets arrive\n\
         {:.1} µs {} the primary-path packets (diverting sheds the recovery\n\
         block, so the spliced header is a little *shorter*) — the failover\n\
         itself costs nothing; only a frame already clocked onto the dead wire\n\
         can be lost.\n",
        diversion_extra_us.abs(),
        if diversion_extra_us <= 0.0 {
            "faster than"
        } else {
            "behind"
        }
    ));

    // ---- 3: the end-to-end baseline ---------------------------------------
    // E4c, reduced: 100 transactions, the link dying at t = 100 ms.
    let e2e = end_to_end_failover(PROP, 100, SimTime(100_000_000), SimTime(1_500_000_000));
    let switch_s = e2e.switch_ns as f64 / 1e9;
    let mut t3 = Table::new(
        "FAILOVER-b — end-to-end switch (E4c baseline) after the same failure",
        &["quantity", "value"],
    );
    t3.row(&[
        &"detection + switch time",
        &format!("{:.2} ms", switch_s * 1e3),
    ]);
    t3.row(&[&"transactions completed", &format!("{}/100", e2e.completed)]);
    t3.row(&[&"transactions abandoned", &e2e.abandoned]);
    r.table(&t3);
    r.note(format!(
        "the end-to-end switch needs a timeout round ({:.2} ms here) and gives\n\
         up on the in-flight transaction; the in-network divert needs neither —\n\
         but only the end-to-end mechanism survives the loss of *every* branch,\n\
         so the two compose rather than compete (§6.3).",
        switch_s * 1e3
    ));

    r.json = obj! {
        stream: rows,
        diversion_extra_us: diversion_extra_us,
        e2e_switch_ms: switch_s * 1e3,
        e2e_completed: e2e.completed,
        e2e_abandoned: e2e.abandoned,
    };
    r
}
