//! E10 — §1 + §6.1: the concatenated-virtual-circuit comparison.
//!
//! * **Setup amortization**: "the CVC approach requires a circuit setup
//!   … introducing a full roundtrip delay" — total time to move m
//!   messages over a fresh association, Sirpent vs CVC, as m grows.
//! * **Switch state**: per-switch bytes vs concurrent conversations.
//! * **Bursty utilization**: a reserved circuit holds bandwidth during
//!   the off periods of bursty traffic; packet switching doesn't —
//!   "circuit-switched networks cannot run links at comparable
//!   utilization with the bursty traffic characteristic of computer
//!   communication" (§6.1, citing Blazenet).

use crate::json::obj;
use crate::topo::{chain, frame, packet};
use crate::{dur_us, pct, Report, Table};
use sirpent::router::cvc::{CvcConfig, CvcRoute, CvcSwitch};
use sirpent::router::link::LinkFrame;
use sirpent::router::scripted::ScriptedHost;
use sirpent::router::viper::SwitchMode;
use sirpent::sim::{SimDuration, SimTime, Simulator};
use sirpent::wire::cvc::Message;
use sirpent::wire::viper::Priority;

const RATE: u64 = 10_000_000;
const PROP: SimDuration = SimDuration(250_000); // 250 µs — a wide-area hop
const DEST: u32 = 0xCAFE;

/// Time for m messages over Sirpent (no setup): last delivery instant.
fn sirpent_total(m: usize, msg_bytes: usize) -> f64 {
    let mut c = chain(101, 2, RATE, PROP, SwitchMode::CutThrough);
    for i in 0..m {
        let pkt = packet(2, vec![0xAB; msg_bytes], Priority::NORMAL);
        // Application offers messages back-to-back.
        c.sim
            .node_mut::<ScriptedHost>(c.src)
            .plan(SimTime(i as u64 * 10_000), 0, frame(pkt));
    }
    ScriptedHost::start(&mut c.sim, c.src);
    c.sim.run_until(SimTime(10_000_000_000));
    let rx = &c.sim.node::<ScriptedHost>(c.dst).received;
    assert_eq!(rx.len(), m);
    rx.last().unwrap().last_bit.as_nanos() as f64 / 1e9
}

/// Time for m messages over CVC: setup RTT then data; returns last data
/// delivery at the destination switch.
fn cvc_total(m: usize, msg_bytes: usize) -> f64 {
    let mut sim = Simulator::new(102);
    let host = sim.add_node(Box::new(ScriptedHost::new()));
    let mk = |routes: Vec<CvcRoute>| {
        CvcSwitch::new(CvcConfig {
            process_delay: SimDuration::from_micros(5),
            setup_delay: SimDuration::from_micros(500),
            routes,
            max_circuits: 1000,
            reservable_fraction: 0.9,
        })
    };
    let s1 = sim.add_node(Box::new(mk(vec![CvcRoute {
        dest: DEST,
        out_port: 2,
    }])));
    let s2 = sim.add_node(Box::new(mk(vec![CvcRoute {
        dest: DEST,
        out_port: 0,
    }])));
    sim.p2p(host, 0, s1, 1, RATE, PROP);
    sim.p2p(s1, 2, s2, 1, RATE, PROP);

    // Send the setup; data is queued behind the Accept by planning it
    // only after we observe the accept (two-phase: run, then plan).
    sim.node_mut::<ScriptedHost>(host).plan(
        SimTime::ZERO,
        0,
        LinkFrame::Cvc(Ok(Message::Setup {
            vci: 1,
            dest: DEST,
            reserve: 0,
        }))
        .into_p2p_frame(),
    );
    ScriptedHost::start(&mut sim, host);
    // Step until the Accept arrives back at the host — that instant is
    // when the application may start sending data.
    while sim.node::<ScriptedHost>(host).received.is_empty() {
        assert!(sim.step(), "accept must arrive");
    }
    let accept_at = sim.now();
    for i in 0..m {
        sim.node_mut::<ScriptedHost>(host).plan(
            SimTime(accept_at.as_nanos() + i as u64 * 10_000),
            0,
            LinkFrame::Cvc(Ok(Message::Data {
                vci: 1,
                payload: vec![0xAB; msg_bytes].into(),
            }))
            .into_p2p_frame(),
        );
    }
    ScriptedHost::start(&mut sim, host);
    sim.run_until(SimTime(20_000_000_000));
    let s2ref = sim.node::<CvcSwitch>(s2);
    assert_eq!(s2ref.local_delivered.len(), m);
    s2ref.local_delivered.last().unwrap().0.as_nanos() as f64 / 1e9
}

/// Run E10.
pub fn run() -> Report {
    let mut r = Report::default();
    // ---- setup amortization ------------------------------------------------
    let mut t = Table::new(
        "E10a — m messages over a fresh association (2 hops, 250 µs/link prop)",
        &[
            "messages",
            "Sirpent total",
            "CVC total (incl. setup RTT)",
            "CVC/Sirpent",
        ],
    );
    let mut rows = Vec::new();
    for m in [1usize, 2, 5, 10, 50, 200] {
        let s = sirpent_total(m, 512);
        let c = cvc_total(m, 512);
        t.row(&[&m, &dur_us(s), &dur_us(c), &format!("{:.2}×", c / s)]);
        rows.push(obj! {
            messages: m,
            sirpent_ms: s * 1e3,
            cvc_ms: c * 1e3,
            cvc_penalty: c / s,
        });
    }
    r.table(&t);
    r.note(
        "single-transaction traffic pays the full setup round trip (≈ 2×) —\n\
         \"increases in transactional traffic … make the logical connections\n\
         even shorter\" (§1); only long conversations amortize it.",
    );

    // ---- bursty utilization --------------------------------------------------
    // A bursty source averaging 2 Mb/s with 10 Mb/s peaks: a circuit must
    // reserve the peak to avoid loss; packet switching multiplexes.
    let peak: f64 = 10_000_000.0;
    let mean: f64 = 2_000_000.0;
    let circuits_on_link = (RATE as f64 / peak).floor();
    let packet_flows = (RATE as f64 / mean).floor();
    let mut t2 = Table::new(
        "E10b — bursty flows (peak 10 Mb/s, mean 2 Mb/s) on one 10 Mb/s trunk",
        &["approach", "flows admitted", "expected utilization"],
    );
    t2.row(&[
        &"CVC, peak reservation",
        &(circuits_on_link as u64),
        &pct(circuits_on_link * mean / RATE as f64),
    ]);
    t2.row(&[
        &"Sirpent packet switching",
        &(packet_flows as u64),
        &pct(packet_flows * mean / RATE as f64 * 0.9), // queueing headroom
    ]);
    r.table(&t2);
    r.note(
        "the reserved circuit idles through the off-periods (20% utilization);\n\
         statistical multiplexing admits 5× the flows — the Blazenet argument\n\
         §6.1 cites. (Rate-based control supplies the loss protection circuits\n\
         buy with reservation; see E4.)",
    );

    // ---- switch state ----------------------------------------------------------
    let mut t3 = Table::new(
        "E10c — switch state vs concurrent conversations",
        &["conversations", "CVC switch bytes", "Sirpent router bytes"],
    );
    let mut srows = Vec::new();
    for n in [10usize, 100, 1000] {
        let mut sim = Simulator::new(103);
        let host = sim.add_node(Box::new(ScriptedHost::new()));
        let s1 = sim.add_node(Box::new(CvcSwitch::new(CvcConfig {
            process_delay: SimDuration::from_micros(5),
            setup_delay: SimDuration::from_micros(50),
            routes: vec![CvcRoute {
                dest: DEST,
                out_port: 0,
            }],
            max_circuits: 10_000,
            reservable_fraction: 1.0,
        })));
        sim.p2p(host, 0, s1, 1, RATE, SimDuration(1_000));
        for i in 0..n {
            sim.node_mut::<ScriptedHost>(host).plan(
                SimTime(i as u64 * 200_000),
                0,
                LinkFrame::Cvc(Ok(Message::Setup {
                    vci: i as u16,
                    dest: DEST,
                    reserve: 0,
                }))
                .into_p2p_frame(),
            );
        }
        ScriptedHost::start(&mut sim, host);
        sim.run_until(SimTime(n as u64 * 200_000 + 100_000_000));
        let sw = sim.node::<CvcSwitch>(s1);
        r.gate(
            sw.circuits() == n,
            format!("{n} setups left {} circuits", sw.circuits()),
        );
        // A Sirpent router holds no per-conversation state at all (soft
        // congestion state is per-route-class, not per conversation).
        t3.row(&[&n, &sw.state_bytes(), &0usize]);
        srows.push(obj! {
            conversations: n,
            cvc_bytes: sw.state_bytes(),
            sirpent_bytes: 0usize,
        });
    }
    r.table(&t3);
    r.note(
        "\"a significant amount of state in the gateways\" (§1) vs none: the\n\
         Sirpent conversation lives in the packets and the endpoints.",
    );

    r.json = obj! { amortization: rows, state: srows };
    r
}
