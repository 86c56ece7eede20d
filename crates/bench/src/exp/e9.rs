//! E9 — §2.1 + §1: rate-gap preservation through cut-through switches.
//!
//! "The real-time switching also preserves the gaps introduced by the
//! sender using a rate-based transport protocol, such as VMTP and
//! Netblt." A rate-paced stream is sent through chains of cut-through
//! vs store-and-forward routers on otherwise idle links, and the
//! inter-packet gaps at the receiver are compared with the sender's.
//!
//! Also checks §1's motivating arithmetic: "an 8 Mb data stream appears
//! as periodic bursts of packets on a gigabit channel, using less than
//! 1 percent of the bandwidth."

use crate::json::obj;
use crate::topo::{chain, frame, packet, Chain};
use crate::{pct, Report, Table};
use sirpent::router::link::LinkFrame;
use sirpent::router::scripted::ScriptedHost;
use sirpent::router::viper::SwitchMode;
use sirpent::sim::stats::Summary;
use sirpent::sim::{SimDuration, SimTime};
use sirpent::wire::viper::Priority;

const RATE: u64 = 100_000_000; // 100 Mb/s links
const PROP: SimDuration = SimDuration(2_000);
const GAP: SimDuration = SimDuration(1_000_000); // 1 ms sender pacing
const N_PKTS: usize = 100;

/// Send a paced stream over `hops` routers; return summary of receiver
/// inter-packet gap deviation from the 1 ms pace, in µs.
fn gap_deviation(hops: usize, mode: SwitchMode) -> Summary {
    let mut c = chain(91, hops, RATE, PROP, mode);
    for i in 0..N_PKTS {
        let pkt = packet(hops, vec![0x99; 1000], Priority::NORMAL);
        c.sim.node_mut::<ScriptedHost>(c.src).plan(
            SimTime(i as u64 * GAP.as_nanos()),
            0,
            frame(pkt),
        );
    }
    ScriptedHost::start(&mut c.sim, c.src);
    c.sim.run_until(SimTime(300_000_000));
    let rx = sim_arrivals(&c);
    assert_eq!(rx.len(), N_PKTS, "all packets delivered");
    let mut dev = Summary::new();
    for w in rx.windows(2) {
        let gap_us = (w[1].as_nanos() - w[0].as_nanos()) as f64 / 1e3;
        dev.record((gap_us - 1000.0).abs());
    }
    dev
}

fn sim_arrivals(c: &Chain) -> Vec<SimTime> {
    c.sim
        .node::<ScriptedHost>(c.dst)
        .received
        .iter()
        .filter(|r| LinkFrame::from_p2p_frame(&r.frame).is_ok())
        .map(|r| r.last_bit)
        .collect()
}

/// Run E9.
pub fn run() -> Report {
    let mut r = Report::default();
    let mut t = Table::new(
        "E9a — receiver gap deviation from the sender's 1 ms pace (idle links)",
        &["hops", "mode", "mean |Δgap|", "max |Δgap|"],
    );
    let mut rows = Vec::new();
    for hops in [1usize, 3, 6] {
        for (name, mode) in [
            ("cut-through", SwitchMode::CutThrough),
            (
                "store-and-forward",
                SwitchMode::StoreAndForward {
                    process_delay: SimDuration::from_micros(50),
                },
            ),
        ] {
            let dev = gap_deviation(hops, mode);
            t.row(&[
                &hops,
                &name,
                &format!("{:.3} µs", dev.mean()),
                &format!("{:.3} µs", dev.max()),
            ]);
            rows.push(obj! {
                hops: hops,
                mode: name,
                mean_dev_us: dev.mean(),
                max_dev_us: dev.max(),
            });
        }
    }
    r.table(&t);
    r.note(
        "on idle links both disciplines preserve gaps (deterministic shifts\n\
         cancel in differences); the distinction §2.1 makes is that blocking\n\
         perturbs a gap only when contention occurs — see E2c for the loaded\n\
         case, where the store-and-forward queue adds per-packet variance.",
    );

    // Contended variant: a cross-traffic packet collides with one stream
    // packet mid-run; compare how many gaps are disturbed.
    let mut t2 = Table::new(
        "E9b — one 1500 B cross-packet injected mid-stream (per-mode disturbance)",
        &["mode", "gaps off by >10 µs"],
    );
    let mut drows = Vec::new();
    for (name, mode) in [
        ("cut-through", SwitchMode::CutThrough),
        (
            "store-and-forward",
            SwitchMode::StoreAndForward {
                process_delay: SimDuration::from_micros(50),
            },
        ),
    ] {
        let mut c = chain(92, 2, RATE, PROP, mode);
        for i in 0..N_PKTS {
            let pkt = packet(2, vec![0x99; 1000], Priority::NORMAL);
            c.sim.node_mut::<ScriptedHost>(c.src).plan(
                SimTime(i as u64 * GAP.as_nanos()),
                0,
                frame(pkt),
            );
        }
        // Cross traffic enters at router 2 (via a new host on port 3).
        let cross = c.sim.add_node(Box::new(ScriptedHost::new()));
        // Attach to the *second* router's spare port. Its config had
        // ports [1,2]; we use a dedicated side topology instead: inject
        // at the first router by sending from src a fat packet slightly
        // before stream packet 50.
        let fat = packet(2, vec![0xCC; 1500], Priority::NORMAL);
        c.sim.node_mut::<ScriptedHost>(c.src).plan(
            SimTime(50 * GAP.as_nanos() - 30_000),
            0,
            frame(fat),
        );
        let _ = cross;
        ScriptedHost::start(&mut c.sim, c.src);
        c.sim.run_until(SimTime(300_000_000));
        let rx: Vec<SimTime> = c
            .sim
            .node::<ScriptedHost>(c.dst)
            .received
            .iter()
            .filter(|r| r.frame.len() < 1300) // stream packets only
            .map(|r| r.last_bit)
            .collect();
        let disturbed = rx
            .windows(2)
            .filter(|w| {
                let gap_us = (w[1].as_nanos() - w[0].as_nanos()) as f64 / 1e3;
                (gap_us - 1000.0).abs() > 10.0
            })
            .count();
        t2.row(&[&name, &disturbed]);
        drows.push(obj! { mode: name, disturbed: disturbed });
    }
    r.table(&t2);
    r.note(
        "\"when a packet blocks, the gap is increased unless several packets\n\
         going to the same source are similarly delayed\" (§2.1) — a single\n\
         collision disturbs a bounded number of gaps, then the sender's pace\n\
         reasserts itself.",
    );

    // §1's burstiness arithmetic.
    let stream_bps = 8_000_000f64;
    let channel = 1_000_000_000f64;
    r.note(format!(
        "\nE9c — §1 arithmetic: an 8 Mb/s stream of 1 KB packets on a 1 Gb/s\n\
         channel occupies {} of the channel ({} packets/s, each 8.2 µs of\n\
         wire time every millisecond).",
        pct(stream_bps / channel),
        stream_bps as u64 / 8192
    ));

    r.json = obj! { idle: rows, disturbed: drows };
    r
}
