//! E6 — §2.2: logical hops and load balancing.
//!
//! Two reproductions:
//!
//! 1. The replicated-trunk example: "a very high speed physical link,
//!    such as a 10 gigabit line, might be statically divided into 10
//!    1 gigabit channels with all 10 links being treated as one logical
//!    link. A packet arriving for this logical link would be routed to
//!    whichever of the channels was free." We compare the logical trunk
//!    against a static single-channel binding at increasing load.
//! 2. The logical-hop expansion cost: replacing a logical port by an
//!    explicit source route "need not cost more than the size in bits of
//!    the route divided by the data rate".

use crate::json::obj;
use crate::topo::frame;
use crate::{dur_us, pct, Report, Table};
use sirpent::router::logical::{PortBinding, TrunkStrategy};
use sirpent::router::scripted::ScriptedHost;
use sirpent::router::viper::{ViperConfig, ViperRouter};
use sirpent::sim::{transmission_time, SimDuration, SimTime, Simulator};
use sirpent::wire::packet::PacketBuilder;
use sirpent::wire::viper::{Priority, SegmentRepr, PORT_LOCAL};

const CH_RATE: u64 = 100_000_000; // "1 G" scaled to 100 Mb/s channels
const N_CH: usize = 10;
const PROP: SimDuration = SimDuration(2_000);

/// Send `n` packets of `size` B back-to-back through a trunk of 10
/// channels (logical) or pinned to channel 1 (static). Returns (mean
/// delay s, per-channel deliveries).
fn trunk_run(n: usize, size: usize, logical: bool, gap_ns: u64) -> (f64, Vec<usize>) {
    let mut sim = Simulator::new(66);
    let src = sim.add_node(Box::new(ScriptedHost::new()));
    let sinks: Vec<_> = (0..N_CH)
        .map(|_| sim.add_node(Box::new(ScriptedHost::new())))
        .collect();
    let mut cfg = ViperConfig::basic(1, &{
        let mut p = vec![1u8];
        p.extend(2..2 + N_CH as u8);
        p
    });
    cfg.queue_capacity = 4096;
    cfg.logical.bind(
        100,
        PortBinding::Trunk {
            members: (2..2 + N_CH as u8).collect(),
            strategy: TrunkStrategy::FirstFree,
        },
    );
    let r = sim.add_node(Box::new(ViperRouter::new(cfg)));
    // Fast ingress so the trunk is the constraint.
    sim.p2p(src, 0, r, 1, CH_RATE * 10, PROP);
    for (i, &s) in sinks.iter().enumerate() {
        sim.p2p(r, 2 + i as u8, s, 0, CH_RATE, PROP);
    }

    let port = if logical { 100 } else { 2 };
    for i in 0..n {
        let pkt = PacketBuilder::new()
            .segment(SegmentRepr {
                port,
                priority: Priority::NORMAL,
                ..Default::default()
            })
            .segment(SegmentRepr::minimal(PORT_LOCAL))
            .payload(vec![0x6C; size])
            .build()
            .unwrap();
        sim.node_mut::<ScriptedHost>(src)
            .plan(SimTime(i as u64 * gap_ns), 0, frame(pkt));
    }
    ScriptedHost::start(&mut sim, src);
    sim.run_until(SimTime(4_000_000_000));

    // Delay is measured at the router: first bit in → first bit out,
    // which captures exactly the queueing the trunk is meant to avoid.
    let per_ch: Vec<usize> = sinks
        .iter()
        .map(|&s| sim.node::<ScriptedHost>(s).received.len())
        .collect();
    let router = sim.node::<ViperRouter>(r);
    (router.stats.forward_delay.mean(), per_ch)
}

/// Run E6.
pub fn run() -> Report {
    let mut r = Report::default();
    // ---- 1: trunk vs static pin ------------------------------------------
    let size = 1250usize; // 100 µs on one 100 Mb/s channel
    let mut t = Table::new(
        "E6a — 10×100 Mb/s trunk as one logical link vs static single channel",
        &[
            "offered load (of trunk)",
            "logical: mean router delay",
            "static: mean router delay",
            "members used (logical)",
        ],
    );
    let mut rows = Vec::new();
    for frac in [0.05f64, 0.2, 0.5, 0.8] {
        // Offered rate = frac × 1 Gb/s aggregate.
        let pkt_time_agg = transmission_time(size, CH_RATE).as_secs_f64() / N_CH as f64;
        let gap = (pkt_time_agg / frac * 1e9) as u64;
        let n = 2000;
        let (d_log, per_ch) = trunk_run(n, size, true, gap);
        let (d_stat, _) = trunk_run(n, size, false, gap);
        let used = per_ch.iter().filter(|&&c| c > 0).count();
        t.row(&[
            &pct(frac),
            &dur_us(d_log),
            &dur_us(d_stat),
            &format!(
                "{used}/10 (min {} max {})",
                per_ch.iter().min().unwrap(),
                per_ch.iter().max().unwrap()
            ),
        ]);
        rows.push(obj! {
            offered_fraction: frac,
            logical_delay_us: d_log * 1e6,
            static_delay_us: d_stat * 1e6,
            spread: format!("{per_ch:?}"),
        });
    }
    r.table(&t);
    r.note(
        "the logical trunk spreads arrivals over idle members, keeping delay\n\
         near the unloaded decision time; the static binding queues as soon as\n\
         offered load exceeds one member's capacity (10% of the trunk) —\n\
         \"exploiting high capacity physical links without forcing the higher\n\
         speeds on the rest of the internetwork\" (§2.2).",
    );

    // ---- 2: logical-hop expansion cost -------------------------------------
    let mut t2 = Table::new(
        "E6b — logical-hop (route splice) cost: \"route bits / data rate\" (§2.2)",
        &[
            "spliced route",
            "route bytes",
            "added header wire time @100 Mb/s",
            "measured extra delay",
        ],
    );
    // Compare forwarding through a router that splices a 3-segment route
    // vs one that forwards directly; measure delay difference.
    let run_splice = |splice: bool| -> f64 {
        let mut sim = Simulator::new(67);
        let src = sim.add_node(Box::new(ScriptedHost::new()));
        let dst = sim.add_node(Box::new(ScriptedHost::new()));
        let mut cfg = ViperConfig::basic(1, &[1, 2]);
        if splice {
            cfg.logical.bind(
                150,
                PortBinding::Splice(vec![
                    SegmentRepr::minimal(2), // exits here
                ]),
            );
        }
        let router = sim.add_node(Box::new(ViperRouter::new(cfg)));
        sim.p2p(src, 0, router, 1, CH_RATE, PROP);
        sim.p2p(router, 2, dst, 0, CH_RATE, PROP);
        let port = if splice { 150 } else { 2 };
        let pkt = PacketBuilder::new()
            .segment(SegmentRepr::minimal(port))
            .segment(SegmentRepr::minimal(PORT_LOCAL))
            .payload(vec![9; 500])
            .build()
            .unwrap();
        sim.node_mut::<ScriptedHost>(src)
            .plan(SimTime::ZERO, 0, frame(pkt));
        ScriptedHost::start(&mut sim, src);
        sim.run(10_000);
        let rx = &sim.node::<ScriptedHost>(dst).received;
        rx[0].last_bit.as_nanos() as f64 / 1e9
    };
    let direct = run_splice(false);
    let spliced = run_splice(true);
    let route_bytes = SegmentRepr::minimal(2).buffer_len();
    t2.row(&[
        &"1 segment (4 B)",
        &route_bytes,
        &dur_us(transmission_time(route_bytes, CH_RATE).as_secs_f64()),
        &dur_us(spliced - direct),
    ]);
    r.table(&t2);
    r.note(
        "the splice re-enters the switching pipeline once; the extra delay is\n\
         on the order of the spliced header's wire time plus one decision —\n\
         consistent with the paper's bound.",
    );

    r.json = rows.into();
    r
}
