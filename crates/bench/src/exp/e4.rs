//! E4 — §6.3 + §2.2: response to congestion and link failure.
//!
//! Four measurements:
//!
//! 1. **Backpressure reaction time**: how long from overload onset until
//!    the congested router signals upstream and the feeder installs a
//!    rate limit.
//! 2. **Bottleneck behaviour vs buffer size**: utilization, drops and
//!    peak queue with rate control on/off (§2.2: "the rate control
//!    mechanism prevents there being a sustained mismatch").
//! 3. **Feed-forward ablation** (§2.2's "feed forward" hints).
//! 4. **End-to-end failover time** after a link failure: the client
//!    detects by timeout and switches routes — "the client can react
//!    faster and more reliably … than can the hop-by-hop optimization of
//!    conventional distributed routing" (§6.3).

use crate::json::obj;
use crate::topo::{frame, packet};
use crate::{pct, Report, Table};
use sirpent::directory::TeQuery;
use sirpent::host::{HostEvent, HostPortKind, SirpentHost};
use sirpent::router::scripted::ScriptedHost;
use sirpent::router::viper::{CongestionConfig, ViperConfig, ViperRouter};
use sirpent::sim::{FaultConfig, SimDuration, SimTime, Simulator};
use sirpent::transport::FailoverPolicy;
use sirpent::wire::viper::Priority;
use sirpent::wire::vmtp::EntityId;
use sirpent::Net;

const FAST: u64 = 10_000_000;
const SLOW: u64 = 1_000_000; // bottleneck
const PROP: SimDuration = SimDuration(5_000);

fn congestion_cfg(enabled: bool, queue_high: usize, ff: bool) -> CongestionConfig {
    CongestionConfig {
        enabled,
        queue_high,
        decrease_factor: 0.5,
        min_rate_bps: 100_000,
        increase_step_bps: 200_000,
        increase_interval: SimDuration::from_millis(20),
        signal_interval: SimDuration::from_millis(1),
        use_feedforward: ff,
    }
}

/// src — R1 — R2 —(1 Mb/s)— sink, flooded from t=0. Returns
/// (sim horizon, r2 backpressure count, r1 limits, r2 stats snapshot,
/// bottleneck utilization, first-signal time).
struct FloodResult {
    util: f64,
    max_queue: usize,
    drops_bottleneck: u64,
    drops_upstream: u64,
    backpressure: u64,
    limits_seen: bool,
}

fn flood(queue_cap: usize, control: bool, ff: bool, horizon_ms: u64) -> FloodResult {
    let mut sim = Simulator::new(4242);
    let src = sim.add_node(Box::new(ScriptedHost::new()));
    let sink = sim.add_node(Box::new(ScriptedHost::new()));
    let mut cfg1 = ViperConfig::basic(1, &[1, 2]);
    cfg1.congestion = congestion_cfg(control, 4, ff);
    cfg1.queue_capacity = queue_cap;
    let mut cfg2 = ViperConfig::basic(2, &[1, 2]);
    cfg2.congestion = congestion_cfg(control, 4, ff);
    cfg2.queue_capacity = queue_cap;
    let r1 = sim.add_node(Box::new(ViperRouter::new(cfg1)));
    let r2 = sim.add_node(Box::new(ViperRouter::new(cfg2)));
    sim.p2p(src, 0, r1, 1, FAST, PROP);
    sim.p2p(r1, 2, r2, 1, FAST, PROP);
    let (bottleneck, _) = sim.p2p(r2, 2, sink, 0, SLOW, PROP);

    // Offered load: 5 Mb/s of 500-byte packets into a 1 Mb/s bottleneck.
    let n = (horizon_ms * 1_000_000 / 800_000) as usize;
    for i in 0..n {
        let pkt = packet(2, vec![i as u8; 500], Priority::NORMAL);
        sim.node_mut::<ScriptedHost>(src)
            .plan(SimTime(i as u64 * 800_000), 0, frame(pkt));
    }
    ScriptedHost::start(&mut sim, src);
    let horizon = SimTime(horizon_ms * 1_000_000);
    sim.run_until(horizon);

    let r2s = sim.node::<ViperRouter>(r2);
    let r1s = sim.node::<ViperRouter>(r1);
    FloodResult {
        util: sim
            .channel_stats(bottleneck)
            .utilization(SimDuration(horizon.as_nanos())),
        max_queue: r2s.stats.max_queue,
        drops_bottleneck: r2s.stats.total_drops(),
        drops_upstream: r1s.stats.total_drops(),
        backpressure: r2s.stats.backpressure_sent + r1s.stats.backpressure_sent,
        limits_seen: r1s.stats.limits_installed > 0 || r1s.active_limits() > 0,
    }
}

/// Same bottleneck, but the source is a full Sirpent host whose pacer
/// obeys backpressure — the cascade reaches all the way back (§2.2:
/// "rate-limiting information builds up back from the point of
/// congestion to the sources").
fn adaptive_source_flood(horizon_ms: u64) -> (u64, u64, u64, usize, f64) {
    let mut net = Net::new(777);
    let src = net.host(0xA, vec![(0, HostPortKind::PointToPoint)]);
    let sink = net.host(0xB, vec![(0, HostPortKind::PointToPoint)]);
    let mut cfg1 = ViperConfig::basic(1, &[1, 2]);
    cfg1.congestion = congestion_cfg(true, 4, false);
    cfg1.queue_capacity = 16;
    let mut cfg2 = ViperConfig::basic(2, &[1, 2]);
    cfg2.congestion = congestion_cfg(true, 4, false);
    cfg2.queue_capacity = 16;
    let r1 = net.viper(cfg1);
    let r2 = net.viper(cfg2);
    net.p2p(src, 0, r1, 1, FAST, PROP);
    net.p2p(r1, 2, r2, 1, FAST, PROP);
    let (bneck, _) = net.p2p(r2, 2, sink, 0, SLOW, PROP);
    let routes = net.routes(&mut net.directory(), src, sink, &TeQuery::default(), 1);
    let mut sim = net.into_sim();

    {
        let h = sim.node_mut::<SirpentHost>(src);
        h.install_routes(EntityId(0xB), routes.into_iter().map(|(r, _)| r).collect());
        // 5 Mb/s offered: 500-byte requests every 0.8 ms.
        let n = horizon_ms * 1_000_000 / 800_000;
        for i in 0..n {
            h.queue_request(SimTime(i * 800_000), EntityId(0xB), vec![3; 500]);
        }
    }
    SirpentHost::start(&mut sim, src);
    sim.run_until(SimTime(horizon_ms * 1_000_000));

    let r1s = sim.node::<ViperRouter>(r1);
    let r2s = sim.node::<ViperRouter>(r2);
    let h = sim.node::<SirpentHost>(src);
    let util = sim
        .channel_stats(bneck)
        .utilization(SimDuration(horizon_ms * 1_000_000));
    (
        r2s.stats.total_drops(),
        r1s.stats.total_drops(),
        h.stats.backpressure_received,
        (h.endpoint().pacer.rate_bps / 1000) as usize,
        util,
    )
}

/// What [`end_to_end_failover`] measured.
pub(crate) struct EndToEndFailover {
    /// Nanoseconds from the link failure to the client's route switch.
    pub switch_ns: u64,
    /// Transactions that completed.
    pub completed: usize,
    /// Transactions the client gave up on.
    pub abandoned: usize,
}

/// The E4c scenario: a client with two disjoint single-router routes
/// and a one-loss failover policy issues `requests` transactions 5 ms
/// apart; the primary route's last link dies at `fail_at` and the run
/// ends at `horizon`.
pub(crate) fn end_to_end_failover(
    prop: SimDuration,
    requests: u64,
    fail_at: SimTime,
    horizon: SimTime,
) -> EndToEndFailover {
    let mut net = Net::new(31);
    let client = net.host(
        0xC,
        vec![
            (0, HostPortKind::PointToPoint),
            (1, HostPortKind::PointToPoint),
        ],
    );
    let server = net.host(
        0x5,
        vec![
            (0, HostPortKind::PointToPoint),
            (1, HostPortKind::PointToPoint),
        ],
    );
    let r1 = net.viper(ViperConfig::basic(1, &[1, 2]));
    let r2 = net.viper(ViperConfig::basic(2, &[1, 2]));
    net.p2p(client, 0, r1, 1, FAST, prop);
    net.p2p(client, 1, r2, 1, FAST, prop);
    let (dead1, dead2) = net.p2p(r1, 2, server, 0, FAST, prop);
    net.p2p(r2, 2, server, 1, FAST, prop);
    // One route per access link, in host-port order: via R1, then via R2.
    let routes = net.routes(&mut net.directory(), client, server, &TeQuery::default(), 1);
    let mut sim = net.into_sim();

    {
        let c = sim.node_mut::<SirpentHost>(client);
        c.set_failover(FailoverPolicy {
            loss_threshold: 1,
            ..Default::default()
        });
        c.install_routes(EntityId(0x5), routes.into_iter().map(|(r, _)| r).collect());
        for i in 0..requests {
            c.queue_request(SimTime(i * 5_000_000), EntityId(0x5), vec![7; 64]);
        }
    }
    sim.node_mut::<SirpentHost>(server).auto_respond = Some(vec![1; 32]);
    SirpentHost::start(&mut sim, client);

    sim.run_until(fail_at);
    for ch in [dead1, dead2] {
        sim.set_faults(
            ch,
            FaultConfig {
                drop_prob: 1.0,
                corrupt_prob: 0.0,
            },
        );
    }
    sim.run_until(horizon);

    let c = sim.node::<SirpentHost>(client);
    let switch = c
        .events
        .iter()
        .find_map(|e| match e {
            HostEvent::RouteSwitched { at, .. } => Some(*at),
            _ => None,
        })
        .expect("the client must have switched routes");
    EndToEndFailover {
        switch_ns: switch.as_nanos() - fail_at.as_nanos(),
        completed: c.rtt_samples.len(),
        abandoned: c
            .events
            .iter()
            .filter(|e| matches!(e, HostEvent::GaveUp { .. }))
            .count(),
    }
}

/// Run E4.
pub fn run() -> Report {
    let mut r = Report::default();
    // ---- 1+2: buffer sweep, control on/off -------------------------------
    let mut t = Table::new(
        "E4a — bottleneck under 5× overload, 400 ms: rate control on/off",
        &[
            "queue cap",
            "control",
            "utilization",
            "peak queue",
            "drops@bneck",
            "drops@upstrm",
            "bp msgs",
        ],
    );
    let mut rows = Vec::new();
    for (cap, control) in [4usize, 8, 16, 32]
        .into_iter()
        .flat_map(|cap| [(cap, false), (cap, true)])
    {
        let f = flood(cap, control, false, 400);
        t.row(&[
            &cap,
            &control,
            &pct(f.util),
            &f.max_queue,
            &f.drops_bottleneck,
            &f.drops_upstream,
            &f.backpressure,
        ]);
        rows.push(obj! {
            queue_cap: cap,
            control: control,
            utilization: f.util,
            max_queue: f.max_queue,
            drops: f.drops_bottleneck + f.drops_upstream,
            backpressure_msgs: f.backpressure,
        });
        r.gate(
            !control || f.limits_seen,
            format!("queue cap {cap}: no upstream limit was installed"),
        );
    }
    r.table(&t);
    r.note(
        "with control the *bottleneck* queue stays at the high-water mark and\n\
         its losses move upstream toward the source, hop by hop; with a dumb\n\
         unreactive source the upstream router inherits them (§2.2's cascade).\n",
    );

    // The full cascade: a rate-adaptive Sirpent host as the source.
    let (b_drops, u_drops, bp_rx, final_rate_kbps, util) = adaptive_source_flood(400);
    let mut ta = Table::new(
        "E4a2 — same overload, source obeys backpressure (full cascade)",
        &[
            "drops@bneck",
            "drops@upstrm",
            "bp msgs at source",
            "final source rate kb/s",
            "bneck util",
        ],
    );
    ta.row(&[&b_drops, &u_drops, &bp_rx, &final_rate_kbps, &pct(util)]);
    r.table(&ta);
    r.note(
        "the source's pacer was squeezed to ≈ the bottleneck rate — \"the rate\n\
         control mechanism prevents there being a sustained mismatch\" (§2.2).\n",
    );

    // ---- 3: feed-forward ablation -----------------------------------------
    let base = flood(32, true, false, 120);
    let with_ff = flood(32, true, true, 120);
    let mut t3 = Table::new(
        "E4b — feed-forward queue hints (§2.2 ablation, 120 ms of overload)",
        &["variant", "bp msgs", "peak queue", "drops"],
    );
    t3.row(&[
        &"backpressure only",
        &base.backpressure,
        &base.max_queue,
        &(base.drops_bottleneck + base.drops_upstream),
    ]);
    t3.row(&[
        &"+ feed-forward hints",
        &with_ff.backpressure,
        &with_ff.max_queue,
        &(with_ff.drops_bottleneck + with_ff.drops_upstream),
    ]);
    r.table(&t3);

    // ---- 4: failover time after link failure ------------------------------
    let e2e = end_to_end_failover(PROP, 200, SimTime(500_000_000), SimTime(2_000_000_000));
    let mut t4 = Table::new(
        "E4c — end-to-end failover after link failure at t = 500 ms",
        &["quantity", "value"],
    );
    let switch_ms = e2e.switch_ns as f64 / 1e6;
    t4.row(&[&"detection + switch time", &format!("{switch_ms:.2} ms")]);
    t4.row(&[&"transactions completed", &format!("{}/200", e2e.completed)]);
    t4.row(&[&"transactions abandoned", &e2e.abandoned]);
    r.table(&t4);
    r.note(format!(
        "the client needs only its own timeout (≈2× measured RTT) to detect the\n\
         failure and switch — no routing-protocol reconvergence is involved\n\
         (§6.3: link-state/distance-vector updates propagate in seconds-to-\n\
         minutes in this era; the end-to-end switch took {switch_ms:.2} ms)."
    ));

    r.json = obj! { buffer_sweep: rows, failover_ms: switch_ms };
    r
}
