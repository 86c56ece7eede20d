//! A campus/transit internetwork with directory-driven multi-route
//! failover (§6.3).
//!
//! Topology: the client can reach the server through either of two
//! transit routers. The directory returns **both** routes; the client
//! uses the low-delay one until the primary link fails mid-run, detects
//! the failure end-to-end (timeouts), switches to the backup route
//! without any network-layer reconvergence, and completes the workload.
//!
//! Run with: `cargo run --example internetwork`

use sirpent::directory::TeQuery;
use sirpent::host::{HostEvent, HostPortKind, SirpentHost};
use sirpent::router::viper::ViperConfig;
use sirpent::sim::{FaultConfig, SimDuration, SimTime};
use sirpent::transport::FailoverPolicy;
use sirpent::wire::vmtp::EntityId;
use sirpent::Net;

const RATE: u64 = 10_000_000;
const PROP: SimDuration = SimDuration(10_000);

fn main() {
    // client — R1 —(primary)— server
    //        \— R2 —(backup, slower)— server
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
    net.p2p(client, 0, r1, 1, RATE, PROP);
    net.p2p(client, 1, r2, 1, RATE, PROP.times(5)); // backup is farther
    let (r1_to_srv, srv_to_r1) = net.p2p(r1, 2, server, 0, RATE, PROP); // fails mid-run
    net.p2p(r2, 2, server, 1, RATE, PROP.times(5));

    // The directory's map is the network as wired; it serves one route
    // per access link of the client, in host-port order.
    let mut dir = net.directory();
    let routes = net.routes(&mut dir, client, server, &TeQuery::default(), 1);
    let mut sim = net.into_sim();
    println!("directory returned {} routes", routes.len());
    for (i, (route, _)) in routes.iter().enumerate() {
        println!(
            "  route {}: via router {:?}, base rtt {} known in advance",
            i, route.router_ids, route.base_rtt
        );
    }

    // Client: 100 transactions over 2 s; primary link dies at t = 0.8 s.
    {
        let c = sim.node_mut::<SirpentHost>(client);
        c.set_failover(FailoverPolicy {
            loss_threshold: 1,
            ..Default::default()
        });
        c.install_routes(EntityId(0x5), routes.into_iter().map(|(r, _)| r).collect());
        for i in 0..100u64 {
            c.queue_request(
                SimTime(i * 20_000_000),
                EntityId(0x5),
                format!("query {i}").into_bytes(),
            );
        }
    }
    sim.node_mut::<SirpentHost>(server).auto_respond = Some(b"result row".to_vec());
    SirpentHost::start(&mut sim, client);

    // Run to the failure point, kill the primary link (both directions).
    sim.run_until(SimTime(800_000_000));
    sim.set_faults(
        r1_to_srv,
        FaultConfig {
            drop_prob: 1.0,
            corrupt_prob: 0.0,
        },
    );
    sim.set_faults(
        srv_to_r1,
        FaultConfig {
            drop_prob: 1.0,
            corrupt_prob: 0.0,
        },
    );
    println!("\n!! primary link r1<->server failed at t = 0.8 s\n");
    sim.run_until(SimTime(4_000_000_000));

    // --- results ----------------------------------------------------------
    let c = sim.node::<SirpentHost>(client);
    let completed = c.rtt_samples.len();
    let switches: Vec<&HostEvent> = c
        .events
        .iter()
        .filter(|e| matches!(e, HostEvent::RouteSwitched { .. }))
        .collect();
    println!("{completed}/100 transactions completed");
    for e in &switches {
        if let HostEvent::RouteSwitched { index, at, .. } = e {
            println!("client switched to route {} at {}", index, at);
        }
    }
    let gave_up = c
        .events
        .iter()
        .filter(|e| matches!(e, HostEvent::GaveUp { .. }))
        .count();
    println!("transactions abandoned: {gave_up}");
    assert!(
        !switches.is_empty(),
        "the client must have failed over to the backup route"
    );
    assert!(
        completed >= 95,
        "nearly all transactions complete despite the failure"
    );

    // The mean RTT before vs after the switch shows the slower backup.
    let before: Vec<f64> = c
        .rtt_samples
        .iter()
        .filter(|(t, _)| t.as_nanos() < 800_000_000)
        .map(|(_, r)| r.as_secs_f64() * 1e6)
        .collect();
    let after: Vec<f64> = c
        .rtt_samples
        .iter()
        .filter(|(t, _)| t.as_nanos() > 1_000_000_000)
        .map(|(_, r)| r.as_secs_f64() * 1e6)
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "mean RTT on primary: {:.0} µs; on backup: {:.0} µs (5× the propagation, as advertised)",
        mean(&before),
        mean(&after)
    );
}
