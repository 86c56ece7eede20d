//! End-to-end reliability: multi-packet messages over lossy links are
//! recovered by selective retransmission (§4.3), and the failure modes
//! Sirpent accepts (truncation, corruption) surface at the transport,
//! never as silent data corruption.

use sirpent::directory::TeQuery;
use sirpent::host::{HostPortKind, SirpentHost};
use sirpent::router::viper::ViperConfig;
use sirpent::sim::{FaultConfig, SimDuration, SimTime};
use sirpent::wire::vmtp::EntityId;
use sirpent::Net;

const RATE: u64 = 10_000_000;
const PROP: SimDuration = SimDuration(5_000);

fn build(
    seed: u64,
) -> (
    sirpent::sim::Simulator,
    sirpent::sim::NodeId,
    sirpent::sim::NodeId,
    sirpent::sim::ChannelId,
    sirpent::sim::ChannelId,
) {
    let mut net = Net::new(seed);
    let a = net.host(0xA, vec![(0, HostPortKind::PointToPoint)]);
    let b = net.host(0xB, vec![(0, HostPortKind::PointToPoint)]);
    let r = net.viper(ViperConfig::basic(1, &[1, 2]));
    net.p2p(a, 0, r, 1, RATE, PROP);
    let (fwd, rev) = net.p2p(r, 2, b, 0, RATE, PROP);
    let routes = net.routes(&mut net.directory(), a, b, &TeQuery::default(), 1);
    let mut sim = net.into_sim();
    sim.node_mut::<SirpentHost>(a)
        .install_routes(EntityId(0xB), routes.into_iter().map(|(r, _)| r).collect());
    (sim, a, b, fwd, rev)
}

#[test]
fn large_message_survives_20_percent_loss() {
    let (mut sim, a, b, fwd, rev) = build(60);
    sim.set_faults(
        fwd,
        FaultConfig {
            drop_prob: 0.2,
            corrupt_prob: 0.0,
        },
    );
    sim.set_faults(
        rev,
        FaultConfig {
            drop_prob: 0.2,
            corrupt_prob: 0.0,
        },
    );

    // A 12 KB message = 12 group members at the default 1000 B segment.
    let msg: Vec<u8> = (0..12_000u32).map(|i| (i % 251) as u8).collect();
    sim.node_mut::<SirpentHost>(b).echo = false;
    sim.node_mut::<SirpentHost>(a)
        .queue_request(SimTime::ZERO, EntityId(0xB), msg.clone());
    SirpentHost::start(&mut sim, a);
    sim.run_until(SimTime(5_000_000_000));

    let server = sim.node::<SirpentHost>(b);
    assert_eq!(server.inbox.len(), 1, "message assembled despite loss");
    assert_eq!(server.inbox[0].message, msg, "byte-exact reassembly");
    // Selective retransmission did real work but did not resend the
    // whole message each time.
    let retx = sim.node::<SirpentHost>(a).endpoint().stats.retransmissions;
    assert!(retx > 0, "losses must have required retransmissions");
    assert!(
        retx < 48,
        "selective: far fewer resends than 4 full messages ({retx})"
    );
}

#[test]
fn many_transactions_survive_bidirectional_loss() {
    let (mut sim, a, b, fwd, rev) = build(61);
    sim.set_faults(
        fwd,
        FaultConfig {
            drop_prob: 0.1,
            corrupt_prob: 0.02,
        },
    );
    sim.set_faults(
        rev,
        FaultConfig {
            drop_prob: 0.1,
            corrupt_prob: 0.02,
        },
    );

    sim.node_mut::<SirpentHost>(b).auto_respond = Some(vec![0x0F; 200]);
    {
        let h = sim.node_mut::<SirpentHost>(a);
        for i in 0..50u64 {
            h.queue_request(SimTime(i * 10_000_000), EntityId(0xB), vec![0x44; 300]);
        }
    }
    SirpentHost::start(&mut sim, a);
    sim.run_until(SimTime(20_000_000_000));

    let client = sim.node::<SirpentHost>(a);
    // With 5 attempts per transaction and ~12% effective loss per
    // traversal, essentially everything completes.
    assert!(
        client.rtt_samples.len() >= 48,
        "completed {}/50",
        client.rtt_samples.len()
    );
    // Every delivered response is byte-exact (corruption was caught by
    // the transport checksum, never accepted).
    for m in &client.inbox {
        assert!(m.message.iter().all(|&x| x == 0x0F));
    }
    let server = sim.node::<SirpentHost>(b);
    for m in &server.inbox {
        assert!(m.message.iter().all(|&x| x == 0x44));
    }
}

#[test]
fn duplicate_deliveries_are_suppressed() {
    // Aggressive retransmission (tiny base RTT estimate) produces
    // duplicates on an otherwise clean network; the receiver must
    // deliver exactly once and re-ack the rest.
    let (mut sim, a, b, _fwd, rev) = build(62);
    // Drop all acks for a while so A retransmits a completed message.
    sim.set_faults(
        rev,
        FaultConfig {
            drop_prob: 0.8,
            corrupt_prob: 0.0,
        },
    );

    sim.node_mut::<SirpentHost>(a)
        .queue_request(SimTime::ZERO, EntityId(0xB), vec![0x77; 500]);
    SirpentHost::start(&mut sim, a);
    sim.run_until(SimTime(10_000_000_000));

    let server = sim.node::<SirpentHost>(b);
    assert_eq!(server.inbox.len(), 1, "exactly-once delivery to the app");
    assert!(
        server.endpoint().stats.duplicates > 0,
        "replays arrived and were recognized"
    );
}
