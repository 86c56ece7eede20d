//! §4.2 end to end: timestamp-based lifetime enforcement "requires
//! approximately synchronized clocks among the communicating hosts" —
//! badly skewed clocks break communication, and the modelled
//! synchronization service (the WWV/NTP substitute) restores it.

use sirpent::directory::TeQuery;
use sirpent::host::{HostPortKind, SirpentHost};
use sirpent::router::viper::ViperConfig;
use sirpent::sim::{SimDuration, SimTime};
use sirpent::transport::{HostClock, LifetimeFilter, SyncService};
use sirpent::wire::vmtp::EntityId;
use sirpent::Net;

const RATE: u64 = 10_000_000;
const PROP: SimDuration = SimDuration(5_000);

/// Build the pair with a receiver clock offset of `recv_offset_ms` and a
/// tight 10 s MPL; return deliveries and lifetime rejects.
fn run(recv_offset_ms: i64, sync: bool) -> (usize, u64) {
    let mut net = Net::new(90);
    let mut ep_a = Net::default_endpoint(0xA);
    ep_a.lifetime = LifetimeFilter::steady(10_000, 2_000);
    let mut ep_b = Net::default_endpoint(0xB);
    ep_b.clock = HostClock {
        offset_ms: recv_offset_ms,
        ..HostClock::perfect(1_000_000)
    };
    ep_b.lifetime = LifetimeFilter::steady(10_000, 2_000);

    let a = net.host_with(ep_a, vec![(0, HostPortKind::PointToPoint)]);
    let b = net.host_with(ep_b, vec![(0, HostPortKind::PointToPoint)]);
    let r = net.viper(ViperConfig::basic(1, &[1, 2]));
    net.p2p(a, 0, r, 1, RATE, PROP);
    net.p2p(r, 2, b, 0, RATE, PROP);
    let routes = net.routes(&mut net.directory(), a, b, &TeQuery::default(), 1);
    let mut sim = net.into_sim();

    if sync {
        // The synchronization service corrects B before traffic flows
        // ("reliable clock synchronization protocols are available").
        let svc = SyncService { residual_ms: 500 };
        let now = sim.now();
        svc.sync(
            sim.node_mut::<SirpentHost>(b).endpoint_mut().clock_mut(),
            now,
        );
    }

    sim.node_mut::<SirpentHost>(a)
        .install_routes(EntityId(0xB), routes.into_iter().map(|(r, _)| r).collect());
    sim.node_mut::<SirpentHost>(b).echo = true;
    for i in 0..5u64 {
        sim.node_mut::<SirpentHost>(a).queue_request(
            SimTime(i * 5_000_000),
            EntityId(0xB),
            vec![7; 100],
        );
    }
    SirpentHost::start(&mut sim, a);
    sim.run_until(SimTime(3_000_000_000));

    let server = sim.node::<SirpentHost>(b);
    let s = &server.endpoint().stats;
    let rejected = s.too_old + s.from_future + s.pre_boot;
    (server.inbox.len(), rejected)
}

#[test]
fn synchronized_clocks_communicate() {
    let (delivered, rejected) = run(0, false);
    assert_eq!(delivered, 5);
    assert_eq!(rejected, 0);
}

#[test]
fn badly_fast_receiver_rejects_everything() {
    // Receiver 60 s fast: every fresh packet looks older than the 10 s
    // MPL.
    let (delivered, rejected) = run(60_000, false);
    assert_eq!(delivered, 0, "no request ever accepted");
    assert!(rejected >= 5);
}

#[test]
fn badly_slow_receiver_rejects_everything() {
    // Receiver 60 s slow: fresh packets appear to come from the future,
    // beyond the 2 s sync residual.
    let (delivered, rejected) = run(-60_000, false);
    assert_eq!(delivered, 0);
    assert!(rejected >= 5);
}

#[test]
fn sync_service_restores_communication() {
    // Same broken clock, but the sync service runs first: §4.2's
    // requirement is only "multiple seconds" of accuracy.
    let (delivered, rejected) = run(60_000, true);
    assert_eq!(delivered, 5, "sync brought B within the acceptance window");
    assert_eq!(rejected, 0);
}
