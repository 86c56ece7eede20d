//! TE end to end: the directory computes k constrained routes on its
//! weighted topology, the client compiles and installs them *weighted by
//! advertised residual capacity*, and per-transaction re-selection
//! spreads flows across both physical paths instead of piling onto one.

use sirpent::directory::te::TeQuery;
use sirpent::host::{HostPortKind, SirpentHost};
use sirpent::router::viper::ViperConfig;
use sirpent::sim::{SimDuration, SimTime};
use sirpent::wire::vmtp::EntityId;
use sirpent::Net;

const MBPS_10: u64 = 10_000_000;
const PROP: SimDuration = SimDuration(5_000);

#[test]
fn weighted_routes_spread_transactions_across_parallel_links() {
    // client — R1 — server over two parallel R1→server links (ports 2
    // and 3). The directory's TE view knows both.
    let mut net = Net::new(7);
    let a = net.host(0xA, vec![(0, HostPortKind::PointToPoint)]);
    let b = net.host(
        0xB,
        vec![
            (0, HostPortKind::PointToPoint),
            (1, HostPortKind::PointToPoint),
        ],
    );
    let r1 = net.viper(ViperConfig::basic(1, &[1, 2, 3]));
    net.p2p(a, 0, r1, 1, MBPS_10, PROP);
    let (up_a, _) = net.p2p(r1, 2, b, 0, MBPS_10, PROP);
    let (up_b, _) = net.p2p(r1, 3, b, 1, MBPS_10, PROP);

    let mut dir = net.directory();
    // Port 2 already carries some background load: its residual — and
    // hence its share of new flows — is smaller.
    dir.report_load(1, 2, 0.5);
    let both = TeQuery {
        k: 2,
        ..TeQuery::default()
    };
    let weighted = net.routes(&mut dir, a, b, &both, 1);
    let mut sim = net.into_sim();
    assert_eq!(weighted.len(), 2, "both parallel links granted");
    assert_ne!(weighted[0].1, weighted[1].1, "residuals differ under load");

    const N: u64 = 40;
    {
        let c = sim.node_mut::<SirpentHost>(a);
        c.install_routes_weighted(EntityId(0xB), weighted);
        for i in 0..N {
            c.queue_request(SimTime(i * 5_000_000), EntityId(0xB), vec![9; 64]);
        }
    }
    sim.node_mut::<SirpentHost>(b).auto_respond = Some(vec![1; 32]);
    SirpentHost::start(&mut sim, a);
    sim.run_until(SimTime(2_000_000_000));

    let client = sim.node::<SirpentHost>(a);
    assert_eq!(
        client.inbox.len(),
        N as usize,
        "every transaction completed"
    );
    assert!(
        client.route_reselections(EntityId(0xB)) > 0,
        "per-flow weighted selection actually ran"
    );

    let fa = sim.channel_stats(up_a).frames;
    let fb = sim.channel_stats(up_b).frames;
    assert!(fa > 0 && fb > 0, "both links carried flows ({fa}/{fb})");
    assert!(
        fb > fa,
        "the less-loaded link carried more flows (loaded={fa}, idle={fb})"
    );
}
