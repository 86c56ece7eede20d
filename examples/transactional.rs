//! Transactional workload with tokens and accounting.
//!
//! §1 motivates Sirpent with "increases in transactional traffic, such
//! as credit card transactions, [which] make the logical connections
//! even shorter": no circuit setup, just a routed request and a
//! trailer-routed response. Every hop is authorized by an encrypted
//! port token minted by the directory, and the routers' accounting
//! ledgers are collected for billing at the end (§2.2).
//!
//! Run with: `cargo run --example transactional`

use sirpent::directory::{TeQuery, TokenIssue};
use sirpent::host::{HostPortKind, SirpentHost};
use sirpent::router::viper::{AuthConfig, ViperConfig, ViperRouter};
use sirpent::sim::stats::Summary;
use sirpent::sim::{SimDuration, SimTime};
use sirpent::token::{AuthPolicy, TokenMinter};
use sirpent::wire::viper::Priority;
use sirpent::wire::vmtp::EntityId;
use sirpent::Net;

const RATE: u64 = 10_000_000;
const PROP: SimDuration = SimDuration(20_000); // 20 µs metro link

fn main() {
    // Domain secret; each router derives its own key from it.
    let minter = TokenMinter::new(0x5EC_C0DE, 17);
    let (k1, k2) = (minter.router_key(1), minter.router_key(2));

    // merchant — R1 — R2 — bank
    let mut net = Net::new(7);
    let merchant = net.host(0x3E, vec![(0, HostPortKind::PointToPoint)]);
    let bank = net.host(0xBA, vec![(0, HostPortKind::PointToPoint)]);
    let mk_cfg = |id: u32, key| {
        let mut cfg = ViperConfig::basic(id, &[1, 2]);
        cfg.auth = Some(AuthConfig {
            key,
            policy: AuthPolicy::Optimistic,
            verify_delay: SimDuration::from_micros(200),
            require_token: true,
        });
        cfg
    };
    let r1 = net.viper(mk_cfg(1, k1));
    let r2 = net.viper(mk_cfg(2, k2));
    net.p2p(merchant, 0, r1, 1, RATE, PROP);
    net.p2p(r1, 2, r2, 1, RATE, PROP);
    net.p2p(r2, 2, bank, 0, RATE, PROP);

    // The directory's map is the network as wired; it issues the route
    // with one token per hop, charged to account 9001 (the merchant).
    let mut dir = net.directory().with_tokens(TokenIssue {
        minter,
        max_priority: Priority::new(5),
        reverse_ok: true,
        byte_limit: 0,
        expiry_s: 0,
    });
    let (route, residual_bps) = net
        .routes(&mut dir, merchant, bank, &TeQuery::default(), 9001)
        .remove(0);
    let mut sim = net.into_sim();
    println!(
        "directory route: {} hops, {} Mb/s free at the bottleneck, MTU {}, base RTT {}, {}-byte tokens",
        route.router_ids.len(),
        residual_bps / 1_000_000,
        route.path_mtu,
        route.base_rtt,
        route.segments[0].port_token.len(),
    );

    // 200 card authorizations, Poisson-ish spaced 2 ms apart.
    const N: usize = 200;
    sim.node_mut::<SirpentHost>(bank).auto_respond = Some(b"APPROVED 00".to_vec());
    {
        let m = sim.node_mut::<SirpentHost>(merchant);
        m.install_routes(EntityId(0xBA), vec![route]);
        for i in 0..N {
            m.queue_request(
                SimTime(i as u64 * 2_000_000),
                EntityId(0xBA),
                format!("AUTH card=4242 amount={}", 100 + i).into_bytes(),
            );
        }
    }
    SirpentHost::start(&mut sim, merchant);
    sim.run_until(SimTime(2_000_000 * (N as u64 + 5)));

    // --- results ----------------------------------------------------------
    let m = sim.node::<SirpentHost>(merchant);
    let mut rtts = Summary::new();
    for (_, rtt) in &m.rtt_samples {
        rtts.record(rtt.as_secs_f64() * 1e6);
    }
    println!(
        "\n{} transactions completed ({} responses delivered)",
        m.rtt_samples.len(),
        m.inbox.len()
    );
    println!(
        "authorization RTT: mean {:.0} µs, min {:.0} µs, max {:.0} µs, stddev {:.1} µs",
        rtts.mean(),
        rtts.min(),
        rtts.max(),
        rtts.stddev()
    );
    assert_eq!(m.inbox.len(), N, "all transactions must complete");

    // Token machinery: only the first packet per token pays a decrypt.
    for (name, id) in [("R1", r1), ("R2", r2)] {
        let router = sim.node::<ViperRouter>(id);
        println!(
            "{name}: {} forwarded, {} token decrypts, {} cache hits",
            router.stats.forwarded, router.stats.token_decrypts, router.stats.token_cache_hits
        );
        dir.collect_accounting(router.token_cache().unwrap().accounting());
    }
    let bill = dir.billing.usage(9001);
    println!(
        "billing for account 9001: {} packets, {} bytes across the domain",
        bill.packets, bill.bytes
    );
}
