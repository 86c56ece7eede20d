//! E5 — §2.2: token authorization and accounting.
//!
//! * **First-packet latency** under the three policies (optimistic /
//!   blocking / drop) measured in simulation.
//! * The **invalid-token flood** response: optimistic → blocking
//!   escalation.
//! * Accounting totals per account.
//!
//! The wall-clock **cost asymmetry** the cache exists for (cached check
//! vs full decrypt+verify) is measured by the benchmark, not here:
//! `token.check_hit_ns` / `token.check_miss_ns` on `mesh_tokens`.

use crate::json::obj;
use crate::topo::frame;
use crate::{dur_us, Report, Table};
use sirpent::router::link::LinkFrame;
use sirpent::router::scripted::ScriptedHost;
use sirpent::router::viper::{AuthConfig, ViperConfig, ViperRouter};
use sirpent::sim::{SimDuration, SimTime, Simulator};
use sirpent::token::{AttackResponse, AuthPolicy, Grant, TokenCache, TokenMinter};
use sirpent::wire::packet::PacketBuilder;
use sirpent::wire::viper::{Priority, SegmentRepr, PORT_LOCAL};

const RATE: u64 = 10_000_000;
const PROP: SimDuration = SimDuration(5_000);
const VERIFY: SimDuration = SimDuration(200_000); // 200 µs full verify

fn grant() -> Grant {
    Grant {
        router_id: 1,
        port: 2,
        max_priority: Priority::new(5),
        reverse_ok: true,
        account: 7,
        byte_limit: 0,
        expiry_s: 0,
    }
}

/// Delivery times of packets 1 and 2 under a policy.
fn first_second_latency(policy: AuthPolicy) -> (Option<f64>, Option<f64>) {
    let minter = TokenMinter::new(0xE5, 2);
    let key = minter.router_key(1);
    let mut minter = minter;
    let tok = minter.mint(grant()).to_vec();

    let mut sim = Simulator::new(55);
    let src = sim.add_node(Box::new(ScriptedHost::new()));
    let dst = sim.add_node(Box::new(ScriptedHost::new()));
    let mut cfg = ViperConfig::basic(1, &[1, 2]);
    cfg.auth = Some(AuthConfig {
        key,
        policy,
        verify_delay: VERIFY,
        require_token: true,
    });
    let r = sim.add_node(Box::new(ViperRouter::new(cfg)));
    sim.p2p(src, 0, r, 1, RATE, PROP);
    sim.p2p(r, 2, dst, 0, RATE, PROP);

    let pkt = |tag: u8| {
        PacketBuilder::new()
            .segment(SegmentRepr {
                port: 2,
                port_token: tok.clone(),
                ..Default::default()
            })
            .segment(SegmentRepr::minimal(PORT_LOCAL))
            .payload(vec![tag; 64])
            .build()
            .unwrap()
    };
    let gap = SimTime(5_000_000);
    {
        let h = sim.node_mut::<ScriptedHost>(src);
        h.plan(SimTime::ZERO, 0, frame(pkt(1)));
        h.plan(gap, 0, frame(pkt(2)));
    }
    ScriptedHost::start(&mut sim, src);
    sim.run_until(SimTime(50_000_000));

    let rx = &sim.node::<ScriptedHost>(dst).received;
    let find = |tag: u8| {
        rx.iter().find_map(|f| {
            let LinkFrame::Sirpent { packet, .. } = LinkFrame::from_p2p_frame(&f.frame).ok()?
            else {
                return None;
            };
            let view = sirpent::wire::packet::PacketView::parse(&packet).ok()?;
            (view.data(&packet)[0] == tag).then_some(f.last_bit)
        })
    };
    (
        find(1).map(|t| t.as_nanos() as f64 / 1e9),
        find(2).map(|t| (t.as_nanos() - gap.as_nanos()) as f64 / 1e9),
    )
}

/// Run E5.
pub fn run() -> Report {
    let mut r = Report::default();
    let mut minter = TokenMinter::new(0xE5, 2);

    // ---- first-packet latency per policy ----------------------------------
    let mut t2 = Table::new(
        "E5b — first/second packet delivery latency by policy (200 µs verify)",
        &["policy", "packet 1", "packet 2"],
    );
    let mut rows = Vec::new();
    for (name, policy) in [
        ("optimistic", AuthPolicy::Optimistic),
        ("blocking", AuthPolicy::Blocking),
        ("drop", AuthPolicy::Drop),
    ] {
        let (p1, p2) = first_second_latency(policy);
        t2.row(&[
            &name,
            &p1.map(dur_us).unwrap_or_else(|| "dropped".into()),
            &p2.map(dur_us).unwrap_or_else(|| "dropped".into()),
        ]);
        rows.push(obj! {
            policy: name,
            first_packet_us: p1.map(|x| x * 1e6),
            second_packet_us: p2.map(|x| x * 1e6),
        });
    }
    r.table(&t2);
    r.note(
        "optimistic: both packets ride the fast path (§2.2: \"deferring\n\
         enforcement … to subsequent packets\"); blocking: packet 1 pays the\n\
         200 µs verification; drop: packet 1 is lost (retransmission would\n\
         find the cache warm), packet 2 rides the cache.",
    );

    // ---- invalid-token flood ----------------------------------------------
    let mut cache = TokenCache::new(minter.router_key(1), 1, AuthPolicy::Optimistic);
    cache.set_attack_response(AttackResponse {
        threshold: 10,
        window_s: 5,
    });
    let mut passed = 0u32;
    let mut held = 0u32;
    for i in 0..50u32 {
        let forged = vec![(i % 251) as u8; 32];
        let o = cache.check(&forged, 2, None, Priority::NORMAL, 100, 1);
        match o.decision {
            sirpent::token::Decision::Forward => passed += 1,
            sirpent::token::Decision::Block => held += 1,
            sirpent::token::Decision::Reject(_) => {}
        }
    }
    let mut t3 = Table::new(
        "E5c — invalid-token flood (50 distinct forged tokens, threshold 10)",
        &["outcome", "count"],
    );
    t3.row(&[&"passed optimistically (before escalation)", &passed]);
    t3.row(&[&"held for blocking verification (after)", &held]);
    r.table(&t3);
    r.note(format!(
        "after {passed} forged tokens the router \"switch[ed] to blocking\n\
         authentication when excessive invalid tokens are received\" (§2.2 fn 7)."
    ));
    r.gate(
        passed <= 10 && held >= 40,
        format!("flood: {passed} forged tokens passed and only {held} were held"),
    );

    // ---- accounting --------------------------------------------------------
    let mut cache = TokenCache::new(minter.router_key(1), 1, AuthPolicy::Optimistic);
    let t_a = minter
        .mint(Grant {
            account: 100,
            ..grant()
        })
        .to_vec();
    let t_b = minter
        .mint(Grant {
            account: 200,
            ..grant()
        })
        .to_vec();
    for _ in 0..10 {
        cache.check(&t_a, 2, None, Priority::NORMAL, 1000, 0);
    }
    for _ in 0..3 {
        cache.check(&t_b, 2, None, Priority::NORMAL, 500, 0);
    }
    let mut t4 = Table::new(
        "E5d — per-account accounting from cache entries",
        &["account", "packets", "bytes"],
    );
    for acct in [100u32, 200] {
        let u = cache.accounting().usage(acct);
        t4.row(&[&acct, &u.packets, &u.bytes]);
    }
    r.table(&t4);

    r.json = obj! { policies: rows, flood_passed: passed, flood_held: held };
    r
}
