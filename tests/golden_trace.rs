//! Golden-trace determinism fixture.
//!
//! Runs one mixed VIPER + IP + CVC topology from a handful of seeds and
//! renders a canonical byte-exact digest of everything observable: router
//! stats (per-reason drop counts, delay summaries down to the f64 bit
//! pattern), host delivery timelines (with payload hashes), and channel
//! counters. The digest is compared against a fixture committed **before**
//! the staged-data-plane refactor, so the refactor is provably
//! behavior-preserving: identical seeds must produce identical event
//! sequences and stats before and after.
//!
//! Bless mode (regenerates fixtures — only for intentional behavior
//! changes, never to paper over drift):
//!
//! ```sh
//! GOLDEN_BLESS=1 cargo test --test golden_trace
//! ```

use sirpent::router::cvc::{CvcConfig, CvcRoute, CvcSwitch};
use sirpent::router::ip::{IpConfig, IpRouter, RouteEntry};
use sirpent::router::link::LinkFrame;
use sirpent::router::scripted::ScriptedHost;
use sirpent::router::viper::{
    AuthConfig, CongestionConfig, PortConfig, PortKind, SwitchMode, ViperConfig, ViperRouter,
};
use sirpent::router::LogicalTable;
use sirpent::sim::stats::Summary;
use sirpent::sim::{ChannelId, FaultConfig, NodeId, SimDuration, SimTime, Simulator};
use sirpent::token::{AuthPolicy, Grant, TokenMinter};
use sirpent::wire::buf::FrameBuf;
use sirpent::wire::cvc::Message;
use sirpent::wire::ipish::{self, Address};
use sirpent::wire::packet::PacketBuilder;
use sirpent::wire::viper::{Flags, Priority, SegmentRepr, PORT_LOCAL};

const MBPS_10: u64 = 10_000_000;
const MBPS_100: u64 = 100_000_000;
const PROP: SimDuration = SimDuration(2_000);
const CVC_DEST: u32 = 0xC0A8_0202;

/// FNV-1a over a byte slice — a stable, dependency-free content hash.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Bit-exact signature of a delay summary: count plus the raw IEEE-754
/// bits of mean/stddev/min/max, so even 1-ulp drift fails the fixture.
fn summary_sig(s: &Summary) -> String {
    format!(
        "{}:{:016x}:{:016x}:{:016x}:{:016x}",
        s.count(),
        s.mean().to_bits(),
        s.stddev().to_bits(),
        s.min().to_bits(),
        s.max().to_bits()
    )
}

/// Render drop counters as `Name=count` pairs sorted by reason name.
fn drops_sig(pairs: Vec<(String, u64)>) -> String {
    let mut pairs: Vec<_> = pairs.into_iter().filter(|&(_, v)| v > 0).collect();
    pairs.sort();
    let parts: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
    parts.join(",")
}

struct Topology {
    sim: Simulator,
    hosts: Vec<(&'static str, NodeId)>,
    viper: Vec<(&'static str, NodeId)>,
    ip: Vec<(&'static str, NodeId)>,
    cvc: Vec<(&'static str, NodeId)>,
    channels: Vec<ChannelId>,
}

fn viper_cfg(router_id: u32, exit_mtu: usize, queue_capacity: usize) -> ViperConfig {
    ViperConfig {
        router_id,
        mode: SwitchMode::CutThrough,
        decision_delay: SimDuration::from_nanos(500),
        ports: vec![
            PortConfig {
                port: 1,
                kind: PortKind::PointToPoint,
                mtu: 1600,
            },
            PortConfig {
                port: 2,
                kind: PortKind::PointToPoint,
                mtu: exit_mtu,
            },
        ],
        auth: None,
        logical: LogicalTable::new(),
        queue_capacity,
        congestion: CongestionConfig::default(),
    }
}

fn sirpent_frame(packet: Vec<u8>) -> FrameBuf {
    LinkFrame::Sirpent {
        ff_hint: 0,
        packet: packet.into(),
    }
    .into_p2p_frame()
}

/// A two-hop Sirpent packet: r1 exit port 2, then r2 exit port 2 (with
/// `token`), then local delivery.
fn viper_packet(token: Vec<u8>, priority: u8, dib: bool, payload: Vec<u8>) -> Vec<u8> {
    PacketBuilder::new()
        .segment(SegmentRepr {
            port: 2,
            flags: Flags {
                dib,
                ..Default::default()
            },
            priority: Priority::new(priority),
            ..Default::default()
        })
        .segment(SegmentRepr {
            port: 2,
            priority: Priority::new(priority),
            port_token: token,
            ..Default::default()
        })
        .segment(SegmentRepr::minimal(PORT_LOCAL))
        .payload(payload)
        .build()
        .unwrap()
}

fn ip_datagram(src: Address, dst: Address, payload: usize, ttl: u8) -> ipish::Datagram {
    let repr = ipish::Repr {
        tos: 0,
        total_len: (ipish::HEADER_LEN + payload) as u16,
        ident: 7,
        dont_frag: false,
        more_frags: false,
        frag_offset: 0,
        ttl,
        protocol: 17,
        src,
        dst,
    };
    ipish::Datagram::new(&repr, vec![0xAB; payload].into())
}

/// Build the mixed topology and script every workload.
fn build(seed: u64) -> Topology {
    let mut sim = Simulator::new(seed);
    let mut channels = Vec::new();

    // --- Sirpent plane: hA --(fast)--> r1 --(slow)--> r2 --> hB --------
    let ha = sim.add_node(Box::new(ScriptedHost::new()));
    let hb = sim.add_node(Box::new(ScriptedHost::new()));
    let hf = sim.add_node(Box::new(ScriptedHost::new()));
    let mut r1cfg = viper_cfg(1, 1600, 4);
    r1cfg.ports.push(PortConfig {
        port: 3,
        kind: PortKind::PointToPoint,
        mtu: 1600,
    });
    let r1 = sim.add_node(Box::new(ViperRouter::new(r1cfg)));
    let mut minter = TokenMinter::new(0xD0_0D, 5);
    let mut r2cfg = viper_cfg(2, 300, 64);
    r2cfg.auth = Some(AuthConfig {
        key: minter.router_key(2),
        policy: AuthPolicy::Optimistic,
        verify_delay: SimDuration::from_micros(200),
        require_token: true,
    });
    let r2 = sim.add_node(Box::new(ViperRouter::new(r2cfg)));
    let (a_r1, r1_a) = sim.p2p(ha, 0, r1, 1, MBPS_100, PROP);
    let (f_r1, r1_f) = sim.p2p(hf, 0, r1, 3, MBPS_100, PROP);
    let (r1_r2, r2_r1) = sim.p2p(r1, 2, r2, 1, MBPS_10, PROP);
    let (r2_b, b_r2) = sim.p2p(r2, 2, hb, 0, MBPS_10, PROP);
    channels.extend([a_r1, r1_a, f_r1, r1_f, r1_r2, r2_r1, r2_b, b_r2]);
    // Deterministic fault injection on the access link: consumes seeded
    // RNG draws so different seeds genuinely diverge.
    sim.set_faults(
        a_r1,
        FaultConfig {
            drop_prob: 0.08,
            corrupt_prob: 0.15,
        },
    );

    let mut mint = |priority: u8| {
        minter
            .mint(Grant {
                router_id: 2,
                port: 2,
                max_priority: Priority::new(priority),
                reverse_ok: true,
                account: 77,
                byte_limit: 0,
                expiry_s: 0,
            })
            .to_vec()
    };
    let tok5 = mint(5);
    let tok7 = mint(7);
    {
        let h = sim.node_mut::<ScriptedHost>(ha);
        // Burst that overflows r1's 4-slot queue (fast in, slow out).
        for i in 0..10u64 {
            h.plan(
                SimTime(i * 20_000),
                0,
                sirpent_frame(viper_packet(tok5.clone(), 3, false, vec![0x42; 64])),
            );
        }
        // Priority-7 preemption: arrives once the burst queue has drained
        // but r1 is still mid-transmission of a priority-3 frame, so the
        // current tx is aborted (Preempted) and the abort propagates to
        // r2's cut-through path.
        h.plan(
            SimTime(700_000),
            0,
            sirpent_frame(viper_packet(tok7.clone(), 7, false, vec![0x77; 64])),
        );
        // Drop-if-blocked while the port is busy with the priority-7 tx.
        h.plan(
            SimTime(760_000),
            0,
            sirpent_frame(viper_packet(tok5.clone(), 3, true, vec![0x0D; 64])),
        );
        // Tokenless packet: rejected at r2 (require_token).
        h.plan(
            SimTime(400_000),
            0,
            sirpent_frame(viper_packet(Vec::new(), 3, false, vec![0x00; 64])),
        );
        // Forged token: optimistic first pass, rejected on the repeat.
        let forged = viper_packet(vec![0xEE; 32], 3, false, vec![0xF0; 64]);
        h.plan(SimTime(1_000_000), 0, sirpent_frame(forged.clone()));
        h.plan(SimTime(2_000_000), 0, sirpent_frame(forged));
        // Unroutable port at r1.
        h.plan(
            SimTime(3_000_000),
            0,
            sirpent_frame(
                PacketBuilder::new()
                    .segment(SegmentRepr::minimal(99))
                    .segment(SegmentRepr::minimal(PORT_LOCAL))
                    .payload(vec![0x99; 32])
                    .build()
                    .unwrap(),
            ),
        );
        // Oversize packet truncated to r2's 300-byte exit MTU.
        h.plan(
            SimTime(4_000_000),
            0,
            sirpent_frame(viper_packet(tok5.clone(), 3, false, vec![0x5A; 500])),
        );
    }
    {
        // hF's link is fault-free, so this preemption pair fires
        // identically for every seed: a long priority-2 frame occupies the
        // slow exit port, then a priority-7 packet preempts it
        // mid-transmission. The abort propagates down r2's cut-through path
        // to hB.
        let h = sim.node_mut::<ScriptedHost>(hf);
        h.plan(
            SimTime(10_000_000),
            0,
            sirpent_frame(viper_packet(tok5.clone(), 2, false, vec![0xB1; 500])),
        );
        h.plan(
            SimTime(10_100_000),
            0,
            sirpent_frame(viper_packet(tok7.clone(), 7, false, vec![0xB2; 64])),
        );
    }

    // --- IP plane: hC -> ipr -> hD -------------------------------------
    let hc = sim.add_node(Box::new(ScriptedHost::new()));
    let hd = sim.add_node(Box::new(ScriptedHost::new()));
    let ipr = sim.add_node(Box::new(
        IpRouter::new(IpConfig {
            process_delay: SimDuration::from_micros(50),
            ports: vec![
                PortConfig {
                    port: 1,
                    kind: PortKind::PointToPoint,
                    mtu: 1500,
                },
                PortConfig {
                    port: 2,
                    kind: PortKind::PointToPoint,
                    mtu: 256,
                },
            ],
            routes: vec![RouteEntry {
                prefix: Address::new(10, 0, 2, 0),
                prefix_len: 24,
                out_port: 2,
                next_hop_mac: None,
            }],
            queue_capacity: 32,
        })
        .expect("ip config"),
    ));
    let (c_ip, ip_c) = sim.p2p(hc, 0, ipr, 1, MBPS_10, PROP);
    let (ip_d, d_ip) = sim.p2p(ipr, 2, hd, 0, MBPS_10, PROP);
    channels.extend([c_ip, ip_c, ip_d, d_ip]);
    {
        let src = Address::new(10, 0, 1, 1);
        let dst = Address::new(10, 0, 2, 2);
        let h = sim.node_mut::<ScriptedHost>(hc);
        for i in 0..3u64 {
            h.plan(
                SimTime(i * 500_000),
                0,
                LinkFrame::Ipish(ip_datagram(src, dst, 100, ipish::DEFAULT_TTL)).into_p2p_frame(),
            );
        }
        // TTL expiry.
        h.plan(
            SimTime(3_000_000),
            0,
            LinkFrame::Ipish(ip_datagram(src, dst, 40, 1)).into_p2p_frame(),
        );
        // Corrupted header: checksum drop.
        let mut bad = ip_datagram(src, dst, 40, 9);
        bad.header_mut()[16] ^= 0x55;
        h.plan(
            SimTime(4_000_000),
            0,
            LinkFrame::Ipish(bad).into_p2p_frame(),
        );
        // No route.
        h.plan(
            SimTime(5_000_000),
            0,
            LinkFrame::Ipish(ip_datagram(src, Address::new(10, 9, 9, 9), 40, 9)).into_p2p_frame(),
        );
        // Fragmentation to the 256-byte exit MTU.
        h.plan(
            SimTime(6_000_000),
            0,
            LinkFrame::Ipish(ip_datagram(src, dst, 1000, 9)).into_p2p_frame(),
        );
    }

    // --- CVC plane: hE -> s1 -> s2 (local attachment) ------------------
    let he = sim.add_node(Box::new(ScriptedHost::new()));
    let cvc_cfg = |out_port: u8| CvcConfig {
        process_delay: SimDuration::from_micros(5),
        setup_delay: SimDuration::from_micros(200),
        routes: vec![CvcRoute {
            dest: CVC_DEST,
            out_port,
        }],
        max_circuits: 100,
        reservable_fraction: 0.8,
    };
    let s1 = sim.add_node(Box::new(CvcSwitch::new(cvc_cfg(2))));
    let s2 = sim.add_node(Box::new(CvcSwitch::new(cvc_cfg(0))));
    let (e_s1, s1_e) = sim.p2p(he, 0, s1, 1, MBPS_10, SimDuration::from_micros(10));
    let (s1_s2, s2_s1) = sim.p2p(s1, 2, s2, 1, MBPS_10, SimDuration::from_micros(10));
    channels.extend([e_s1, s1_e, s1_s2, s2_s1]);
    {
        let h = sim.node_mut::<ScriptedHost>(he);
        let plan_cvc = |h: &mut ScriptedHost, at: u64, m: Message| {
            h.plan(SimTime(at), 0, LinkFrame::Cvc(Ok(m)).into_p2p_frame());
        };
        plan_cvc(
            h,
            0,
            Message::Setup {
                vci: 9,
                dest: CVC_DEST,
                reserve: 0,
            },
        );
        for i in 0..3u64 {
            plan_cvc(
                h,
                5_000_000 + i * 100_000,
                Message::Data {
                    vci: 9,
                    payload: vec![0xC0; 48].into(),
                },
            );
        }
        plan_cvc(
            h,
            6_000_000,
            Message::Setup {
                vci: 4,
                dest: 0xDEAD,
                reserve: 0,
            },
        );
        plan_cvc(h, 8_000_000, Message::Teardown { vci: 9 });
    }

    for host in [ha, hb, hf, hc, hd, he] {
        ScriptedHost::start(&mut sim, host);
    }

    Topology {
        sim,
        hosts: vec![
            ("hA", ha),
            ("hB", hb),
            ("hF", hf),
            ("hC", hc),
            ("hD", hd),
            ("hE", he),
        ],
        viper: vec![("r1", r1), ("r2", r2)],
        ip: vec![("ipr", ipr)],
        cvc: vec![("s1", s1), ("s2", s2)],
        channels,
    }
}

fn viper_line(name: &str, r: &ViperRouter) -> String {
    let s = &r.stats;
    format!(
        "viper {name} fwd={} local={} trunc={} hits={} dec={} blk={} bp={} maxq={} drops[{}] delay={}",
        s.forwarded,
        s.local,
        s.truncated,
        s.token_cache_hits,
        s.token_decrypts,
        s.token_blocked,
        s.backpressure_sent,
        s.max_queue,
        drops_sig(
            s.drops
                .iter()
                .map(|(k, v)| (format!("{k:?}"), v))
                .collect()
        ),
        summary_sig(&s.forward_delay),
    )
}

fn ip_line(name: &str, r: &IpRouter) -> String {
    let s = &r.stats;
    format!(
        "ip {name} fwd={} local={} frags={} maxq={} drops[{}] delay={}",
        s.forwarded,
        s.local,
        s.fragments_made,
        s.max_queue,
        drops_sig(s.drops.iter().map(|(k, v)| (format!("{k:?}"), v)).collect()),
        summary_sig(&s.forward_delay),
    )
}

fn cvc_line(name: &str, r: &CvcSwitch) -> String {
    let s = &r.stats;
    format!(
        "cvc {name} fwd={} local={} setups={} rejects={} peak={} state={} delay={}",
        s.forwarded,
        r.local_delivered.len(),
        s.setups,
        s.rejects,
        s.circuits_peak,
        r.state_bytes(),
        summary_sig(&s.forward_delay),
    )
}

/// Run the topology for one seed and render the canonical digest.
fn digest(seed: u64) -> String {
    let mut t = build(seed);
    t.sim.run_until(SimTime(50_000_000));

    let mut out = String::new();
    out.push_str(&format!("seed={seed}\n"));
    out.push_str(&format!("events={}\n", t.sim.events_dispatched()));
    for &(name, id) in &t.viper {
        out.push_str(&viper_line(name, t.sim.node::<ViperRouter>(id)));
        out.push('\n');
    }
    for &(name, id) in &t.ip {
        out.push_str(&ip_line(name, t.sim.node::<IpRouter>(id)));
        out.push('\n');
    }
    for &(name, id) in &t.cvc {
        out.push_str(&cvc_line(name, t.sim.node::<CvcSwitch>(id)));
        out.push('\n');
    }
    for &(name, id) in &t.hosts {
        let h = t.sim.node::<ScriptedHost>(id);
        let rx: Vec<String> = h
            .received
            .iter()
            .map(|r| {
                format!(
                    "({},{},{},{:016x},{})",
                    r.last_bit.as_nanos(),
                    r.port,
                    r.frame.len(),
                    fnv64(&r.frame.to_vec()),
                    u8::from(r.corrupted),
                )
            })
            .collect();
        let tx: Vec<String> = h
            .tx_done
            .iter()
            .map(|time| time.as_nanos().to_string())
            .collect();
        out.push_str(&format!(
            "host {name} aborted={} rx=[{}] txdone=[{}]\n",
            h.aborted,
            rx.join(";"),
            tx.join(";"),
        ));
    }
    for (i, &ch) in t.channels.iter().enumerate() {
        let s = t.sim.channel_stats(ch);
        out.push_str(&format!(
            "chan {i} frames={} bytes={} busy={} drops={} corrupt={} aborts={}\n",
            s.frames,
            s.bytes,
            s.busy.as_nanos(),
            s.drops,
            s.corrupted,
            s.aborts,
        ));
    }
    out
}

const SEEDS: [u64; 3] = [1, 2, 3];

fn fixture_path(seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("golden_seed{seed}.txt"))
}

#[test]
fn golden_trace_matches_fixture() {
    let bless = std::env::var("GOLDEN_BLESS").is_ok();
    for seed in SEEDS {
        let d1 = digest(seed);
        let d2 = digest(seed);
        assert_eq!(d1, d2, "same-process rerun diverged for seed {seed}");
        let path = fixture_path(seed);
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &d1).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing fixture {} ({e}); run with GOLDEN_BLESS=1",
                path.display()
            )
        });
        assert_eq!(
            d1, want,
            "seed {seed} digest drifted from the committed pre-refactor fixture",
        );
    }
}

#[test]
fn golden_seeds_diverge() {
    // Sanity: the fault injector actually consumes seeded randomness, so
    // distinct seeds produce distinct traces (the fixture is not vacuous).
    // Strip the `seed=` header so the comparison is over observed behavior.
    let body = |seed: u64| digest(seed).split_once('\n').unwrap().1.to_string();
    let (b1, b2, b3) = (body(SEEDS[0]), body(SEEDS[1]), body(SEEDS[2]));
    assert!(
        b1 != b2 || b1 != b3,
        "all golden seeds produced identical traces"
    );
}
