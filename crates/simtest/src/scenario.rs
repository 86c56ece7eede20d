//! Turn a [`Scenario`] into a running simulation and scrape the result.
//!
//! The builder is a pure function of the spec: the same [`Scenario`]
//! always produces the same topology, workload bytes, chaos schedule,
//! and — because the engine is deterministic — the same [`RunReport`]
//! and digest. Rails are disjoint chains (`src host → r1 … rN → dst`)
//! so faults on one rail cannot leak packets into another; the
//! conservation ledger is still computed globally.

use std::collections::BTreeMap;

use sirpent_router::cvc::{CvcConfig, CvcRoute, CvcSwitch};
use sirpent_router::ip::{IpConfig, IpRouter, RouteEntry};
use sirpent_router::link::LinkFrame;
use sirpent_router::scripted::ScriptedHost;
use sirpent_router::viper::{
    CongestionConfig, PortConfig, PortKind, SwitchMode, ViperConfig, ViperRouter,
};
use sirpent_router::LogicalTable;
use sirpent_sim::stats::Summary;
use sirpent_sim::{
    ChannelId, ChaosAction, ChaosEvent, FaultConfig, FaultSchedule, NodeId, SimDuration, SimTime,
    Simulator,
};
use sirpent_wire::buf::FrameBuf;
use sirpent_wire::cvc::Message;
use sirpent_wire::ipish::{self, Address};
use sirpent_wire::packet::PacketBuilder;
use sirpent_wire::trailer::Trailer;
use sirpent_wire::viper::{AltBranch, SegmentRepr, PORT_LOCAL};

use crate::spec::{FaultSpec, RailKind, Scenario, FLUSH_US};

/// Link rate used on every rail channel.
const RATE_BPS: u64 = 10_000_000;
/// Propagation delay on every rail channel.
const PROP: SimDuration = SimDuration(2_000);
/// End of phase 1 (workload + chaos + drain), nanoseconds.
const PHASE1_END: SimTime = SimTime(1_000_000_000);
/// End of phase 2 (reply routing), nanoseconds.
const PHASE2_END: SimTime = SimTime(2_000_000_000);
/// XOR salt deriving a reply marker from a delivered workload marker.
const REPLY_SALT: u64 = 0xA5A5_5A5A_A5A5_5A5A;

/// One instantiated rail with its engine ids.
pub struct BuiltRail {
    /// Forwarding plane of this rail.
    pub kind: RailKind,
    /// Source host.
    pub src: NodeId,
    /// Destination host (unused sink on CVC rails, which deliver at the
    /// terminal switch's local attachment).
    pub dst: NodeId,
    /// The chain's routers/switches, in forward order.
    pub routers: Vec<NodeId>,
    /// Forward-direction channels: `src→r1, r1→r2, …, rN→dst`.
    pub fwd: Vec<ChannelId>,
    /// Reverse-direction channels, same hop order.
    pub rev: Vec<ChannelId>,
    /// Bypass channels of a protected rail (both directions, in router
    /// order): router `j`'s port-3 detour around its forward hop.
    pub bypass: Vec<ChannelId>,
    /// Whether the rail carries alternate-branch protection (see
    /// [`crate::spec::RailSpec::protected`]).
    pub protected: bool,
    /// Workload markers injected on this rail.
    pub markers: Vec<u64>,
    /// The drain flush packet's marker.
    pub flush_marker: u64,
    /// Whether any duplication window targets this rail.
    pub dup_window: bool,
}

/// A scenario instantiated into a simulator (not yet run).
pub struct BuiltScenario {
    /// The engine.
    pub sim: Simulator,
    /// Per-rail ids and marker books.
    pub rails: Vec<BuiltRail>,
    /// Count of planned injections so far (workload + flush).
    pub injected: u64,
}

/// Book-keeping for one planned phase-2 reply: everything the
/// diverted-replies-route-back invariant needs to pin the reply's path
/// against the forward path the packet *actually took* (which, on a
/// protected rail under chaos, may differ from the primary route).
#[derive(Debug, Clone)]
pub struct ReplyRecord {
    /// The reply's marker (forward marker XOR the reply salt).
    pub reply_marker: u64,
    /// Arrival ports the forward packet's trailer recorded, one per
    /// router visited, in forward order. Port 4 marks a bypass landing.
    pub forward_hops: Vec<u8>,
    /// The destination-host port the forward packet arrived on: 0 is the
    /// primary chain, 5/6 are bypass landings from the last two routers.
    pub dst_port: u8,
    /// Routers on the rail's primary chain.
    pub rail_routers: usize,
    /// Whether the rail was protected.
    pub protected: bool,
}

/// Everything the invariant checks need from one finished run.
pub struct RunReport {
    /// Total packets planned (workload + flush + phase-2 replies).
    pub injected: u64,
    /// Frames recorded at host sinks plus CVC local deliveries
    /// (corrupted copies included — they arrived).
    pub delivered_frames: u64,
    /// Sum of every node's unified drop counters (hosts and routers).
    pub node_drops: u64,
    /// Sum of channel fault-injection drops.
    pub chan_drops: u64,
    /// Engine chaos-layer drops (link/router/partition kills).
    pub chaos_drops: u64,
    /// Frames still sitting in router output queues at the horizon.
    pub leftover_queued: u64,
    /// Delivery count per known marker, uncorrupted copies only.
    pub marker_hits: BTreeMap<u64, u32>,
    /// Markers of rails that had a duplication window (hits may exceed 1).
    pub dup_markers: Vec<u64>,
    /// Reply markers planned in phase 2 (VIPER rails only).
    pub replies_expected: Vec<u64>,
    /// Delivery count per reply marker at the source hosts.
    pub reply_hits: BTreeMap<u64, u32>,
    /// One record per planned reply, pinning the forward path taken.
    pub reply_book: Vec<ReplyRecord>,
    /// Arrival ports each *delivered* reply's own trailer recorded, in
    /// the reply's visit order, keyed by reply marker.
    pub reply_trailer_hops: BTreeMap<u64, Vec<u8>>,
    /// Total in-network diversions across every VIPER router.
    pub diversions: u64,
    /// Uncorrupted frames at VIPER/IP rail destinations carrying no
    /// known marker — phantom deliveries (must be zero).
    pub phantom_frames: u64,
    /// Frames that arrived at a destination host with the corruption
    /// flag set — delivered, but excluded from marker accounting.
    pub corrupted_delivered: u64,
    /// Total copies the fault injector corrupted on any channel. A
    /// frame corrupted mid-path can be forwarded onward (payload damage
    /// passes an IP header checksum) and arrive at the destination with
    /// a clean final-hop flag but a mangled marker, so the phantom
    /// check budgets against this instead of the per-delivery flag.
    pub chan_corrupted: u64,
    /// Canonical byte-exact digest of the run (determinism invariant).
    pub digest: String,
}

/// FNV-1a over a byte slice — stable, dependency-free content hash.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Bit-exact signature of a delay summary.
pub fn summary_sig(s: &Summary) -> String {
    format!(
        "{}:{:016x}:{:016x}:{:016x}:{:016x}",
        s.count(),
        s.mean().to_bits(),
        s.stddev().to_bits(),
        s.min().to_bits(),
        s.max().to_bits()
    )
}

fn us(t: u64) -> SimTime {
    SimTime(t * 1_000)
}

fn marker_payload(marker: u64, len: usize) -> Vec<u8> {
    let mut p = marker.to_le_bytes().to_vec();
    p.resize(len.max(16), 0x5C);
    p
}

fn contains_marker(bytes: &[u8], marker: u64) -> bool {
    let needle = marker.to_le_bytes();
    bytes.windows(8).any(|w| w == needle)
}

fn viper_cfg(router_id: u32, kind: RailKind, protected: bool) -> ViperConfig {
    // Protected rails add port 3 (bypass out) and port 4 (bypass in);
    // unprotected rails keep the historical two-port shape so their runs
    // stay byte-identical to pre-failover builds.
    let mut port_ids = vec![1u8, 2];
    if protected {
        port_ids.extend([3, 4]);
    }
    let ports = port_ids
        .into_iter()
        .map(|port| PortConfig {
            port,
            kind: PortKind::PointToPoint,
            mtu: 1600,
        })
        .collect();
    ViperConfig {
        router_id,
        mode: match kind {
            RailKind::ViperCut => SwitchMode::CutThrough,
            _ => SwitchMode::StoreAndForward {
                process_delay: SimDuration::from_micros(20),
            },
        },
        decision_delay: SimDuration::from_nanos(500),
        ports,
        auth: None,
        logical: LogicalTable::new(),
        queue_capacity: 8,
        congestion: CongestionConfig::default(),
    }
}

fn viper_workload_frame(hops: usize, marker: u64, len: usize) -> FrameBuf {
    let mut b = PacketBuilder::new();
    for _ in 0..hops {
        b = b.segment(SegmentRepr {
            port: 2,
            ..Default::default()
        });
    }
    let packet = b
        .segment(SegmentRepr::minimal(PORT_LOCAL))
        .payload(marker_payload(marker, len))
        .build_buf()
        .expect("workload packet builds");
    LinkFrame::Sirpent { ff_hint: 0, packet }.into_p2p_frame()
}

/// The armed counterpart of [`viper_workload_frame`]: every transit
/// segment carries an alternate branch out port 3, spliced into the
/// route's own tail. Router `j` (1-based) of an `n`-router chain detours
/// to router `j+2` — rejoining at recovery index `j` — except the last
/// two routers, whose bypass wires land directly on the destination
/// (recovery's final, local entry at index `n-1`).
fn viper_protected_frame(hops: usize, marker: u64, len: usize) -> FrameBuf {
    let n = hops;
    let mut b = PacketBuilder::new();
    for j in 1..=n {
        b = b.segment(SegmentRepr {
            port: 2,
            alt: Some(AltBranch {
                port: 3,
                splice: j.min(n - 1) as u8,
            }),
            ..Default::default()
        });
    }
    let mut recovery: Vec<SegmentRepr> = (1..n)
        .map(|_| SegmentRepr {
            port: 2,
            ..Default::default()
        })
        .collect();
    recovery.push(SegmentRepr::minimal(PORT_LOCAL));
    let packet = b
        .segment(SegmentRepr::minimal(PORT_LOCAL))
        .recovery(recovery)
        .payload(marker_payload(marker, len))
        .build_buf()
        .expect("protected workload packet builds");
    LinkFrame::Sirpent { ff_hint: 0, packet }.into_p2p_frame()
}

fn ip_rail_addrs(rail_idx: usize) -> (Address, Address) {
    let i = rail_idx as u8;
    (Address::new(10, i, 1, 1), Address::new(10, i, 2, 2))
}

fn ip_workload_frame(rail_idx: usize, marker: u64, len: usize, ident: u16) -> FrameBuf {
    let (src, dst) = ip_rail_addrs(rail_idx);
    let payload = marker_payload(marker, len);
    let repr = ipish::Repr {
        tos: 0,
        total_len: (ipish::HEADER_LEN + payload.len()) as u16,
        ident,
        dont_frag: false,
        more_frags: false,
        frag_offset: 0,
        ttl: ipish::DEFAULT_TTL,
        protocol: 17,
        src,
        dst,
    };
    LinkFrame::Ipish(ipish::Datagram::new(&repr, payload.into())).into_p2p_frame()
}

fn cvc_dest(rail_idx: usize) -> u32 {
    0xC0A8_0000 + rail_idx as u32
}

fn cvc_frame(m: Message) -> FrameBuf {
    LinkFrame::Cvc(Ok(m)).into_p2p_frame()
}

/// Instantiate the scenario: nodes, channels, static fault configs,
/// workload plans (including the drain flush), and the chaos schedule.
pub fn build(spec: &Scenario) -> BuiltScenario {
    build_with_queue(spec, sirpent_sim::QueueKind::default())
}

/// [`build`], but on an explicit engine event-queue implementation —
/// the heap-vs-calendar differential suite runs the same scenario on
/// both and demands byte-identical digests.
pub fn build_with_queue(spec: &Scenario, queue: sirpent_sim::QueueKind) -> BuiltScenario {
    build_inner(spec, queue, true)
}

/// [`build`], but with the alternate branches *stripped from the
/// headers*: identical topology (bypass wires and all), workload, and
/// fault schedule, except protected rails inject plain unprotected
/// packets. The failover differential suite runs armed and stripped
/// builds of the same scenario and compares outcomes.
pub fn build_stripped(spec: &Scenario) -> BuiltScenario {
    build_inner(spec, sirpent_sim::QueueKind::default(), false)
}

fn build_inner(spec: &Scenario, queue: sirpent_sim::QueueKind, arm: bool) -> BuiltScenario {
    let mut sim = Simulator::with_queue(spec.seed, queue);
    let mut rails = Vec::new();

    for (rail_idx, r) in spec.rails.iter().enumerate() {
        let src = sim.add_node(Box::new(ScriptedHost::new()));
        let mut routers = Vec::new();
        for j in 0..r.routers {
            let id: Box<dyn sirpent_sim::Node> =
                match r.kind {
                    RailKind::ViperSf | RailKind::ViperCut => Box::new(ViperRouter::new(
                        viper_cfg((rail_idx * 16 + j + 1) as u32, r.kind, r.protected),
                    )),
                    RailKind::Ip => {
                        let subnet = Address::new(10, rail_idx as u8, 2, 0);
                        Box::new(
                            IpRouter::new(IpConfig {
                                process_delay: SimDuration::from_micros(20),
                                ports: vec![
                                    PortConfig {
                                        port: 1,
                                        kind: PortKind::PointToPoint,
                                        mtu: 1500,
                                    },
                                    PortConfig {
                                        port: 2,
                                        kind: PortKind::PointToPoint,
                                        mtu: 1500,
                                    },
                                ],
                                routes: vec![RouteEntry {
                                    prefix: subnet,
                                    prefix_len: 24,
                                    out_port: 2,
                                    next_hop_mac: None,
                                }],
                                queue_capacity: 8,
                            })
                            .expect("scenario ip config is valid"),
                        )
                    }
                    RailKind::Cvc => Box::new(CvcSwitch::new(CvcConfig {
                        process_delay: SimDuration::from_micros(5),
                        setup_delay: SimDuration::from_micros(200),
                        routes: vec![CvcRoute {
                            dest: cvc_dest(rail_idx),
                            // The terminal switch is the circuit's local
                            // attachment; earlier switches forward on.
                            out_port: if j + 1 == r.routers { 0 } else { 2 },
                        }],
                        max_circuits: 100,
                        reservable_fraction: 0.8,
                    })),
                };
            routers.push(sim.add_node(id));
        }
        let dst = sim.add_node(Box::new(ScriptedHost::new()));

        let mut fwd = Vec::new();
        let mut rev = Vec::new();
        let (f, b) = sim.p2p(src, 0, routers[0], 1, RATE_BPS, PROP);
        fwd.push(f);
        rev.push(b);
        for w in routers.windows(2) {
            let (f, b) = sim.p2p(w[0], 2, w[1], 1, RATE_BPS, PROP);
            fwd.push(f);
            rev.push(b);
        }
        let (f, b) = sim.p2p(routers[r.routers - 1], 2, dst, 0, RATE_BPS, PROP);
        fwd.push(f);
        rev.push(b);

        // Protected rails: wire router j's bypass (port 3) around its
        // forward hop — to router j+2's port 4 where one exists, else
        // straight to the destination (ports 5 and 6 for the last two
        // routers). The wiring exists whether or not the headers are
        // armed, so the stripped differential arm sees the same network.
        let mut bypass = Vec::new();
        if r.protected {
            for j in 1..=r.routers {
                let (to_node, to_port) = if j + 2 <= r.routers {
                    (routers[j + 1], 4)
                } else if j + 1 == r.routers {
                    (dst, 5)
                } else {
                    (dst, 6)
                };
                let (f, b) = sim.p2p(routers[j - 1], 3, to_node, to_port, RATE_BPS, PROP);
                bypass.push(f);
                bypass.push(b);
            }
        }

        // Static per-frame faults on forward channels only: replies in
        // phase 2 ride the reverse channels, which stay clean.
        if r.drop_pm > 0 || r.corrupt_pm > 0 {
            for &ch in &fwd {
                sim.set_faults(
                    ch,
                    FaultConfig {
                        drop_prob: r.drop_pm as f64 / 1000.0,
                        corrupt_prob: r.corrupt_pm as f64 / 1000.0,
                    },
                );
            }
        }

        let flush_marker = fnv64(
            &[
                spec.seed.to_le_bytes(),
                (rail_idx as u64).to_le_bytes(),
                u64::from_le_bytes(*b"flush!!\0").to_le_bytes(),
            ]
            .concat(),
        );

        // Plan the workload and the drain flush.
        let markers: Vec<u64> = r.packets.iter().map(|p| p.marker).collect();
        {
            let host = sim.node_mut::<ScriptedHost>(src);
            match r.kind {
                RailKind::ViperSf | RailKind::ViperCut => {
                    let frame = if r.protected && arm {
                        viper_protected_frame
                    } else {
                        viper_workload_frame
                    };
                    for p in &r.packets {
                        host.plan(us(p.at_us), 0, frame(r.routers, p.marker, p.payload_len));
                    }
                    host.plan(us(FLUSH_US), 0, frame(r.routers, flush_marker, 16));
                }
                RailKind::Ip => {
                    for (k, p) in r.packets.iter().enumerate() {
                        host.plan(
                            us(p.at_us),
                            0,
                            ip_workload_frame(rail_idx, p.marker, p.payload_len, k as u16),
                        );
                    }
                    host.plan(
                        us(FLUSH_US),
                        0,
                        ip_workload_frame(rail_idx, flush_marker, 16, 0xFFFF),
                    );
                }
                RailKind::Cvc => {
                    host.plan(
                        SimTime::ZERO,
                        0,
                        cvc_frame(Message::Setup {
                            vci: 9,
                            dest: cvc_dest(rail_idx),
                            reserve: 0,
                        }),
                    );
                    for p in &r.packets {
                        host.plan(
                            us(p.at_us.max(2_000)),
                            0,
                            cvc_frame(Message::Data {
                                vci: 9,
                                payload: marker_payload(p.marker, p.payload_len).into(),
                            }),
                        );
                    }
                    host.plan(
                        us(FLUSH_US),
                        0,
                        cvc_frame(Message::Data {
                            vci: 9,
                            payload: marker_payload(flush_marker, 16).into(),
                        }),
                    );
                }
            }
        }

        rails.push(BuiltRail {
            kind: r.kind,
            src,
            dst,
            routers,
            fwd,
            rev,
            bypass,
            protected: r.protected,
            markers,
            flush_marker,
            dup_window: false,
        });
    }

    // Expand the fault schedule into engine chaos events.
    let mut events = Vec::new();
    for f in &spec.faults {
        let rail = &mut rails[f.rail()];
        match *f {
            FaultSpec::LinkFlap {
                hop,
                down_us,
                up_us,
                ..
            } => {
                let ch = rail.fwd[hop];
                events.push(ChaosEvent {
                    at: us(down_us),
                    action: ChaosAction::LinkDown { ch },
                });
                events.push(ChaosEvent {
                    at: us(up_us),
                    action: ChaosAction::LinkUp { ch },
                });
            }
            FaultSpec::Crash {
                router,
                down_us,
                up_us,
                ..
            } => {
                let node = rail.routers[router];
                events.push(ChaosEvent {
                    at: us(down_us),
                    action: ChaosAction::RouterCrash { node },
                });
                events.push(ChaosEvent {
                    at: us(up_us),
                    action: ChaosAction::RouterRestart { node },
                });
            }
            FaultSpec::Partition {
                start_us, end_us, ..
            } => {
                let mut side_a = vec![rail.src];
                side_a.extend(rail.routers.iter().take(rail.routers.len().div_ceil(2)));
                events.push(ChaosEvent {
                    at: us(start_us),
                    action: ChaosAction::PartitionStart { side_a },
                });
                events.push(ChaosEvent {
                    at: us(end_us),
                    action: ChaosAction::PartitionEnd,
                });
            }
            FaultSpec::Jitter {
                hop,
                start_us,
                end_us,
                max_extra_us,
                ..
            } => {
                let ch = rail.fwd[hop];
                events.push(ChaosEvent {
                    at: us(start_us),
                    action: ChaosAction::JitterStart {
                        ch,
                        max_extra: SimDuration::from_micros(max_extra_us),
                    },
                });
                events.push(ChaosEvent {
                    at: us(end_us),
                    action: ChaosAction::JitterEnd { ch },
                });
            }
            FaultSpec::Duplicate {
                hop,
                start_us,
                end_us,
                prob_pm,
                ..
            } => {
                let ch = rail.fwd[hop];
                rail.dup_window = true;
                events.push(ChaosEvent {
                    at: us(start_us),
                    action: ChaosAction::DuplicateStart {
                        ch,
                        prob: prob_pm as f64 / 1000.0,
                    },
                });
                events.push(ChaosEvent {
                    at: us(end_us),
                    action: ChaosAction::DuplicateEnd { ch },
                });
            }
            FaultSpec::ErrorBurst {
                hop,
                start_us,
                end_us,
                prob_pm,
                max_run,
                ..
            } => {
                let ch = rail.fwd[hop];
                events.push(ChaosEvent {
                    at: us(start_us),
                    action: ChaosAction::ErrorBurstStart {
                        ch,
                        prob: prob_pm as f64 / 1000.0,
                        max_run,
                    },
                });
                events.push(ChaosEvent {
                    at: us(end_us),
                    action: ChaosAction::ErrorBurstEnd { ch },
                });
            }
        }
    }
    sim.install_schedule(FaultSchedule::new(events).expect("normalized schedule is valid"));

    let injected = spec
        .rails
        .iter()
        .map(|r| r.packets.len() as u64 + 1 + u64::from(r.kind == RailKind::Cvc))
        .sum();
    for rail in &rails {
        ScriptedHost::start(&mut sim, rail.src);
    }

    BuiltScenario {
        sim,
        rails,
        injected,
    }
}

/// Run a built scenario through both phases and scrape the report.
///
/// Phase 1 runs workload + chaos + drain to quiescence. Phase 2 (VIPER
/// rails) parses the reply trailer out of every delivered, uncorrupted
/// workload packet at the destination, builds the reverse-route reply
/// the paper promises ("the return route is accumulated in the packet
/// trailer"), and sends it back — across router state that chaos may
/// have crashed away, which is exactly the point: source routes survive
/// router restarts.
pub fn run(built: BuiltScenario) -> RunReport {
    run_traced(built).0
}

/// [`run`], but also hand back the engine's flight recorder (when one
/// was enabled on the built scenario before running) so the trace
/// cross-check can reconcile reconstructed per-packet traces against
/// the scraped conservation ledger.
pub fn run_traced(
    mut built: BuiltScenario,
) -> (RunReport, Option<sirpent_telemetry::FlightRecorder>) {
    built.sim.run_until(PHASE1_END);
    // Phase 2: reverse-route replies from delivered trailers.
    let mut reply_book: Vec<ReplyRecord> = Vec::new();
    for rail in &built.rails {
        if !matches!(rail.kind, RailKind::ViperSf | RailKind::ViperCut) {
            continue;
        }
        let mut reply_plans = Vec::new();
        {
            let dst = built.sim.node::<ScriptedHost>(rail.dst);
            for rec in dst.received.iter().filter(|r| !r.corrupted) {
                let Ok(LinkFrame::Sirpent { packet, .. }) = LinkFrame::from_p2p_frame(&rec.frame)
                else {
                    continue;
                };
                let Some(&marker) = rail.markers.iter().find(|&&m| contains_marker(&packet, m))
                else {
                    continue;
                };
                let reply_marker = marker ^ REPLY_SALT;
                if reply_book.iter().any(|b| b.reply_marker == reply_marker) {
                    continue; // duplicated delivery: one reply is enough
                }
                let trailer = Trailer::parse(&packet).expect("delivered packet has a trailer");
                let mut b = PacketBuilder::new();
                for seg in trailer.return_route() {
                    b = b.segment(seg);
                }
                let reply = b
                    .segment(SegmentRepr::minimal(PORT_LOCAL))
                    .payload(marker_payload(reply_marker, 16))
                    .build()
                    .expect("reply packet builds");
                reply_book.push(ReplyRecord {
                    reply_marker,
                    forward_hops: trailer.return_hops.iter().map(|s| s.port).collect(),
                    dst_port: rec.port,
                    rail_routers: rail.routers.len(),
                    protected: rail.protected,
                });
                // The reply leaves on the port the forward packet
                // arrived on: a bypass landing must be answered over the
                // bypass wire, or the trailer route starts at the wrong
                // router.
                reply_plans.push((
                    rec.port,
                    LinkFrame::Sirpent {
                        ff_hint: 0,
                        packet: reply.into(),
                    }
                    .into_p2p_frame(),
                ));
            }
        }
        if !reply_plans.is_empty() {
            let now = built.sim.now();
            let host = built.sim.node_mut::<ScriptedHost>(rail.dst);
            for (i, (port, bytes)) in reply_plans.into_iter().enumerate() {
                host.plan(
                    now + SimDuration::from_micros(100 * (i as u64 + 1)),
                    port,
                    bytes,
                );
                built.injected += 1;
            }
            ScriptedHost::start(&mut built.sim, rail.dst);
        }
    }
    built.sim.run_until(PHASE2_END);

    let flight = built.sim.flight().cloned();
    (scrape(built, reply_book), flight)
}

fn scrape(built: BuiltScenario, reply_book: Vec<ReplyRecord>) -> RunReport {
    let sim = &built.sim;
    let replies_expected: Vec<u64> = reply_book.iter().map(|b| b.reply_marker).collect();
    let node_drops: u64 = sim.scrape_all().iter().map(|(_, s)| s.total_drops()).sum();
    let chaos_drops = sim.chaos_stats().total_drops();

    let mut chan_drops = 0u64;
    let mut chan_corrupted = 0u64;
    let mut delivered_frames = 0u64;
    let mut leftover_queued = 0u64;
    let mut marker_hits: BTreeMap<u64, u32> = BTreeMap::new();
    let mut reply_hits: BTreeMap<u64, u32> = BTreeMap::new();
    let mut reply_trailer_hops: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut dup_markers = Vec::new();
    let mut phantom_frames = 0u64;
    let mut corrupted_delivered = 0u64;
    let mut diversions = 0u64;
    let mut digest = String::new();
    digest.push_str(&format!("seed={}\n", fnv64(&built.injected.to_le_bytes())));
    digest.push_str(&format!("events={}\n", sim.events_dispatched()));

    for (rail_idx, rail) in built.rails.iter().enumerate() {
        for &ch in rail.fwd.iter().chain(&rail.rev).chain(&rail.bypass) {
            let s = sim.channel_stats(ch);
            chan_drops += s.drops;
            chan_corrupted += s.corrupted;
            digest.push_str(&format!(
                "chan r{rail_idx} frames={} bytes={} busy={} drops={} corrupt={} aborts={} dup={}\n",
                s.frames,
                s.bytes,
                s.busy.as_nanos(),
                s.drops,
                s.corrupted,
                s.aborts,
                s.duplicated,
            ));
        }
        if rail.dup_window {
            dup_markers.extend(&rail.markers);
            dup_markers.push(rail.flush_marker);
        }

        for &node in &rail.routers {
            leftover_queued += match rail.kind {
                RailKind::ViperSf | RailKind::ViperCut => {
                    sim.node::<ViperRouter>(node).queued_frames()
                }
                RailKind::Ip => sim.node::<IpRouter>(node).queued_frames(),
                RailKind::Cvc => sim.node::<CvcSwitch>(node).queued_frames(),
            };
        }

        // Failover counters on VIPER rails: scraped for the differential
        // suite and pinned into the digest so the determinism invariant
        // covers diversion decisions too.
        if matches!(rail.kind, RailKind::ViperSf | RailKind::ViperCut) {
            let (mut div, mut noalt, mut altdown) = (0u64, 0u64, 0u64);
            for &node in &rail.routers {
                let f = sim.node::<ViperRouter>(node).stats.failover;
                div += f.diversions;
                noalt += f.no_alternate;
                altdown += f.alternate_down;
            }
            diversions += div;
            digest.push_str(&format!(
                "failover r{rail_idx} div={div} noalt={noalt} altdown={altdown}\n"
            ));
        }

        // Deliveries: host sinks for VIPER/IP, the terminal switch's
        // local attachment for CVC.
        let mut known = rail.markers.clone();
        known.push(rail.flush_marker);
        match rail.kind {
            RailKind::ViperSf | RailKind::ViperCut | RailKind::Ip => {
                let dst = sim.node::<ScriptedHost>(rail.dst);
                delivered_frames += dst.received.len() as u64;
                for rec in &dst.received {
                    if rec.corrupted {
                        corrupted_delivered += 1;
                        continue;
                    }
                    let bytes = rec.frame.to_vec();
                    match known.iter().find(|&&m| contains_marker(&bytes, m)) {
                        Some(&m) => *marker_hits.entry(m).or_insert(0) += 1,
                        None => phantom_frames += 1,
                    }
                }
            }
            RailKind::Cvc => {
                let term = sim.node::<CvcSwitch>(*rail.routers.last().expect("rail has routers"));
                delivered_frames += term.local_delivered.len() as u64;
                for (_, _, payload) in &term.local_delivered {
                    match known.iter().find(|&&m| contains_marker(payload, m)) {
                        Some(&m) => *marker_hits.entry(m).or_insert(0) += 1,
                        None => phantom_frames += 1,
                    }
                }
                let dst = sim.node::<ScriptedHost>(rail.dst);
                delivered_frames += dst.received.len() as u64;
            }
        }

        // Replies land at the rail's source host.
        let src = sim.node::<ScriptedHost>(rail.src);
        delivered_frames += src.received.len() as u64;
        for rec in src.received.iter().filter(|r| !r.corrupted) {
            let bytes = rec.frame.to_vec();
            if let Some(&m) = replies_expected
                .iter()
                .find(|&&m| contains_marker(&bytes, m))
            {
                *reply_hits.entry(m).or_insert(0) += 1;
                // The reply's own trailer names the path it took back —
                // the diverted-replies invariant checks it mirrors the
                // forward path.
                if let Ok(LinkFrame::Sirpent { packet, .. }) = LinkFrame::from_p2p_frame(&rec.frame)
                {
                    if let Ok(t) = Trailer::parse(&packet) {
                        reply_trailer_hops
                            .entry(m)
                            .or_insert_with(|| t.return_hops.iter().map(|s| s.port).collect());
                    }
                }
            }
        }

        for (label, host) in [("src", rail.src), ("dst", rail.dst)] {
            let h = sim.node::<ScriptedHost>(host);
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
            digest.push_str(&format!(
                "host r{rail_idx}/{label} aborted={} filtered={} rx=[{}] txdone={}\n",
                h.aborted,
                h.filtered,
                rx.join(";"),
                h.tx_done.len(),
            ));
        }
    }

    // Uniform per-node scrape lines, node-id order.
    for (id, s) in sim.scrape_all() {
        let mut drops: Vec<String> = s
            .drops()
            .iter()
            .filter(|&(_, v)| v > 0)
            .map(|(k, v)| format!("{k:?}={v}"))
            .collect();
        drops.sort();
        digest.push_str(&format!(
            "node {} fwd={} local={} maxq={} drops[{}] delay={}\n",
            id.0,
            s.forwarded(),
            s.local(),
            s.max_queue(),
            drops.join(","),
            summary_sig(s.forward_delay()),
        ));
    }
    {
        let mut drops: Vec<String> = sim
            .chaos_stats()
            .drops
            .iter()
            .filter(|&(_, v)| v > 0)
            .map(|(k, v)| format!("{k:?}={v}"))
            .collect();
        drops.sort();
        digest.push_str(&format!("chaos drops[{}]\n", drops.join(",")));
    }

    RunReport {
        injected: built.injected,
        delivered_frames,
        node_drops,
        chan_drops,
        chaos_drops,
        leftover_queued,
        marker_hits,
        dup_markers,
        replies_expected,
        reply_hits,
        reply_book,
        reply_trailer_hops,
        diversions,
        phantom_frames,
        corrupted_delivered,
        chan_corrupted,
        digest,
    }
}

/// Build and run a scenario in one step.
pub fn execute(spec: &Scenario) -> RunReport {
    run(build(spec))
}

/// [`execute`], but on an explicit engine event-queue implementation.
pub fn execute_with_queue(spec: &Scenario, queue: sirpent_sim::QueueKind) -> RunReport {
    run(build_with_queue(spec, queue))
}

/// [`execute`], but with alternate branches stripped from the headers
/// (see [`build_stripped`]) — the control arm of the failover
/// differential suite.
pub fn execute_stripped(spec: &Scenario) -> RunReport {
    run(build_stripped(spec))
}

/// An *outcome* digest: what was delivered, answered, and diverted —
/// deliberately free of byte counts, channel timings, and event totals,
/// which legitimately differ between an armed run (longer headers,
/// bypass traffic) and its stripped control. With an empty fault
/// schedule the two arms must produce byte-identical outcome digests;
/// under chaos the armed arm may only deliver *more*.
pub fn outcome_digest(r: &RunReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "injected={} delivered={} diversions={} phantoms={}\n",
        r.injected, r.delivered_frames, r.diversions, r.phantom_frames
    ));
    for (m, n) in &r.marker_hits {
        out.push_str(&format!("marker {m:016x} hits={n}\n"));
    }
    let mut replies: Vec<u64> = r.replies_expected.clone();
    replies.sort_unstable();
    for m in replies {
        out.push_str(&format!(
            "reply {m:016x} hits={}\n",
            r.reply_hits.get(&m).copied().unwrap_or(0)
        ));
    }
    out
}
