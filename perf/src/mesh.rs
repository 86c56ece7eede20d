//! The three `mesh_*` workloads: real `SirpentHost`s sending
//! request→response transactions through real `ViperRouter`s over
//! directory-issued routes, on the shared [`crate::fixture`] machine.
//!
//! Everything here is either a pure generator (`flows`, `fault_plan`)
//! or a driver that touches the measured crates through public API
//! only: query → compile → install → start → `run_until` → scrape.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use sirpent::compile::CompiledRoute;
use sirpent::directory::te::TeQuery;
use sirpent::directory::{Advisory, Peer, Topology};
use sirpent::host::{HostEvent, SirpentHost};
use sirpent::router::viper::ViperRouter;
use sirpent::sim::stats::{DropReason, Stage};
use sirpent::sim::{
    ChaosAction, ChaosEvent, FaultSchedule, NodeId, SimDuration, SimTime, Simulator,
};
use sirpent::wire::viper::Priority;
use sirpent::wire::vmtp::{EntityId, Kind};

use crate::fixture::{self, host_entity, route_weight_ns, router_id, Live, Mesh, MeshSize, Trunk};
use crate::rng::{mix, Rng};
use crate::spans::Spans;
use crate::stats::{highest_supported_percentile, percentile};
use crate::timed::Probe;

/// How a workload's flows are shaped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowShape {
    /// A fixed population of flows, each sending evenly over the whole
    /// window (per-flow state is set up once and then only reused).
    LongLived,
    /// Heavy-tailed flow sizes with starts staggered through the window,
    /// so first packets — and token-cache misses — keep arriving.
    ShortHeavyTailed,
}

/// One mesh workload, fully specified.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshSpec {
    /// Workload name as it appears in `BENCHMARK.json`.
    pub name: &'static str,
    /// Fixture size.
    pub size: MeshSize,
    /// Routers require and check per-hop tokens (blocking policy).
    pub tokens: bool,
    /// Routes requested per flow.
    pub k: usize,
    /// Compile with ALT branches, install weighted, schedule faults.
    pub chaos: bool,
    /// Request payload bytes.
    pub request_bytes: usize,
    /// Response payload bytes.
    pub response_bytes: usize,
    /// Transactions to offer (forged-token ones not included).
    pub txns: usize,
    /// Flow shape.
    pub shape: FlowShape,
    /// One flow in this many carries forged tokens (0 = none).
    pub forged_every: usize,
    /// Simulated span over which requests are offered, ns.
    pub window_ns: u64,
}

/// Simulated time allowed after the last send for retransmission and
/// failover to finish (5 attempts at ≤ 2 × RTT each fit many times over).
const DRAIN_NS: u64 = 120_000_000;

impl MeshSpec {
    /// Bare forwarding floor: no tokens, 64 B both ways, k = 1.
    pub fn forward(size: MeshSize, txns: usize) -> MeshSpec {
        MeshSpec {
            name: "mesh_forward",
            size,
            tokens: false,
            k: 1,
            chaos: false,
            request_bytes: 64,
            response_bytes: 64,
            txns,
            shape: FlowShape::LongLived,
            forged_every: 0,
            window_ns: 60_000_000,
        }
    }

    /// The paper's production regime: blocking token checks at every
    /// hop, ~1 KB transport packets, short flows, 1 % forgeries.
    ///
    /// 900 B of payload, not 1 000: with 42 B of VMTP framing that is
    /// §5's "roughly 1 kilobyte transport packet", and it leaves the
    /// 1 500 B transmission unit room for a 15-hop token-bearing route
    /// (36 B a hop) — the deepest this mesh asks for. A kilobyte of
    /// payload would make hosts silently refuse to build packets for
    /// routes past 12 hops, and those transactions could only fail.
    pub fn tokens(size: MeshSize, txns: usize) -> MeshSpec {
        MeshSpec {
            name: "mesh_tokens",
            size,
            tokens: true,
            k: 1,
            chaos: false,
            request_bytes: 900,
            response_bytes: 900,
            txns,
            shape: FlowShape::ShortHeavyTailed,
            forged_every: 100,
            window_ns: 80_000_000,
        }
    }

    /// The slow path beside the fast path: protected k = 2 route sets
    /// under link flaps and router crashes.
    pub fn chaos(size: MeshSize, txns: usize) -> MeshSpec {
        MeshSpec {
            name: "mesh_chaos",
            size,
            tokens: false,
            k: 2,
            chaos: true,
            request_bytes: 256,
            response_bytes: 256,
            txns,
            shape: FlowShape::LongLived,
            forged_every: 0,
            window_ns: 80_000_000,
        }
    }

    /// Hosts reserved for forged-token flows (none without forgeries).
    pub fn hostile(&self) -> usize {
        if self.forged_every == 0 {
            0
        } else {
            (self.size.hosts / 32).max(1)
        }
    }

    /// What each flow asks the directory: `k` routes within 1.5× of the
    /// shortest.
    pub fn query(&self) -> TeQuery {
        TeQuery {
            k: self.k,
            max_stretch_milli: 1_500,
            ..TeQuery::default()
        }
    }

    /// Simulated instant the run stops at.
    pub fn horizon(&self) -> SimTime {
        SimTime(self.window_ns + DRAIN_NS)
    }
}

/// One client→server flow: a distinct ordered host pair and its sends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flow {
    /// Client host index.
    pub src: usize,
    /// Server host index.
    pub dst: usize,
    /// The flow's tokens are corrupted: every request must be refused.
    pub forged: bool,
    /// Request send instants, simulated ns.
    pub sends: Vec<u64>,
}

/// Generate the flow list — a pure function of `(spec, seed)`.
///
/// Hosts have one role each. Honest hosts alternate client (even index)
/// and server (odd): `transport::Endpoint` keys its outgoing messages by
/// transaction id alone, so a host that both sends requests and serves
/// responses can have a retransmission timer resend the wrong message
/// (it shows up as `misdelivered` at the far end) — a defect of the
/// measured stack this benchmark must not trip over while measuring
/// something else. Forged flows originate only from the last
/// [`MeshSpec::hostile`] hosts, which send nothing else: a host whose
/// requests are refused halves its pacer on every timeout, and that
/// penalty must land on the forger, not on legitimate flows sharing it.
pub fn flows(spec: &MeshSpec, seed: u64) -> Vec<Flow> {
    let hostile = spec.hostile() as u64;
    let honest = spec.size.hosts as u64 - hostile;
    let (clients, servers) = (honest.div_ceil(2), honest / 2);
    let mut rng = Rng::new(seed, 0xF10E);
    let pick_pair = |rng: &mut Rng, forged: bool| {
        let src = if forged {
            honest + rng.below(hostile)
        } else {
            2 * rng.below(clients)
        } as usize;
        (src, 2 * rng.below(servers) as usize + 1)
    };
    // A pair drawn twice is one flow with more sends (hosts key routes
    // by destination), so small fixtures cannot exhaust the pair space.
    let mut index: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    let mut out = Vec::new();
    match spec.shape {
        FlowShape::LongLived => {
            // 40 transactions per flow: ≈ 1.2 k flows at full size.
            let n_flows = (spec.txns / 40).max(4);
            let per = spec.txns.div_ceil(n_flows);
            let mut left = spec.txns;
            for _ in 0..n_flows {
                let n = per.min(left);
                left -= n;
                let pair = pick_pair(&mut rng, false);
                let slot = spec.window_ns / n.max(1) as u64;
                let sends = (0..n as u64).map(|i| i * slot + rng.below(slot.max(1)));
                add_flow(&mut out, &mut index, pair, false, sends.collect());
            }
        }
        FlowShape::ShortHeavyTailed => {
            let (mut offered, mut drawn) = (0usize, 0usize);
            while offered < spec.txns {
                let forged =
                    spec.forged_every > 0 && drawn % spec.forged_every == spec.forged_every - 1;
                drawn += 1;
                let pair = pick_pair(&mut rng, forged);
                let mut n = rng.heavy_tail(4.0, 64) as usize;
                if !forged {
                    n = n.min(spec.txns - offered);
                    offered += n;
                }
                let mut t = rng.below(spec.window_ns * 9 / 10);
                let mut sends = Vec::with_capacity(n);
                for _ in 0..n {
                    sends.push(t.min(spec.window_ns));
                    t += rng.exp(1_500_000.0);
                }
                add_flow(&mut out, &mut index, pair, forged, sends);
            }
        }
    }
    out
}

fn add_flow(
    out: &mut Vec<Flow>,
    index: &mut BTreeMap<(usize, usize), usize>,
    (src, dst): (usize, usize),
    forged: bool,
    sends: Vec<u64>,
) {
    let at = *index.entry((src, dst)).or_insert(out.len());
    match out.get_mut(at) {
        Some(flow) => flow.sends.extend(sends),
        None => out.push(Flow {
            src,
            dst,
            forged,
            sends,
        }),
    }
}

/// One scheduled fault of the chaos plan, in fixture coordinates (so
/// the plan is comparable across builds of the same workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Both directions of trunk `trunks[idx]` go down for the window.
    Trunk {
        /// Index into [`Live::trunks`].
        idx: usize,
        /// Down instant, ns.
        down: u64,
        /// Up instant, ns.
        up: u64,
    },
    /// Router `router` (index) crashes and restarts.
    Crash {
        /// Router index.
        router: usize,
        /// Crash instant, ns.
        down: u64,
        /// Restart instant, ns.
        up: u64,
    },
}

/// Which links and routers the installed routes actually use.
#[derive(Debug, Default, Clone)]
pub struct RouteUsage {
    /// `(router index, port)` hops on some installed route → flow count.
    pub carried: BTreeMap<(usize, u8), u32>,
    /// Hops that got an ALT branch in some installed route.
    pub protected: BTreeSet<(usize, u8)>,
}

/// The chaos schedule: trunk down/up windows and router crash/restarts
/// over links that carry flows — a pure function of `(spec, seed)` and
/// the (deterministic) route usage. Half the trunk faults aim at hops
/// that carry an ALT branch, so in-network diversion is exercised and
/// not just host-side retransmission.
///
/// Outages last 0.3–1.5 ms: long enough to catch packets on a 150 µs+
/// trunk, short enough that even a one-hop flow (RTT ≈ 0.35 ms, five
/// attempts `2 × RTT` apart) has a retransmission land after the fault
/// clears — so a transaction that fails is a regression, not a sizing
/// artefact.
pub fn fault_plan(
    spec: &MeshSpec,
    seed: u64,
    mesh: &Mesh,
    trunks: &[Trunk],
    usage: &RouteUsage,
) -> Vec<Fault> {
    let mut rng = Rng::new(seed, 0xFA17);
    let trunk_of = |(r, port): (usize, u8)| {
        trunks
            .iter()
            .position(|t| (t.a == r && t.a_port == port) || (t.b == r && t.b_port == port))
    };
    // Busiest hops first, and only the busiest quarter is eligible: a
    // fault on a trunk that carries one flow would usually catch nothing.
    let busiest = |hops: Vec<(usize, u8)>| -> Vec<usize> {
        let mut hops: Vec<((usize, u8), u32)> = hops
            .into_iter()
            .map(|h| (h, usage.carried.get(&h).copied().unwrap_or(0)))
            .collect();
        hops.sort_by_key(|&(h, n)| (std::cmp::Reverse(n), h));
        hops.truncate((hops.len() / 4).max(8));
        hops.into_iter().filter_map(|(h, _)| trunk_of(h)).collect()
    };
    let protected = busiest(usage.protected.iter().copied().collect());
    let carried = busiest(usage.carried.keys().copied().collect());
    let host_routers: BTreeSet<usize> = mesh.host_router.iter().copied().collect();
    let transit: Vec<usize> = usage
        .carried
        .keys()
        .map(|&(r, _)| r)
        .filter(|r| !host_routers.contains(r))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();

    let n_trunk_faults = (spec.size.routers / 40).max(4);
    let n_crashes = (spec.size.routers / 170).max(2);
    let window = |rng: &mut Rng| {
        let down = spec.window_ns / 20 + rng.below(spec.window_ns * 8 / 10);
        (down, down + rng.range(300_000, 1_500_000))
    };
    let mut out = Vec::new();
    let mut used = BTreeSet::new();
    for i in 0..n_trunk_faults {
        let pool = if i % 2 == 0 && !protected.is_empty() {
            &protected
        } else {
            &carried
        };
        if pool.is_empty() {
            break;
        }
        let idx = pool[rng.below(pool.len() as u64) as usize];
        let (down, up) = window(&mut rng);
        if used.insert(idx) {
            out.push(Fault::Trunk { idx, down, up });
        }
    }
    let mut crashed = BTreeSet::new();
    for _ in 0..n_crashes.min(transit.len()) {
        let router = transit[rng.below(transit.len() as u64) as usize];
        let (down, up) = window(&mut rng);
        if crashed.insert(router) {
            out.push(Fault::Crash { router, down, up });
        }
    }
    out
}

fn schedule(plan: &[Fault], live: &Live) -> FaultSchedule {
    let mut events = Vec::new();
    let mut at = |ns: u64, action| {
        events.push(ChaosEvent {
            at: SimTime(ns),
            action,
        })
    };
    for f in plan {
        match *f {
            Fault::Trunk { idx, down, up } => {
                let t = live.trunks[idx];
                for ch in [t.ab, t.ba] {
                    at(down, ChaosAction::LinkDown { ch });
                    at(up, ChaosAction::LinkUp { ch });
                }
            }
            Fault::Crash { router, down, up } => {
                let node = live.routers[router];
                at(down, ChaosAction::RouterCrash { node });
                at(up, ChaosAction::RouterRestart { node });
            }
        }
    }
    FaultSchedule::new(events).expect("link and crash faults carry no probabilities")
}

/// Everything counted after a run, scraped through public accessors.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counters {
    /// Requests the hosts sent (attempted, forged included).
    pub requests_sent: u64,
    /// Transactions that completed (response arrived).
    pub completed: u64,
    /// Transactions the client gave up on (forged included).
    pub gave_up: u64,
    /// Forged-token transactions (all must be among `gave_up`).
    pub forged_txns: u64,
    /// Messages a forged flow delivered at its server (must be 0).
    pub forged_delivered: u64,
    /// Failover route switches across hosts.
    pub route_switches: u64,
    /// Weighted per-flow re-selections across hosts.
    pub route_reselections: u64,
    /// Transport retransmissions across hosts.
    pub retransmissions: u64,
    /// Transport acks sent across hosts.
    pub acks_sent: u64,
    /// Transport duplicates seen across hosts.
    pub duplicates: u64,
    /// Packets forwarded across routers.
    pub forwarded: u64,
    /// Per-stage entry counts across routers, pipeline order.
    pub stages: [u64; Stage::COUNT],
    /// All router drops.
    pub drops_total: u64,
    /// Router drops: output queue full.
    pub drops_queue_full: u64,
    /// Router drops: next hop down (no usable alternate).
    pub drops_next_hop_down: u64,
    /// Router drops: token missing or rejected.
    pub drops_token: u64,
    /// Packets diverted onto an ALT branch.
    pub diversions: u64,
    /// Next hop down and the alternate was down too.
    pub alternate_down: u64,
    /// MTU truncations.
    pub truncated: u64,
    /// Token checks served from cache.
    pub token_hits: u64,
    /// Token checks that decrypted (cache misses).
    pub token_decrypts: u64,
    /// Packets held for blocking verification.
    pub token_blocked: u64,
    /// Token-cache entries across routers at the end.
    pub token_cache_entries: u64,
    /// Bytes the routers' accounting ledgers charged.
    pub token_accounted_bytes: u64,
    /// Engine events dispatched.
    pub events: u64,
    /// Transmissions the chaos layer killed.
    pub chaos_kills: u64,
    /// Busiest directed link's utilization over the run.
    pub link_util_max: f64,
    /// Frames hosts put on their access uplinks.
    pub uplink_frames: u64,
    /// Bytes hosts put on their access uplinks.
    pub uplink_bytes: u64,
    /// Application payload bytes of completed transactions.
    pub goodput_bytes: u64,
    /// Simulated instant of the last completion, ns.
    pub last_completion_ns: u64,
    /// All RTT samples, sorted ascending, ns.
    pub rtts_ns: Vec<u64>,
}

impl Counters {
    /// Transactions that failed: gave up without being a forgery.
    pub fn failed(&self) -> u64 {
        self.gave_up.saturating_sub(self.forged_txns)
    }

    /// Transactions attempted, expected refusals excluded.
    pub fn attempted(&self) -> u64 {
        self.requests_sent - self.forged_txns
    }

    /// `(p50, p_hi, which p_hi)` of the simulated RTTs in µs: `p_hi` is
    /// p99 when the sample supports it, else the highest it does.
    pub fn sim_rtt_us(&self) -> (f64, f64, f64) {
        let hi = highest_supported_percentile(self.rtts_ns.len()).min(99.0);
        (
            percentile(&self.rtts_ns, 50.0) as f64 / 1e3,
            percentile(&self.rtts_ns, hi) as f64 / 1e3,
            hi,
        )
    }

    /// Application payload per simulated second, Mb/s.
    pub fn sim_goodput_mbps(&self) -> f64 {
        self.goodput_bytes as f64 * 8.0 / (self.last_completion_ns.max(1) as f64 / 1e9) / 1e6
    }
}

/// Inputs the per-layer replays need, captured from a built workload.
#[derive(Debug, Default, Clone)]
pub struct Captured {
    /// A sample of advisories (route record + tokens).
    pub advisories: Vec<Advisory>,
    /// The forward routes compiled from `advisories`.
    pub routes: Vec<CompiledRoute>,
    /// `(src router id, dst host entity)` of sampled flows, for timing
    /// `k_routes` alone.
    pub queries: Vec<(u32, u32)>,
    /// The busiest token-checking router and the sealed tokens minted
    /// for it, in flow order.
    pub router_tokens: Option<(u32, u8, Vec<Vec<u8>>)>,
}

/// One build-and-run of a mesh workload.
#[derive(Debug)]
pub struct MeshRun {
    /// Host seconds to build, query, compile and install.
    pub setup_s: f64,
    /// Host seconds of the measured phase (`run_until`).
    pub run_s: f64,
    /// Host µs of every `te_advisories` call made during set-up.
    pub query_us: Vec<f64>,
    /// Mean `TeRoute::weight_ns` over all routes returned, µs.
    pub route_weight_mean_us: f64,
    /// Mean `CompiledRoute::header_bytes` over installed routes.
    pub route_header_bytes: f64,
    /// Mean segments per installed route (hops + local).
    pub segments_per_route: f64,
    /// Directory TE counters after set-up:
    /// `(queries, routes returned, detours, infeasible)`.
    pub dir_counters: (u64, u64, u64, u64),
    /// The scraped counters.
    pub counters: Counters,
    /// Outcome digest (see [`digest`]).
    pub digest: u64,
    /// Host ms `Simulator::scrape_telemetry` took on the finished run.
    pub scrape_ms: f64,
    /// Failed output checks (empty = correct).
    pub violations: Vec<String>,
    /// Replay inputs.
    pub captured: Captured,
    /// Faults scheduled (chaos only).
    pub faults: usize,
    /// Flows laid on the mesh (forged included).
    pub flows: usize,
}

/// A built workload, ready to run.
pub struct Built {
    /// The live network.
    pub live: Live,
    /// The flows laid on it.
    pub flows: Vec<Flow>,
    setup_s: f64,
    query_us: Vec<f64>,
    route_weight_mean_us: f64,
    route_header_bytes: f64,
    segments_per_route: f64,
    dir_counters: (u64, u64, u64, u64),
    captured: Captured,
    faults: usize,
}

/// Flip one byte of every token: still 32 bytes, no longer sealed.
fn forge(adv: &mut Advisory) {
    for t in &mut adv.tokens {
        if let Some(b) = t.get_mut(7) {
            *b ^= 0x5A;
        }
    }
}

/// Build `spec` for `seed`: machine, directory, one advisory query per
/// flow, compile, install, queue requests, arm hosts and (for chaos)
/// the fault schedule. With a `probe` every node is wrapped in `Timed`.
pub fn build(spec: &MeshSpec, seed: u64, probe: Option<&Arc<Probe>>, spans: &mut Spans) -> Built {
    let (mut built, setup_s) = spans.scope("setup", |spans| {
        let ((mesh, mut live, te), _) = spans.scope("setup.topology", |_| {
            let mesh = Mesh::new(spec.size);
            let live = Live::build(&mesh, seed, spec.tokens, probe);
            let te = mesh.te_topology();
            (mesh, live, te)
        });
        let flows = flows(spec, seed);

        let q = spec.query();
        let access = Mesh::access_spec();
        let mut query_us = Vec::with_capacity(flows.len());
        let ((dir, advisories), _) = spans.scope("setup.directory", |_| {
            let mut dir = fixture::directory(te, spec.tokens, seed);
            let advisories: Vec<Vec<Advisory>> = flows
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    let t0 = Instant::now();
                    let mut advs = dir.te_advisories(
                        router_id(mesh.host_router[f.src]),
                        Peer::Host(host_entity(f.dst)),
                        &q,
                        &access,
                        &[],
                        i as u32 + 1,
                    );
                    query_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
                    if f.forged {
                        advs.iter_mut().for_each(forge);
                    }
                    advs
                })
                .collect();
            (dir, advisories)
        });
        let dir_counters = (
            dir.te_queries,
            dir.te_routes_returned,
            dir.te_detours,
            dir.te_infeasible,
        );
        let returned: Vec<&Advisory> = advisories.iter().flatten().collect();
        let route_weight_mean_us = returned.iter().map(|a| route_weight_ns(a)).sum::<u64>() as f64
            / returned.len().max(1) as f64
            / 1e3;

        let mut usage = RouteUsage::default();
        let (compiled, _) = spans.scope("setup.compile", |_| {
            let protect: Option<Topology> = spec.chaos.then(|| mesh.protect_topology());
            let index = |id: u32| id as usize - 1;
            advisories
                .iter()
                .zip(&flows)
                .map(|(advs, f)| {
                    advs.iter()
                        .map(|adv| {
                            let route = match &protect {
                                None => CompiledRoute::compile(
                                    &adv.route,
                                    &adv.tokens,
                                    Priority::NORMAL,
                                ),
                                Some(topo) => {
                                    let branches = topo.protect(&adv.route, host_entity(f.dst));
                                    for (h, b) in adv.route.hops.iter().zip(&branches) {
                                        let hop = (index(h.router_id), h.port);
                                        *usage.carried.entry(hop).or_default() += 1;
                                        if b.is_some() {
                                            usage.protected.insert(hop);
                                        }
                                    }
                                    CompiledRoute::compile_protected(
                                        &adv.route,
                                        &adv.tokens,
                                        Priority::NORMAL,
                                        &branches,
                                    )
                                }
                            };
                            (route, adv.residual_bps)
                        })
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        });
        let installed: Vec<&CompiledRoute> = compiled.iter().flatten().map(|(r, _)| r).collect();
        let n_routes = installed.len().max(1) as f64;
        let route_header_bytes =
            installed.iter().map(|r| r.header_bytes()).sum::<usize>() as f64 / n_routes;
        let segments_per_route =
            installed.iter().map(|r| r.segments.len()).sum::<usize>() as f64 / n_routes;

        let captured = capture(spec, &mesh, &flows, &advisories, &compiled);

        let faults = spans
            .scope("setup.install", |_| {
                let request = vec![0x5A; spec.request_bytes];
                for (f, routes) in flows.iter().zip(compiled) {
                    assert!(
                        !routes.is_empty(),
                        "directory returned no route for reachable pair {}→{}",
                        f.src,
                        f.dst
                    );
                    let host = live.sim.node_mut::<SirpentHost>(live.hosts[f.src]);
                    let dst = EntityId(host_entity(f.dst) as u64);
                    if spec.chaos {
                        host.install_routes_weighted(dst, routes);
                    } else {
                        host.install_routes(dst, routes.into_iter().map(|(r, _)| r).collect());
                    }
                    for &at in &f.sends {
                        host.queue_request(SimTime(at), dst, request.clone());
                    }
                }
                for &h in &live.hosts {
                    live.sim.node_mut::<SirpentHost>(h).auto_respond =
                        Some(vec![0xA5; spec.response_bytes]);
                    SirpentHost::start(&mut live.sim, h);
                }
                if !spec.chaos {
                    return 0;
                }
                let plan = fault_plan(spec, seed, &mesh, &live.trunks, &usage);
                live.sim.install_schedule(schedule(&plan, &live));
                plan.len()
            })
            .0;
        // The directory's work is done; its memory is not part of the
        // measured phase.
        drop(dir);

        Built {
            live,
            flows,
            setup_s: 0.0,
            query_us,
            route_weight_mean_us,
            route_header_bytes,
            segments_per_route,
            dir_counters,
            captured,
            faults,
        }
    });
    built.setup_s = setup_s;
    built
}

/// Keep a bounded sample of what was built, for the per-layer replays.
fn capture(
    spec: &MeshSpec,
    mesh: &Mesh,
    flows: &[Flow],
    advisories: &[Vec<Advisory>],
    compiled: &[Vec<(CompiledRoute, u64)>],
) -> Captured {
    const SAMPLE: usize = 512;
    let step = (flows.len() / SAMPLE).max(1);
    let mut cap = Captured::default();
    for i in (0..flows.len()).step_by(step) {
        let f = &flows[i];
        if f.forged {
            continue;
        }
        if let (Some(adv), Some((route, _))) = (advisories[i].first(), compiled[i].first()) {
            cap.advisories.push(adv.clone());
            cap.routes.push(route.clone());
            cap.queries
                .push((router_id(mesh.host_router[f.src]), host_entity(f.dst)));
        }
    }
    if spec.tokens {
        let mut by_router: BTreeMap<(u32, u8), Vec<Vec<u8>>> = BTreeMap::new();
        for (advs, f) in advisories.iter().zip(flows) {
            if f.forged {
                continue;
            }
            for adv in advs {
                for (h, t) in adv.route.hops.iter().zip(&adv.tokens) {
                    by_router
                        .entry((h.router_id, h.port))
                        .or_default()
                        .push(t.clone());
                }
            }
        }
        cap.router_tokens = by_router
            .into_iter()
            .max_by_key(|(k, v)| (v.len(), std::cmp::Reverse(*k)))
            .map(|((r, p), v)| (r, p, v));
    }
    cap
}

/// Fold the run's outcome into one word: per-host completed count and
/// RTT fold, per-router forwarded and drop counts. Equal digests mean
/// the same packets took the same paths at the same simulated instants.
pub fn digest(sim: &Simulator, hosts: &[NodeId], routers: &[NodeId]) -> u64 {
    let mut d = 0xD16E_5700_u64;
    for &h in hosts {
        let host = sim.node::<SirpentHost>(h);
        d = mix(d ^ host.rtt_samples.len() as u64);
        for (at, rtt) in &host.rtt_samples {
            d = mix(d ^ at.as_nanos().rotate_left(17) ^ rtt.as_nanos());
        }
    }
    for &r in routers {
        let stats = &sim.node::<ViperRouter>(r).stats;
        d = mix(d ^ stats.forwarded.rotate_left(32) ^ stats.total_drops());
    }
    d
}

fn scrape(spec: &MeshSpec, built: &Built) -> (Counters, Vec<String>) {
    let live = &built.live;
    let sim = &live.sim;
    let mut c = Counters::default();
    let mut violations = Vec::new();

    // Per-host forged expectations.
    let mut forged_by_src: BTreeMap<usize, u64> = BTreeMap::new();
    let mut forged_pairs: BTreeSet<(u64, usize)> = BTreeSet::new();
    for f in built.flows.iter().filter(|f| f.forged) {
        *forged_by_src.entry(f.src).or_default() += f.sends.len() as u64;
        forged_pairs.insert((host_entity(f.src) as u64, f.dst));
        c.forged_txns += f.sends.len() as u64;
    }

    for (h, &id) in live.hosts.iter().enumerate() {
        let host = sim.node::<SirpentHost>(id);
        let sent = host.stats.requests_sent;
        let completed = host.rtt_samples.len() as u64;
        // A client may give up on a transaction whose response still
        // arrives later; that one completed. Failed = gave up and never
        // answered.
        let answered: BTreeSet<u32> = host
            .inbox
            .iter()
            .filter(|m| m.kind == Kind::Response)
            .map(|m| m.transaction)
            .collect();
        let gave_up = host
            .events
            .iter()
            .filter(|e| matches!(e, HostEvent::GaveUp { transaction, .. } if !answered.contains(transaction)))
            .count() as u64;
        if answered.len() as u64 != completed || sent != completed + gave_up {
            violations.push(format!(
                "host {h}: attempted {sent} != completed {completed} ({} answered) + failed {gave_up}",
                answered.len()
            ));
        }
        let expected_refused = forged_by_src.get(&h).copied().unwrap_or(0);
        if gave_up < expected_refused {
            violations.push(format!(
                "host {h}: {expected_refused} forged transactions but only {gave_up} refused"
            ));
        }
        c.requests_sent += sent;
        c.completed += completed;
        c.gave_up += gave_up;
        c.route_switches += host
            .events
            .iter()
            .filter(|e| matches!(e, HostEvent::RouteSwitched { .. }))
            .count() as u64;
        let t = &host.endpoint().stats;
        c.retransmissions += t.retransmissions;
        c.acks_sent += t.acks_sent;
        c.duplicates += t.duplicates;
        for (at, rtt) in &host.rtt_samples {
            c.rtts_ns.push(rtt.as_nanos());
            c.last_completion_ns = c.last_completion_ns.max(at.as_nanos());
        }
        c.forged_delivered += host
            .inbox
            .iter()
            .filter(|m| m.kind == Kind::Request && forged_pairs.contains(&(m.peer.0, h)))
            .count() as u64;
    }
    for f in &built.flows {
        let host = sim.node::<SirpentHost>(live.hosts[f.src]);
        c.route_reselections += host.route_reselections(EntityId(host_entity(f.dst) as u64));
    }
    c.rtts_ns.sort_unstable();
    c.goodput_bytes = c.completed * (spec.request_bytes + spec.response_bytes) as u64;

    for &id in &live.routers {
        let r = sim.node::<ViperRouter>(id);
        let s = &r.stats;
        c.forwarded += s.forwarded;
        for st in Stage::ALL {
            c.stages[st.index()] += s.stages[st];
        }
        c.drops_total += s.total_drops();
        c.drops_queue_full += s.drops[DropReason::QueueFull];
        c.drops_next_hop_down += s.drops[DropReason::NextHopDown];
        c.drops_token += s.drops[DropReason::TokenMissing] + s.drops[DropReason::TokenRejected];
        c.diversions += s.failover.diversions;
        c.alternate_down += s.failover.alternate_down;
        c.truncated += s.truncated;
        c.token_hits += s.token_cache_hits;
        c.token_decrypts += s.token_decrypts;
        c.token_blocked += s.token_blocked;
        if let Some(tc) = r.token_cache() {
            c.token_cache_entries += tc.len() as u64;
            c.token_accounted_bytes += tc.accounting().total_bytes();
        }
    }

    c.events = sim.events_dispatched();
    c.chaos_kills = sim.chaos_stats().total_drops();
    let elapsed = SimDuration(sim.now().as_nanos());
    c.link_util_max = live
        .channels
        .iter()
        .map(|&ch| sim.channel_stats(ch).utilization(elapsed))
        .fold(0.0, f64::max);
    for &ch in &live.uplinks {
        let s = sim.channel_stats(ch);
        c.uplink_frames += s.frames;
        c.uplink_bytes += s.bytes;
    }

    // Workload-level output checks.
    if c.forged_delivered != 0 {
        violations.push(format!(
            "forged-token flows delivered {} requests",
            c.forged_delivered
        ));
    }
    if c.forged_txns > 0 && c.drops_token == 0 {
        violations.push("forged flows present but router.drops_token = 0".into());
    }
    if !spec.chaos && c.failed() != 0 {
        violations.push(format!(
            "{} transactions failed on a fault-free mesh",
            c.failed()
        ));
    }
    if !spec.chaos && (c.diversions != 0 || c.chaos_kills != 0) {
        violations.push("diversions or chaos kills on a fault-free mesh".into());
    }
    if spec.tokens == (c.token_hits + c.token_decrypts == 0) {
        violations.push(format!(
            "token checks = {} with tokens = {}",
            c.token_hits + c.token_decrypts,
            spec.tokens
        ));
    }
    if spec.chaos {
        // Non-vacuity is a property of the benchmark fixture; the smoke
        // fixture is too sparse to promise a packet on a faulted trunk.
        let vacuous = [
            ("router.diversions", c.diversions),
            ("transport.retransmissions", c.retransmissions),
            ("sim.chaos_kills", c.chaos_kills),
        ];
        for (name, _) in vacuous
            .iter()
            .filter(|(_, v)| *v == 0 && spec.size == MeshSize::FULL)
        {
            violations.push(format!("mesh_chaos is vacuous: {name} = 0"));
        }
        // ISSUE: fail_frac may not exceed 0.002 absolute under chaos.
        if c.failed() as f64 > 0.002 * c.attempted() as f64 {
            violations.push(format!(
                "fail_frac {} / {} exceeds 0.002",
                c.failed(),
                c.attempted()
            ));
        }
    }
    if c.drops_queue_full != 0 {
        violations.push(format!(
            "{} queue-full drops: the offered load is not open-loop-safe",
            c.drops_queue_full
        ));
    }
    (c, violations)
}

/// Run a built workload to its horizon, scrape it, check its outputs.
pub fn run(spec: &MeshSpec, mut built: Built, spans: &mut Spans) -> MeshRun {
    let horizon = spec.horizon();
    let (_, run_s) = spans.scope("run", |_| built.live.sim.run_until(horizon));
    let ((counters, violations, digest, scrape_ms), _) = spans.scope("scrape", |_| {
        let t0 = Instant::now();
        let reg = built.live.sim.scrape_telemetry();
        let scrape_ms = t0.elapsed().as_secs_f64() * 1e3;
        let (counters, mut violations) = scrape(spec, &built);
        if let Err(e) = reg {
            violations.push(format!("scrape_telemetry failed: {e:?}"));
        }
        let d = digest(&built.live.sim, &built.live.hosts, &built.live.routers);
        (counters, violations, d, scrape_ms)
    });
    MeshRun {
        setup_s: built.setup_s,
        run_s,
        query_us: built.query_us,
        route_weight_mean_us: built.route_weight_mean_us,
        route_header_bytes: built.route_header_bytes,
        segments_per_route: built.segments_per_route,
        dir_counters: built.dir_counters,
        counters,
        digest,
        scrape_ms,
        violations,
        captured: built.captured,
        faults: built.faults,
        flows: built.flows.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> [MeshSpec; 3] {
        [
            MeshSpec::forward(MeshSize::SMOKE, 600),
            MeshSpec::tokens(MeshSize::SMOKE, 600),
            MeshSpec::chaos(MeshSize::SMOKE, 600),
        ]
    }

    #[test]
    fn flow_lists_are_pure_functions_of_the_seed() {
        for spec in specs() {
            let a = flows(&spec, 11);
            assert_eq!(a, flows(&spec, 11), "{}: same seed, same flows", spec.name);
            assert_ne!(a, flows(&spec, 12), "{}: new seed, new flows", spec.name);
            let offered: usize = a.iter().filter(|f| !f.forged).map(|f| f.sends.len()).sum();
            assert_eq!(offered, spec.txns, "{}: exact offered count", spec.name);
            let pairs: BTreeSet<_> = a.iter().map(|f| (f.src, f.dst)).collect();
            assert_eq!(
                pairs.len(),
                a.len(),
                "{}: distinct ordered pairs",
                spec.name
            );
            assert!(a
                .iter()
                .all(|f| f.src != f.dst && f.sends.iter().all(|&t| t <= spec.window_ns)));
        }
        let many = flows(&MeshSpec::tokens(MeshSize::SMOKE, 6_000), 11);
        let forged: Vec<_> = many.iter().filter(|f| f.forged).collect();
        assert!(
            forged.len() >= many.len() / 101,
            "one flow in a hundred is forged"
        );
        let hostile = MeshSize::SMOKE.hosts - specs()[1].hostile();
        assert!(
            many.iter().all(|f| f.forged == (f.src >= hostile)),
            "forged flows, and only those, start at hostile hosts"
        );
        assert!(many
            .iter()
            .all(|f| f.dst % 2 == 1 && (f.forged || f.src % 2 == 0)));
    }

    #[test]
    fn fault_plans_are_pure_functions_of_the_seed() {
        let spec = MeshSpec::chaos(MeshSize::SMOKE, 600);
        let mesh = Mesh::new(spec.size);
        let live = Live::build(&mesh, 1, false, None);
        // Every trunk carries a flow; every fourth hop is protected.
        let mut usage = RouteUsage::default();
        for (i, t) in live.trunks.iter().enumerate() {
            usage.carried.insert((t.a, t.a_port), 1 + i as u32 % 5);
            if i % 4 == 0 {
                usage.protected.insert((t.a, t.a_port));
            }
        }
        let plan = |seed| fault_plan(&spec, seed, &mesh, &live.trunks, &usage);
        assert_eq!(plan(5), plan(5));
        assert_ne!(plan(5), plan(6));
        assert!(plan(5).iter().any(|f| matches!(f, Fault::Trunk { .. })));
        assert!(plan(5).iter().any(|f| matches!(f, Fault::Crash { .. })));
        for f in plan(5) {
            let (Fault::Trunk { down, up, .. } | Fault::Crash { down, up, .. }) = f;
            assert!(down < up && up - down <= 1_500_000 && up <= spec.window_ns);
        }
        // The schedule takes both directions of a trunk down and up.
        let events = schedule(&plan(5), &live);
        let trunks = plan(5)
            .iter()
            .filter(|f| matches!(f, Fault::Trunk { .. }))
            .count();
        assert_eq!(events.len(), 4 * trunks + 2 * (plan(5).len() - trunks));
    }
}
