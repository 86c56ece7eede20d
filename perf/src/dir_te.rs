//! `dir_te`: the control plane alone, no simulator.
//!
//! One closed-loop client works a seeded op mix against a `Directory`
//! whose TE view is a 10 000-node `simtest` mesh: per 100 ops, 70
//! lookups (`RouteCache::get`; on a miss `Directory::te_advisories` with
//! k = 3 and token minting, then `put`), 25 `report_load` updates and 5
//! `report_down`/`report_up` pairs. Every update bumps the topology
//! epoch and so invalidates the cache — the write share is what makes a
//! read-side gain that slows updates or worsens invalidation visible.

use std::collections::VecDeque;
use std::time::Instant;

use sirpent::compile::CompiledRoute;
use sirpent::directory::te::TeQuery;
use sirpent::directory::{Advisory, Directory, Name, Peer, RouteCache, TeTopology};
use sirpent::sim::{SimDuration, SimTime};
use sirpent::wire::viper::Priority;
use sirpent::wire::VIPER_MAX_SEGMENTS;
use sirpent_simtest::{TeWorkload, TopoShape};

use crate::fixture::{self, link_metrics, route_weight_ns, Mesh, ACCESS_PROP, TOPO_SEED};
use crate::rng::{mix, Rng, Zipf};
use crate::spans::Spans;

/// Links held down at any instant by the down/up pairs.
const DOWN_WINDOW: usize = 16;
/// Service hosts are numbered from here.
const SERVICE_BASE: u32 = 500_000;

/// The workload, fully specified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirSpec {
    /// Topology size (routers).
    pub nodes: usize,
    /// Distinct services (the Zipf population).
    pub services: usize,
    /// Ops to issue.
    pub ops: usize,
}

impl DirSpec {
    /// The benchmark sizing.
    pub fn full(ops: usize) -> DirSpec {
        DirSpec {
            nodes: 10_000,
            services: 4_096,
            ops,
        }
    }

    /// The `--smoke` sizing.
    pub fn smoke(ops: usize) -> DirSpec {
        DirSpec {
            nodes: 256,
            services: 128,
            ops,
        }
    }
}

/// One client operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Look up routes to service `svc`.
    Lookup {
        /// Service index (Zipf rank).
        svc: usize,
    },
    /// Report `load` (0–1) on link `link` (index into the trunk list).
    Load {
        /// Trunk index.
        link: usize,
        /// Reported utilization.
        load: f64,
    },
    /// Take link `link` down and bring the oldest downed link back up.
    Flap {
        /// Trunk index.
        link: usize,
    },
}

/// Generate the op sequence — a pure function of `(spec, seed)`: every
/// block of 100 holds exactly 70 lookups, 25 load reports and 5 flaps,
/// in seeded order.
pub fn ops(spec: &DirSpec, trunks: usize, seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed, 0xD17E);
    let zipf = Zipf::new(spec.services);
    let mut out = Vec::with_capacity(spec.ops + 100);
    while out.len() < spec.ops {
        let mut block: Vec<u8> = [vec![0u8; 70], vec![1; 25], vec![2; 5]].concat();
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for kind in block {
            out.push(match kind {
                0 => Op::Lookup {
                    svc: zipf.sample(&mut rng),
                },
                1 => Op::Load {
                    link: rng.below(trunks as u64) as usize,
                    load: rng.below(96) as f64 / 100.0,
                },
                _ => Op::Flap {
                    link: rng.below(trunks as u64) as usize,
                },
            });
        }
    }
    out.truncate(spec.ops);
    out
}

/// What every lookup asks: three routes within 1.5× of the shortest,
/// with a detour when the best crosses a congested link.
pub fn query() -> TeQuery {
    TeQuery {
        k: 3,
        max_stretch_milli: 1_500,
        avoid_congested: true,
        ..TeQuery::default()
    }
}

/// The fixed control-plane machine: trunks as `(router id, port)` and
/// the directory's view of them.
pub struct Machine {
    /// Every directed trunk, `(router id, port)`.
    pub trunks: Vec<(u32, u8)>,
    /// The client's first router.
    pub client_router: u32,
    /// The TE view.
    pub te: TeTopology,
}

impl Machine {
    /// Build the TE view for `spec` (independent of `--seed`).
    pub fn new(spec: &DirSpec) -> Machine {
        let adj = TeWorkload {
            shape: TopoShape::Random { degree: 4 },
            nodes: spec.nodes,
            ..TeWorkload::heavy(TOPO_SEED)
        }
        .adjacency();
        let mut te = TeTopology::new();
        let mut trunks = Vec::new();
        for (a, row) in adj.iter().enumerate() {
            for (j, &b) in row.iter().enumerate() {
                let (lo, hi) = (a.min(b) as u64, a.max(b) as u64);
                let prop = 150_000 + mix(TOPO_SEED ^ (lo << 32 | hi)) % 250_001;
                let id = (a as u32 + 1, j as u8 + 1);
                te.add_link(
                    id.0,
                    id.1,
                    Peer::Router(b as u32 + 1),
                    link_metrics(SimDuration(prop)),
                );
                trunks.push(id);
            }
        }
        // Services hash onto routers; a router's service ports count up
        // from 100 so co-located services keep distinct access links.
        let mut next_port = vec![100u8; spec.nodes];
        for s in 0..spec.services {
            let r = (mix(TOPO_SEED ^ 0x5E4 ^ s as u64) % spec.nodes as u64) as usize;
            let host = Peer::Host(SERVICE_BASE + s as u32);
            te.add_link(r as u32 + 1, next_port[r], host, link_metrics(ACCESS_PROP));
            next_port[r] += 1;
        }
        Machine {
            trunks,
            client_router: 1,
            te,
        }
    }
}

/// What one run of the workload measured.
#[derive(Debug, Default)]
pub struct DirRun {
    /// Host seconds to build the topology and directory.
    pub setup_s: f64,
    /// Host seconds the topology build alone took.
    pub topology_build_s: f64,
    /// Host seconds of the measured phase.
    pub run_s: f64,
    /// Ops attempted (lookups + load reports + flaps).
    pub attempted: u64,
    /// Lookups that returned no route for a reachable service.
    pub failed: u64,
    /// Host µs of every lookup op (hit or miss), in issue order.
    pub lookup_us: Vec<f64>,
    /// Host µs of every miss's `te_advisories` call.
    pub advisory_us: Vec<f64>,
    /// Host ns of every update op (load report or flap half).
    pub update_ns: Vec<f64>,
    /// `weight_ns` of every route handed to the client, in order.
    pub weights_ns: Vec<u64>,
    /// Promised round trip of every route handed to the client (twice
    /// its weight plus the access links), ns, sorted.
    pub promised_rtt_ns: Vec<u64>,
    /// Cache counters: `(hits, misses, epoch evictions)`.
    pub cache: (u64, u64, u64),
    /// Directory TE counters:
    /// `(queries, routes returned, detours, infeasible)`.
    pub dir_counters: (u64, u64, u64, u64),
    /// Final topology epoch.
    pub epoch: u64,
    /// Fold of every returned route set (deterministic route quality).
    pub digest: u64,
    /// Failed output checks.
    pub violations: Vec<String>,
    /// A sample of `(src router, dst host)` queries for `k_routes` replay.
    pub queries: Vec<(u32, u32)>,
    /// A sample of advisories for compile/mint replays.
    pub advisories: Vec<Advisory>,
}

/// Check one returned route: it chains hop by hop from the client's
/// router to the service, visits no router twice, and compiles within
/// the VIPER segment limit.
fn check_route(te: &TeTopology, from: u32, dst: Peer, adv: &Advisory) -> Result<(), String> {
    let mut at = Peer::Router(from);
    let mut seen = vec![from];
    for h in &adv.route.hops {
        if at != Peer::Router(h.router_id) {
            return Err(format!(
                "hop at router {} but route is at {at:?}",
                h.router_id
            ));
        }
        at = te
            .peer(h.router_id, h.port)
            .ok_or_else(|| format!("no link ({}, {})", h.router_id, h.port))?;
        if let Peer::Router(r) = at {
            if seen.contains(&r) {
                return Err(format!("router {r} visited twice"));
            }
            seen.push(r);
        }
    }
    if at != dst {
        return Err(format!("route ends at {at:?}, not {dst:?}"));
    }
    let compiled = CompiledRoute::compile(&adv.route, &adv.tokens, Priority::NORMAL);
    if compiled.segments.len() > VIPER_MAX_SEGMENTS {
        return Err(format!("{} segments", compiled.segments.len()));
    }
    Ok(())
}

/// Build the machine and a token-minting directory over it. Returns
/// them with the host seconds the TE view alone took.
pub fn setup(spec: &DirSpec, seed: u64, spans: &mut Spans) -> (Machine, Directory, f64) {
    let (machine, topology_s) = spans.scope("setup.topology", |_| Machine::new(spec));
    let (dir, _) = spans.scope("setup.directory", |_| {
        fixture::directory(machine.te.clone(), true, seed)
    });
    (machine, dir, topology_s)
}

/// Build the machine and directory, run the op mix, check every route.
pub fn run(spec: &DirSpec, seed: u64, spans: &mut Spans) -> DirRun {
    let mut out = DirRun::default();
    let ((machine, mut dir, topology_s), setup_s) =
        spans.scope("setup", |spans| setup(spec, seed, spans));
    out.topology_build_s = topology_s;
    out.setup_s = setup_s;
    let ops = ops(spec, machine.trunks.len(), seed);
    let names: Vec<Name> = (0..spec.services)
        .map(|s| Name::parse(&format!("svc{s}.perf.sirpent")))
        .collect();
    let q = query();
    let access = Mesh::access_spec();
    let mut cache = RouteCache::new(SimDuration::from_secs(3_600));
    let mut down: VecDeque<(u32, u8)> = VecDeque::new();
    let mut returned: Vec<(usize, Vec<Advisory>)> = Vec::new();
    let now = SimTime::ZERO;

    let (_, run_s) = spans.scope("run", |_| {
        for op in &ops {
            out.attempted += 1;
            match *op {
                Op::Lookup { svc } => {
                    let t0 = Instant::now();
                    let epoch = dir.topology_epoch();
                    let hit = cache.get(&names[svc], now, epoch).map(<[Advisory]>::to_vec);
                    let advs = match hit {
                        Some(advs) => advs,
                        None => {
                            let t1 = Instant::now();
                            let advs = dir.te_advisories(
                                machine.client_router,
                                Peer::Host(SERVICE_BASE + svc as u32),
                                &q,
                                &access,
                                &[],
                                svc as u32 + 1,
                            );
                            out.advisory_us.push(t1.elapsed().as_nanos() as f64 / 1e3);
                            cache.put(names[svc].clone(), advs.clone(), now, epoch);
                            advs
                        }
                    };
                    out.lookup_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
                    returned.push((svc, advs));
                }
                Op::Load { link, load } => {
                    let (r, p) = machine.trunks[link];
                    let t0 = Instant::now();
                    dir.report_load(r, p, load);
                    out.update_ns.push(t0.elapsed().as_nanos() as f64);
                }
                Op::Flap { link } => {
                    let (r, p) = machine.trunks[link];
                    let t0 = Instant::now();
                    dir.report_down(r, p);
                    down.push_back((r, p));
                    if down.len() > DOWN_WINDOW {
                        if let Some((r, p)) = down.pop_front() {
                            dir.report_up(r, p);
                        }
                    }
                    out.update_ns.push(t0.elapsed().as_nanos() as f64);
                }
            }
        }
    });
    out.run_s = run_s;

    // Output checks and deterministic route-quality figures, outside the
    // measured phase.
    let te = dir.te().expect("directory was built with a TE view");
    let mut digest = 0xD17E_u64;
    for (svc, advs) in &returned {
        let dst = Peer::Host(SERVICE_BASE + *svc as u32);
        // Sixteen links down out of tens of thousands never disconnects
        // a degree-6 mesh: an empty answer is a failure.
        if advs.is_empty() {
            out.failed += 1;
            continue;
        }
        for adv in advs {
            if let Err(e) = check_route(te, machine.client_router, dst, adv) {
                out.violations.push(format!("route to service {svc}: {e}"));
            }
            let w = route_weight_ns(adv);
            out.weights_ns.push(w);
            out.promised_rtt_ns
                .push(2 * (w + access.prop_delay.as_nanos()));
            digest = mix(digest ^ w ^ ((adv.route.hops.len() as u64) << 48));
        }
    }
    out.promised_rtt_ns.sort_unstable();
    out.digest = digest;
    if out.failed > 0 {
        out.violations
            .push(format!("{} lookups returned no route", out.failed));
    }
    out.cache = (cache.hits, cache.misses, cache.epoch_evictions);
    out.dir_counters = (
        dir.te_queries,
        dir.te_routes_returned,
        dir.te_detours,
        dir.te_infeasible,
    );
    out.epoch = dir.topology_epoch();
    let step = (returned.len() / 64).max(1);
    for (svc, advs) in returned.iter().step_by(step) {
        out.queries
            .push((machine.client_router, SERVICE_BASE + *svc as u32));
        out.advisories.extend(advs.first().cloned());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_mix_is_a_pure_function_of_the_seed_with_exact_shares() {
        let spec = DirSpec::smoke(1_000);
        let a = ops(&spec, 500, 3);
        assert_eq!(a, ops(&spec, 500, 3));
        assert_ne!(a, ops(&spec, 500, 4));
        assert_eq!(a.len(), 1_000);
        for block in a.chunks(100) {
            let lookups = block
                .iter()
                .filter(|o| matches!(o, Op::Lookup { .. }))
                .count();
            let loads = block
                .iter()
                .filter(|o| matches!(o, Op::Load { .. }))
                .count();
            assert_eq!((lookups, loads, block.len() - lookups - loads), (70, 25, 5));
        }
    }

    #[test]
    fn smoke_run_returns_checked_routes_and_repeats_exactly() {
        let spec = DirSpec::smoke(300);
        let a = run(&spec, 9, &mut Spans::new("dir_te"));
        let b = run(&spec, 9, &mut Spans::new("dir_te"));
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.failed, 0);
        assert_eq!(a.attempted, 300);
        assert_eq!(a.lookup_us.len(), 210);
        assert_eq!((a.digest, &a.weights_ns), (b.digest, &b.weights_ns));
        assert_ne!(a.digest, run(&spec, 10, &mut Spans::new("dir_te")).digest);
        assert!(a.cache.0 + a.cache.1 == 210 && a.epoch > 0);
    }
}
