//! Traffic-engineered route computation: weighted topology, constrained
//! k-shortest search, and congestion detours.
//!
//! §2.3/§3: clients "request a route with particular properties, such as
//! low delay, high bandwidth, low cost and security", and the directory
//! keeps "reasonably up-to-date load information on links using reports
//! received from network monitoring stations, individual routers and
//! sources experiencing problems". This module is the directory's
//! control-plane answer: a weighted link map ([`TeTopology`]) carrying
//! per-link delay / bandwidth / MTU / cost plus a load figure fed by the
//! rate-control reports, and a Yen-style loopless k-shortest-path search
//! ([`TeTopology::k_routes`]) that prunes on the client's attribute
//! bounds ([`TeQuery`]) while it searches.
//!
//! Everything is integer arithmetic over sorted maps: same topology +
//! same query ⇒ byte-identical route sets on every platform. Ties in
//! the search order are broken by (router id, port), never by memory
//! layout or hash order.
//!
//! The topology carries an **epoch** counter, bumped on *any* mutation —
//! link insertion, weight change, load report, up/down transition — so
//! client caches can detect that previously granted routes were computed
//! against a stale view (see [`crate::cache`]).

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::indexing_slicing,
        clippy::allow_attributes_without_reason
    )
)]

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::sync::OnceLock;

use sirpent_sim::SimDuration;

use crate::alternates::Peer;
use crate::route::{AccessSpec, HopSpec, RouteRecord, Security};

/// Load is tracked in integer milli-units (0 = idle, 1000 = line rate)
/// so that residual-capacity math is exact and platform-independent.
pub const LOAD_SCALE: u32 = 1000;

/// Per-router decision delay charged once per hop in the search weight
/// (§6.1 bounds the VIPER decision at 1 µs) — it makes hop count matter
/// on links with negligible propagation delay.
const HOP_NS: u64 = 1_000;

/// Static link weights, as registered by monitoring/provisioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkMetrics {
    /// Link bandwidth, bits/sec.
    pub bandwidth_bps: u64,
    /// Propagation delay.
    pub prop_delay: SimDuration,
    /// Link MTU.
    pub mtu: usize,
    /// Administrative cost.
    pub cost: u32,
    /// Security classification.
    pub security: Security,
}

impl LinkMetrics {
    /// Uniform defaults for tests and meshes: 10 Mb/s, 10 µs, 1500 B,
    /// cost 1, controlled.
    pub fn basic() -> LinkMetrics {
        LinkMetrics {
            bandwidth_bps: 10_000_000,
            prop_delay: SimDuration::from_micros(10),
            mtu: 1500,
            cost: 1,
            security: Security::Controlled,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct TeLink {
    peer: Peer,
    metrics: LinkMetrics,
    /// Offered load in milli-units of the link rate (may exceed
    /// [`LOAD_SCALE`] when oversubscribed).
    load_milli: u32,
    down: bool,
}

/// Attribute bounds and search parameters for a TE query (§3's
/// "particular properties" as hard constraints).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TeQuery {
    /// Number of alternate routes requested.
    pub k: usize,
    /// Minimum acceptable path MTU (0 = no bound). Links narrower than
    /// this are pruned from the search, not post-filtered.
    pub min_mtu: usize,
    /// Minimum acceptable bottleneck bandwidth (0 = no bound).
    pub min_bandwidth_bps: u64,
    /// Maximum acceptable end-to-end propagation delay.
    pub max_delay: Option<SimDuration>,
    /// Maximum acceptable total administrative cost.
    pub max_cost: Option<u32>,
    /// Stretch ceiling in milli-units relative to the best feasible
    /// route's search weight: 1500 keeps alternates within 1.5× of the
    /// shortest. 0 = unbounded.
    pub max_stretch_milli: u32,
    /// When set, a route set whose best route crosses a congested link
    /// is augmented with a detour computed on the congestion-free
    /// subgraph (replacing the worst alternate if the set is full).
    pub avoid_congested: bool,
}

impl Default for TeQuery {
    fn default() -> TeQuery {
        TeQuery {
            k: 1,
            min_mtu: 0,
            min_bandwidth_bps: 0,
            max_delay: None,
            max_cost: None,
            max_stretch_milli: 0,
            avoid_congested: false,
        }
    }
}

/// One route computed by the constrained search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TeRoute {
    /// (router, output port) per transit hop, in order.
    pub hops: Vec<(u32, u8)>,
    /// End-to-end propagation delay.
    pub delay: SimDuration,
    /// Bottleneck bandwidth.
    pub bandwidth_bps: u64,
    /// Path MTU.
    pub mtu: usize,
    /// Total administrative cost.
    pub cost: u32,
    /// Advertised residual capacity: the bottleneck of per-link
    /// `bandwidth × (1 − load)` along the path. Clients weight their
    /// per-flow route choice by this figure.
    pub residual_bps: u64,
    /// How many links of the route were congested at grant time.
    pub congested_hops: usize,
    /// True when this route was inserted by the congestion-detour pass
    /// rather than the plain k-shortest enumeration.
    pub detour: bool,
}

impl TeRoute {
    /// The route that goes nowhere: no hops, no delay, no bottleneck.
    fn empty() -> TeRoute {
        TeRoute {
            hops: Vec::new(),
            delay: SimDuration::ZERO,
            bandwidth_bps: u64::MAX,
            mtu: usize::MAX,
            cost: 0,
            residual_bps: u64::MAX,
            congested_hops: 0,
            detour: false,
        }
    }

    /// Search weight: propagation plus per-hop decision delay. This is
    /// the quantity the stretch bound is measured against.
    pub fn weight_ns(&self) -> u64 {
        self.delay.as_nanos() + HOP_NS * self.hops.len() as u64
    }
}

/// The directory's weighted, load-annotated link map.
///
/// Deterministic by construction: links live in a sorted map keyed by
/// `(router, port)`, and every search derives its iteration order from
/// that key, so route grants are reproducible run-to-run.
///
/// Searches do not walk the map. They run on a flat adjacency
/// (`Compiled`) that the first query after a *structural* change
/// (`add_link`, `set_metrics`, `set_congestion_threshold`) compiles
/// from it and that load and up/down reports then patch in place: a
/// topology that only sees reports is compiled once, and one nobody
/// queries is never compiled. The directory's own queries also keep
/// their reverse trees (`Parked`), which a structural change drops and
/// an up/down report drops only where it moves a settled label, and the
/// probes' per-node scratch (`Scratch`).
#[derive(Debug, Clone, Default)]
pub struct TeTopology {
    links: BTreeMap<(u32, u8), TeLink>,
    epoch: u64,
    congestion_milli: u32,
    compiled: OnceLock<Compiled>,
    parked: Parked,
    scratch: Scratch,
}

/// The link map as the searches see it: nodes are indices (routers in
/// id order, then hosts in number order), links are one flat array in
/// `(router, port)` order — the map's own, so comparing two edge indices
/// compares the `(router, port)` pairs they stand for — with offsets
/// into it by the node a link leaves, and one reverse entry per link
/// grouped by the node it lands on.
#[derive(Debug, Clone)]
struct Compiled {
    /// Every router id (link owners and router peers), ascending. Node
    /// `n < routers.len()` is `routers[n]`.
    routers: Vec<u32>,
    /// Every host a link lands on, ascending. Node `routers.len() + i`
    /// is `hosts[i]`; hosts terminate routes and never transit.
    hosts: Vec<u32>,
    edges: Vec<Edge>,
    /// What a route record reads of each link, at the edge's index.
    recorded: Vec<Recorded>,
    /// `edges[leaving_at[n]..leaving_at[n + 1]]` leave router node `n`.
    leaving_at: Vec<u32>,
    /// `inbound[entering_at[n]..entering_at[n + 1]]` are the links that
    /// land on node `n`, in `(router, port)` order — for a host, its
    /// attachment list.
    entering_at: Vec<u32>,
    inbound: Vec<Inbound>,
    /// The least and the greatest link weight, up or down: the reverse
    /// tree's bucket queue is sized from them.
    min_weight: u64,
    max_weight: u64,
}

/// One link as the reverse tree reads it: 16 bytes beside the edge's
/// 48, so the tree's inner loop walks one dense array.
#[derive(Debug, Clone, Copy)]
struct Inbound {
    /// The search weight, or `u64::MAX` while the link is down.
    weight: u64,
    /// The node the link leaves.
    from: u32,
    /// The link's index in `edges`, read only by a query that bounds
    /// MTU or bandwidth.
    edge: u32,
}

/// One link. Everything a report can change (`down`, `congested`,
/// `residual_bps`) is a field, so a report is one store — two when it
/// moves the link up or down, which its reverse entry's weight carries —
/// and the per-query prunes are a predicate ([`Edge::admitted`]), not a
/// rebuild.
#[derive(Debug, Clone, Copy)]
struct Edge {
    /// The nodes the link leaves and lands on.
    from: u32,
    to: u32,
    port: u8,
    down: bool,
    congested: bool,
    cost: u32,
    prop_ns: u64,
    bw: u64,
    mtu: usize,
    residual_bps: u64,
}

/// What a route record reads of a link and the searches never do: 8
/// bytes beside the edge's 48, so the probes' edge array stays dense.
/// `build` and `patch` keep it current with the link map.
#[derive(Debug, Clone, Copy)]
struct Recorded {
    security: Security,
    load_milli: u32,
}

/// A route as the directory grants it, with what its advisory needs of
/// the links the route crosses, read from the compiled edges the search
/// walked: a hop spec per link and the most load reported on any of
/// them.
#[derive(Debug)]
pub(crate) struct Granted {
    pub(crate) route: TeRoute,
    pub(crate) hops: Vec<HopSpec>,
    pub(crate) load_milli: u32,
}

/// What one query cost, in figures that repeat exactly: no clock, no
/// RNG, the same on every machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SearchWork {
    /// Goal-directed searches run (first path, Yen spurs, detour).
    pub(crate) searches: u64,
    /// Nodes settled, the reverse tree's growth and goal-directed
    /// searches together: a kept tree's nodes are not settled again.
    pub(crate) nodes_settled: u64,
    /// 1 when the query read a kept reverse tree, 0 when it grew one.
    pub(crate) trees_reused: u64,
}

impl TeTopology {
    /// An empty topology with the default congestion threshold (80% of
    /// line rate).
    pub fn new() -> TeTopology {
        TeTopology {
            congestion_milli: 800,
            ..TeTopology::default()
        }
    }

    /// Current topology epoch. Bumped on every mutation; route caches
    /// key their entries by it.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Set the congestion threshold in load milli-units (default 800).
    pub fn set_congestion_threshold(&mut self, milli: u32) {
        if self.congestion_milli != milli {
            self.congestion_milli = milli;
            self.restructured();
        }
    }

    /// Declare that `router`'s output `port` is wired to `peer` with the
    /// given static weights.
    pub fn add_link(&mut self, router: u32, port: u8, peer: Peer, metrics: LinkMetrics) {
        self.links.insert(
            (router, port),
            TeLink {
                peer,
                metrics,
                load_milli: 0,
                down: false,
            },
        );
        self.restructured();
    }

    /// Replace the static weights of an existing link.
    pub fn set_metrics(&mut self, router: u32, port: u8, metrics: LinkMetrics) {
        if let Some(l) = self.links.get_mut(&(router, port)) {
            if l.metrics != metrics {
                l.metrics = metrics;
                self.restructured();
            }
        }
    }

    /// A load report for one link, in milli-units of the link rate.
    pub fn set_load_milli(&mut self, router: u32, port: u8, milli: u32) {
        self.report(router, port, |l| {
            milli != std::mem::replace(&mut l.load_milli, milli)
        });
    }

    /// Accumulate offered load onto a link (rate-control feedback while
    /// flows are being placed).
    pub fn add_load_milli(&mut self, router: u32, port: u8, delta: u32) {
        if delta == 0 {
            return;
        }
        self.report(router, port, |l| {
            l.load_milli = l.load_milli.saturating_add(delta);
            true
        });
    }

    /// A link-failure report.
    pub fn set_down(&mut self, router: u32, port: u8) {
        self.report(router, port, |l| !std::mem::replace(&mut l.down, true));
    }

    /// A link-recovery report.
    pub fn set_up(&mut self, router: u32, port: u8) {
        self.report(router, port, |l| std::mem::replace(&mut l.down, false));
    }

    /// A structural change happened: move the epoch and drop the
    /// compiled adjacency and every kept tree. The next query recompiles
    /// — not this call, so building a topology link by link stays
    /// linear.
    fn restructured(&mut self) {
        self.epoch += 1;
        self.compiled.take();
        self.parked.clear();
    }

    /// Apply a load or up/down report to one link. `change` says
    /// whether it changed anything; if it did the epoch moves, the
    /// link's compiled edge and reverse entry, when there are some, are
    /// patched in place, and an up/down flip drops the kept trees it
    /// can move.
    fn report(&mut self, router: u32, port: u8, change: impl FnOnce(&mut TeLink) -> bool) {
        let Some(l) = self.links.get_mut(&(router, port)) else {
            return;
        };
        if !change(l) {
            return;
        }
        self.epoch += 1;
        if let Some(g) = self.compiled.get_mut() {
            if let Some(flipped) = g.patch(router, port, l, self.congestion_milli) {
                self.parked.flipped(&flipped);
            }
        }
    }

    /// Where a router port leads, if known.
    pub fn peer(&self, router: u32, port: u8) -> Option<Peer> {
        self.links.get(&(router, port)).map(|l| l.peer)
    }

    /// Static weights of a link, if known.
    pub fn metrics(&self, router: u32, port: u8) -> Option<LinkMetrics> {
        self.links.get(&(router, port)).map(|l| l.metrics)
    }

    /// Reported load of a link in milli-units.
    pub fn load_milli(&self, router: u32, port: u8) -> Option<u32> {
        self.links.get(&(router, port)).map(|l| l.load_milli)
    }

    /// Whether a link is currently over the congestion threshold.
    pub fn congested(&self, router: u32, port: u8) -> bool {
        self.links
            .get(&(router, port))
            .map(|l| !l.down && l.load_milli >= self.congestion_milli)
            .unwrap_or(false)
    }

    /// Constrained k-shortest loopless routes from `src` (a router id)
    /// to `dst`, best first. Routes satisfy every bound in `q`; an empty
    /// result means no feasible route exists. `dst` may be a host or a
    /// router (the route then terminates on the link landing on it).
    ///
    /// The reverse tree is grown for this query alone and thrown away;
    /// the directory's queries keep theirs (`k_routes_counted`), and the
    /// routes are the same either way.
    pub fn k_routes(&self, src: u32, dst: Peer, q: &TeQuery) -> Vec<TeRoute> {
        if dst == Peer::Router(src) {
            return vec![TeRoute::empty()];
        }
        let g = self
            .compiled
            .get_or_init(|| Compiled::build(&self.links, self.congestion_milli));
        let Some((src, dst)) = g.endpoints(src, dst) else {
            return Vec::new();
        };
        let mut scratch = Scratch::default();
        let mut search = Search::new(g, q, src, Tree::new(g, dst), &mut scratch);
        let routes = search.k_routes();
        routes.into_iter().map(|(route, _)| route).collect()
    }

    /// [`TeTopology::k_routes`] plus what the search cost, on the kept
    /// reverse tree of `dst` under `q`'s link bounds when there is one,
    /// which the query grows as far as it needs and then parks again,
    /// and on the kept probe scratch. Each route comes with its hop
    /// specs and peak load, which are what [`TeTopology::record`] and
    /// [`TeTopology::load_milli`] read for it from the link map.
    pub(crate) fn k_routes_counted(
        &mut self,
        src: u32,
        dst: Peer,
        q: &TeQuery,
    ) -> (Vec<Granted>, SearchWork) {
        if dst == Peer::Router(src) {
            let empty = Granted {
                route: TeRoute::empty(),
                hops: Vec::new(),
                load_milli: 0,
            };
            return (vec![empty], SearchWork::default());
        }
        let g = self
            .compiled
            .get_or_init(|| Compiled::build(&self.links, self.congestion_milli));
        let Some((src, dst)) = g.endpoints(src, dst) else {
            return (Vec::new(), SearchWork::default());
        };
        let key = (dst, q.min_mtu, q.min_bandwidth_bps);
        let kept = self.parked.take(key);
        let trees_reused = u64::from(kept.is_some());
        let tree = kept.unwrap_or_else(|| Tree::new(g, dst));
        let mut search = Search::new(g, q, src, tree, &mut self.scratch);
        let routes = search.k_routes();
        let work = SearchWork {
            trees_reused,
            ..search.work
        };
        self.parked.park(key, search.tree);
        let granted = routes.into_iter().map(|(route, path)| {
            let (hops, load_milli) = g.hop_specs(&path);
            Granted {
                route,
                hops,
                load_milli,
            }
        });
        (granted.collect(), work)
    }

    /// Materialize a computed route as a directory [`RouteRecord`],
    /// given the client's access link and destination endpoint selector.
    /// Returns `None` if a link of the route has vanished meanwhile.
    pub fn record(
        &self,
        route: &TeRoute,
        access: AccessSpec,
        endpoint_selector: Vec<u8>,
    ) -> Option<RouteRecord> {
        let mut hops = Vec::with_capacity(route.hops.len());
        for &(router, port) in &route.hops {
            let l = self.links.get(&(router, port))?;
            hops.push(HopSpec {
                router_id: router,
                port,
                ethernet_next: None,
                bandwidth_bps: l.metrics.bandwidth_bps,
                prop_delay: l.metrics.prop_delay,
                mtu: l.metrics.mtu,
                cost: l.metrics.cost,
                security: l.metrics.security,
            });
        }
        Some(RouteRecord {
            access,
            hops,
            endpoint_selector,
        })
    }
}

impl Edge {
    /// Refresh what a report can change.
    fn set_state(&mut self, l: &TeLink, congestion_milli: u32) {
        let free = LOAD_SCALE.saturating_sub(l.load_milli) as u64;
        self.residual_bps = l.metrics.bandwidth_bps / LOAD_SCALE as u64 * free;
        self.congested = l.load_milli >= congestion_milli;
        self.down = l.down;
    }

    /// Search weight: propagation plus the per-hop decision delay.
    fn weight_ns(&self) -> u64 {
        self.prop_ns.saturating_add(HOP_NS)
    }

    /// The weight its reverse entry carries: the search weight, or
    /// `u64::MAX` — which no relaxation can improve a label with — while
    /// the link is down.
    fn reverse_weight(&self) -> u64 {
        if self.down {
            u64::MAX
        } else {
            self.weight_ns()
        }
    }

    /// A query's per-link prunes: the link is up, and at least as wide
    /// and as fast as the query asks (a bound of 0 admits every link).
    fn admitted(&self, q: &TeQuery) -> bool {
        !self.down && self.fits(q.min_mtu, q.min_bandwidth_bps)
    }

    /// At least as wide and as fast as the bounds.
    fn fits(&self, min_mtu: usize, min_bandwidth_bps: u64) -> bool {
        self.mtu >= min_mtu && self.bw >= min_bandwidth_bps
    }
}

/// Turn per-node counts (node `n` counted in slot `n + 1`) into offsets.
fn offsets(mut counts: Vec<u32>) -> Vec<u32> {
    let mut total = 0u32;
    for c in &mut counts {
        total += *c;
        *c = total;
    }
    counts
}

/// The index range `offsets` gives `node`; empty for a node it lacks.
fn span(offsets: &[u32], node: u32) -> std::ops::Range<usize> {
    let at = |i: usize| offsets.get(i).map_or(0, |&o| o as usize);
    at(node as usize)..at((node as usize).saturating_add(1))
}

impl Compiled {
    fn build(links: &BTreeMap<(u32, u8), TeLink>, congestion_milli: u32) -> Compiled {
        // Collect every id, then sort + dedup once — sorted insertion
        // would be quadratic on meshes where peers arrive in arbitrary
        // order.
        let mut routers: Vec<u32> = Vec::with_capacity(links.len() * 2);
        let mut hosts: Vec<u32> = Vec::new();
        for (&(router, _), l) in links {
            routers.push(router);
            match l.peer {
                Peer::Router(r) => routers.push(r),
                Peer::Host(h) => hosts.push(h),
            }
        }
        for ids in [&mut routers, &mut hosts] {
            ids.sort_unstable();
            ids.dedup();
        }
        let mut g = Compiled {
            edges: Vec::with_capacity(links.len()),
            recorded: Vec::with_capacity(links.len()),
            leaving_at: Vec::new(),
            entering_at: Vec::new(),
            inbound: Vec::new(),
            min_weight: HOP_NS,
            max_weight: HOP_NS,
            routers,
            hosts,
        };
        let mut leaving = vec![0u32; g.routers.len() + 1];
        let mut landing = vec![0u32; g.routers.len() + g.hosts.len() + 1];
        for (&(router, port), l) in links {
            let (Some(from), Some(to)) = (g.node(Peer::Router(router)), g.node(l.peer)) else {
                continue;
            };
            for (counts, node) in [(&mut leaving, from), (&mut landing, to)] {
                if let Some(c) = counts.get_mut(node as usize + 1) {
                    *c += 1;
                }
            }
            let mut e = Edge {
                from,
                to,
                port,
                down: false,
                congested: false,
                cost: l.metrics.cost,
                prop_ns: l.metrics.prop_delay.as_nanos(),
                bw: l.metrics.bandwidth_bps,
                mtu: l.metrics.mtu,
                residual_bps: 0,
            };
            e.set_state(l, congestion_milli);
            g.edges.push(e);
            g.recorded.push(Recorded {
                security: l.metrics.security,
                load_milli: l.load_milli,
            });
        }
        g.leaving_at = offsets(leaving);
        g.entering_at = offsets(landing);
        // Counting sort of the reverse entries by the node they land on.
        let unset = Inbound {
            weight: u64::MAX,
            from: 0,
            edge: 0,
        };
        g.inbound = vec![unset; g.edges.len()];
        let mut next = g.entering_at.clone();
        for (i, e) in g.edges.iter().enumerate() {
            if let Some(at) = next.get_mut(e.to as usize) {
                if let Some(slot) = g.inbound.get_mut(*at as usize) {
                    *slot = Inbound {
                        weight: e.reverse_weight(),
                        from: e.from,
                        edge: i as u32,
                    };
                }
                *at += 1;
            }
        }
        let weights = g.edges.iter().map(Edge::weight_ns);
        g.min_weight = weights.clone().min().unwrap_or(HOP_NS);
        g.max_weight = weights.max().unwrap_or(HOP_NS);
        g
    }

    /// The node index of a peer, if any link names it.
    fn node(&self, peer: Peer) -> Option<u32> {
        let at = match peer {
            Peer::Router(r) => self.routers.binary_search(&r).ok()?,
            Peer::Host(h) => self.routers.len() + self.hosts.binary_search(&h).ok()?,
        };
        Some(at as u32)
    }

    /// The node indices of a query's source router and destination.
    fn endpoints(&self, src: u32, dst: Peer) -> Option<(u32, u32)> {
        Some((self.node(Peer::Router(src))?, self.node(dst)?))
    }

    /// `(index, edge)` of every link leaving `node`, in port order.
    fn leaving(&self, node: u32) -> impl Iterator<Item = (u32, &Edge)> {
        let span = span(&self.leaving_at, node);
        (span.start as u32..).zip(self.edges.get(span).unwrap_or_default())
    }

    /// The reverse entry of every link landing on `node`, in
    /// `(router, port)` order.
    fn inbound(&self, node: u32) -> &[Inbound] {
        let into = self.inbound.get(span(&self.entering_at, node));
        into.unwrap_or_default()
    }

    /// Refresh link `(router, port)` after a report: its edge, found by
    /// two short searches (which is what keeps a report O(log n)), and,
    /// when the report moved the link up or down, its reverse entry. A
    /// load report leaves the entry alone: the search weight is
    /// load-blind. Returns the edge when it went up or down.
    fn patch(&mut self, router: u32, port: u8, l: &TeLink, congestion_milli: u32) -> Option<Edge> {
        let node = self.node(Peer::Router(router))?;
        let out = span(&self.leaving_at, node);
        let first = out.start as u32;
        let (ei, e) = self
            .edges
            .get_mut(out)
            .and_then(|out| (first..).zip(out).find(|(_, e)| e.port == port))?;
        if let Some(recorded) = self.recorded.get_mut(ei as usize) {
            recorded.load_milli = l.load_milli;
        }
        let was_down = e.down;
        e.set_state(l, congestion_milli);
        if e.down == was_down {
            return None;
        }
        let flipped = *e;
        let into = self.inbound.get_mut(span(&self.entering_at, flipped.to));
        if let Some(entry) = into.and_then(|into| into.iter_mut().find(|r| r.edge == ei)) {
            entry.weight = flipped.reverse_weight();
        }
        Some(flipped)
    }

    /// Reconstruct a route and its metrics from a path of edge indices.
    fn route(&self, path: &[u32]) -> TeRoute {
        let mut route = TeRoute::empty();
        let mut delay_ns = 0u64;
        for e in path.iter().filter_map(|&i| self.edges.get(i as usize)) {
            delay_ns += e.prop_ns;
            route.bandwidth_bps = route.bandwidth_bps.min(e.bw);
            route.mtu = route.mtu.min(e.mtu);
            route.cost = route.cost.saturating_add(e.cost);
            route.residual_bps = route.residual_bps.min(e.residual_bps);
            route.congested_hops += usize::from(e.congested);
            route
                .hops
                .extend(self.routers.get(e.from as usize).map(|&r| (r, e.port)));
        }
        route.delay = SimDuration::from_nanos(delay_ns);
        route
    }

    /// The hop specs of a path of edge indices, as
    /// [`TeTopology::record`] builds them from the link map, and the
    /// most load reported on any of its links.
    fn hop_specs(&self, path: &[u32]) -> (Vec<HopSpec>, u32) {
        let mut load_milli = 0;
        let mut hops = Vec::with_capacity(path.len());
        for &i in path {
            let (Some(e), Some(recorded)) =
                (self.edges.get(i as usize), self.recorded.get(i as usize))
            else {
                continue;
            };
            load_milli = load_milli.max(recorded.load_milli);
            hops.extend(self.routers.get(e.from as usize).map(|&router_id| HopSpec {
                router_id,
                port: e.port,
                ethernet_next: None,
                bandwidth_bps: e.bw,
                prop_delay: SimDuration::from_nanos(e.prop_ns),
                mtu: e.mtu,
                cost: e.cost,
                security: recorded.security,
            }));
        }
        (hops, load_milli)
    }
}

/// The largest weight the stretch bound admits beside a best route of
/// `best_ns` — all-integer: `w` passes iff `w × 1000 ≤ best × stretch`.
/// A stretch of 0 is no bound.
fn stretch_ceiling(best_ns: u64, stretch_milli: u32) -> u64 {
    if stretch_milli == 0 {
        return u64::MAX;
    }
    let ceiling = best_ns as u128 * stretch_milli as u128 / LOAD_SCALE as u128;
    u64::try_from(ceiling).unwrap_or(u64::MAX)
}

/// The most buckets a [`Ring`] holds, whatever the spread of link
/// weights.
const RING_CAP: u64 = 4_096;

/// Dial's bucket queue over the reverse tree's `(label, node)` entries.
///
/// Bucket `b` holds the labels in `[b × width, (b + 1) × width)`, on a
/// ring of `max_weight / width + 2` slots: a relaxation adds at most one
/// link weight to a label of the bucket being drained, so no queued
/// label is a lap ahead of it. The width is the least link weight, so a
/// relaxation always lands in a later bucket: every label in the lowest
/// non-empty bucket is final, and the bucket drains in whatever order it
/// holds. When that would take more than [`RING_CAP`] slots the width
/// grows instead, a bucket can then gain labels while it drains, and
/// it drains in label order.
struct Ring {
    slots: Vec<Vec<(u64, u32)>>,
    width: u64,
    /// The width grew past the least link weight, so the bucket being
    /// drained is taken in label order.
    ordered: bool,
    /// The number (`label / width`) of the bucket being drained.
    at: u64,
    /// Bucket `at` is sorted descending (ordered rings only).
    sorted: bool,
}

impl Ring {
    fn new(min_weight: u64, max_weight: u64) -> Ring {
        let min = min_weight.max(1);
        let (width, ordered) = if max_weight / min + 2 <= RING_CAP {
            (min, false)
        } else {
            (max_weight.div_ceil(RING_CAP - 2), true)
        };
        Ring {
            slots: (0..max_weight / width + 2).map(|_| Vec::new()).collect(),
            width,
            ordered,
            at: 0,
            sorted: false,
        }
    }

    /// Move the drain position to the bucket of `label`, the least
    /// label about to be queued: an entry queued behind the drain
    /// position would land a lap ahead of it.
    fn rewind(&mut self, label: u64) {
        self.at = label / self.width;
        self.sorted = false;
    }

    /// Queue `node` at `label`, which is no less than the labels
    /// drained so far.
    fn push(&mut self, label: u64, node: u32) {
        let number = label / self.width;
        let slots = self.slots.len() as u64;
        let Some(slot) = self.slots.get_mut((number % slots) as usize) else {
            return;
        };
        if self.sorted && number == self.at {
            // Keep the draining bucket descending, least label last.
            let at = slot.partition_point(|&e| e > (label, node));
            slot.insert(at, (label, node));
        } else {
            slot.push((label, node));
        }
    }

    /// An entry of the lowest non-empty bucket, or `None` once a lap of
    /// the ring finds every bucket empty or that bucket starts above
    /// `ceiling` — and so does every label left in it.
    fn pop(&mut self, ceiling: u64) -> Option<(u64, u32)> {
        let slots = self.slots.len() as u64;
        for _ in 0..slots {
            let slot = self.slots.get_mut((self.at % slots) as usize)?;
            if slot.is_empty() {
                self.at += 1;
                self.sorted = false;
                continue;
            }
            if self.at.saturating_mul(self.width) > ceiling {
                return None;
            }
            if self.ordered && !self.sorted {
                slot.sort_unstable_by(|a, b| b.cmp(a));
                self.sorted = true;
            }
            return slot.pop();
        }
        None
    }

    /// Every entry still queued, in no particular order.
    fn drain(&mut self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.slots.iter_mut().flat_map(|slot| slot.drain(..))
    }
}

/// The fields of a query a reverse tree depends on: its destination
/// node and the link bounds its relaxations admit (`min_mtu`,
/// `min_bandwidth_bps`).
type TreeKey = (u32, usize, u64);

/// A reverse tree: every router node's distance to one destination,
/// grown outwards from it only as far as the queries so far needed,
/// and able to grow further.
#[derive(Debug, Clone)]
struct Tree {
    /// The destination node.
    dst: u32,
    /// Per router node, its label: exact wherever it is at most
    /// `radius`, above `radius` (or `u64::MAX`) everywhere else.
    labels: Vec<u64>,
    /// Every node labelled at most this has settled — but for a new
    /// tree's destination — and `u64::MAX` once every node has.
    radius: u64,
    /// The nodes whose label is queued and not yet settled. Each label
    /// is in `labels`, so a node id is all an entry needs.
    frontier: Vec<u32>,
}

impl Tree {
    /// A tree that has settled nothing: the destination at 0, queued.
    fn new(g: &Compiled, dst: u32) -> Tree {
        let mut labels = vec![u64::MAX; g.routers.len()];
        // A host destination has no slot (and no way back out of it); a
        // router destination is pinned at 0, so no cycle relabels it.
        if let Some(slot) = labels.get_mut(dst as usize) {
            *slot = 0;
        }
        Tree {
            dst,
            labels,
            radius: 0,
            frontier: vec![dst],
        }
    }

    /// The label of `node`: 0 for the destination, `u64::MAX` for a
    /// host that is not it.
    fn label(&self, node: u32) -> u64 {
        if node == self.dst {
            return 0;
        }
        self.labels.get(node as usize).copied().unwrap_or(u64::MAX)
    }

    /// What the tree holds, as the parked-tree cap counts it: 8 bytes
    /// per label, 4 per frontier node.
    fn bytes(&self) -> usize {
        8 * self.labels.len() + 4 * self.frontier.len()
    }

    /// Grow the tree (Dijkstra backwards from `dst`) over the links `q`
    /// admits until `src`'s distance is final and every node within the
    /// query's radius has settled. Returns that distance, or `None` if
    /// `dst` cannot be reached from `src`.
    ///
    /// The radius is fixed the moment `src` settles: the stretch
    /// ceiling when the query will look for `alternates` (no node
    /// farther than that from `dst` can lie on a route within the
    /// ceiling), the best distance itself when it will not. A tree that
    /// already reaches that far is only read: no [`Ring`] is built.
    ///
    /// The growth settles exactly the nodes within the radius that had
    /// not settled, so what it leaves in `labels` within the radius is
    /// what a binary-heap Dijkstra from scratch leaves, however a bucket
    /// of the [`Ring`] drains: `src`'s label is final once the queue
    /// hands out a label at least as large, and the radius is fixed
    /// then, before any node beyond it can settle. Every label past the
    /// radius is above it, as a fresh tree's are. What is still queued
    /// when the growth stops — entries of the last bucket drained past
    /// the radius among them — is the frontier the next growth resumes
    /// from.
    fn grow(
        &mut self,
        g: &Compiled,
        q: &TeQuery,
        src: u32,
        alternates: bool,
        work: &mut SearchWork,
    ) -> Option<u64> {
        let radius_for = |best: u64| {
            if alternates {
                stretch_ceiling(best, q.max_stretch_milli).max(best)
            } else {
                best
            }
        };
        let mut best = None;
        let mut radius = u64::MAX;
        let at_src = self.label(src);
        if at_src <= self.radius {
            if at_src == u64::MAX {
                return None; // every node has settled, and not `src`
            }
            best = Some(at_src);
            radius = radius_for(at_src);
            if radius <= self.radius {
                return best;
            }
        }
        // Being down is in an entry's weight; only an MTU or bandwidth
        // bound needs the edge itself.
        let prune = q.min_mtu > 0 || q.min_bandwidth_bps > 0;
        let mut ring = Ring::new(g.min_weight, g.max_weight);
        let frontier = std::mem::take(&mut self.frontier);
        ring.rewind(frontier.iter().map(|&v| self.label(v)).min().unwrap_or(0));
        for v in frontier {
            ring.push(self.label(v), v);
        }
        while let Some((d, v)) = ring.pop(radius) {
            if self.label(v) != d {
                continue; // a shorter label settled this node already
            }
            if best.is_none() {
                if let Some(&at_src) = self.labels.get(src as usize).filter(|&&s| s <= d) {
                    best = Some(at_src);
                    radius = radius_for(at_src);
                }
            }
            if d > radius {
                self.frontier.push(v); // past the radius, in the last bucket drained
                continue;
            }
            work.nodes_settled += 1;
            for r in g.inbound(v) {
                let admitted = r.weight != u64::MAX
                    && (!prune || g.edges.get(r.edge as usize).is_some_and(|e| e.admitted(q)));
                if !admitted {
                    continue;
                }
                let nd = d.saturating_add(r.weight);
                if let Some(slot) = self.labels.get_mut(r.from as usize) {
                    if nd < *slot {
                        *slot = nd;
                        ring.push(nd, r.from);
                    }
                }
            }
        }
        let queued = ring
            .drain()
            .filter(|&(d, v)| self.labels.get(v as usize) == Some(&d));
        self.frontier.extend(queued.map(|(_, v)| v));
        self.radius = if self.frontier.is_empty() {
            u64::MAX
        } else {
            radius
        };
        best
    }

    /// Whether flipping link `e` — it has just gone down, or come up —
    /// can move a label the tree holds. Only if the node it lands on
    /// has settled (until then, the growth that settles it reads the
    /// patched reverse entry), the tree's bounds admit it, and it is
    /// tight: going down, it gave the node it leaves its label; coming
    /// up, it would give that node a shorter one. In every other case
    /// no label changes, settled or queued.
    fn moved_by(&self, e: &Edge, (_, min_mtu, min_bandwidth_bps): TreeKey) -> bool {
        let at_to = self.label(e.to);
        if at_to == u64::MAX || at_to > self.radius || !e.fits(min_mtu, min_bandwidth_bps) {
            return false;
        }
        let through = at_to.saturating_add(e.weight_ns());
        let at_from = self.label(e.from);
        if e.down {
            at_from == through
        } else {
            through < at_from
        }
    }
}

/// The most bytes of reverse trees a topology keeps between queries,
/// as [`Tree::bytes`] counts them: every destination of a 1 024-router
/// map, or 16 trees of a 10 000-router one.
const PARKED_CAP: usize = 1_310_720;

/// The reverse trees a topology keeps between queries, by [`TreeKey`],
/// within [`PARKED_CAP`] bytes: the least recently used tree goes
/// first.
#[derive(Debug, Clone, Default)]
struct Parked {
    /// Each tree and the use that parked it.
    trees: BTreeMap<TreeKey, (u64, Tree)>,
    /// The key of the tree each use parked, oldest first.
    by_use: BTreeMap<u64, TreeKey>,
    /// Trees parked so far: the recency clock.
    uses: u64,
    bytes: usize,
}

impl Parked {
    /// Drop every tree. Free when there are none, which is every call
    /// while a topology is being built link by link.
    fn clear(&mut self) {
        if !self.trees.is_empty() {
            *self = Parked::default();
        }
    }

    /// Take `key`'s tree out, if there is one.
    fn take(&mut self, key: TreeKey) -> Option<Tree> {
        let (used, tree) = self.trees.remove(&key)?;
        self.by_use.remove(&used);
        self.bytes = self.bytes.saturating_sub(tree.bytes());
        Some(tree)
    }

    /// Keep `tree` as `key`'s, evicting the least recently used trees
    /// until it fits. A tree over the whole cap is not kept.
    fn park(&mut self, key: TreeKey, tree: Tree) {
        let bytes = tree.bytes();
        if bytes > PARKED_CAP {
            return;
        }
        while self.bytes + bytes > PARKED_CAP {
            let Some((_, oldest)) = self.by_use.first_key_value() else {
                break;
            };
            let oldest = *oldest;
            self.take(oldest);
        }
        self.uses += 1;
        self.by_use.insert(self.uses, key);
        self.bytes += bytes;
        self.trees.insert(key, (self.uses, tree));
    }

    /// Link `e` has just gone down or come up: drop every tree it can
    /// move ([`Tree::moved_by`]).
    fn flipped(&mut self, e: &Edge) {
        let moved: Vec<TreeKey> = self
            .trees
            .iter()
            .filter(|(&key, (_, tree))| tree.moved_by(e, key))
            .map(|(&key, _)| key)
            .collect();
        for key in moved {
            self.take(key);
        }
    }
}

/// The probes' per-router-node scratch, kept by a topology from one
/// query to the next so that a query allocates none of it: sized when
/// the router count changes, and otherwise reset slot by slot through
/// `touched` and by moving the ban stamp on.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Per router node, a probe's distance from its start and the edge
    /// it was reached over; `touched` lists the slots the last probe
    /// wrote, so the next resets only those.
    dist: Vec<u64>,
    via: Vec<u32>,
    touched: Vec<u32>,
    /// Per router node, the last probe that banned it: a node is banned
    /// from the running probe iff its stamp is `probe`.
    banned: Vec<u32>,
    probe: u32,
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
}

impl Scratch {
    /// Size the scratch for `routers` router nodes; a no-op while the
    /// count stays the same. A node index names the same slot in every
    /// graph of that size, so what was touched is reset as ever.
    fn fit(&mut self, routers: usize) {
        if self.dist.len() != routers {
            *self = Scratch {
                dist: vec![u64::MAX; routers],
                via: vec![0; routers],
                banned: vec![0; routers],
                ..Scratch::default()
            };
        }
    }

    /// Start a probe: reset the slots the last one touched and move the
    /// ban stamp on. Stamp 0 is every node's never-banned stamp, so when
    /// the stamp wraps every stamp is cleared and counting resumes at 1.
    fn next_probe(&mut self) -> u32 {
        for n in self.touched.drain(..) {
            if let Some(slot) = self.dist.get_mut(n as usize) {
                *slot = u64::MAX;
            }
        }
        self.heap.clear();
        self.probe = match self.probe.checked_add(1) {
            Some(probe) => probe,
            None => {
                self.banned.fill(0);
                1
            }
        };
        self.probe
    }
}

/// One query's searches and the scratch they share.
///
/// A query is one Dijkstra *backwards* from the destination
/// ([`Tree::grow`]) and then a handful of goal-directed probes forwards
/// ([`Search::shortest`]): the reverse tree gives every node its exact
/// distance to the destination over the links the query admits, which
/// is a consistent A* heuristic for the first path, for every Yen spur
/// and for the congestion detour (their banned and congested links only
/// lengthen the true distance), and lets the stretch ceiling prune a
/// probe the moment `root + g + h` exceeds it.
struct Search<'a> {
    g: &'a Compiled,
    q: &'a TeQuery,
    src: u32,
    dst: u32,
    /// In-search delay prune: a probe never extends past `max_delay`
    /// plus 64 hops' worth of decision delay, measured from the node it
    /// starts at. The exact `max_delay` filter runs on the finished set.
    slack: u64,
    /// The reverse tree of `dst`, new or kept from an earlier query.
    tree: Tree,
    /// The probes' scratch, fitted to `g`.
    scratch: &'a mut Scratch,
    work: SearchWork,
}

impl<'a> Search<'a> {
    fn new(
        g: &'a Compiled,
        q: &'a TeQuery,
        src: u32,
        tree: Tree,
        scratch: &'a mut Scratch,
    ) -> Search<'a> {
        scratch.fit(g.routers.len());
        Search {
            g,
            q,
            src,
            dst: tree.dst,
            slack: q
                .max_delay
                .map(|d| d.as_nanos().saturating_add(64 * HOP_NS))
                .unwrap_or(u64::MAX),
            tree,
            scratch,
            work: SearchWork::default(),
        }
    }

    /// Yen's loopless k-shortest enumeration, then the congestion
    /// detour and the exact filters: each route with the edge indices
    /// it was reconstructed from.
    fn k_routes(&mut self) -> Vec<(TeRoute, Vec<u32>)> {
        let (g, q) = (self.g, self.q);
        let k = q.k.max(1);
        let alternates = k > 1 || q.avoid_congested;
        let Some(best_ns) = self.tree.grow(g, q, self.src, alternates, &mut self.work) else {
            return Vec::new();
        };
        let Some((_, best)) = self.shortest(self.src, 0, best_ns, &[], &[], false) else {
            return Vec::new();
        };
        let ceiling = stretch_ceiling(best_ns, q.max_stretch_milli);
        // Candidate pool, ordered by (weight, path) — a total order, so
        // equal-weight spurs pop deterministically. No candidate over
        // the stretch ceiling ever enters it (`shortest` refuses to
        // find one), so running dry is the only way the loop gives up.
        let mut pool: BTreeSet<(u64, Vec<u32>)> = BTreeSet::new();
        let mut seen: BTreeSet<Vec<u32>> = BTreeSet::from([best.clone()]);
        let mut accepted: Vec<Vec<u32>> = vec![best];
        while accepted.len() < k {
            let Some(prev) = accepted.last().cloned() else {
                break;
            };
            // Spur from every position of the previously accepted path:
            // keep its first `i` hops (the root), ban the root's nodes
            // and every accepted continuation of the root, and search
            // on from there.
            let hops: Vec<&Edge> = prev
                .iter()
                .filter_map(|&e| g.edges.get(e as usize))
                .collect();
            let nodes: Vec<u32> = hops.iter().map(|e| e.from).collect();
            let mut root_ns = 0u64;
            for (i, hop) in hops.iter().enumerate() {
                let (Some(root), Some(root_nodes)) = (prev.get(..i), nodes.get(..i)) else {
                    break;
                };
                let taken: Vec<u32> = accepted
                    .iter()
                    .filter(|a| a.get(..i) == Some(root))
                    .filter_map(|a| a.get(i).copied())
                    .collect();
                if let Some((spur_ns, spur)) =
                    self.shortest(hop.from, root_ns, ceiling, &taken, root_nodes, false)
                {
                    let full = [root, spur.as_slice()].concat();
                    if seen.insert(full.clone()) {
                        pool.insert((root_ns + spur_ns, full));
                    }
                }
                root_ns += hop.weight_ns();
            }
            let Some((_, next)) = pool.pop_first() else {
                break;
            };
            accepted.push(next);
        }

        let mut routes: Vec<(TeRoute, Vec<u32>)> = accepted
            .into_iter()
            .map(|path| (g.route(&path), path))
            .collect();
        // Every route crosses a congested link: offer the shortest one
        // that crosses none, in place of the worst alternate if the set
        // is full.
        if q.avoid_congested && routes.iter().all(|(r, _)| r.congested_hops > 0) {
            if let Some((_, path)) = self.shortest(self.src, 0, ceiling, &[], &[], true) {
                if routes.len() >= k {
                    routes.pop();
                }
                let detour = TeRoute {
                    detour: true,
                    ..g.route(&path)
                };
                routes.push((detour, path));
            }
        }

        // Final exact filters on reconstructed metrics.
        routes.retain(|(r, _)| {
            let delay_ok = q.max_delay.map(|d| r.delay <= d).unwrap_or(true);
            let cost_ok = q.max_cost.map(|c| r.cost <= c).unwrap_or(true);
            delay_ok && cost_ok
        });
        routes.sort_by(|(a, _), (b, _)| (a.weight_ns(), &a.hops).cmp(&(b.weight_ns(), &b.hops)));
        routes
    }

    /// Goal-directed (A*) shortest path from `start` to `dst`, as
    /// `(weight, edge indices)`, over admitted links that are not in
    /// `banned_edges` (Yen spur exclusions), do not enter
    /// `banned_nodes` (root-path loop prevention) and — when
    /// `skip_congested` — are not congested. `start` sits `root_ns`
    /// from the query's source, and nothing whose total would exceed
    /// `bound` is explored or returned.
    ///
    /// Which of several equal-weight paths comes back is a rule, not an
    /// accident of pop order — it is the path a plain Dijkstra keyed
    /// `(dist, node)` with strict relaxations over port-ordered edges
    /// finds, which is what this search replaced and what every digest
    /// downstream was recorded against:
    ///
    /// * the heap is keyed `(g + h, g, node)` and pops while
    ///   `g + h ≤ best`, so every node that could tie is expanded, each
    ///   after all of its tight predecessors;
    /// * the last hop is the least `(dist, node, port)`;
    /// * a relaxation that ties a node's distance keeps the predecessor
    ///   with the smaller `(dist[pred], pred, port)`.
    ///
    /// Edge indices order like `(node, port)`, so both rules compare
    /// `(dist, edge index)`.
    fn shortest(
        &mut self,
        start: u32,
        root_ns: u64,
        bound: u64,
        banned_edges: &[u32],
        banned_nodes: &[u32],
        skip_congested: bool,
    ) -> Option<(u64, Vec<u32>)> {
        let (g, q) = (self.g, self.q);
        self.work.searches += 1;
        let s = &mut *self.scratch;
        let probe = s.next_probe();
        for &n in banned_nodes {
            if let Some(stamp) = s.banned.get_mut(n as usize) {
                *stamp = probe;
            }
        }
        // `h`: distance to `dst`, if a path through a node that far out
        // can still come in under `bound` after `so_far`.
        let to_dst = &self.tree.labels;
        let h = |node: u32, so_far: u64| {
            let h = *to_dst.get(node as usize)?;
            (h != u64::MAX && so_far.saturating_add(h) <= bound).then_some(h)
        };
        let h_start = h(start, root_ns)?;
        *s.dist.get_mut(start as usize)? = 0;
        s.touched.push(start);
        s.heap.push(Reverse((h_start, 0, start)));
        let mut arrival: Option<(u64, u32)> = None;
        while let Some(Reverse((f, d, u))) = s.heap.pop() {
            if arrival.is_some_and(|(best, _)| f > best) {
                break; // nothing left can tie the arrival in hand
            }
            if s.dist.get(u as usize) != Some(&d) {
                continue; // a shorter label settled this node already
            }
            self.work.nodes_settled += 1;
            for (ei, e) in g.leaving(u) {
                if !e.admitted(q) || (skip_congested && e.congested) || banned_edges.contains(&ei) {
                    continue;
                }
                let nd = d.saturating_add(e.weight_ns());
                if nd > self.slack {
                    continue;
                }
                if e.to == self.dst {
                    let within = root_ns.saturating_add(nd) <= bound;
                    if within && arrival.is_none_or(|a| (nd, ei) < a) {
                        arrival = Some((nd, ei));
                    }
                    continue;
                }
                if s.banned.get(e.to as usize) == Some(&probe) {
                    continue;
                }
                let Some(hv) = h(e.to, root_ns.saturating_add(nd)) else {
                    continue; // a host, or too far out
                };
                let (Some(dv), Some(via)) =
                    (s.dist.get_mut(e.to as usize), s.via.get_mut(e.to as usize))
                else {
                    continue;
                };
                if nd < *dv {
                    if *dv == u64::MAX {
                        s.touched.push(e.to);
                    }
                    *dv = nd;
                    *via = ei;
                    s.heap.push(Reverse((nd.saturating_add(hv), nd, e.to)));
                } else if nd == *dv {
                    // `*via` tied first; its tail settled at `nd` less
                    // its own weight.
                    let held = g
                        .edges
                        .get(*via as usize)
                        .map(|e| nd.saturating_sub(e.weight_ns()));
                    if Some((d, ei)) < held.map(|held| (held, *via)) {
                        *via = ei;
                    }
                }
            }
        }
        let (weight, last) = arrival?;
        let mut path = vec![last];
        let mut at = g.edges.get(last as usize)?.from;
        while at != start {
            let ei = *s.via.get(at as usize)?;
            path.push(ei);
            at = g.edges.get(ei as usize)?.from;
        }
        path.reverse();
        Some((weight, path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{below, build_topology, metrics_from, pick, query_from, splitmix, GenTopo};

    /// Diamond: 0 → {1 (fast), 2 (slow)} → 3 → host 9.
    fn diamond() -> TeTopology {
        let mut t = TeTopology::new();
        let fast = LinkMetrics {
            prop_delay: SimDuration::from_micros(10),
            ..LinkMetrics::basic()
        };
        let slow = LinkMetrics {
            prop_delay: SimDuration::from_micros(50),
            ..LinkMetrics::basic()
        };
        t.add_link(0, 0, Peer::Router(1), fast);
        t.add_link(0, 1, Peer::Router(2), slow);
        t.add_link(1, 0, Peer::Router(3), fast);
        t.add_link(2, 0, Peer::Router(3), fast);
        t.add_link(3, 0, Peer::Host(9), fast);
        t
    }

    #[test]
    fn k_routes_returns_disjoint_alternates_best_first() {
        let t = diamond();
        let q = TeQuery {
            k: 2,
            ..TeQuery::default()
        };
        let routes = t.k_routes(0, Peer::Host(9), &q);
        assert_eq!(routes.len(), 2);
        assert_eq!(
            routes[0].hops,
            vec![(0, 0), (1, 0), (3, 0)],
            "fast arm first"
        );
        assert_eq!(
            routes[1].hops,
            vec![(0, 1), (2, 0), (3, 0)],
            "slow arm second"
        );
        assert!(routes[0].delay < routes[1].delay);
        assert_eq!(routes[0].mtu, 1500);
        assert_eq!(routes[0].cost, 3);
    }

    #[test]
    fn router_destination_terminates_on_arrival() {
        let t = diamond();
        let q = TeQuery {
            k: 2,
            ..TeQuery::default()
        };
        let routes = t.k_routes(0, Peer::Router(3), &q);
        assert_eq!(routes.len(), 2);
        assert_eq!(routes[0].hops, vec![(0, 0), (1, 0)]);
    }

    #[test]
    fn self_destination_is_the_empty_route() {
        let t = diamond();
        let routes = t.k_routes(3, Peer::Router(3), &TeQuery::default());
        assert_eq!(routes.len(), 1);
        assert!(routes[0].hops.is_empty());
    }

    #[test]
    fn mtu_bound_prunes_narrow_links() {
        let mut t = diamond();
        // Narrow the fast arm's first link.
        t.set_metrics(
            0,
            0,
            LinkMetrics {
                mtu: 576,
                prop_delay: SimDuration::from_micros(10),
                ..LinkMetrics::basic()
            },
        );
        let q = TeQuery {
            k: 2,
            min_mtu: 1500,
            ..TeQuery::default()
        };
        let routes = t.k_routes(0, Peer::Host(9), &q);
        assert_eq!(routes.len(), 1, "narrow arm pruned in-search");
        assert_eq!(routes[0].hops[0], (0, 1));
        assert!(routes.iter().all(|r| r.mtu >= 1500));
    }

    #[test]
    fn bandwidth_bound_prunes_thin_links() {
        let mut t = diamond();
        t.set_metrics(
            0,
            1,
            LinkMetrics {
                bandwidth_bps: 1_000_000,
                prop_delay: SimDuration::from_micros(50),
                ..LinkMetrics::basic()
            },
        );
        let q = TeQuery {
            k: 2,
            min_bandwidth_bps: 5_000_000,
            ..TeQuery::default()
        };
        let routes = t.k_routes(0, Peer::Host(9), &q);
        assert_eq!(routes.len(), 1);
        assert!(routes[0].bandwidth_bps >= 5_000_000);
    }

    #[test]
    fn delay_bound_filters_slow_routes() {
        let t = diamond();
        let q = TeQuery {
            k: 2,
            max_delay: Some(SimDuration::from_micros(40)),
            ..TeQuery::default()
        };
        let routes = t.k_routes(0, Peer::Host(9), &q);
        assert_eq!(routes.len(), 1, "slow arm (70 µs) over the bound");
        assert!(routes[0].delay <= SimDuration::from_micros(40));
    }

    #[test]
    fn stretch_bound_caps_alternates() {
        let t = diamond();
        let q = TeQuery {
            k: 2,
            max_stretch_milli: 1200, // slow arm is ~2.2× the fast arm
            ..TeQuery::default()
        };
        let routes = t.k_routes(0, Peer::Host(9), &q);
        assert_eq!(routes.len(), 1);
    }

    /// Regression: a pool candidate over the stretch ceiling used to be
    /// popped, rejected and answered with a full re-spur of the same
    /// accepted path — every result already seen — once per remaining
    /// pool entry (7 searches here). The pool is weight-ordered, so the
    /// first rejection is final: asking for more alternates than the
    /// ceiling admits costs one probe for the best route and one per
    /// hop of it, whatever `k` says.
    #[test]
    fn stretch_rejection_does_not_respur() {
        let work = |k| {
            let q = TeQuery {
                k,
                max_stretch_milli: 1200,
                ..TeQuery::default()
            };
            let (routes, work) = diamond().k_routes_counted(0, Peer::Host(9), &q);
            assert_eq!(routes.len(), 1);
            assert_eq!(routes[0].route.hops.len(), 3);
            work
        };
        assert_eq!(work(4), work(2));
        assert!(work(4).searches <= 1 + 3, "{:?}", work(4));
    }

    #[test]
    fn down_links_are_excluded() {
        let mut t = diamond();
        t.set_down(1, 0);
        let routes = t.k_routes(0, Peer::Host(9), &TeQuery::default());
        assert_eq!(routes[0].hops[0], (0, 1), "reroutes around the failure");
        t.set_up(1, 0);
        let routes = t.k_routes(0, Peer::Host(9), &TeQuery::default());
        assert_eq!(routes[0].hops[0], (0, 0));
    }

    #[test]
    fn congestion_detour_avoids_hot_trunk() {
        let mut t = diamond();
        // Both k=1 routes would use the fast arm; congest it.
        t.set_load_milli(1, 0, 900);
        let q = TeQuery {
            k: 1,
            avoid_congested: true,
            ..TeQuery::default()
        };
        let routes = t.k_routes(0, Peer::Host(9), &q);
        assert_eq!(routes.len(), 1, "detour replaced the congested route");
        assert!(routes.iter().any(|r| r.detour));
        assert_eq!(routes[0].congested_hops, 0);
        assert_eq!(routes[0].hops[0], (0, 1), "takes the cool arm");
    }

    #[test]
    fn residual_reflects_reported_load() {
        let mut t = diamond();
        t.set_load_milli(0, 0, 250); // 25% loaded
        let routes = t.k_routes(0, Peer::Host(9), &TeQuery::default());
        assert_eq!(routes[0].residual_bps, 7_500_000, "10 Mb/s × 0.75");
    }

    #[test]
    fn epoch_bumps_on_every_mutation_and_only_on_change() {
        let mut t = TeTopology::new();
        let e0 = t.epoch();
        t.add_link(0, 0, Peer::Router(1), LinkMetrics::basic());
        assert!(t.epoch() > e0);
        let e1 = t.epoch();
        t.set_load_milli(0, 0, 500);
        assert!(t.epoch() > e1);
        let e2 = t.epoch();
        t.set_load_milli(0, 0, 500); // no change
        assert_eq!(t.epoch(), e2);
        t.set_down(0, 0);
        assert!(t.epoch() > e2);
        let e3 = t.epoch();
        t.set_down(0, 0); // already down
        assert_eq!(t.epoch(), e3);
        t.set_up(0, 0);
        assert!(t.epoch() > e3);
    }

    #[test]
    fn record_materializes_hop_specs() {
        let t = diamond();
        let routes = t.k_routes(0, Peer::Host(9), &TeQuery::default());
        let access = AccessSpec {
            host_port: 0,
            ethernet_next: None,
            bandwidth_bps: 10_000_000,
            prop_delay: SimDuration::from_micros(5),
            mtu: 1500,
        };
        let rec = t.record(&routes[0], access, vec![7]).unwrap();
        assert_eq!(rec.hops.len(), 3);
        assert_eq!(rec.hops[0].router_id, 0);
        assert_eq!(rec.hops[0].port, 0);
        assert_eq!(rec.endpoint_selector, vec![7]);
        let p = rec.properties();
        assert_eq!(p.mtu, 1500);
        assert_eq!(p.hops, 3);
    }

    #[test]
    fn k_routes_are_loop_free() {
        let t = diamond();
        let q = TeQuery {
            k: 8,
            ..TeQuery::default()
        };
        for r in t.k_routes(0, Peer::Host(9), &q) {
            let mut seen = BTreeSet::new();
            for &(router, _) in &r.hops {
                assert!(seen.insert(router), "router {router} repeats");
            }
        }
    }

    /// Taking down the one tight link into router 1 has to reach the
    /// reverse tree through the link's reverse entry, and bringing it
    /// back up has to restore it: a stale entry either puts `best` below
    /// every route left (no answer) or hides the fast arm.
    #[test]
    fn a_tight_link_down_then_up_answers_like_a_fresh_topology() {
        let fresh = |down: bool| {
            let mut t = diamond();
            if down {
                t.set_down(1, 0);
            }
            t
        };
        let mut live = diamond();
        for k in [1, 2] {
            let q = TeQuery {
                k,
                ..TeQuery::default()
            };
            let ask = |t: &TeTopology| t.k_routes(0, Peer::Host(9), &q);
            ask(&live); // compile, so the reports below patch
            live.set_down(1, 0);
            assert!(live.compiled.get().is_some(), "patched, not rebuilt");
            assert_eq!(ask(&live), ask(&fresh(true)), "k = {k}, link down");
            live.set_up(1, 0);
            assert_eq!(ask(&live), ask(&fresh(false)), "k = {k}, link up");
        }
    }

    /// The reverse tree as the binary-heap Dijkstra the [`Ring`]
    /// replaced grows it, reading the edges rather than the reverse
    /// entries: `best`, the labels it leaves, and how many nodes settle.
    fn heap_tree(
        g: &Compiled,
        q: &TeQuery,
        src: u32,
        dst: u32,
        alternates: bool,
    ) -> (Option<u64>, Vec<u64>, u64) {
        let mut to_dst = vec![u64::MAX; g.routers.len()];
        let mut heap = BinaryHeap::new();
        let (mut best, mut radius, mut settled) = (None, u64::MAX, 0);
        if let Some(slot) = to_dst.get_mut(dst as usize) {
            *slot = 0;
        }
        heap.push(Reverse((0, dst)));
        while let Some(Reverse((d, v))) = heap.pop() {
            if d > radius {
                break;
            }
            if v != dst && to_dst[v as usize] != d {
                continue;
            }
            settled += 1;
            if v == src {
                best = Some(d);
                radius = if alternates {
                    stretch_ceiling(d, q.max_stretch_milli).max(d)
                } else {
                    d
                };
            }
            for e in g.edges.iter().filter(|e| e.to == v && e.admitted(q)) {
                let nd = d.saturating_add(e.weight_ns());
                if nd < to_dst[e.from as usize] {
                    to_dst[e.from as usize] = nd;
                    heap.push(Reverse((nd, e.from)));
                }
            }
        }
        (best, to_dst, settled)
    }

    /// Grow the ring tree and the heap tree for one query, at the k = 1
    /// radius and at the k > 1 one, and insist on the same `best`, the
    /// same label for every node, and every node within the radius
    /// settled exactly once: each of them must settle, so a count equal
    /// to theirs leaves no room for a second settle. Returns whether the
    /// ring drained its buckets in label order, or `None` if the
    /// topology does not know `src` or `dst`.
    fn assert_tree_matches_heap(t: &TeTopology, src: u32, dst: Peer, q: &TeQuery) -> Option<bool> {
        let g = t
            .compiled
            .get_or_init(|| Compiled::build(&t.links, t.congestion_milli));
        let (s, d) = g.endpoints(src, dst)?;
        for alternates in [false, true] {
            let mut tree = Tree::new(g, d);
            let mut work = SearchWork::default();
            let best = tree.grow(g, q, s, alternates, &mut work);
            let (heap_best, heap_to_dst, heap_settled) = heap_tree(g, q, s, d, alternates);
            let case = format!("{src} -> {dst:?} under {q:?}, alternates {alternates}");
            assert_eq!(best, heap_best, "{case}");
            assert_eq!(tree.labels, heap_to_dst, "{case}");
            let radius = match best {
                Some(b) if alternates => stretch_ceiling(b, q.max_stretch_milli).max(b),
                Some(b) => b,
                None => u64::MAX,
            };
            let host_dst = d as usize >= g.routers.len();
            let reached = tree.labels.iter().filter(|&&l| l != u64::MAX);
            let within = reached.filter(|&&l| l <= radius).count() as u64 + u64::from(host_dst);
            assert_eq!(work.nodes_settled, within, "{case}");
            assert_eq!(heap_settled, within, "{case}");
        }
        Some(Ring::new(g.min_weight, g.max_weight).ordered)
    }

    #[test]
    fn ring_tree_matches_the_heap_tree_on_generated_topologies() {
        let mut compared = 0;
        for seed in 0..64u64 {
            let mut s = seed ^ 0x0D1A_15EA;
            let n = 4 + below(&mut s, 61) as u32;
            let mut topo = build_topology(splitmix(&mut s), n);
            for _ in 0..12 {
                let src = topo.any_src(&mut s);
                let dst = topo.any_dst(&mut s, src);
                let q = query_from(&mut s);
                assert_tree_matches_heap(&topo.te, src, dst, &q);
                // Reports land on the compiled graph: down links inside
                // the tree come from here.
                topo.report(&mut s);
                compared += 1;
            }
        }
        assert!(compared >= 700);
    }

    /// Give `topo`'s links zero-propagation and 10 s delays among
    /// others: the weight ratio is far past the ring's cap.
    fn spread_past_the_ring_cap(topo: &mut GenTopo, s: &mut u64) {
        for (i, &(r, p)) in topo.links.clone().iter().enumerate() {
            let prop_ns = match i {
                0 => 0,
                1 => 10_000_000_000,
                _ => pick(s, &[0u64, 0, 0, 1_000, 3_000_000, 10_000_000_000]),
            };
            let metrics = LinkMetrics {
                prop_delay: SimDuration::from_nanos(prop_ns),
                ..topo.te.metrics(r, p).unwrap()
            };
            topo.te.set_metrics(r, p, metrics);
        }
    }

    /// A square grid of unit-weight links (no propagation: every link
    /// weighs one decision delay), so every bucket holds exactly one
    /// distance and ties are everywhere, with host 7 on two corners of
    /// it; and every link, in insertion order.
    fn unit_grid() -> (TeTopology, Vec<(u32, u8)>) {
        let unit = LinkMetrics {
            prop_delay: SimDuration::ZERO,
            ..LinkMetrics::basic()
        };
        let mut t = TeTopology::new();
        let mut links = Vec::new();
        for r in 0..SIDE * SIDE {
            let (row, col) = (r / SIDE, r % SIDE);
            let mut port = 0;
            for (ok, peer) in [
                (col + 1 < SIDE, r + 1),
                (col > 0, r.wrapping_sub(1)),
                (row + 1 < SIDE, r + SIDE),
                (row > 0, r.wrapping_sub(SIDE)),
            ] {
                if ok {
                    t.add_link(r, port, Peer::Router(peer), unit);
                    links.push((r, port));
                    port += 1;
                }
            }
        }
        for home in [SIDE * SIDE - 1, SIDE / 2] {
            t.add_link(home, 9, Peer::Host(7), unit);
            links.push((home, 9));
        }
        (t, links)
    }

    /// [`unit_grid`]'s side.
    const SIDE: u32 = 12;

    /// Zero-propagation links beside 10 s ones: the weight ratio is far
    /// past the ring's cap, so the width grows and buckets drain in
    /// label order, gaining labels as they drain.
    #[test]
    fn ring_tree_matches_the_heap_tree_past_the_ring_cap() {
        for seed in 0..32u64 {
            let mut s = seed ^ 0x5B2E_AD00;
            let n = 8 + below(&mut s, 57) as u32;
            let mut topo = build_topology(splitmix(&mut s), n);
            spread_past_the_ring_cap(&mut topo, &mut s);
            for _ in 0..12 {
                let src = topo.any_src(&mut s);
                let dst = topo.any_dst(&mut s, src);
                let q = TeQuery {
                    max_stretch_milli: pick(&mut s, &[0, 1_000, 1_500]),
                    ..query_from(&mut s)
                };
                let ordered = assert_tree_matches_heap(&topo.te, src, dst, &q);
                assert_ne!(ordered, Some(false), "the width did not grow");
                topo.report(&mut s);
            }
        }
    }

    /// A grid of unit-weight links (no propagation: every link weighs
    /// one decision delay), so every bucket holds exactly one distance
    /// and ties are everywhere; between rounds, links of the tree just
    /// grown go down on the compiled graph, and every third round they
    /// all come back. The same queries go through the kept trees too:
    /// the downed links are tight, so they must drop every tree they
    /// fed.
    #[test]
    fn ring_tree_matches_the_heap_tree_on_a_unit_grid() {
        let (mut t, links) = unit_grid();
        let queries = [
            TeQuery::default(),
            TeQuery {
                k: 3,
                max_stretch_milli: 1_500,
                ..TeQuery::default()
            },
        ];
        let dsts = [Peer::Host(7), Peer::Router(SIDE * SIDE / 2 + 3)];
        let mut s = 0x6121_D000u64;
        let mut reused = 0;
        for round in 0..24 {
            for q in &queries {
                for dst in dsts {
                    let src = below(&mut s, (SIDE * SIDE) as usize) as u32;
                    if dst != Peer::Router(src) {
                        assert_eq!(assert_tree_matches_heap(&t, src, dst, q), Some(false));
                        reused += ask_kept(&mut t, src, dst, q).trees_reused;
                    }
                }
            }
            if round % 3 == 2 {
                for &(r, p) in &links {
                    t.set_up(r, p);
                    assert_kept_trees_exact(&t);
                }
                continue;
            }
            let src = below(&mut s, (SIDE * SIDE) as usize) as u32;
            let best = t.k_routes(src, Peer::Host(7), &TeQuery::default());
            for &(r, p) in best.iter().flat_map(|b| &b.hops).step_by(2) {
                t.set_down(r, p);
                assert_kept_trees_exact(&t);
            }
        }
        assert!(reused >= 50, "only {reused} queries read a kept tree");
    }

    /// Insist that every tree `t` keeps is the tree a fresh growth to
    /// its radius leaves: labels within the radius equal a full heap
    /// tree's, every node past it holds the least relaxation over its
    /// links into settled nodes (`u64::MAX` if none), and the frontier
    /// is exactly the nodes holding a finite one. Also checks the byte
    /// count and the recency index.
    fn assert_kept_trees_exact(t: &TeTopology) {
        let Some(g) = t.compiled.get() else {
            assert!(t.parked.trees.is_empty(), "trees kept without a graph");
            return;
        };
        let mut bytes = 0;
        for (&key, (used, tree)) in &t.parked.trees {
            let (dst, min_mtu, min_bandwidth_bps) = key;
            assert_eq!(t.parked.by_use.get(used), Some(&key));
            assert_eq!(tree.dst, dst);
            bytes += tree.bytes();
            let q = TeQuery {
                min_mtu,
                min_bandwidth_bps,
                ..TeQuery::default()
            };
            let (_, full, _) = heap_tree(g, &q, u32::MAX, dst, false);
            assert_eq!(
                tree.labels.len(),
                full.len(),
                "{key:?}: labels of another graph"
            );
            let radius = tree.radius;
            let settled = |v: u32| tree.label(v) != u64::MAX && tree.label(v) <= radius;
            let mut frontier = Vec::new();
            for (v, (&kept, &exact)) in (0u32..).zip(tree.labels.iter().zip(&full)) {
                let case = format!("{key:?}, node {v}, radius {radius}");
                if kept <= radius || exact <= radius {
                    assert_eq!(kept, exact, "{case}");
                    continue;
                }
                let relaxed = g
                    .leaving(v)
                    .filter(|(_, e)| e.admitted(&q) && settled(e.to))
                    .map(|(_, e)| tree.label(e.to).saturating_add(e.weight_ns()))
                    .min()
                    .unwrap_or(u64::MAX);
                assert_eq!(kept, relaxed, "{case}");
                if kept != u64::MAX {
                    frontier.push(v);
                }
            }
            let mut held = tree.frontier.clone();
            held.sort_unstable();
            assert_eq!(held, frontier, "{key:?}: frontier");
        }
        assert_eq!(bytes, t.parked.bytes);
        assert!(bytes <= PARKED_CAP);
        assert_eq!(t.parked.by_use.len(), t.parked.trees.len());
    }

    /// Ask `t` once on a throwaway tree and once on its kept trees, and
    /// insist on the same routes and on every kept tree staying exact.
    fn ask_kept(t: &mut TeTopology, src: u32, dst: Peer, q: &TeQuery) -> SearchWork {
        let fresh = t.k_routes(src, dst, q);
        let (kept, work) = t.k_routes_counted(src, dst, q);
        let kept: Vec<TeRoute> = kept.into_iter().map(|g| g.route).collect();
        assert_eq!(kept, fresh, "{src} -> {dst:?} under {q:?}");
        assert_kept_trees_exact(t);
        work
    }

    /// Every router, nearest to `dst` first (by a full tree without
    /// bounds), then farthest first: each query of the first sweep grows
    /// the kept tree a little, and each of the second finds it grown.
    fn sweep(t: &mut TeTopology, dst: Peer, q: &TeQuery) {
        let g = t
            .compiled
            .get_or_init(|| Compiled::build(&t.links, t.congestion_milli));
        let Some(d) = g.node(dst) else {
            return;
        };
        let (_, full, _) = heap_tree(g, &TeQuery::default(), u32::MAX, d, false);
        let mut by_distance: Vec<(u64, u32)> =
            full.iter().copied().zip(g.routers.clone()).collect();
        by_distance.sort_unstable();
        let order = by_distance.iter().chain(by_distance.iter().rev());
        for &(_, src) in order.filter(|&&(_, r)| dst != Peer::Router(r)) {
            ask_kept(t, src, dst, q);
        }
    }

    /// Query sequences over a few shared destinations — random sources
    /// and sweeps out and back in — with load reports, up/down flips and
    /// structural changes between them; every answer from a kept tree is
    /// the throwaway tree's, and every kept tree stays exact. Returns
    /// how many queries read a kept tree.
    fn kept_trees_answer_like_fresh_ones(topo: &mut GenTopo, s: &mut u64, steps: usize) -> u64 {
        let dsts: Vec<Peer> = (0..3).map(|_| topo.any_dst(s, u32::MAX)).collect();
        let mut reused = 0;
        for _ in 0..steps {
            let dst = pick(s, &dsts);
            match below(s, 16) {
                0..=8 => {
                    let src = topo.any_src(s);
                    if dst != Peer::Router(src) {
                        reused += ask_kept(&mut topo.te, src, dst, &query_from(s)).trees_reused;
                    }
                }
                9 => {
                    let q = TeQuery {
                        k: pick(s, &[1, 3]),
                        max_stretch_milli: pick(s, &[1_000, 1_500]),
                        ..query_from(s)
                    };
                    sweep(&mut topo.te, dst, &q);
                }
                10..=14 => topo.report(s),
                _ => {
                    let link = topo.any_link(s);
                    let metrics = metrics_from(s, topo.delay_range_us);
                    let changed = topo.te.metrics(link.0, link.1) != Some(metrics);
                    topo.te.set_metrics(link.0, link.1, metrics);
                    assert!(
                        !changed || topo.te.parked.trees.is_empty(),
                        "kept across set_metrics"
                    );
                }
            }
            assert_kept_trees_exact(&topo.te);
        }
        reused
    }

    #[test]
    fn kept_trees_answer_like_fresh_ones_on_generated_topologies() {
        let mut reused = 0;
        for seed in 0..40u64 {
            let mut s = seed ^ 0x4E97_7EE5;
            let n = 4 + below(&mut s, 45) as u32;
            let mut topo = build_topology(splitmix(&mut s), n);
            reused += kept_trees_answer_like_fresh_ones(&mut topo, &mut s, 48);
        }
        assert!(reused >= 150, "only {reused} queries read a kept tree");
    }

    /// The same past the ring's cap, where buckets drain in label order
    /// and a growth stops part-way through a wide bucket.
    #[test]
    fn kept_trees_answer_like_fresh_ones_past_the_ring_cap() {
        let mut reused = 0;
        for seed in 0..24u64 {
            let mut s = seed ^ 0x0C4B_11D3;
            let n = 8 + below(&mut s, 41) as u32;
            let mut topo = build_topology(splitmix(&mut s), n);
            spread_past_the_ring_cap(&mut topo, &mut s);
            let g = topo
                .te
                .compiled
                .get_or_init(|| Compiled::build(&topo.te.links, topo.te.congestion_milli));
            assert!(Ring::new(g.min_weight, g.max_weight).ordered);
            reused += kept_trees_answer_like_fresh_ones(&mut topo, &mut s, 32);
        }
        assert!(reused >= 80, "only {reused} queries read a kept tree");
    }

    /// Two links into the destination's router, 1 µs and 1.5 µs of
    /// search weight, fall in one bucket of a ring 1 µs wide. A k = 1
    /// query from the nearer router stops at 1 µs, inside that bucket,
    /// so the farther router is popped past the radius: it must stay on
    /// the frontier, or a query from behind it finds no route.
    #[test]
    fn a_tree_stopped_inside_a_bucket_resumes_from_it() {
        let weigh = |prop_ns| LinkMetrics {
            prop_delay: SimDuration::from_nanos(prop_ns),
            ..LinkMetrics::basic()
        };
        let mut t = TeTopology::new();
        t.add_link(1, 0, Peer::Router(0), weigh(0));
        t.add_link(2, 0, Peer::Router(0), weigh(500));
        t.add_link(3, 0, Peer::Router(2), weigh(0));
        let q = TeQuery::default();
        ask_kept(&mut t, 1, Peer::Router(0), &q);
        let tree = &t.parked.trees.values().next().unwrap().1;
        assert_eq!(
            (tree.radius, tree.labels.clone()),
            (1_000, vec![0, 1_000, 1_500, u64::MAX])
        );
        assert_eq!(tree.frontier, vec![2], "router 2 popped past the radius");
        let routes = ask_kept(&mut t, 3, Peer::Router(0), &q);
        assert_eq!(routes.trees_reused, 1);
        assert_eq!(
            t.k_routes(3, Peer::Router(0), &q)[0].hops,
            vec![(3, 0), (2, 0)]
        );
        // Router 2 and then router 3 settle; the probe walks them.
        assert_eq!(routes.nodes_settled, 2 + 2);
    }

    /// Which mutators keep a tree and which drop it, on the diamond
    /// (labels to host 9: router 3 at 11 µs, 1 and 2 at 22 µs, 0 at 33
    /// µs over the fast arm — its slow arm's first link weighs 51 µs).
    #[test]
    fn reports_drop_only_the_trees_they_can_move() {
        let mut t = diamond();
        let q = TeQuery::default();
        let kept = |t: &TeTopology| t.parked.trees.len();
        ask_kept(&mut t, 0, Peer::Host(9), &q);
        t.set_load_milli(0, 0, 900);
        t.add_load_milli(1, 0, 100);
        assert_eq!(kept(&t), 1, "load is weight-blind");
        t.set_down(0, 1);
        t.set_up(0, 1);
        assert_eq!(kept(&t), 1, "the slow arm is not tight: 22 + 51 > 33");
        t.set_down(0, 0);
        assert_eq!(
            kept(&t),
            0,
            "the fast arm's first link gave router 0 its label"
        );
        ask_kept(&mut t, 0, Peer::Host(9), &q);
        t.set_up(0, 0);
        assert_eq!(kept(&t), 0, "coming back up, it shortens router 0's label");

        // A tree from router 3 has settled only the host and router 3: a
        // flip of a link landing on an unsettled router keeps it.
        ask_kept(&mut t, 3, Peer::Host(9), &q);
        t.set_down(0, 0);
        t.set_up(0, 0);
        assert_eq!(kept(&t), 1, "router 1 has not settled");
        assert_eq!(ask_kept(&mut t, 0, Peer::Host(9), &q).trees_reused, 1);

        // A tree that does not admit the link ignores it.
        let narrow = TeQuery {
            min_bandwidth_bps: 20_000_000,
            ..q
        };
        t.set_metrics(
            0,
            1,
            LinkMetrics {
                bandwidth_bps: 100_000_000,
                ..t.metrics(0, 1).unwrap()
            },
        );
        ask_kept(&mut t, 0, Peer::Host(9), &narrow);
        t.set_down(3, 0);
        t.set_up(3, 0);
        assert_eq!(kept(&t), 1, "a 10 Mb/s link is not in a 20 Mb/s tree");

        // A structural change drops every tree.
        let dear = LinkMetrics {
            cost: 2,
            ..LinkMetrics::basic()
        };
        for change in 0..3 {
            ask_kept(&mut t, 0, Peer::Host(9), &q);
            assert!(kept(&t) >= 1);
            match change {
                0 => t.add_link(2, 1, Peer::Router(1), LinkMetrics::basic()),
                1 => t.set_metrics(2, 1, dear),
                _ => t.set_congestion_threshold(500),
            }
            assert_eq!(kept(&t), 0, "change {change}");
        }
    }

    /// The probe stamp lives across queries, and every stamp a node
    /// holds is one an earlier probe left, below the running one. Wound
    /// to one short of wrapping over stamps of 0 to 3, queries must
    /// still answer like a throwaway scratch: the wrap has to clear the
    /// stamps, or stamp 0 — never banned — and the old stamps the count
    /// comes round to again ban nodes from the probes after it.
    #[test]
    fn queries_across_the_stamp_wrap_answer_like_a_fresh_scratch() {
        for seed in 0..16u64 {
            let mut s = seed ^ 0x57A3_9000;
            let n = 8 + below(&mut s, 41) as u32;
            let mut topo = build_topology(splitmix(&mut s), n);
            let t = &mut topo.te;
            let g = t
                .compiled
                .get_or_init(|| Compiled::build(&t.links, t.congestion_milli));
            t.scratch.fit(g.routers.len());
            for stamp in &mut t.scratch.banned {
                *stamp = below(&mut s, 4) as u32;
            }
            t.scratch.probe = u32::MAX - 1;
            let mut wrapped = false;
            for _ in 0..12 {
                let src = pick(&mut s, &topo.routers);
                let dst = topo.any_dst(&mut s, src);
                let q = TeQuery {
                    k: pick(&mut s, &[2, 3, 4]),
                    ..query_from(&mut s)
                };
                let before = topo.te.scratch.probe;
                ask_kept(&mut topo.te, src, dst, &q);
                wrapped |= topo.te.scratch.probe < before;
            }
            assert!(wrapped, "seed {seed}: the stamp did not wrap");
        }
    }

    /// The cap is in bytes: on a 20 000-router chain a tree is 160 KB
    /// of labels (and one frontier node), so the cap holds eight, and
    /// the ninth destination evicts the least recently used.
    #[test]
    fn kept_trees_stay_within_the_cap_least_recently_used_out_first() {
        const N: u32 = 20_000;
        let mut t = TeTopology::new();
        for r in 0..N - 1 {
            t.add_link(r, 0, Peer::Router(r + 1), LinkMetrics::basic());
            t.add_link(r + 1, 1, Peer::Router(r), LinkMetrics::basic());
        }
        let q = TeQuery::default();
        let ask = |t: &mut TeTopology, dst: u32| t.k_routes_counted(0, Peer::Router(dst), &q).1;
        for dst in 1..=8 {
            assert_eq!(ask(&mut t, dst).trees_reused, 0);
        }
        assert_eq!(t.parked.trees.len(), 8);
        assert_eq!(t.parked.bytes, 8 * (8 * N as usize + 4));
        assert_eq!(ask(&mut t, 1).trees_reused, 1, "refreshes dst 1");
        assert_eq!(ask(&mut t, 9).trees_reused, 0, "evicts dst 2");
        assert_eq!(t.parked.trees.len(), 8);
        assert!(t.parked.bytes <= PARKED_CAP);
        assert_eq!(ask(&mut t, 1).trees_reused, 1);
        assert_eq!(ask(&mut t, 3).trees_reused, 1);
        assert_eq!(ask(&mut t, 2).trees_reused, 0, "dst 2 was evicted");
    }
}
