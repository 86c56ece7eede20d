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

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

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
#[derive(Debug, Clone, Default)]
pub struct TeTopology {
    links: BTreeMap<(u32, u8), TeLink>,
    epoch: u64,
    congestion_milli: u32,
}

/// Compiled adjacency snapshot used for one query's searches.
struct Graph {
    ids: Vec<u32>,
    /// Per router index: edges in (port) order.
    adj: Vec<Vec<GEdge>>,
}

#[derive(Clone, Copy)]
struct GEdge {
    /// Router index of the next node, or `usize::MAX` for the target.
    to: usize,
    port: u8,
    weight_ns: u64,
    prop_ns: u64,
    bw: u64,
    mtu: usize,
    cost: u32,
    residual_bps: u64,
    congested: bool,
}

/// Virtual node index for the search target.
const TARGET: usize = usize::MAX;

impl TeTopology {
    /// An empty topology with the default congestion threshold (80% of
    /// line rate).
    pub fn new() -> TeTopology {
        TeTopology {
            links: BTreeMap::new(),
            epoch: 0,
            congestion_milli: 800,
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
            self.epoch += 1;
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
        self.epoch += 1;
    }

    /// Replace the static weights of an existing link.
    pub fn set_metrics(&mut self, router: u32, port: u8, metrics: LinkMetrics) {
        if let Some(l) = self.links.get_mut(&(router, port)) {
            if l.metrics != metrics {
                l.metrics = metrics;
                self.epoch += 1;
            }
        }
    }

    /// A load report for one link, in milli-units of the link rate.
    pub fn set_load_milli(&mut self, router: u32, port: u8, milli: u32) {
        if let Some(l) = self.links.get_mut(&(router, port)) {
            if l.load_milli != milli {
                l.load_milli = milli;
                self.epoch += 1;
            }
        }
    }

    /// Accumulate offered load onto a link (rate-control feedback while
    /// flows are being placed).
    pub fn add_load_milli(&mut self, router: u32, port: u8, delta: u32) {
        if delta == 0 {
            return;
        }
        if let Some(l) = self.links.get_mut(&(router, port)) {
            l.load_milli = l.load_milli.saturating_add(delta);
            self.epoch += 1;
        }
    }

    /// A link-failure report.
    pub fn set_down(&mut self, router: u32, port: u8) {
        if let Some(l) = self.links.get_mut(&(router, port)) {
            if !l.down {
                l.down = true;
                self.epoch += 1;
            }
        }
    }

    /// A link-recovery report.
    pub fn set_up(&mut self, router: u32, port: u8) {
        if let Some(l) = self.links.get_mut(&(router, port)) {
            if l.down {
                l.down = false;
                self.epoch += 1;
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

    fn residual_of(l: &TeLink) -> u64 {
        let free = LOAD_SCALE.saturating_sub(l.load_milli) as u64;
        l.metrics.bandwidth_bps / LOAD_SCALE as u64 * free
    }

    /// Compile the adjacency snapshot for one query: up links passing
    /// the per-link prunes (MTU, bandwidth), with edges into the target
    /// redirected to the virtual target node.
    fn graph(&self, dst: Peer, q: &TeQuery) -> Graph {
        // Collect every router id (link owners and router peers), then
        // sort + dedup once — sorted insertion would be quadratic on
        // meshes where peers arrive in arbitrary order.
        let mut ids: Vec<u32> = Vec::with_capacity(self.links.len() * 2);
        for (&(router, _), l) in &self.links {
            ids.push(router);
            if let Peer::Router(r) = l.peer {
                ids.push(r);
            }
        }
        ids.sort_unstable();
        ids.dedup();
        let mut adj: Vec<Vec<GEdge>> = vec![Vec::new(); ids.len()];
        for (&(router, port), l) in &self.links {
            if l.down {
                continue;
            }
            if q.min_mtu > 0 && l.metrics.mtu < q.min_mtu {
                continue;
            }
            if q.min_bandwidth_bps > 0 && l.metrics.bandwidth_bps < q.min_bandwidth_bps {
                continue;
            }
            let to = if l.peer == dst {
                TARGET
            } else {
                match l.peer {
                    Peer::Router(r) => match ids.binary_search(&r) {
                        Ok(i) => i,
                        Err(_) => continue,
                    },
                    Peer::Host(_) => continue, // hosts don't transit
                }
            };
            let Ok(from) = ids.binary_search(&router) else {
                continue;
            };
            let prop_ns = l.metrics.prop_delay.as_nanos();
            let Some(row) = adj.get_mut(from) else {
                continue;
            };
            row.push(GEdge {
                to,
                port,
                weight_ns: prop_ns + HOP_NS,
                prop_ns,
                bw: l.metrics.bandwidth_bps,
                mtu: l.metrics.mtu,
                cost: l.metrics.cost,
                residual_bps: Self::residual_of(l),
                congested: l.load_milli >= self.congestion_milli,
            });
        }
        Graph { ids, adj }
    }

    /// Constrained k-shortest loopless routes from `src` (a router id)
    /// to `dst`, best first. Routes satisfy every bound in `q`; an empty
    /// result means no feasible route exists. `dst` may be a host or a
    /// router (the route then terminates on the link landing on it).
    pub fn k_routes(&self, src: u32, dst: Peer, q: &TeQuery) -> Vec<TeRoute> {
        if dst == Peer::Router(src) {
            return vec![TeRoute {
                hops: Vec::new(),
                delay: SimDuration::ZERO,
                bandwidth_bps: u64::MAX,
                mtu: usize::MAX,
                cost: 0,
                residual_bps: u64::MAX,
                congested_hops: 0,
                detour: false,
            }];
        }
        let g = self.graph(dst, q);
        let Ok(src_idx) = g.ids.binary_search(&src) else {
            return Vec::new();
        };
        let k = q.k.max(1);

        let no_edges: BTreeSet<(usize, u8)> = BTreeSet::new();
        let no_nodes: BTreeSet<usize> = BTreeSet::new();
        let Some(best) = g.shortest(src_idx, q, &no_edges, &no_nodes, false) else {
            return Vec::new();
        };
        let best_weight = best.weight_ns();
        let mut accepted: Vec<TeRoute> = vec![best];
        // Candidate pool, ordered by (weight, hops) — a total order, so
        // equal-weight spurs pop deterministically.
        let mut pool: BTreeSet<(u64, Vec<(usize, u8)>)> = BTreeSet::new();
        let mut seen: BTreeSet<Vec<(usize, u8)>> = BTreeSet::new();
        let mut accepted_idx: Vec<Vec<(usize, u8)>> = Vec::new();
        if let Some(r) = accepted.first() {
            if let Some(ih) = g.index_hops(&r.hops) {
                seen.insert(ih.clone());
                accepted_idx.push(ih);
            }
        }

        while accepted.len() < k {
            let Some(prev) = accepted_idx.last().cloned() else {
                break;
            };
            // Spur from every position of the previously accepted path.
            for i in 0..prev.len() {
                let Some(root) = prev.get(..i) else {
                    continue;
                };
                let spur_node = if i == 0 {
                    src_idx
                } else {
                    match g.node_after(src_idx, root) {
                        Some(n) => n,
                        None => continue,
                    }
                };
                let mut banned_edges: BTreeSet<(usize, u8)> = BTreeSet::new();
                for a in &accepted_idx {
                    if a.get(..i) == Some(root) {
                        if let Some(&(n, p)) = a.get(i) {
                            banned_edges.insert((n, p));
                        }
                    }
                }
                let mut banned_nodes: BTreeSet<usize> = BTreeSet::new();
                let mut walk = src_idx;
                banned_nodes.insert(src_idx);
                for &(n, p) in root {
                    let _ = n;
                    if let Some(next) = g.step(walk, p) {
                        if next != TARGET {
                            banned_nodes.insert(next);
                        }
                        walk = next;
                    }
                }
                banned_nodes.remove(&spur_node);
                let Some(spur) = g.shortest(spur_node, q, &banned_edges, &banned_nodes, false)
                else {
                    continue;
                };
                let Some(spur_idx) = g.index_hops(&spur.hops) else {
                    continue;
                };
                let mut full: Vec<(usize, u8)> = root.to_vec();
                full.extend_from_slice(&spur_idx);
                if seen.contains(&full) {
                    continue;
                }
                let Some(total) = g.rebuild(src_idx, &full) else {
                    continue;
                };
                seen.insert(full.clone());
                pool.insert((total.weight_ns(), full));
            }
            let Some(first) = pool.iter().next().cloned() else {
                break;
            };
            pool.remove(&first);
            let (_, hops_idx) = first;
            let Some(route) = g.rebuild(src_idx, &hops_idx) else {
                continue;
            };
            // Stretch bound, all-integer: weight × 1000 ≤ best × stretch.
            if q.max_stretch_milli > 0
                && route.weight_ns().saturating_mul(LOAD_SCALE as u64)
                    > best_weight.saturating_mul(q.max_stretch_milli as u64)
            {
                continue;
            }
            accepted_idx.push(hops_idx);
            accepted.push(route);
        }

        if q.avoid_congested {
            let crosses = accepted.iter().any(|r| r.congested_hops > 0);
            let have_clean = accepted.iter().any(|r| r.congested_hops == 0);
            if crosses && !have_clean {
                if let Some(mut det) = g.shortest(src_idx, q, &no_edges, &no_nodes, true) {
                    let within_stretch = q.max_stretch_milli == 0
                        || det.weight_ns().saturating_mul(LOAD_SCALE as u64)
                            <= best_weight.saturating_mul(q.max_stretch_milli as u64);
                    let duplicate = accepted.iter().any(|r| r.hops == det.hops);
                    if within_stretch && !duplicate {
                        det.detour = true;
                        if accepted.len() >= k {
                            accepted.pop();
                        }
                        accepted.push(det);
                    }
                }
            }
        }

        // Final exact filters on reconstructed metrics.
        accepted.retain(|r| {
            let delay_ok = q.max_delay.map(|d| r.delay <= d).unwrap_or(true);
            let cost_ok = q.max_cost.map(|c| r.cost <= c).unwrap_or(true);
            delay_ok && cost_ok
        });
        accepted.sort_by(|a, b| (a.weight_ns(), &a.hops).cmp(&(b.weight_ns(), &b.hops)));
        accepted
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

impl Graph {
    /// Where one edge leads (by output port) from `node`.
    fn step(&self, node: usize, port: u8) -> Option<usize> {
        self.adj
            .get(node)?
            .iter()
            .find(|e| e.port == port)
            .map(|e| e.to)
    }

    /// The node reached from `src` after walking `hops` (indexed form).
    fn node_after(&self, src: usize, hops: &[(usize, u8)]) -> Option<usize> {
        let mut at = src;
        for &(_, port) in hops {
            at = self.step(at, port)?;
            if at == TARGET {
                return None; // root path already terminated
            }
        }
        Some(at)
    }

    /// Convert (router-id, port) hops to (node-index, port) hops.
    fn index_hops(&self, hops: &[(u32, u8)]) -> Option<Vec<(usize, u8)>> {
        hops.iter()
            .map(|&(r, p)| self.ids.binary_search(&r).ok().map(|i| (i, p)))
            .collect()
    }

    /// Early-exit Dijkstra from `src` to the target, honoring banned
    /// edges (Yen spur exclusions), banned nodes (root-path loop
    /// prevention), and — when `skip_congested` — congested links.
    /// Deterministic: the heap is keyed (dist, node), relaxations are
    /// strict, and adjacency is in port order.
    fn shortest(
        &self,
        src: usize,
        q: &TeQuery,
        banned_edges: &BTreeSet<(usize, u8)>,
        banned_nodes: &BTreeSet<usize>,
        skip_congested: bool,
    ) -> Option<TeRoute> {
        let n = self.ids.len();
        let slack = q
            .max_delay
            .map(|d| d.as_nanos().saturating_add(64 * HOP_NS))
            .unwrap_or(u64::MAX);
        let mut dist: Vec<u64> = vec![u64::MAX; n];
        let mut from: Vec<Option<(usize, u8)>> = vec![None; n];
        let mut target_best: Option<(u64, usize, u8)> = None;
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        if let Some(d) = dist.get_mut(src) {
            *d = 0;
        }
        heap.push(Reverse((0, src)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if let Some((bd, _, _)) = target_best {
                if d >= bd {
                    break; // every remaining label is no better
                }
            }
            if dist.get(u).map(|&x| d > x).unwrap_or(true) {
                continue;
            }
            let Some(edges) = self.adj.get(u) else {
                continue;
            };
            for e in edges {
                if skip_congested && e.congested {
                    continue;
                }
                if banned_edges.contains(&(u, e.port)) {
                    continue;
                }
                let nd = d.saturating_add(e.weight_ns);
                if nd > slack {
                    continue;
                }
                if e.to == TARGET {
                    let better = match target_best {
                        None => true,
                        Some((bd, bu, bp)) => (nd, u, e.port) < (bd, bu, bp),
                    };
                    if better {
                        target_best = Some((nd, u, e.port));
                    }
                    continue;
                }
                if banned_nodes.contains(&e.to) {
                    continue;
                }
                let improves = dist.get(e.to).map(|&x| nd < x).unwrap_or(false);
                if improves {
                    if let Some(slot) = dist.get_mut(e.to) {
                        *slot = nd;
                    }
                    if let Some(slot) = from.get_mut(e.to) {
                        *slot = Some((u, e.port));
                    }
                    heap.push(Reverse((nd, e.to)));
                }
            }
        }
        let (_, last_node, last_port) = target_best?;
        // Walk predecessors back to src.
        let mut rev: Vec<(usize, u8)> = vec![(last_node, last_port)];
        let mut at = last_node;
        while at != src {
            let Some(&Some((p, port))) = from.get(at) else {
                return None;
            };
            rev.push((p, port));
            at = p;
        }
        rev.reverse();
        self.rebuild_raw(&rev)
    }

    /// Reconstruct full route metrics from indexed hops.
    fn rebuild_raw(&self, hops_idx: &[(usize, u8)]) -> Option<TeRoute> {
        let mut delay_ns = 0u64;
        let mut bw = u64::MAX;
        let mut mtu = usize::MAX;
        let mut cost = 0u32;
        let mut residual = u64::MAX;
        let mut congested = 0usize;
        let mut hops: Vec<(u32, u8)> = Vec::with_capacity(hops_idx.len());
        for &(node, port) in hops_idx {
            let e = self.adj.get(node)?.iter().find(|e| e.port == port)?;
            delay_ns += e.prop_ns;
            bw = bw.min(e.bw);
            mtu = mtu.min(e.mtu);
            cost = cost.saturating_add(e.cost);
            residual = residual.min(e.residual_bps);
            congested += usize::from(e.congested);
            hops.push((*self.ids.get(node)?, port));
        }
        Some(TeRoute {
            hops,
            delay: SimDuration::from_nanos(delay_ns),
            bandwidth_bps: bw,
            mtu,
            cost,
            residual_bps: residual,
            congested_hops: congested,
            detour: false,
        })
    }

    /// Rebuild and validate a candidate path (loop check included).
    fn rebuild(&self, src: usize, hops_idx: &[(usize, u8)]) -> Option<TeRoute> {
        // Loopless check: src plus every intermediate node must be
        // distinct (the target is virtual and cannot repeat).
        let mut visited: BTreeSet<usize> = BTreeSet::new();
        visited.insert(src);
        let mut at = src;
        for (pos, &(node, port)) in hops_idx.iter().enumerate() {
            if node != at {
                return None; // disconnected hop sequence
            }
            let next = self.step(node, port)?;
            if next == TARGET {
                if pos + 1 != hops_idx.len() {
                    return None; // terminated early
                }
                break;
            }
            if !visited.insert(next) {
                return None; // loop
            }
            at = next;
        }
        self.rebuild_raw(hops_idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
