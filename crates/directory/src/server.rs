//! The internetwork routing directory service.
//!
//! §3: "The global internetwork directory service is extended in Sirpent
//! to provide routes to a host or service, given its character-string
//! name. … the routes to a service can be regarded as just one of many
//! attributes of the service." The directory also issues the authorizing
//! tokens with each route, maintains "reasonably up-to-date load
//! information on links using reports received from network monitoring
//! stations, individual routers and sources experiencing problems", and
//! aggregates the routers' accounting ledgers.
//!
//! The hierarchy of region servers (Singh's scheme) is modelled by the
//! region math in [`crate::name`]: a query's latency grows with the
//! region distance between client and service, and the per-region
//! delegation counters record how many levels were traversed.

use std::collections::BTreeMap;

use sirpent_sim::SimDuration;
use sirpent_telemetry::names;
use sirpent_telemetry::{Registry, RegistryError};
use sirpent_token::{Accounting, Grant, TokenMinter};
use sirpent_wire::viper::Priority;

use crate::name::Name;
use crate::route::{AccessSpec, Preference, RouteProperties, RouteRecord};
use crate::te::{Granted, TeQuery, TeRoute, TeTopology, LOAD_SCALE};

/// A route advisory returned to a client.
#[derive(Debug, Clone)]
pub struct Advisory {
    /// The route itself.
    pub route: RouteRecord,
    /// Its aggregate properties — bandwidth, delay, MTU, cost, security
    /// (§3: the client learns RTT and MTU up front).
    pub props: RouteProperties,
    /// Sealed port tokens, one per hop (empty when the directory has no
    /// minting authority configured).
    pub tokens: Vec<Vec<u8>>,
    /// Current worst-case reported load along the route (1.0 = the
    /// link's capacity).
    pub reported_load: f64,
    /// Advertised residual capacity of the route's bottleneck link,
    /// bits/sec — what TE clients weight their per-flow route choice
    /// by. Equal to the bottleneck bandwidth when no load is known.
    pub residual_bps: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct LinkStatus {
    down: bool,
    load: f64,
}

/// Result of a query, including the cost model for obtaining it.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Matching advisories, best first under the requested preference.
    pub advisories: Vec<Advisory>,
    /// Region levels traversed to resolve the query (0 = same region —
    /// served by the local region server).
    pub region_levels: usize,
    /// Modeled time to obtain this answer without a cache ("acquiring a
    /// route requires a full round trip to the region server", §3 fn 10).
    pub latency: SimDuration,
}

/// Token-minting configuration for advisories.
pub struct TokenIssue {
    /// The domain minter.
    pub minter: TokenMinter,
    /// Priority ceiling granted on issued tokens.
    pub max_priority: Priority,
    /// Whether return-direction use is granted.
    pub reverse_ok: bool,
    /// Byte budget per token (0 = unlimited).
    pub byte_limit: u32,
    /// Expiry (simulation seconds; 0 = never).
    pub expiry_s: u32,
}

/// The directory service.
pub struct Directory {
    /// Registered routes per service, tagged by the client region they
    /// serve.
    records: BTreeMap<Name, Vec<(Name, RouteRecord)>>,
    /// Reported link state, read by [`Directory::query`] only: a TE
    /// advisory reads the TE map it was computed on.
    links: BTreeMap<(u32, u8), LinkStatus>,
    issue: Option<TokenIssue>,
    te: Option<TeTopology>,
    /// Aggregated usage collected from router ledgers.
    pub billing: Accounting,
    /// Base RTT to a same-region server.
    pub base_query_rtt: SimDuration,
    /// Additional RTT per region level traversed.
    pub per_level_rtt: SimDuration,
    /// Total queries served.
    pub queries: u64,
    /// Queries that had to climb at least one region level.
    pub delegated_queries: u64,
    /// TE queries served.
    pub te_queries: u64,
    /// Routes returned across all TE queries.
    pub te_routes_returned: u64,
    /// Congestion detours inserted into returned TE route sets.
    pub te_detours: u64,
    /// TE queries with no feasible route under the client's bounds.
    pub te_infeasible: u64,
    /// Goal-directed searches run across all TE queries (first path,
    /// Yen spurs, detours) — with `te_nodes_settled`, what the queries
    /// cost in units no clock or RNG touches.
    pub te_searches: u64,
    /// Nodes settled across all TE queries, probes and reverse trees
    /// alike — new settles only: a query that grows a kept tree counts
    /// the nodes it added, and one the kept tree already covers counts
    /// none for it.
    pub te_nodes_settled: u64,
    /// TE queries answered from a reverse tree kept from an earlier
    /// query to the same destination under the same link bounds.
    pub te_trees_reused: u64,
}

impl Directory {
    /// An empty directory with default latency model (0.5 ms local,
    /// +1 ms per region level).
    pub fn new() -> Directory {
        Directory {
            records: BTreeMap::new(),
            links: BTreeMap::new(),
            issue: None,
            te: None,
            billing: Accounting::new(),
            base_query_rtt: SimDuration::from_micros(500),
            per_level_rtt: SimDuration::from_millis(1),
            queries: 0,
            delegated_queries: 0,
            te_queries: 0,
            te_routes_returned: 0,
            te_detours: 0,
            te_infeasible: 0,
            te_searches: 0,
            te_nodes_settled: 0,
            te_trees_reused: 0,
        }
    }

    /// Enable token issuance.
    pub fn with_tokens(mut self, issue: TokenIssue) -> Directory {
        self.issue = Some(issue);
        self
    }

    /// Attach a weighted TE topology: the directory then computes
    /// constrained k-shortest routes on demand ([`Directory::te_query`])
    /// instead of only serving registered records, and link reports
    /// bump the topology epoch so client caches can detect staleness.
    pub fn with_te(mut self, te: TeTopology) -> Directory {
        self.te = Some(te);
        self
    }

    /// The attached TE topology, if any.
    pub fn te(&self) -> Option<&TeTopology> {
        self.te.as_ref()
    }

    /// Mutable access to the TE topology (monitoring stations push
    /// weight updates through here; every mutation bumps the epoch).
    pub fn te_mut(&mut self) -> Option<&mut TeTopology> {
        self.te.as_mut()
    }

    /// Current topology epoch (0 when no TE topology is attached).
    /// Route caches key entries by this value.
    pub fn topology_epoch(&self) -> u64 {
        self.te.as_ref().map(|t| t.epoch()).unwrap_or(0)
    }

    /// Register a route to `service` usable by clients within
    /// `client_region`.
    pub fn register_route(&mut self, service: &Name, client_region: Name, route: RouteRecord) {
        self.records
            .entry(service.clone())
            .or_default()
            .push((client_region, route));
    }

    /// A router/monitor load report for one link. With a TE topology
    /// attached the report also updates the link weight there, bumping
    /// the topology epoch. A load that is not a finite number (NaN, ±∞)
    /// is refused and changes nothing.
    pub fn report_load(&mut self, router_id: u32, port: u8, load: f64) {
        if !load.is_finite() {
            return;
        }
        let load = load.clamp(0.0, 1.0);
        self.links.entry((router_id, port)).or_default().load = load;
        if let Some(te) = self.te.as_mut() {
            te.set_load_milli(router_id, port, (load * LOAD_SCALE as f64) as u32);
        }
    }

    /// A link-failure report ("individual routers and sources
    /// experiencing problems with routes they are using", §6.3).
    pub fn report_down(&mut self, router_id: u32, port: u8) {
        self.links.entry((router_id, port)).or_default().down = true;
        if let Some(te) = self.te.as_mut() {
            te.set_down(router_id, port);
        }
    }

    /// A link-recovery report.
    pub fn report_up(&mut self, router_id: u32, port: u8) {
        self.links.entry((router_id, port)).or_default().down = false;
        if let Some(te) = self.te.as_mut() {
            te.set_up(router_id, port);
        }
    }

    /// Fold a router's accounting ledger into the billing aggregate.
    pub fn collect_accounting(&mut self, ledger: &Accounting) {
        self.billing.merge(ledger);
    }

    fn route_status(&self, route: &RouteRecord) -> (bool, f64) {
        let mut down = false;
        let mut load: f64 = 0.0;
        for h in &route.hops {
            if let Some(st) = self.links.get(&(h.router_id, h.port)) {
                down |= st.down;
                load = load.max(st.load);
            }
        }
        (down, load)
    }

    /// One sealed port token per hop of `route`, charged to `account`
    /// (empty when the directory has no minter).
    fn mint_tokens(&mut self, route: &RouteRecord, account: u32) -> Vec<Vec<u8>> {
        let Some(issue) = self.issue.as_mut() else {
            return Vec::new();
        };
        route
            .hops
            .iter()
            .map(|h| {
                issue
                    .minter
                    .mint(Grant {
                        router_id: h.router_id,
                        port: h.port,
                        max_priority: issue.max_priority,
                        reverse_ok: issue.reverse_ok,
                        account,
                        byte_limit: issue.byte_limit,
                        expiry_s: issue.expiry_s,
                    })
                    .to_vec()
            })
            .collect()
    }

    /// Query routes from `client` to `service` with a preference.
    /// Returns up to `max_routes` advisories, best first; routes through
    /// links reported down are excluded, heavily loaded routes are
    /// deprioritized.
    pub fn query(
        &mut self,
        client: &Name,
        service: &Name,
        pref: Preference,
        max_routes: usize,
        account: u32,
    ) -> QueryResult {
        self.queries += 1;
        let levels = client.region_distance(service);
        if levels > 0 {
            self.delegated_queries += 1;
        }
        let latency = self.base_query_rtt + self.per_level_rtt.times(levels as u64);

        let mut candidates: Vec<(RouteRecord, RouteProperties, f64)> = Vec::new();
        if let Some(routes) = self.records.get(service) {
            for (region, route) in routes {
                if !client.within(region) {
                    continue;
                }
                let (down, load) = self.route_status(route);
                if down {
                    continue;
                }
                candidates.push((route.clone(), route.properties(), load));
            }
        }
        candidates.sort_by_key(|(_, p, load)| {
            let overloaded = *load > 0.9;
            (overloaded, pref.key(p))
        });
        candidates.truncate(max_routes);

        let advisories = candidates
            .into_iter()
            .map(|(route, props, load)| {
                let tokens = self.mint_tokens(&route, account);
                let free = (LOAD_SCALE as f64 * (1.0 - load)) as u64;
                Advisory {
                    props,
                    reported_load: load,
                    residual_bps: props.bandwidth_bps / LOAD_SCALE as u64 * free,
                    tokens,
                    route,
                }
            })
            .collect();

        QueryResult {
            advisories,
            region_levels: levels,
            latency,
        }
    }

    /// Compute constrained k-shortest routes from a client's first
    /// router to `dst` on the attached TE topology. Returns raw
    /// [`TeRoute`]s, best first; empty when no topology is attached or
    /// no feasible route exists.
    ///
    /// The topology keeps the query's reverse tree, so a later query to
    /// the same destination grows it instead of building another; the
    /// routes are those [`TeTopology::k_routes`] returns.
    pub fn te_query(&mut self, src_router: u32, dst: crate::Peer, q: &TeQuery) -> Vec<TeRoute> {
        let granted = self.te_granted(src_router, dst, q);
        granted.into_iter().map(|g| g.route).collect()
    }

    /// [`Directory::te_query`]'s routes, each with its hop specs and
    /// peak reported load, counted into the TE counters.
    fn te_granted(&mut self, src_router: u32, dst: crate::Peer, q: &TeQuery) -> Vec<Granted> {
        self.te_queries += 1;
        let (routes, work) = self
            .te
            .as_mut()
            .map(|t| t.k_routes_counted(src_router, dst, q))
            .unwrap_or_default();
        self.te_searches += work.searches;
        self.te_nodes_settled += work.nodes_settled;
        self.te_trees_reused += work.trees_reused;
        self.te_routes_returned += routes.len() as u64;
        self.te_detours += routes.iter().filter(|g| g.route.detour).count() as u64;
        if routes.is_empty() {
            self.te_infeasible += 1;
        }
        routes
    }

    /// Like [`Directory::te_query`], but materializes full advisories:
    /// route records (with the client's access link), aggregate
    /// properties, per-hop tokens (when minting is configured), and the
    /// advertised residual capacity. Each record is the one
    /// [`TeTopology::record`] builds for the route, read from the links
    /// the search walked, so every route returned becomes an advisory.
    pub fn te_advisories(
        &mut self,
        src_router: u32,
        dst: crate::Peer,
        q: &TeQuery,
        access: &AccessSpec,
        endpoint_selector: &[u8],
        account: u32,
    ) -> Vec<Advisory> {
        let granted = self.te_granted(src_router, dst, q);
        let mut advisories = Vec::with_capacity(granted.len());
        for g in granted {
            let route = RouteRecord {
                access: access.clone(),
                hops: g.hops,
                endpoint_selector: endpoint_selector.to_vec(),
            };
            let tokens = self.mint_tokens(&route, account);
            advisories.push(Advisory {
                props: route.properties(),
                reported_load: f64::from(g.load_milli) / f64::from(LOAD_SCALE),
                residual_bps: g.route.residual_bps,
                tokens,
                route,
            });
        }
        advisories
    }

    /// Publish the directory's TE counters into a telemetry registry.
    pub fn publish_telemetry(&self, reg: &mut Registry) -> Result<(), RegistryError> {
        reg.publish_count(names::TE_QUERIES_TOTAL, self.te_queries)?;
        reg.publish_count(names::TE_ROUTES_RETURNED_TOTAL, self.te_routes_returned)?;
        reg.publish_count(names::TE_DETOURS_TOTAL, self.te_detours)?;
        reg.publish_count(names::TE_INFEASIBLE_TOTAL, self.te_infeasible)?;
        reg.publish_count(names::TE_EPOCH_BUMPS_TOTAL, self.topology_epoch())?;
        reg.publish_count(names::TE_SEARCHES_TOTAL, self.te_searches)?;
        reg.publish_count(names::TE_NODES_SETTLED_TOTAL, self.te_nodes_settled)?;
        reg.publish_count(names::TE_TREES_REUSED_TOTAL, self.te_trees_reused)?;
        Ok(())
    }
}

impl Default for Directory {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{AccessSpec, HopSpec, Security};

    fn access() -> AccessSpec {
        AccessSpec {
            host_port: 0,
            ethernet_next: None,
            bandwidth_bps: 10_000_000,
            prop_delay: SimDuration::from_micros(5),
            mtu: 1500,
        }
    }

    fn hop(router: u32, port: u8, bw: u64, prop_us: u64, cost: u32) -> HopSpec {
        HopSpec {
            router_id: router,
            port,
            ethernet_next: None,
            bandwidth_bps: bw,
            prop_delay: SimDuration::from_micros(prop_us),
            mtu: 1500,
            cost,
            security: Security::Controlled,
        }
    }

    fn route(hops: Vec<HopSpec>) -> RouteRecord {
        RouteRecord {
            access: access(),
            hops,
            endpoint_selector: vec![],
        }
    }

    fn names() -> (Name, Name) {
        (
            Name::parse("venus.cs.stanford.edu"),
            Name::parse("printsrv.cs.stanford.edu"),
        )
    }

    #[test]
    fn query_returns_multiple_routes_best_first() {
        let (client, service) = names();
        let mut d = Directory::new();
        let near = route(vec![hop(1, 2, 1_000_000, 100, 1)]);
        let far = route(vec![hop(2, 3, 100_000_000, 5000, 9)]);
        d.register_route(&service, Name::parse("stanford.edu"), near.clone());
        d.register_route(&service, Name::parse("stanford.edu"), far.clone());

        let r = d.query(&client, &service, Preference::LowDelay, 4, 1);
        assert_eq!(r.advisories.len(), 2, "multiple routes (§3)");
        assert_eq!(r.advisories[0].route, near, "low delay first");

        let r = d.query(&client, &service, Preference::HighBandwidth, 4, 1);
        assert_eq!(r.advisories[0].route, far, "bandwidth first");
    }

    #[test]
    fn region_scoping_filters_routes() {
        let (client, service) = names();
        let mut d = Directory::new();
        d.register_route(
            &service,
            Name::parse("mit.edu"),
            route(vec![hop(9, 1, 1, 1, 1)]),
        );
        let r = d.query(&client, &service, Preference::LowDelay, 4, 1);
        assert!(
            r.advisories.is_empty(),
            "routes registered for another region don't apply"
        );
    }

    #[test]
    fn down_links_excluded_loaded_links_deprioritized() {
        let (client, service) = names();
        let mut d = Directory::new();
        let via1 = route(vec![hop(1, 2, 10_000_000, 100, 1)]);
        let via2 = route(vec![hop(2, 2, 10_000_000, 200, 1)]);
        d.register_route(&service, Name::root(), via1.clone());
        d.register_route(&service, Name::root(), via2.clone());

        // Load on router 1's link pushes via1 behind via2 despite delay.
        d.report_load(1, 2, 0.95);
        let r = d.query(&client, &service, Preference::LowDelay, 4, 1);
        assert_eq!(r.advisories[0].route, via2);
        assert!((r.advisories[1].reported_load - 0.95).abs() < 1e-9);

        // Failure removes via1 entirely.
        d.report_down(1, 2);
        let r = d.query(&client, &service, Preference::LowDelay, 4, 1);
        assert_eq!(r.advisories.len(), 1);
        assert_eq!(r.advisories[0].route, via2);

        // Recovery restores it.
        d.report_up(1, 2);
        d.report_load(1, 2, 0.0);
        let r = d.query(&client, &service, Preference::LowDelay, 4, 1);
        assert_eq!(r.advisories.len(), 2);
        assert_eq!(r.advisories[0].route, via1);
    }

    #[test]
    fn query_latency_grows_with_region_distance() {
        let mut d = Directory::new();
        let local_c = Name::parse("a.cs.stanford.edu");
        let local_s = Name::parse("b.cs.stanford.edu");
        let remote_s = Name::parse("x.lcs.mit.edu");
        d.register_route(&local_s, Name::root(), route(vec![]));
        d.register_route(&remote_s, Name::root(), route(vec![]));

        let near = d.query(&local_c, &local_s, Preference::LowDelay, 1, 1);
        let far = d.query(&local_c, &remote_s, Preference::LowDelay, 1, 1);
        assert_eq!(near.region_levels, 2);
        assert_eq!(far.region_levels, 6);
        assert!(far.latency > near.latency);
        assert_eq!(d.queries, 2);
        assert_eq!(d.delegated_queries, 2);
    }

    #[test]
    fn tokens_minted_per_hop() {
        let (client, service) = names();
        let minter = TokenMinter::new(0xFEED_FACE, 3);
        let key1 = minter.router_key(1);
        let key2 = minter.router_key(2);
        let mut d = Directory::new().with_tokens(TokenIssue {
            minter,
            max_priority: Priority::new(5),
            reverse_ok: true,
            byte_limit: 0,
            expiry_s: 0,
        });
        d.register_route(
            &service,
            Name::root(),
            route(vec![hop(1, 2, 1, 1, 1), hop(2, 4, 1, 1, 1)]),
        );
        let r = d.query(&client, &service, Preference::LowDelay, 1, 42);
        let adv = &r.advisories[0];
        assert_eq!(adv.tokens.len(), 2, "one token per hop (§5)");
        let b1 = key1.unseal(&adv.tokens[0]).unwrap();
        assert_eq!(b1.port, 2);
        assert_eq!(b1.account, 42);
        let b2 = key2.unseal(&adv.tokens[1]).unwrap();
        assert_eq!(b2.port, 4);
        assert!(b2.reverse_ok);
        // Cross-checking fails: hop-1 token does not verify at router 2.
        assert!(key2.unseal(&adv.tokens[0]).is_err());
    }

    fn te_diamond() -> crate::TeTopology {
        use crate::te::LinkMetrics;
        use crate::Peer;
        let mut t = crate::TeTopology::new();
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
    fn te_query_serves_routes_and_reports_feed_the_topology() {
        let mut d = Directory::new().with_te(te_diamond());
        let q = TeQuery {
            k: 2,
            ..TeQuery::default()
        };
        let routes = d.te_query(0, crate::Peer::Host(9), &q);
        assert_eq!(routes.len(), 2);
        assert_eq!(d.te_queries, 1);
        assert_eq!(d.te_routes_returned, 2);

        // A load report reaches the TE view and bumps the epoch …
        let e = d.topology_epoch();
        d.report_load(1, 0, 0.95);
        assert!(d.topology_epoch() > e, "weight change bumps the epoch");

        // … so an avoid-congested query detours around the hot trunk.
        let q = TeQuery {
            k: 1,
            avoid_congested: true,
            ..TeQuery::default()
        };
        let routes = d.te_query(0, crate::Peer::Host(9), &q);
        assert_eq!(routes.len(), 1);
        assert_eq!(routes[0].congested_hops, 0);
        assert!(d.te_detours >= 1);

        // A down report removes the arm entirely.
        d.report_down(0, 1);
        d.report_down(1, 0);
        let routes = d.te_query(0, crate::Peer::Host(9), &TeQuery::default());
        assert!(routes.is_empty());
        assert_eq!(d.te_infeasible, 1);
    }

    #[test]
    fn te_advisories_mint_tokens_and_carry_residual() {
        let minter = TokenMinter::new(0xFEED_FACE, 3);
        let key = minter.router_key(0);
        let mut d = Directory::new()
            .with_te(te_diamond())
            .with_tokens(TokenIssue {
                minter,
                max_priority: Priority::new(5),
                reverse_ok: true,
                byte_limit: 0,
                expiry_s: 0,
            });
        d.te_mut().unwrap().set_load_milli(0, 0, 250);
        let q = TeQuery {
            k: 1,
            ..TeQuery::default()
        };
        let advs = d.te_advisories(0, crate::Peer::Host(9), &q, &access(), &[7], 42);
        assert_eq!(advs.len(), 1);
        let adv = &advs[0];
        assert_eq!(adv.route.hops.len(), 3, "one HopSpec per transit hop");
        assert_eq!(adv.tokens.len(), 3, "one token per hop (§5)");
        assert_eq!(adv.residual_bps, 7_500_000, "10 Mb/s × 0.75 bottleneck");
        assert_eq!(adv.reported_load, 0.25);
        assert_eq!(adv.route.endpoint_selector, vec![7]);
        let b = key.unseal(&adv.tokens[0]).unwrap();
        assert_eq!(b.account, 42);
        assert_eq!(b.port, adv.route.hops[0].port);
    }

    /// Regression: `RouteRecord::properties` summed hop costs with `+=`
    /// while the search saturates, so a route over two half-range links
    /// panicked on its way out of `te_advisories` in a debug build and
    /// wrapped to 0 in a release one.
    #[test]
    fn te_advisory_cost_saturates_like_the_search() {
        use crate::te::LinkMetrics;
        use crate::Peer;
        let dear = LinkMetrics {
            cost: u32::MAX / 2 + 1,
            ..LinkMetrics::basic()
        };
        let mut t = crate::TeTopology::new();
        t.add_link(0, 0, Peer::Router(1), dear);
        t.add_link(1, 0, Peer::Host(9), dear);
        let mut d = Directory::new().with_te(t);
        let q = TeQuery::default();
        let routes = d.te_query(0, Peer::Host(9), &q);
        let advs = d.te_advisories(0, Peer::Host(9), &q, &access(), &[], 0);
        assert_eq!((routes.len(), advs.len()), (1, 1));
        assert_eq!(routes[0].cost, u32::MAX);
        assert_eq!(advs[0].props.cost, u32::MAX);
    }

    #[test]
    fn te_counters_publish_under_registered_names() {
        let mut d = Directory::new().with_te(te_diamond());
        d.te_query(0, crate::Peer::Host(9), &TeQuery::default());
        let mut reg = Registry::new();
        d.publish_telemetry(&mut reg).unwrap();
        assert_eq!(reg.counter("te_queries_total"), 1);
        assert_eq!(reg.counter("te_routes_returned_total"), 1);
        // One reverse tree (the host and all four routers) and one
        // probe down the fast arm (three routers).
        assert_eq!(reg.counter("te_searches_total"), 1);
        assert_eq!(reg.counter("te_nodes_settled_total"), 5 + 3);
        assert_eq!(reg.counter("te_trees_reused_total"), 0);
    }

    /// The second query to host 9 reads the tree the first one grew to
    /// every router, so all it settles is its probe's two routers (1,
    /// then 3).
    #[test]
    fn a_second_query_to_a_destination_reuses_its_tree() {
        let mut d = Directory::new().with_te(te_diamond());
        d.te_query(0, crate::Peer::Host(9), &TeQuery::default());
        let routes = d.te_query(1, crate::Peer::Host(9), &TeQuery::default());
        assert_eq!(routes[0].hops, vec![(1, 0), (3, 0)]);
        let mut reg = Registry::new();
        d.publish_telemetry(&mut reg).unwrap();
        assert_eq!(reg.counter("te_trees_reused_total"), 1);
        assert_eq!(reg.counter("te_searches_total"), 2);
        assert_eq!(reg.counter("te_nodes_settled_total"), (5 + 3) + 2);
    }

    /// Regression: `f64::clamp` passes NaN through and `(NaN × 1000) as
    /// u32` is 0, so a NaN report marked a loaded link idle (and stored
    /// NaN in the status map); ±∞ clamped to a full or an idle link.
    #[test]
    fn a_load_report_that_is_not_a_number_changes_nothing() {
        let (client, service) = names();
        let mut d = Directory::new().with_te(te_diamond());
        d.register_route(&service, Name::root(), route(vec![hop(1, 0, 1, 1, 1)]));
        d.report_load(1, 0, 0.9);
        let epoch = d.topology_epoch();
        for load in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            d.report_load(1, 0, load);
            let te = d.te().unwrap();
            assert_eq!(te.load_milli(1, 0), Some(900), "{load}");
            assert!(te.congested(1, 0), "{load}");
            assert_eq!(d.topology_epoch(), epoch, "{load}");
            let r = d.query(&client, &service, Preference::LowDelay, 1, 1);
            assert_eq!(r.advisories[0].reported_load, 0.9, "{load}");
        }
    }

    #[test]
    fn billing_aggregates_router_ledgers() {
        let mut d = Directory::new();
        let mut l1 = Accounting::new();
        l1.charge(7, 1000);
        let mut l2 = Accounting::new();
        l2.charge(7, 500);
        l2.charge(8, 100);
        d.collect_accounting(&l1);
        d.collect_accounting(&l2);
        assert_eq!(d.billing.usage(7).bytes, 1500);
        assert_eq!(d.billing.usage(8).packets, 1);
    }
}
