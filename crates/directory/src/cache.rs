//! Client-side route caching with on-use staleness detection.
//!
//! §3: "The use of caching, on-use detection of stale data and
//! hierarchical structure for the routing information … reduces the
//! expected response time for routing queries and the expected load on
//! directory servers." The cache holds whole advisories; a client that
//! experiences a failure on a cached route *invalidates on use* and
//! re-queries.
//!
//! Entries are additionally keyed by the **topology epoch** they were
//! fetched at ([`crate::te::TeTopology::epoch`]). A TTL alone cannot
//! catch weight or congestion changes — a route computed before a load
//! report may be arbitrarily bad after it — so a lookup presents the
//! current epoch and any entry fetched under an older epoch is treated
//! as stale and dropped, never served.

use std::collections::BTreeMap;

use sirpent_sim::{SimDuration, SimTime};

use crate::name::Name;
use crate::server::Advisory;

/// One cached lookup.
#[derive(Debug, Clone)]
struct CacheEntry {
    advisories: Vec<Advisory>,
    fetched_at: SimTime,
    /// Topology epoch the advisories were computed under.
    epoch: u64,
}

/// Client-side cache of route advisories.
pub struct RouteCache {
    ttl: SimDuration,
    entries: BTreeMap<Name, CacheEntry>,
    /// Cache hits served.
    pub hits: u64,
    /// Misses (expired or absent).
    pub misses: u64,
    /// On-use invalidations after route failures.
    pub invalidations: u64,
    /// Entries dropped because the topology epoch moved past them.
    pub epoch_evictions: u64,
}

impl RouteCache {
    /// A cache whose entries expire after `ttl`.
    pub fn new(ttl: SimDuration) -> RouteCache {
        RouteCache {
            ttl,
            entries: BTreeMap::new(),
            hits: 0,
            misses: 0,
            invalidations: 0,
            epoch_evictions: 0,
        }
    }

    /// Look up advisories for `service` that are fresh at `now` *and*
    /// were fetched under the current topology `epoch`. An entry from
    /// an older epoch is dropped and counted, never served — weight and
    /// congestion updates invalidate routes that a TTL would still
    /// consider live. An entry past its TTL is dropped too: a service
    /// that is never re-queried must not be held forever.
    pub fn get(&mut self, service: &Name, now: SimTime, epoch: u64) -> Option<&[Advisory]> {
        // Decide on copies: the borrow this returns has to be the map's
        // last use, so the arm that removes an entry cannot hold one.
        let held = self.entries.get(service).map(|e| (e.epoch, e.fetched_at));
        match held {
            Some((fetched_under, at)) if fetched_under == epoch && now - at <= self.ttl => {
                self.hits += 1;
                self.entries.get(service).map(|e| e.advisories.as_slice())
            }
            _ => {
                if let Some((fetched_under, _)) = held {
                    self.entries.remove(service);
                    self.epoch_evictions += u64::from(fetched_under != epoch);
                }
                self.misses += 1;
                None
            }
        }
    }

    /// Store a query result fetched at `now` under topology `epoch`
    /// (use [`crate::Directory::topology_epoch`]; 0 when the directory
    /// has no TE topology).
    pub fn put(&mut self, service: Name, advisories: Vec<Advisory>, now: SimTime, epoch: u64) {
        self.entries.insert(
            service,
            CacheEntry {
                advisories,
                fetched_at: now,
                epoch,
            },
        );
    }

    /// On-use staleness: a route from this entry failed; drop the whole
    /// entry so the next send re-queries.
    pub fn invalidate(&mut self, service: &Name) {
        if self.entries.remove(service).is_some() {
            self.invalidations += 1;
        }
    }

    /// Number of cached services.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{AccessSpec, RouteRecord};
    use crate::server::Advisory;

    fn adv(tag: u8) -> Advisory {
        let route = RouteRecord {
            access: AccessSpec {
                host_port: tag,
                ethernet_next: None,
                bandwidth_bps: 1,
                prop_delay: SimDuration::ZERO,
                mtu: 1500,
            },
            hops: vec![],
            endpoint_selector: vec![],
        };
        Advisory {
            props: route.properties(),
            route,
            tokens: vec![],
            reported_load: 0.0,
            residual_bps: 1,
        }
    }

    fn svc() -> Name {
        Name::parse("s.example")
    }

    #[test]
    fn hit_within_ttl_miss_after() {
        let mut c = RouteCache::new(SimDuration::from_secs(10));
        assert!(c.get(&svc(), SimTime::ZERO, 0).is_none());
        c.put(svc(), vec![adv(1)], SimTime::ZERO, 0);
        assert!(c.get(&svc(), SimTime(5_000_000_000), 0).is_some());
        assert!(c.get(&svc(), SimTime(11_000_000_000), 0).is_none());
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 2);
    }

    /// Regression: a TTL-expired entry used to be counted as a miss and
    /// left in place, so `len()` over-reported and a service nobody
    /// asked for again was held forever.
    #[test]
    fn expired_entry_is_dropped_not_just_missed() {
        let mut c = RouteCache::new(SimDuration::from_secs(10));
        c.put(svc(), vec![adv(1)], SimTime::ZERO, 3);
        assert_eq!(c.len(), 1);
        assert!(c.get(&svc(), SimTime(11_000_000_000), 3).is_none());
        assert_eq!(c.len(), 0, "expired entry still held");
        assert_eq!(
            (c.hits, c.misses, c.epoch_evictions, c.invalidations),
            (0, 1, 0, 0),
            "expiry is a plain miss, not an epoch eviction"
        );
        // Expired *and* from an older epoch: still one miss, and the
        // epoch eviction is counted as before.
        c.put(svc(), vec![adv(1)], SimTime::ZERO, 3);
        assert!(c.get(&svc(), SimTime(11_000_000_000), 4).is_none());
        assert_eq!((c.misses, c.epoch_evictions, c.len()), (2, 1, 0));
    }

    #[test]
    fn invalidate_on_use() {
        let mut c = RouteCache::new(SimDuration::from_secs(10));
        c.put(svc(), vec![adv(1)], SimTime::ZERO, 0);
        c.invalidate(&svc());
        assert!(c.get(&svc(), SimTime(1), 0).is_none());
        assert_eq!(c.invalidations, 1);
        // Invalidating a missing entry is a no-op.
        c.invalidate(&svc());
        assert_eq!(c.invalidations, 1);
    }

    /// Regression: before epoch keying, an entry fetched before a
    /// topology-weight change stayed servable for its whole TTL. Now a
    /// lookup under a newer epoch must never see the stale routes.
    #[test]
    fn epoch_bump_evicts_stale_entry_within_ttl() {
        let mut c = RouteCache::new(SimDuration::from_secs(10));
        c.put(svc(), vec![adv(1)], SimTime::ZERO, 7);
        // Same epoch, well within TTL: served.
        assert!(c.get(&svc(), SimTime(1_000), 7).is_some());
        // A weight update bumped the topology epoch; the entry is still
        // within TTL but must not be served.
        assert!(c.get(&svc(), SimTime(2_000), 8).is_none());
        assert_eq!(c.epoch_evictions, 1);
        assert!(c.is_empty(), "stale entry dropped, next send re-queries");
        // Once refilled under the new epoch it serves again.
        c.put(svc(), vec![adv(2)], SimTime(3_000), 8);
        assert!(c.get(&svc(), SimTime(4_000), 8).is_some());
    }

    /// End-to-end with a live directory: a load report on the TE
    /// topology invalidates what was cached before it.
    #[test]
    fn stale_route_never_served_after_directory_report() {
        use crate::te::{LinkMetrics, TeQuery};
        use crate::{Directory, Peer, TeTopology};

        let mut t = TeTopology::new();
        t.add_link(0, 0, Peer::Router(1), LinkMetrics::basic());
        t.add_link(1, 0, Peer::Host(9), LinkMetrics::basic());
        let mut d = Directory::new().with_te(t);

        let access = AccessSpec {
            host_port: 0,
            ethernet_next: None,
            bandwidth_bps: 10_000_000,
            prop_delay: SimDuration::ZERO,
            mtu: 1500,
        };
        let advs = d.te_advisories(0, Peer::Host(9), &TeQuery::default(), &access, &[], 1);
        assert_eq!(advs.len(), 1);

        let mut c = RouteCache::new(SimDuration::from_secs(3600));
        c.put(svc(), advs, SimTime::ZERO, d.topology_epoch());
        assert!(c.get(&svc(), SimTime(1), d.topology_epoch()).is_some());

        // Rate-control feedback arrives: the trunk is loaded. The epoch
        // moves, and the hour-long TTL no longer matters.
        d.report_load(0, 0, 0.9);
        assert!(
            c.get(&svc(), SimTime(2), d.topology_epoch()).is_none(),
            "stale cached route served after an epoch bump"
        );
        assert_eq!(c.epoch_evictions, 1);
    }
}
