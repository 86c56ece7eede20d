//! Route records and their properties.
//!
//! §3: "A client can request and receive multiple routes to a service. It
//! can also request a route with particular properties, such as low
//! delay, high bandwidth, low cost and security. … the directory service
//! can return information on the bandwidth, propagation delay, maximum
//! transmission unit, etc. for each portion of the route it returns.
//! With this information, a client can determine (up to variations in
//! queuing delay) the roundtrip time and MTU for packets on this route."

use sirpent_sim::SimDuration;
use sirpent_wire::ethernet;

/// Security classification of a hop/route (higher = more protected).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Security {
    /// Untrusted shared infrastructure.
    Open,
    /// Administratively controlled links.
    Controlled,
    /// Physically or cryptographically protected path.
    Secure,
}

/// One hop of a registered route, as the directory knows it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopSpec {
    /// The router this hop transits.
    pub router_id: u32,
    /// The output port at that router.
    pub port: u8,
    /// Next-hop station when the hop exits onto an Ethernet.
    pub ethernet_next: Option<EthernetHop>,
    /// Link bandwidth after this hop, bits/sec.
    pub bandwidth_bps: u64,
    /// Propagation delay of the link after this hop.
    pub prop_delay: SimDuration,
    /// MTU of the link after this hop.
    pub mtu: usize,
    /// Administrative cost of using this hop.
    pub cost: u32,
    /// Security classification of the link.
    pub security: Security,
}

/// Addressing information for an Ethernet hop (goes into `portInfo`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetHop {
    /// The router's own station address on that segment.
    pub src: ethernet::Address,
    /// The next router/host station.
    pub dst: ethernet::Address,
}

/// First-hop description: how the *client host* reaches the first router
/// (or the destination directly for 0-hop routes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessSpec {
    /// The host's local port to transmit on.
    pub host_port: u8,
    /// Ethernet addressing if the access network is an Ethernet.
    pub ethernet_next: Option<EthernetHop>,
    /// Access-link bandwidth.
    pub bandwidth_bps: u64,
    /// Access-link propagation delay.
    pub prop_delay: SimDuration,
    /// Access-link MTU.
    pub mtu: usize,
}

/// A route registered with (or computed by) the directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteRecord {
    /// How the client gets onto the first network.
    pub access: AccessSpec,
    /// Transit hops, in order. Empty = destination is on the client's
    /// own network (the §6.2 "0 hops, local" case).
    pub hops: Vec<HopSpec>,
    /// Intra-host selector for the destination endpoint, carried in the
    /// final local segment's portInfo (§2.2: Sirpent unifies inter- and
    /// intra-host addressing).
    pub endpoint_selector: Vec<u8>,
}

/// Aggregated route properties the directory reports with each route.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteProperties {
    /// Bottleneck bandwidth.
    pub bandwidth_bps: u64,
    /// End-to-end propagation delay (one way).
    pub prop_delay: SimDuration,
    /// Path MTU — "there is no need to do MTU discovery" (§2).
    pub mtu: usize,
    /// Sum of hop costs.
    pub cost: u32,
    /// Weakest security class on the path.
    pub security: Security,
    /// Number of router hops.
    pub hops: usize,
}

impl RouteRecord {
    /// Compute the aggregate properties.
    pub fn properties(&self) -> RouteProperties {
        let mut bw = self.access.bandwidth_bps;
        let mut prop = self.access.prop_delay;
        let mut mtu = self.access.mtu;
        let mut cost = 0u32;
        let mut sec = Security::Secure;
        for h in &self.hops {
            bw = bw.min(h.bandwidth_bps);
            prop = prop + h.prop_delay;
            mtu = mtu.min(h.mtu);
            cost = cost.saturating_add(h.cost);
            sec = sec.min(h.security);
        }
        RouteProperties {
            bandwidth_bps: bw,
            prop_delay: prop,
            mtu,
            cost,
            security: sec,
            hops: self.hops.len(),
        }
    }

    /// The base round-trip time for a packet of `bytes` out and an ack of
    /// `ack_bytes` back, excluding queueing — what a client can "determine
    /// (up to variations in queuing delay)" from the advisory (§3).
    pub fn base_rtt(&self, bytes: usize, ack_bytes: usize) -> SimDuration {
        let p = self.properties();
        // Cut-through: transmission time paid once on the bottleneck,
        // propagation paid per link, decision delay per router (bounded
        // by 1 µs each, §6.1).
        let fwd = sirpent_sim::transmission_time(bytes, p.bandwidth_bps)
            + p.prop_delay
            + SimDuration::from_micros(self.hops.len() as u64);
        let back = sirpent_sim::transmission_time(ack_bytes, p.bandwidth_bps)
            + p.prop_delay
            + SimDuration::from_micros(self.hops.len() as u64);
        fwd + back
    }
}

/// What the client optimizes for (§3's "particular properties").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preference {
    /// Minimize propagation delay (transactional traffic).
    LowDelay,
    /// Maximize bottleneck bandwidth (bulk transfer).
    HighBandwidth,
    /// Minimize administrative cost.
    LowCost,
    /// Require the highest available security class.
    Secure,
}

impl Preference {
    /// Sort key: smaller is better.
    pub fn key(self, p: &RouteProperties) -> (i64, i64) {
        match self {
            Preference::LowDelay => (p.prop_delay.as_nanos() as i64, p.cost as i64),
            Preference::HighBandwidth => {
                (-(p.bandwidth_bps as i64), p.prop_delay.as_nanos() as i64)
            }
            Preference::LowCost => (p.cost as i64, p.prop_delay.as_nanos() as i64),
            Preference::Secure => (-(p.security as i64), p.prop_delay.as_nanos() as i64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(router: u32, bw: u64, prop_us: u64, mtu: usize, cost: u32, sec: Security) -> HopSpec {
        HopSpec {
            router_id: router,
            port: 2,
            ethernet_next: None,
            bandwidth_bps: bw,
            prop_delay: SimDuration::from_micros(prop_us),
            mtu,
            cost,
            security: sec,
        }
    }

    fn access() -> AccessSpec {
        AccessSpec {
            host_port: 0,
            ethernet_next: None,
            bandwidth_bps: 10_000_000,
            prop_delay: SimDuration::from_micros(5),
            mtu: 1500,
        }
    }

    #[test]
    fn properties_aggregate_correctly() {
        let r = RouteRecord {
            access: access(),
            hops: vec![
                hop(1, 100_000_000, 100, 1500, 3, Security::Controlled),
                hop(2, 1_000_000, 2000, 576, 7, Security::Open),
            ],
            endpoint_selector: vec![],
        };
        let p = r.properties();
        assert_eq!(p.bandwidth_bps, 1_000_000, "bottleneck");
        assert_eq!(p.prop_delay, SimDuration::from_micros(2105));
        assert_eq!(p.mtu, 576, "path MTU known in advance (§2)");
        assert_eq!(p.cost, 10);
        assert_eq!(p.security, Security::Open, "weakest link");
        assert_eq!(p.hops, 2);
    }

    #[test]
    fn zero_hop_route_is_access_only() {
        let r = RouteRecord {
            access: access(),
            hops: vec![],
            endpoint_selector: vec![],
        };
        let p = r.properties();
        assert_eq!(p.hops, 0);
        assert_eq!(p.bandwidth_bps, 10_000_000);
        assert_eq!(p.security, Security::Secure);
    }

    #[test]
    fn base_rtt_is_plausible() {
        let r = RouteRecord {
            access: access(),
            hops: vec![hop(1, 10_000_000, 100, 1500, 1, Security::Controlled)],
            endpoint_selector: vec![],
        };
        let rtt = r.base_rtt(1000, 64);
        // fwd: 800 µs tx + 105 µs prop; back: 51.2 µs + 105 µs (+ small
        // decision terms).
        let us = rtt.as_micros_f64();
        assert!((1000.0..1200.0).contains(&us), "rtt={us}µs");
    }

    #[test]
    fn preferences_order_routes_differently() {
        let fast_far = RouteProperties {
            bandwidth_bps: 1_000_000_000,
            prop_delay: SimDuration::from_millis(30),
            mtu: 1500,
            cost: 10,
            security: Security::Open,
            hops: 4,
        };
        let slow_near = RouteProperties {
            bandwidth_bps: 1_000_000,
            prop_delay: SimDuration::from_micros(200),
            mtu: 1500,
            cost: 2,
            security: Security::Secure,
            hops: 1,
        };
        assert!(
            Preference::LowDelay.key(&slow_near) < Preference::LowDelay.key(&fast_far),
            "transactional prefers the near route (§3)"
        );
        assert!(
            Preference::HighBandwidth.key(&fast_far) < Preference::HighBandwidth.key(&slow_near)
        );
        assert!(Preference::LowCost.key(&slow_near) < Preference::LowCost.key(&fast_far));
        assert!(Preference::Secure.key(&slow_near) < Preference::Secure.key(&fast_far));
    }
}
