//! Logical ports, logical hops, and multicast port mappings (§2.2).
//!
//! "A network can use a port identifier to designate a group of links
//! that are all equivalent from the standpoint of the Sirpent source" —
//! a replicated trunk balanced by local load — or "a port may also
//! designate multiple hops across multiple networks to some common
//! destination", which the router expands into an explicit source route
//! on entry (the Blazenet transit example). Port values can also be
//! "reserved to specify multiple ports, rather than just one port"
//! (multicast mechanism 1), including a broadcast value. And "a Sirpent
//! packet can view the Internet as providing one logical hop across its
//! internetwork" (§2.3): a tunnel value crosses an IP cloud to the
//! router at its far side.

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

use sirpent_wire::ipish;
use sirpent_wire::viper::SegmentRepr;

/// Strategy for picking a member of a replicated-trunk group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrunkStrategy {
    /// The first member whose channel is idle; falls back to the member
    /// that frees soonest ("routed to whichever of the channels was
    /// free").
    FirstFree,
    /// Rotate across members regardless of state.
    RoundRobin,
}

/// What a port value resolves to at this router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortBinding {
    /// An ordinary physical output port (the identity binding).
    Physical(u8),
    /// A replicated trunk: several physical ports treated as one logical
    /// link.
    Trunk {
        /// Physical member ports.
        members: Vec<u8>,
        /// Selection strategy.
        strategy: TrunkStrategy,
    },
    /// A logical hop: the segment is replaced by an explicit multi-hop
    /// source route (spliced onto the front of the packet), whose first
    /// segment then routes out a physical port here.
    Splice(Vec<SegmentRepr>),
    /// Multicast: forward a copy out each listed physical port.
    MulticastSet(Vec<u8>),
    /// Broadcast: forward a copy out every port except the arrival port.
    Broadcast,
    /// One logical hop across the IP cloud behind physical port `via`,
    /// to the router at `remote`: the packet leaves `via` inside an
    /// IP-like datagram from `local`, and a datagram from `remote`
    /// arriving on `via` is a packet arriving on this port value.
    Tunnel {
        /// The physical port facing the cloud.
        via: u8,
        /// This router's address in the cloud.
        local: ipish::Address,
        /// The address of the router at the far side.
        remote: ipish::Address,
    },
}

/// Per-router table of non-identity port bindings.
#[derive(Debug, Clone, Default)]
pub struct LogicalTable {
    entries: Vec<(u8, PortBinding)>,
    rr_state: std::cell::Cell<usize>,
}

impl LogicalTable {
    /// An empty table: every port is physical.
    pub fn new() -> LogicalTable {
        LogicalTable::default()
    }

    /// Bind `port` to something other than itself.
    pub fn bind(&mut self, port: u8, binding: PortBinding) {
        self.entries.retain(|(p, _)| *p != port);
        self.entries.push((port, binding));
    }

    /// Resolve a port value. Returns the identity binding when no entry
    /// exists.
    pub fn resolve(&self, port: u8) -> PortBinding {
        self.entries
            .iter()
            .find(|(p, _)| *p == port)
            .map(|(_, b)| b.clone())
            .unwrap_or(PortBinding::Physical(port))
    }

    /// The tunnels over physical port `via`, as `(port value, local,
    /// remote)`, in binding order.
    pub fn tunnels_via(
        &self,
        via: u8,
    ) -> impl Iterator<Item = (u8, ipish::Address, ipish::Address)> + '_ {
        self.entries.iter().filter_map(move |(port, b)| match *b {
            PortBinding::Tunnel {
                via: v,
                local,
                remote,
            } if v == via => Some((*port, local, remote)),
            _ => None,
        })
    }

    /// Pick a trunk member given each member's next-free time (as
    /// reported by the simulator): first idle member, else the one that
    /// frees soonest. Round-robin ignores the times. `None` when the
    /// trunk has no members.
    pub fn pick_trunk_member(
        &self,
        members: &[u8],
        strategy: TrunkStrategy,
        free_at_ns: impl Fn(u8) -> u64,
        now_ns: u64,
    ) -> Option<u8> {
        match strategy {
            TrunkStrategy::RoundRobin => {
                let i = self.rr_state.get();
                self.rr_state.set(i.wrapping_add(1));
                members.get(i.checked_rem(members.len())?).copied()
            }
            TrunkStrategy::FirstFree => {
                let mut best = *members.first()?;
                let mut best_free = u64::MAX;
                for &m in members {
                    let f = free_at_ns(m);
                    if f <= now_ns {
                        return Some(m); // idle right now
                    }
                    if f < best_free {
                        best_free = f;
                        best = m;
                    }
                }
                Some(best)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_by_default() {
        let t = LogicalTable::new();
        assert_eq!(t.resolve(7), PortBinding::Physical(7));
    }

    #[test]
    fn bindings_override_and_replace() {
        let mut t = LogicalTable::new();
        t.bind(200, PortBinding::MulticastSet(vec![1, 2, 3]));
        assert_eq!(t.resolve(200), PortBinding::MulticastSet(vec![1, 2, 3]));
        t.bind(200, PortBinding::Broadcast);
        assert_eq!(t.resolve(200), PortBinding::Broadcast);
        assert_eq!(t.resolve(201), PortBinding::Physical(201));
    }

    #[test]
    fn trunk_first_free_prefers_idle() {
        let t = LogicalTable::new();
        let members = [1u8, 2, 3];
        // Port 2 idle; others busy.
        let free = |p: u8| match p {
            1 => 500,
            2 => 0,
            _ => 900,
        };
        assert_eq!(
            t.pick_trunk_member(&members, TrunkStrategy::FirstFree, free, 100),
            Some(2)
        );
        // All busy: the soonest-free wins.
        let free = |p: u8| match p {
            1 => 500,
            2 => 400,
            _ => 900,
        };
        assert_eq!(
            t.pick_trunk_member(&members, TrunkStrategy::FirstFree, free, 100),
            Some(2)
        );
    }

    #[test]
    fn trunk_round_robin_cycles() {
        let t = LogicalTable::new();
        let members = [5u8, 6];
        let picks: Vec<u8> = (0..4)
            .filter_map(|_| t.pick_trunk_member(&members, TrunkStrategy::RoundRobin, |_| 0, 0))
            .collect();
        assert_eq!(picks, vec![5, 6, 5, 6]);
    }

    #[test]
    fn splice_binding_carries_route() {
        let mut t = LogicalTable::new();
        let inner = vec![SegmentRepr::minimal(4), SegmentRepr::minimal(9)];
        t.bind(150, PortBinding::Splice(inner.clone()));
        assert_eq!(t.resolve(150), PortBinding::Splice(inner));
    }

    #[test]
    fn tunnels_are_found_by_their_physical_port() {
        let mut t = LogicalTable::new();
        let (local, far, other) = (ipish::Address(1), ipish::Address(2), ipish::Address(3));
        let tunnel = |via, remote| PortBinding::Tunnel { via, local, remote };
        t.bind(100, tunnel(2, far));
        t.bind(101, tunnel(3, other));
        t.bind(102, tunnel(2, other));
        let over_2: Vec<_> = t.tunnels_via(2).collect();
        assert_eq!(over_2, vec![(100, local, far), (102, local, other)]);
        assert_eq!(t.tunnels_via(1).count(), 0);
    }
}
