//! Seeded topology and query generator shared by the TE search suites
//! (`te_props.rs`, `te_golden.rs`).
//!
//! A generated topology is a bidirectional ring (so every router reaches
//! every other through links that are never taken down) plus random
//! chords and host attachments. It is built to hit what a search can get
//! wrong: router ids are gapped and handed out in shuffled order, so
//! neither ring position nor insertion order follows id order; ports are
//! gapped; per-topology delay ranges of 1, 2 and 3 µs make equal-weight
//! paths the common case; hosts are multi-homed and some share their
//! number with a router.

#![allow(dead_code)]

use std::collections::BTreeSet;

use sirpent_directory::te::LOAD_SCALE;
use sirpent_directory::{LinkMetrics, Peer, TeQuery, TeTopology};
use sirpent_sim::SimDuration;

/// SplitMix64 step — the house seed-expansion primitive.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A draw in `0..n`.
pub fn below(s: &mut u64, n: usize) -> usize {
    (splitmix(s) % n.max(1) as u64) as usize
}

/// One of `items`, by seed.
pub fn pick<T: Copy>(s: &mut u64, items: &[T]) -> T {
    items[below(s, items.len())]
}

/// Varied per-link metrics; the delay is 1..=`delay_range_us` µs.
pub fn metrics_from(s: &mut u64, delay_range_us: u64) -> LinkMetrics {
    LinkMetrics {
        bandwidth_bps: pick(s, &[1_000_000u64, 10_000_000, 10_000_000, 100_000_000]),
        mtu: pick(s, &[576usize, 1500, 1500, 9000]),
        prop_delay: SimDuration::from_micros(1 + splitmix(s) % delay_range_us),
        cost: 1 + (splitmix(s) % 4) as u32,
        ..LinkMetrics::basic()
    }
}

/// A generated topology plus the bookkeeping the suites need.
pub struct GenTopo {
    /// The topology under test.
    pub te: TeTopology,
    /// Router ids by ring position (not sorted).
    pub routers: Vec<u32>,
    /// Attached host numbers.
    pub hosts: Vec<u32>,
    /// Every `(router, port)` link, in insertion order.
    pub links: Vec<(u32, u8)>,
    /// Links currently marked down.
    pub down: BTreeSet<(u32, u8)>,
    /// Link delays are drawn from 1..=this many µs.
    pub delay_range_us: u64,
    next_port: Vec<u8>,
}

impl GenTopo {
    /// Wire a new link from the router at ring position `a` to `peer`
    /// on its next free port. `None` once the router is out of ports.
    pub fn link(&mut self, s: &mut u64, a: usize, peer: Peer) -> Option<(u32, u8)> {
        let router = *self.routers.get(a)?;
        let slot = self.next_port.get_mut(a)?;
        let port = *slot;
        *slot = port.checked_add(1 + (splitmix(s) % 3) as u8)?;
        let metrics = metrics_from(s, self.delay_range_us);
        self.te.add_link(router, port, peer, metrics);
        self.links.push((router, port));
        Some((router, port))
    }

    /// Mark a link down (tracked).
    pub fn set_down(&mut self, link: (u32, u8)) {
        self.te.set_down(link.0, link.1);
        self.down.insert(link);
    }

    /// Mark a link up (tracked).
    pub fn set_up(&mut self, link: (u32, u8)) {
        self.te.set_up(link.0, link.1);
        self.down.remove(&link);
    }

    /// A random existing link.
    pub fn any_link(&self, s: &mut u64) -> (u32, u8) {
        pick(s, &self.links)
    }

    /// A random source router — now and then one the topology has never
    /// heard of.
    pub fn any_src(&self, s: &mut u64) -> u32 {
        if below(s, 24) == 0 {
            4_000_000_000
        } else {
            pick(s, &self.routers)
        }
    }

    /// A random destination other than `src`'s own router: a router, an
    /// attached host, or (rarely) a peer no link leads to.
    pub fn any_dst(&self, s: &mut u64, src: u32) -> Peer {
        match below(s, 24) {
            0 => Peer::Host(4_000_000_000),
            1 => Peer::Router(4_000_000_001),
            d if d % 2 == 0 => Peer::Host(pick(s, &self.hosts)),
            _ => {
                let others: Vec<u32> = self.routers.iter().copied().filter(|&r| r != src).collect();
                Peer::Router(pick(s, &others))
            }
        }
    }

    /// One random load report or up/down transition — the mutators a
    /// running directory sees between queries.
    pub fn report(&mut self, s: &mut u64) {
        let link = self.any_link(s);
        match below(s, 4) {
            0 => self.set_down(link),
            1 => {
                let downed: Vec<(u32, u8)> = self.down.iter().copied().collect();
                let link = if downed.is_empty() {
                    link
                } else {
                    pick(s, &downed)
                };
                self.set_up(link);
            }
            2 => self
                .te
                .set_load_milli(link.0, link.1, below(s, 1_200) as u32),
            _ => self.te.add_load_milli(link.0, link.1, below(s, 400) as u32),
        }
    }
}

/// Build a connected random topology of `n` routers: the ring, anything
/// from no chords (long routes) to `n` of them, `1 + n/8` hosts on one
/// to three routers each, a random load on every link, and a quarter of
/// the chords and an eighth of the hosts' second and third links taken
/// down.
pub fn build_topology(seed: u64, n: u32) -> GenTopo {
    let mut s = seed;
    let n = n as usize;
    let mut routers: Vec<u32> = Vec::with_capacity(n);
    let mut id = below(&mut s, 50) as u32;
    for _ in 0..n {
        routers.push(id);
        id += 1 + below(&mut s, 1_000) as u32;
    }
    for i in (1..n).rev() {
        routers.swap(i, below(&mut s, i + 1));
    }
    let mut t = GenTopo {
        te: TeTopology::new(),
        next_port: (0..n).map(|_| below(&mut s, 4) as u8).collect(),
        delay_range_us: pick(&mut s, &[1, 2, 3, 50]),
        routers,
        hosts: Vec::new(),
        links: Vec::new(),
        down: BTreeSet::new(),
    };
    for i in 0..n {
        let j = (i + 1) % n;
        let (a, b) = (t.routers[i], t.routers[j]);
        t.link(&mut s, i, Peer::Router(b));
        t.link(&mut s, j, Peer::Router(a));
    }
    let mut droppable: Vec<(u32, u8)> = Vec::new();
    for _ in 0..below(&mut s, n + 1) {
        let (a, b) = (below(&mut s, n), below(&mut s, n));
        if a != b {
            let peer = Peer::Router(t.routers[b]);
            droppable.extend(t.link(&mut s, a, peer));
        }
    }
    for h in 0..1 + n / 8 {
        // Every other host takes a router's number: `Peer::Host(7)` and
        // `Peer::Router(7)` are different peers.
        let host = if h % 2 == 0 {
            pick(&mut s, &t.routers)
        } else {
            500_000 + h as u32
        };
        t.hosts.push(host);
        for home in 0..1 + below(&mut s, 3) {
            let a = below(&mut s, n);
            let link = t.link(&mut s, a, Peer::Host(host));
            if home > 0 && below(&mut s, 2) == 0 {
                droppable.extend(link);
            }
        }
    }
    // Against the default 80 % threshold: a third, a fifth or a ninth of
    // the links start congested.
    let load_range = LOAD_SCALE as usize * pick(&mut s, &[12, 10, 9]) / 10;
    for (r, p) in t.links.clone() {
        t.te.set_load_milli(r, p, below(&mut s, load_range) as u32);
    }
    for link in droppable {
        if below(&mut s, 4) == 0 {
            t.set_down(link);
        }
    }
    t
}

/// A query with bounds drawn from the seed stream — at least half the
/// draws leave each bound open so both pruned and unpruned searches are
/// exercised.
pub fn query_from(s: &mut u64) -> TeQuery {
    TeQuery {
        k: 1 + below(s, 4),
        min_mtu: pick(s, &[0usize, 0, 576, 1500]),
        min_bandwidth_bps: pick(s, &[0u64, 0, 0, 5_000_000]),
        max_delay: match below(s, 4) {
            0 => Some(SimDuration::from_micros(2 + splitmix(s) % 250)),
            1 => Some(SimDuration::from_millis(10)),
            _ => None,
        },
        max_cost: match below(s, 3) {
            0 => Some(4 + (splitmix(s) % 120) as u32),
            _ => None,
        },
        max_stretch_milli: pick(s, &[0u32, 1200, 1500, 2500]),
        avoid_congested: below(s, 2) == 0,
    }
}
