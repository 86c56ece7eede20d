//! An allocation budget for the host data path.
//!
//! Wall-clock figures drift with the VM; heap traffic does not. This
//! test counts every allocation a whole simulation makes while two
//! `SirpentHost`s run request→response transactions through four
//! `ViperRouter`s, divides by the number of transactions, and holds the
//! result to the exact figures it measured when they were last lowered:
//! a change that adds an allocation or a byte per transaction fails it,
//! and one that removes some lowers the pins. A router's forward
//! allocates nothing: the link header is held inline by the frame and
//! the return hop is written straight into the trailer. Nor does a
//! crossing of an IP cloud (§2.3): the tunnel's IP header rides in the
//! link header, and the IP router rewrites its own copy of it.
//!
//! This file is the one place in the repository with `unsafe`: a
//! counting `#[global_allocator]` that forwards to `System`. The counter
//! is a `const`-initialised thread-local, so the test harness's other
//! threads do not count and reading it never allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sirpent::directory::{TeQuery, TokenIssue};
use sirpent::host::{HostPortKind, SirpentHost};
use sirpent::router::ip::{IpConfig, IpRouter, RouteEntry};
use sirpent::router::viper::{AuthConfig, PortConfig, PortKind, ViperConfig};
use sirpent::router::PortBinding;
use sirpent::sim::{NodeId, SimDuration, SimTime, Simulator};
use sirpent::token::{AuthPolicy, TokenMinter};
use sirpent::wire::ipish::Address;
use sirpent::wire::viper::{Flags, Priority, SegmentRepr, PORT_LOCAL};
use sirpent::wire::vmtp::EntityId;
use sirpent::{CompiledRoute, Net};

thread_local! {
    /// (allocations, bytes requested) on this thread.
    static HEAP: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    // `try_with`: a thread being torn down may free and allocate after
    // its thread-locals are gone.
    let _ = HEAP.try_with(|h| {
        let (n, b) = h.get();
        h.set((n + 1, b + bytes as u64));
    });
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only a
// `Cell` in a thread-local with no destructor and no lazy initialiser,
// so it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller guarantees `ptr` came from this allocator —
        // that is, from `System` — with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const RATE: u64 = 100_000_000;
const PROP: SimDuration = SimDuration(5_000);
const ROUTERS: u32 = 4;
const TRANSACTIONS: u64 = 200;
/// Transactions run before counting starts, so the engine's event wheel
/// and every table's first growth steps are behind us and the figure is
/// the steady state's.
const WARM_UP: u64 = 56;
/// One transaction every 2 ms: each finishes long before the next.
const SPACING_NS: u64 = 2_000_000;

/// Run request→response exchanges of `payload` bytes each way over a
/// 2-host / 4-router chain, with 32-byte tokens checked at every hop
/// when `tokens`. Returns [`measure`]'s figures.
fn heap_per_transaction(payload: usize, tokens: bool) -> (u64, u64) {
    let minter = TokenMinter::new(0x0A11_0C8E, 19);
    let mut net = Net::new(19);
    let a = net.host(0xA, vec![(0, HostPortKind::PointToPoint)]);
    let b = net.host(0xB, vec![(0, HostPortKind::PointToPoint)]);
    let mut prev = (a, 0);
    for id in 1..=ROUTERS {
        let mut cfg = ViperConfig::basic(id, &[1, 2]);
        if tokens {
            cfg.auth = Some(AuthConfig {
                key: minter.router_key(id),
                policy: AuthPolicy::Optimistic,
                verify_delay: SimDuration::from_micros(100),
                require_token: true,
            });
        }
        let r = net.viper(cfg);
        net.p2p(prev.0, prev.1, r, 1, RATE, PROP);
        prev = (r, 2);
    }
    net.p2p(prev.0, prev.1, b, 0, RATE, PROP);
    let mut dir = net.directory();
    if tokens {
        dir = dir.with_tokens(TokenIssue {
            minter,
            max_priority: Priority::new(5),
            reverse_ok: true,
            byte_limit: 0,
            expiry_s: 0,
        });
    }
    let route = net
        .routes(&mut dir, a, b, &TeQuery::default(), 7)
        .remove(0)
        .0;
    assert!(!tokens || route.segments[0].port_token.len() == 32);
    measure(net.into_sim(), [a, b], route, payload)
}

/// The port value, at routers 2 and 3, of the tunnel between them.
const TUNNEL: u8 = 100;

/// [`heap_per_transaction`] without tokens, with the link between
/// routers 2 and 3 replaced by a tunnel through one `IpRouter`: every
/// request and reply crosses the cloud as one logical hop.
fn heap_across_a_cloud(payload: usize) -> (u64, u64) {
    let (ip2, ip3) = (Address(0x0A00_0201), Address(0x0A00_0301));
    let mut net = Net::new(19);
    let a = net.host(0xA, vec![(0, HostPortKind::PointToPoint)]);
    let b = net.host(0xB, vec![(0, HostPortKind::PointToPoint)]);
    let routers = [1, 2, 3, 4].map(|id| {
        let mut cfg = ViperConfig::basic(id, &[1, 2]);
        let (via, local, remote) = match id {
            2 => (2, ip2, ip3),
            3 => (1, ip3, ip2),
            _ => return net.viper(cfg),
        };
        let tunnel = PortBinding::Tunnel { via, local, remote };
        cfg.logical.bind(TUNNEL, tunnel);
        net.viper(cfg)
    });
    let port = |port| PortConfig {
        port,
        kind: PortKind::PointToPoint,
        mtu: 1600,
    };
    let route = |dst, out_port| RouteEntry {
        prefix: dst,
        prefix_len: 32,
        out_port,
        next_hop_mac: None,
    };
    let cloud = net.sim.add_node(Box::new(
        IpRouter::new(IpConfig {
            process_delay: SimDuration::from_micros(2),
            ports: vec![port(1), port(2)],
            routes: vec![route(ip2, 1), route(ip3, 2)],
            queue_capacity: 64,
        })
        .expect("ip config"),
    ));
    let [r1, r2, r3, r4] = routers;
    for (from, to) in [((a, 0), (r1, 1)), ((r1, 2), (r2, 1))] {
        net.p2p(from.0, from.1, to.0, to.1, RATE, PROP);
    }
    for (from, to) in [((r2, 2), (cloud, 1)), ((cloud, 2), (r3, 1))] {
        net.p2p(from.0, from.1, to.0, to.1, RATE, PROP);
    }
    for (from, to) in [((r3, 2), (r4, 1)), ((r4, 2), (b, 0))] {
        net.p2p(from.0, from.1, to.0, to.1, RATE, PROP);
    }
    // Out port 2 at every router but router 2, which sends into the
    // tunnel; router 3 hears the tunnel on its port 1.
    let hop = |port| SegmentRepr {
        port,
        flags: Flags {
            vnt: true,
            ..Default::default()
        },
        ..Default::default()
    };
    let route = CompiledRoute {
        host_port: 0,
        first_eth: None,
        segments: vec![
            hop(2),
            hop(TUNNEL),
            hop(2),
            hop(2),
            SegmentRepr::minimal(PORT_LOCAL),
        ],
        recovery: vec![],
        path_mtu: 1564,
        base_rtt: SimDuration::from_millis(1),
        router_ids: vec![],
    };
    measure(net.into_sim(), [a, b], route, payload)
}

/// Run `payload`-byte request→response exchanges from host `a` to host
/// `b` over `route`. Returns (allocations, bytes allocated) per
/// transaction over the [`TRANSACTIONS`] that follow the warm-up.
fn measure(
    mut sim: Simulator,
    [a, b]: [NodeId; 2],
    route: CompiledRoute,
    payload: usize,
) -> (u64, u64) {
    sim.node_mut::<SirpentHost>(a)
        .install_routes(EntityId(0xB), vec![route]);
    sim.node_mut::<SirpentHost>(b).auto_respond = Some(vec![0xA5; payload]);
    for i in 0..WARM_UP + TRANSACTIONS {
        sim.node_mut::<SirpentHost>(a).queue_request(
            SimTime(i * SPACING_NS),
            EntityId(0xB),
            vec![0x5A; payload],
        );
    }

    SirpentHost::start(&mut sim, a);
    sim.run_until(SimTime(WARM_UP * SPACING_NS - 1));
    assert_eq!(sim.node::<SirpentHost>(a).rtt_samples.len() as u64, WARM_UP);
    let before = HEAP.with(Cell::get);
    sim.run_until(SimTime((WARM_UP + TRANSACTIONS) * SPACING_NS));
    let after = HEAP.with(Cell::get);

    let client = sim.node::<SirpentHost>(a);
    assert_eq!(client.rtt_samples.len() as u64, WARM_UP + TRANSACTIONS);
    assert_eq!(client.endpoint().stats.retransmissions, 0);
    (
        (after.0 - before.0) / TRANSACTIONS,
        (after.1 - before.1) / TRANSACTIONS,
    )
}

/// The per-transaction ceilings: the figures this test measured when
/// they were last lowered, the same in debug and release builds. A
/// change that measures less lowers them to match.
struct Budget {
    allocations: u64,
    bytes: u64,
}

impl Budget {
    fn hold(&self, what: &str, (allocations, bytes): (u64, u64)) {
        println!(
            "{what}: {allocations} allocations, {bytes} B per transaction \
             (ceiling {}, {} B)",
            self.allocations, self.bytes
        );
        assert!(
            allocations <= self.allocations,
            "{what}: {allocations} allocations per transaction, ceiling {}",
            self.allocations
        );
        assert!(
            bytes <= self.bytes,
            "{what}: {bytes} B allocated per transaction, ceiling {}",
            self.bytes
        );
    }
}

#[test]
fn small_transactions_without_tokens_stay_in_budget() {
    let budget = Budget {
        allocations: 19,
        bytes: 2_064,
    };
    budget.hold("64 B, no tokens", heap_per_transaction(64, false));
}

#[test]
fn full_size_transactions_with_tokens_stay_in_budget() {
    let budget = Budget {
        allocations: 19,
        bytes: 6_944,
    };
    budget.hold("900 B, 32 B tokens", heap_per_transaction(900, true));
}

/// The same transactions with the middle link replaced by a tunnel
/// across an `IpRouter`: crossing the cloud allocates nothing, so each
/// size costs no more than it does on the chain without the cloud.
#[test]
fn transactions_across_an_ip_cloud_stay_in_budget() {
    let small = Budget {
        allocations: 19,
        bytes: 2_064,
    };
    let large = Budget {
        allocations: 19,
        bytes: 5_408,
    };
    for (payload, budget) in [(64, small), (900, large)] {
        let (allocations, bytes) = heap_per_transaction(payload, false);
        assert!(budget.allocations <= allocations && budget.bytes <= bytes);
        budget.hold(
            &format!("{payload} B across an IP cloud"),
            heap_across_a_cloud(payload),
        );
    }
}
