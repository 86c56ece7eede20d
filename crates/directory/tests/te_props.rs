//! Property suite for the TE constrained route search.
//!
//! Random weighted topologies (see `common`: a ring for connectivity
//! plus random chords and multi-homed hosts, gapped router ids, delay
//! ranges narrow enough that equal-weight paths are common, random
//! loads, random down links) and random attribute bounds; every route
//! `k_routes` returns, to a router or to a host, must:
//!
//! * satisfy each bound in the query exactly (MTU, bandwidth, delay,
//!   cost, stretch),
//! * be loop-free (no router visited twice),
//! * walk real, up links hop by hop and terminate on the destination.
//!
//! Plus the 32-seed determinism contract: the same (topology, query)
//! built twice yields byte-identical route sets — the client spreading
//! logic and the `exp te` digests replay this.

mod common;

use proptest::prelude::*;

use common::{build_topology, query_from};
use sirpent_directory::te::LOAD_SCALE;
use sirpent_directory::{LinkMetrics, Peer};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]
    #[test]
    fn routes_satisfy_bounds_and_are_loop_free(seed in any::<u64>(), n in 4u32..65) {
        let topo = build_topology(seed, n);
        let mut s = seed ^ 0xD1F7;
        let src = topo.any_src(&mut s);
        let dst = topo.any_dst(&mut s, src);
        let q = query_from(&mut s);
        let routes = topo.te.k_routes(src, dst, &q);
        prop_assert!(routes.len() <= q.k.max(1));
        let best_weight = routes.first().map(|r| r.weight_ns()).unwrap_or(0);
        for r in &routes {
            // Loop-free: Yen's algorithm promises loopless paths — a
            // repeated transit router would be a forwarding loop.
            let mut visited: Vec<u32> = r.hops.iter().map(|&(router, _)| router).collect();
            visited.sort_unstable();
            let before = visited.len();
            visited.dedup();
            prop_assert_eq!(before, visited.len(), "route revisits a router: {:?}", r.hops);

            // Hop-by-hop walk: every hop is a live link in the topology,
            // consecutive hops chain, and the last hop lands on dst.
            prop_assert_eq!(r.hops.first().map(|&(router, _)| router), Some(src));
            for (i, &(router, port)) in r.hops.iter().enumerate() {
                let peer = topo.te.peer(router, port);
                prop_assert!(peer.is_some(), "hop {i} names a missing link");
                prop_assert!(
                    !topo.down.contains(&(router, port)),
                    "route crosses a down link ({router}, {port})"
                );
                let expect = match r.hops.get(i + 1) {
                    Some(&(next, _)) => Peer::Router(next),
                    None => dst,
                };
                prop_assert_eq!(peer, Some(expect), "hop {} does not chain", i);
                let m = topo.te.metrics(router, port).unwrap_or(LinkMetrics::basic());
                if q.min_mtu > 0 {
                    prop_assert!(m.mtu >= q.min_mtu);
                }
                if q.min_bandwidth_bps > 0 {
                    prop_assert!(m.bandwidth_bps >= q.min_bandwidth_bps);
                }
            }

            // Aggregate bounds, exactly as the query stated them.
            if q.min_mtu > 0 {
                prop_assert!(r.mtu >= q.min_mtu);
            }
            if q.min_bandwidth_bps > 0 {
                prop_assert!(r.bandwidth_bps >= q.min_bandwidth_bps);
            }
            if let Some(d) = q.max_delay {
                prop_assert!(r.delay <= d);
            }
            if let Some(c) = q.max_cost {
                prop_assert!(r.cost <= c);
            }
            if q.max_stretch_milli > 0 {
                prop_assert!(
                    r.weight_ns() as u128 * LOAD_SCALE as u128
                        <= best_weight as u128 * q.max_stretch_milli as u128,
                    "stretch bound violated: {} vs best {}",
                    r.weight_ns(),
                    best_weight
                );
            }
        }
        // Best-first order is part of the contract the client spreader
        // relies on (routes[0] is the unconstrained shortest).
        for w in routes.windows(2) {
            if let [a, b] = w {
                prop_assert!(a.weight_ns() <= b.weight_ns());
            }
        }
    }
}

/// 32-seed determinism: the same seed builds the same topology twice,
/// and every query returns byte-identical route sets — formatted to
/// strings so any divergence (order, metrics, detour flags) is caught.
#[test]
fn k_route_sets_are_byte_identical_across_rebuilds() {
    for seed in 0u64..32 {
        let n = 6 + (seed * 2 % 59) as u32;
        let a = build_topology(seed.wrapping_mul(0x9E37), n);
        let b = build_topology(seed.wrapping_mul(0x9E37), n);
        assert_eq!(a.te.epoch(), b.te.epoch(), "seed {seed}: epochs diverge");
        let mut s = seed ^ 0xBEEF;
        for _ in 0..8 {
            let src = a.any_src(&mut s);
            let dst = a.any_dst(&mut s, src);
            let q = query_from(&mut s);
            let ra = a.te.k_routes(src, dst, &q);
            let rb = b.te.k_routes(src, dst, &q);
            assert_eq!(
                format!("{ra:?}"),
                format!("{rb:?}"),
                "seed {seed}: route sets diverge for {src}->{dst:?} {q:?}"
            );
        }
    }
}
