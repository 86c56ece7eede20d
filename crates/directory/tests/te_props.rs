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
//!
//! And the advisory contract: a directory builds each advisory's route
//! record and reported load from the compiled links its search walked,
//! and over any interleaving of load reports, flaps, weight changes and
//! new links they must be exactly what [`TeTopology::record`] and the
//! per-hop [`TeTopology::load_milli`] maximum read from the link map.

mod common;

use proptest::prelude::*;

use common::{below, build_topology, metrics_from, pick, query_from, splitmix, GenTopo};
use sirpent_directory::te::LOAD_SCALE;
use sirpent_directory::{AccessSpec, Directory, LinkMetrics, Peer, Security};
use sirpent_sim::SimDuration;

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

/// Run `f` on a directory holding `topo`'s topology, kept trees and
/// probe scratch included, and hand the topology back.
fn through_directory<R>(topo: &mut GenTopo, f: impl FnOnce(&mut Directory) -> R) -> R {
    let mut dir = Directory::new().with_te(std::mem::take(&mut topo.te));
    let r = f(&mut dir);
    topo.te = std::mem::take(dir.te_mut().expect("attached"));
    r
}

/// Ask for advisories on `topo` and insist that each carries the record
/// [`TeTopology::record`] builds for the route a throwaway search finds,
/// that route's peak reported load and its residual, and that every
/// route returned became an advisory.
fn assert_advisories_match_the_link_map(topo: &mut GenTopo, s: &mut u64) -> usize {
    let src = topo.any_src(s);
    let dst = topo.any_dst(s, src);
    let q = query_from(s);
    let access = AccessSpec {
        host_port: 1,
        ethernet_next: None,
        bandwidth_bps: 10_000_000,
        prop_delay: SimDuration::from_micros(3),
        mtu: 1500,
    };
    let selector = [below(s, 256) as u8];
    let routes = topo.te.k_routes(src, dst, &q);
    let (advisories, returned) = through_directory(topo, |dir| {
        let advisories = dir.te_advisories(src, dst, &q, &access, &selector, 7);
        (advisories, dir.te_routes_returned)
    });
    let case = format!("{src} -> {dst:?} under {q:?}");
    assert_eq!(advisories.len(), routes.len(), "{case}");
    assert_eq!(returned, advisories.len() as u64, "{case}");
    for (adv, r) in advisories.iter().zip(&routes) {
        let record = topo.te.record(r, access.clone(), selector.to_vec());
        assert_eq!(Some(&adv.route), record.as_ref(), "{case}");
        let load = r
            .hops
            .iter()
            .filter_map(|&(router, port)| topo.te.load_milli(router, port))
            .max()
            .unwrap_or(0);
        let reported = f64::from(load) / f64::from(LOAD_SCALE);
        assert_eq!(adv.reported_load, reported, "{case}");
        assert_eq!(adv.residual_bps, r.residual_bps, "{case}");
        assert_eq!(adv.props, adv.route.properties(), "{case}");
    }
    advisories.len()
}

/// One mutation of the kinds a running directory sees: a load report or
/// flap, new static weights (security, MTU and cost among them) or a
/// new link.
fn mutate(topo: &mut GenTopo, s: &mut u64) {
    match below(s, 8) {
        0..=4 => topo.report(s),
        5 | 6 => {
            let (router, port) = topo.any_link(s);
            let metrics = LinkMetrics {
                security: pick(s, &[Security::Open, Security::Controlled, Security::Secure]),
                ..metrics_from(s, topo.delay_range_us)
            };
            topo.te.set_metrics(router, port, metrics);
        }
        _ => {
            let (a, b) = (below(s, topo.routers.len()), below(s, topo.routers.len()));
            let peer = if below(s, 3) == 0 {
                Peer::Host(pick(s, &topo.hosts))
            } else {
                Peer::Router(topo.routers[b])
            };
            topo.link(s, a, peer);
        }
    }
}

/// 64 generated topologies, each through 40 steps that alternate at
/// random between advisory queries and mutations.
#[test]
fn advisory_records_and_loads_are_the_link_maps() {
    let mut advised = 0;
    for seed in 0..64u64 {
        let mut s = seed ^ 0xAD71_5025;
        let n = 4 + below(&mut s, 45) as u32;
        let mut topo = build_topology(splitmix(&mut s), n);
        for _ in 0..40 {
            if below(&mut s, 2) == 0 {
                advised += assert_advisories_match_the_link_map(&mut topo, &mut s);
            } else {
                mutate(&mut topo, &mut s);
            }
        }
    }
    assert!(advised >= 1_000, "only {advised} advisories compared");
}
