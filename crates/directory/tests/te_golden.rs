//! The TE search's answers, pinned.
//!
//! `k_routes` promises byte-identical route sets for a given (topology,
//! query) — clients spread flows over them and the TE experiment's
//! digests replay them — so a rewrite of the search is only correct if
//! it returns what the search before it returned, ties included. Three
//! guards:
//!
//! * [`route_sets_match_the_recorded_digest`] folds every route set of
//!   6 144 queries on 512 generated topologies (see `common`) into one
//!   constant. The constant was recorded on the per-query-graph Yen
//!   search this crate shipped before the compiled graph existed; a
//!   change that moves it has changed which routes clients are given.
//! * [`kept_trees_match_the_recorded_digest`] asks the same queries
//!   through a directory, which keeps each destination's reverse tree
//!   from one query to the next across the reports in between, and
//!   must fold to the same constant.
//! * [`patched_topology_answers_like_a_rebuilt_one`] is the guard on
//!   in-place patching: after any interleaving of all seven mutators
//!   and queries, the live topology answers exactly like one built from
//!   scratch to the same final state — on a throwaway reverse tree and
//!   through a directory's kept ones alike.

mod common;

use common::{below, build_topology, metrics_from, pick, query_from, splitmix, GenTopo};
use sirpent_directory::{Directory, Peer, TeQuery, TeRoute, TeTopology};

/// FNV-1a over `bytes`, continuing from `h`.
fn fold(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Recorded on the unmodified parent search; see the module docs.
const GOLDEN: u64 = 0x7f75_ba32_5241_bd83;

/// `te`'s routes through a directory, which keeps the query's reverse
/// tree in `te` for the next query to the same destination.
fn kept_k_routes(te: &mut TeTopology, src: u32, dst: Peer, q: &TeQuery) -> Vec<TeRoute> {
    let mut dir = Directory::new().with_te(std::mem::take(te));
    let routes = dir.te_query(src, dst, q);
    *te = std::mem::take(dir.te_mut().expect("attached"));
    routes
}

/// The golden queries' route sets folded into one digest, each set
/// computed on a throwaway tree or (`kept`) through a directory.
fn golden_digest(kept: bool) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for seed in 0..512u64 {
        let mut s = seed ^ 0x0060_1DE2;
        let n = 4 + below(&mut s, 61) as u32;
        let mut topo = build_topology(splitmix(&mut s), n);
        for _ in 0..12 {
            let src = topo.any_src(&mut s);
            let dst = topo.any_dst(&mut s, src);
            let q = query_from(&mut s);
            let routes = if kept {
                kept_k_routes(&mut topo.te, src, dst, &q)
            } else {
                topo.te.k_routes(src, dst, &q)
            };
            digest = fold(digest, format!("{routes:?}").as_bytes());
            topo.report(&mut s);
        }
    }
    digest
}

#[test]
fn route_sets_match_the_recorded_digest() {
    let digest = golden_digest(false);
    assert_eq!(
        digest, GOLDEN,
        "route sets changed: digest is now {digest:#018x}"
    );
}

#[test]
fn kept_trees_match_the_recorded_digest() {
    let digest = golden_digest(true);
    assert_eq!(
        digest, GOLDEN,
        "kept trees changed route sets: digest is now {digest:#018x}"
    );
}

/// A topology built from scratch to `live`'s current state.
fn rebuilt(live: &GenTopo, threshold: u32) -> TeTopology {
    let mut t = TeTopology::new();
    for &(r, p) in &live.links {
        let (Some(peer), Some(metrics), Some(load)) = (
            live.te.peer(r, p),
            live.te.metrics(r, p),
            live.te.load_milli(r, p),
        ) else {
            panic!("link ({r}, {p}) vanished");
        };
        t.add_link(r, p, peer, metrics);
        t.set_load_milli(r, p, load);
        if live.down.contains(&(r, p)) {
            t.set_down(r, p);
        }
    }
    t.set_congestion_threshold(threshold);
    t
}

#[test]
fn patched_topology_answers_like_a_rebuilt_one() {
    let mut compared = 0;
    for seed in 0..96u64 {
        let mut s = seed ^ 0x09A7_C4ED;
        let n = 4 + below(&mut s, 29) as u32;
        let mut live = build_topology(splitmix(&mut s), n);
        let mut threshold = 800;
        for _ in 0..64 {
            let link = live.any_link(&mut s);
            match below(&mut s, 12) {
                // Structural: a new link (sometimes to a router nobody
                // has named yet), or an existing one rewired — which
                // resets its load and brings it up.
                0 => {
                    let a = below(&mut s, live.routers.len());
                    let peer = match below(&mut s, 4) {
                        0 => Peer::Host(pick(&mut s, &live.hosts)),
                        1 => Peer::Router(3_000_000 + below(&mut s, 4) as u32),
                        _ => Peer::Router(pick(&mut s, &live.routers)),
                    };
                    live.link(&mut s, a, peer);
                }
                1 => {
                    let peer = Peer::Router(pick(&mut s, &live.routers));
                    let metrics = metrics_from(&mut s, live.delay_range_us);
                    live.te.add_link(link.0, link.1, peer, metrics);
                    live.down.remove(&link);
                }
                2 => {
                    let metrics = metrics_from(&mut s, live.delay_range_us);
                    live.te.set_metrics(link.0, link.1, metrics);
                }
                3 => {
                    threshold = pick(&mut s, &[0, 300, 800, 1_000, 1_500]);
                    live.te.set_congestion_threshold(threshold);
                }
                // Reports: load, down, up.
                4..=7 => live.report(&mut s),
                // Queries, so most mutations land on a compiled graph.
                _ => {
                    let src = live.any_src(&mut s);
                    // Half the queries go to one of two destinations,
                    // so kept trees meet the reports in between.
                    let dst = match below(&mut s, 4) {
                        0 => Peer::Host(live.hosts[seed as usize % live.hosts.len()]),
                        1 => Peer::Router(live.routers[0]),
                        _ => live.any_dst(&mut s, src),
                    };
                    let q = query_from(&mut s);
                    let fresh = format!("{:?}", rebuilt(&live, threshold).k_routes(src, dst, &q));
                    let case = format!("seed {seed}: {src} -> {dst:?} under {q:?}");
                    assert_eq!(
                        format!("{:?}", live.te.k_routes(src, dst, &q)),
                        fresh,
                        "{case}"
                    );
                    let kept = kept_k_routes(&mut live.te, src, dst, &q);
                    assert_eq!(format!("{kept:?}"), fresh, "kept tree, {case}");
                    compared += 1;
                }
            }
        }
    }
    assert!(compared > 1_500, "only {compared} queries compared");
}
