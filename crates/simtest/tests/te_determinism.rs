//! The TE determinism suite: the heavy-traffic workload must be a pure
//! function of its spec at every level.
//!
//! * **Plan determinism, 32 seeds** — `te::plan` run twice on the same
//!   spec yields byte-identical output: same `routes_digest` (an
//!   order-sensitive fold over every k-route set the directory
//!   returned) and the same flows, formatted to strings so any
//!   divergence in placement, route choice, or timing is caught.
//! * **Delivery, 32 seeds** — a planned crowd on each seed-derived
//!   mesh (ring, grid and random-regular shapes all appear) delivers
//!   every packet it injects.
//! * **Run determinism, 32 seeds** — running the same planned crowd
//!   twice yields the same report, digest included.
//! * **k-independence** — shortest-path-only planning (`k = 1`) agrees
//!   with the first route of the k-constrained plan on hop counts,
//!   because the constrained search's weight is load-blind and sorted
//!   best-first.

use sirpent_simtest::te;
use sirpent_simtest::{TeWorkload, TopoShape};

#[test]
fn plan_is_byte_identical_across_32_seeds() {
    for seed in 0u64..32 {
        let spec = TeWorkload::small(seed);
        let a = te::plan(&spec);
        let b = te::plan(&spec);
        assert_eq!(
            a.routes_digest, b.routes_digest,
            "seed {seed}: directory returned different k-route sets"
        );
        assert_eq!(
            format!("{:?}", a.flows),
            format!("{:?}", b.flows),
            "seed {seed}: flow plans diverge"
        );
        assert_eq!(
            (a.unroutable, a.detours, a.queries, a.epoch),
            (b.unroutable, b.detours, b.queries, b.epoch),
            "seed {seed}: plan statistics diverge"
        );
        assert!(
            !a.flows.is_empty(),
            "seed {seed}: vacuous — no flow was planned"
        );
    }
}

#[test]
fn run_delivers_every_packet_across_32_seeds() {
    let mut shapes = [0usize; 3];
    for seed in 0..32u64 {
        let spec = TeWorkload::from_seed(seed);
        shapes[match spec.shape {
            TopoShape::Ring => 0,
            TopoShape::Grid { .. } => 1,
            TopoShape::Random { .. } => 2,
        }] += 1;
        let report = te::run(&spec, &te::plan(&spec));
        assert!(report.injected_pkts > 0, "seed {seed}: vacuous crowd");
        assert_eq!(
            report.delivered_pkts, report.injected_pkts,
            "seed {seed}: the routers lost packets"
        );
    }
    assert!(shapes.iter().all(|&n| n > 0), "shapes seen: {shapes:?}");
}

#[test]
fn run_twice_is_identical_across_32_seeds() {
    for seed in 0..32u64 {
        let spec = TeWorkload::from_seed(seed);
        let plan = te::plan(&spec);
        assert_eq!(
            te::run(&spec, &plan),
            te::run(&spec, &plan),
            "seed {seed}: rerun diverged"
        );
    }
}

#[test]
fn first_constrained_route_matches_shortest_path() {
    for seed in [5u64, 23] {
        let spec = TeWorkload::small(seed);
        let sp = te::plan(&spec.shortest_path_only());
        let full = te::plan(&spec);
        // Same placements (src, dst, size) regardless of k — route
        // choice must not perturb the workload itself.
        let sp_keys: Vec<(usize, usize, u32)> =
            sp.flows.iter().map(|f| (f.src, f.dst, f.pkts)).collect();
        let full_keys: Vec<(usize, usize, u32)> =
            full.flows.iter().map(|f| (f.src, f.dst, f.pkts)).collect();
        assert_eq!(sp_keys, full_keys, "seed {seed}: workloads diverge with k");
        // And the stretch base every flow records is the k=1 hop count.
        for (a, b) in sp.flows.iter().zip(full.flows.iter()) {
            assert_eq!(
                a.hops, b.sp_hops,
                "seed {seed}: sp_hops is not the shortest-path hop count"
            );
        }
    }
}
