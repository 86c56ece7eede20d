//! Digest-equality invariants for the sharded engine (ISSUE 7):
//!
//! * `shards=1` is byte-identical to the serial engine on the chaos
//!   scenario corpus (32 seeds) — the golden-fixture guarantee;
//! * the TE flash crowd on `ViperRouter`s (mesh shape and size derived
//!   from the seed) digests identically serial vs sharded at shard
//!   counts {1, 2, 4, 8} and thread counts {1, 2, 4} — the shard-count
//!   independence satellite (32 seeds);
//! * a fixed shard count digests identically across thread counts
//!   {1, 2, 4, 8} on the full chaos scenario corpus — thread schedules
//!   can never leak into results;
//! * merged per-shard telemetry equals the serial scrape at `shards=1`
//!   and is invariant to when the merge happens at `shards>1`.

use sirpent_sim::{ShardedSimulator, SimTime};
use sirpent_simtest::scenario;
use sirpent_simtest::te;
use sirpent_simtest::{Profile, Scenario, TeWorkload, TopoShape};

#[test]
fn single_shard_scenario_digest_matches_serial_32_seeds() {
    for seed in 0..32u64 {
        let spec = Scenario::from_seed(seed, Profile::Corpus);
        let serial = scenario::execute(&spec);
        let sharded = scenario::execute_sharded(&spec, 1, 1);
        assert_eq!(
            serial.digest, sharded.digest,
            "shards=1 diverged from serial on seed {seed}"
        );
    }
}

#[test]
fn topo_digest_is_shard_count_invariant_32_seeds() {
    let mut shapes = [0usize; 3];
    for seed in 0..32u64 {
        let spec = TeWorkload::from_seed(seed);
        shapes[match spec.shape {
            TopoShape::Ring => 0,
            TopoShape::Grid { .. } => 1,
            TopoShape::Random { .. } => 2,
        }] += 1;
        let plan = te::plan(&spec);
        let serial = te::run(&spec, &plan, 1, 1);
        assert!(serial.injected_pkts > 0, "seed {seed}: vacuous crowd");
        assert_eq!(
            serial.delivered_pkts, serial.injected_pkts,
            "seed {seed}: the routers lost packets"
        );
        for shards in [1usize, 2, 4, 8] {
            for threads in [1usize, 2, 4] {
                let parallel = te::run(&spec, &plan, shards, threads);
                assert_eq!(
                    serial, parallel,
                    "seed {seed}: digest changed at shards={shards} threads={threads}"
                );
            }
        }
    }
    assert!(shapes.iter().all(|&n| n > 0), "shapes seen: {shapes:?}");
}

#[test]
fn topo_sharded_run_twice_is_identical() {
    let spec = TeWorkload::from_seed(77);
    assert_eq!(
        te::execute_sharded(&spec, 4, 4),
        te::execute_sharded(&spec, 4, 4)
    );
}

#[test]
fn scenario_digest_is_thread_count_invariant() {
    // Fixed shard count, varying worker threads, full chaos corpus:
    // RNG streams differ from serial at shards>1 (per-shard streams),
    // but must be bit-stable across thread counts.
    for seed in 0..12u64 {
        let spec = Scenario::from_seed(seed, Profile::Corpus);
        let base = scenario::execute_sharded(&spec, 4, 1);
        for threads in [2usize, 4, 8] {
            let run = scenario::execute_sharded(&spec, 4, threads);
            assert_eq!(
                base.digest, run.digest,
                "seed {seed}: digest changed at threads={threads}"
            );
        }
    }
}

#[test]
fn merged_telemetry_equals_serial_scrape_at_one_shard() {
    for seed in 0..8u64 {
        let spec = TeWorkload::from_seed(seed);
        let plan = te::plan(&spec);
        let (mut serial, _) = te::build(&spec, &plan);
        serial.run_until(SimTime(spec.horizon_ns));
        let want = serial.scrape_telemetry().expect("serial scrape").to_json();

        let mut sharded = ShardedSimulator::split(te::build(&spec, &plan).0, 1);
        sharded.run_until(SimTime(spec.horizon_ns), 4);
        let got = sharded
            .scrape_telemetry()
            .expect("sharded scrape")
            .to_json();
        assert_eq!(want, got, "seed {seed}: shards=1 scrape diverged");
    }
}

#[test]
fn pre_merge_scrape_equals_post_merge_scrape() {
    // Scraping the live sharded engine (registry absorb in shard order)
    // must agree with scraping the re-merged serial simulator: same
    // counters, same stable JSON key order.
    for seed in 0..8u64 {
        let spec = TeWorkload::from_seed(seed);
        let plan = te::plan(&spec);
        let mut sharded = ShardedSimulator::split(te::build(&spec, &plan).0, 4);
        sharded.run_until(SimTime(spec.horizon_ns), 4);
        let live = sharded.scrape_telemetry().expect("live scrape").to_json();
        let merged = sharded.into_serial();
        let after = merged.scrape_telemetry().expect("merged scrape").to_json();
        assert_eq!(live, after, "seed {seed}: merge changed the scrape");
    }
}
