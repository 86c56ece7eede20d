//! The benchmark's vocabulary: every workload and metric name, with
//! unit, direction and regression bound. `BENCHMARK.json` at the repo
//! root is generated from these tables (`--print-benchmark-json`) and a
//! unit test keeps the two identical, so a name exists in one place.

use crate::json::Value;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// How long one driver run measures, seconds (three measured phases of
/// a third each).
pub const RUN_SECONDS: u64 = 15;

/// The workloads and why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "mesh_forward",
        "bare forwarding floor: 64 B packets, no tokens, k=1, long-lived flows, so wire/router/sim per-packet cost is nearly all the work and a token change must show nothing",
    ),
    (
        "mesh_tokens",
        "the paper's production regime: blocking per-hop token checks, 1000 B payloads, short heavy-tailed flows so cache misses keep arriving, 1% forged flows that must deliver nothing",
    ),
    (
        "mesh_chaos",
        "the slow path beside the fast path: ALT-protected k=2 weighted routes under seeded link flaps and router crashes; diversion, retransmission and reselection dominate",
    ),
    (
        "dir_te",
        "control plane only, no simulator: 70/25/5 lookup/load-report/link-flap mix on a 10000-node TE topology with a Zipf service population, so updates and cache invalidation count",
    ),
];

/// End-to-end metrics: every workload reports every one, untraced.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    e2e("query_p50_us", "us", Lower, 0.25),
    e2e("route_weight_mean_us", "us", Lower, 0.25),
    e2e("sim_rtt_p50_us", "us", Lower, 0.10),
    e2e("sim_rtt_p99_us", "us", Lower, 0.10),
];

/// Per-layer metrics: every workload reports every one, traced; a layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: &[Def] = &[
    // End-to-end quantities that are 0 or workload-constant by design
    // and so cannot carry a relative bound.
    layer("e2e.fail_frac", "ratio", Lower),
    layer("e2e.sim_goodput_mbps", "Mb/s", Higher),
    // wire
    layer("wire.build_ns", "ns", Lower),
    layer("wire.strip_ns", "ns", Lower),
    layer("wire.append_ns", "ns", Lower),
    layer("wire.trailer_parse_ns", "ns", Lower),
    layer("wire.segments_per_pkt", "count", Lower),
    layer("wire.header_bytes_per_pkt", "B", Lower),
    layer("wire.est_share", "ratio", Lower),
    // token
    layer("token.check_hit_ns", "ns", Lower),
    layer("token.check_miss_ns", "ns", Lower),
    layer("token.mint_ns", "ns", Lower),
    layer("token.checks", "count", Lower),
    layer("token.hit_ratio", "ratio", Higher),
    layer("token.rejects", "count", Lower),
    layer("token.blocked", "count", Lower),
    layer("token.cache_entries", "count", Lower),
    layer("token.accounted_bytes", "B", Higher),
    layer("token.est_share", "ratio", Lower),
    // router
    layer("router.busy_s", "s", Lower),
    layer("router.ns_per_forward", "ns", Lower),
    layer("router.forwarded", "count", Higher),
    layer("router.stage_parse", "count", Lower),
    layer("router.stage_route", "count", Lower),
    layer("router.stage_authorize", "count", Lower),
    layer("router.stage_police", "count", Lower),
    layer("router.stage_enqueue", "count", Lower),
    layer("router.stage_transmit", "count", Lower),
    layer("router.drops_total", "count", Lower),
    layer("router.drops_queue_full", "count", Lower),
    layer("router.drops_next_hop_down", "count", Lower),
    layer("router.drops_token", "count", Lower),
    layer("router.diversions", "count", Higher),
    layer("router.alternate_down", "count", Lower),
    layer("router.truncated", "count", Lower),
    layer("router.residual_ns_per_forward", "ns", Lower),
    layer("router.breakeven_gbps", "Gb/s", Higher),
    // sim
    layer("sim.events", "count", Lower),
    layer("sim.events_per_s", "1/s", Higher),
    layer("sim.events_per_txn", "count", Lower),
    layer("sim.self_s", "s", Lower),
    layer("sim.self_ns_per_event", "ns", Lower),
    layer("sim.queue_op_ns", "ns", Lower),
    layer("sim.chaos_kills", "count", Lower),
    layer("sim.link_util_max", "ratio", Lower),
    layer("sim.shard_events_per_s", "1/s", Higher),
    layer("sim.shard_speedup", "ratio", Higher),
    layer("sim.shard_digest_equal", "count", Higher),
    // core / transport (hosts)
    layer("host.busy_s", "s", Lower),
    layer("host.ns_per_txn", "ns", Lower),
    layer("host.requests_sent", "count", Higher),
    layer("host.gave_up", "count", Lower),
    layer("host.route_switches", "count", Lower),
    layer("host.route_reselections", "count", Lower),
    layer("transport.retransmissions", "count", Lower),
    layer("transport.acks_sent", "count", Lower),
    layer("transport.duplicates", "count", Lower),
    layer("core.compile_ns", "ns", Lower),
    layer("core.route_header_bytes", "B", Lower),
    // directory
    layer("directory.k_routes_p50_us", "us", Lower),
    layer("directory.k_routes_p99_us", "us", Lower),
    layer("directory.advisory_us", "us", Lower),
    layer("directory.update_ns", "ns", Lower),
    layer("directory.cache_hit_ratio", "ratio", Higher),
    layer("directory.cache_invalidations", "count", Lower),
    layer("directory.routes_per_query", "count", Higher),
    layer("directory.detours", "count", Lower),
    layer("directory.infeasible", "count", Lower),
    layer("directory.topology_build_s", "s", Lower),
    // telemetry
    layer("telemetry.scrape_ms", "ms", Lower),
    // ledger closure
    layer("ledger.residual_frac", "ratio", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
    layer("trace.digest_equal", "count", Higher),
];

/// Look a definition up by name in either table.
pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Named measured values, in table order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    /// Record `value` under `name` (which must be a defined metric).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(def(name).is_some(), "undefined metric {name}");
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Render as the contract's `metrics` object — exactly the metrics
    /// of `table`, in its order; an unset one reads 0.
    pub fn to_json(&self, table: &[Def]) -> Value {
        Value::object(table.iter().map(|d| {
            (
                d.name,
                Value::object([
                    ("value", Value::from(self.get(d.name).unwrap_or(0.0))),
                    ("unit", Value::from(d.unit)),
                ]),
            )
        }))
    }
}

/// The `BENCHMARK.json` document these tables define.
pub fn benchmark_json() -> Value {
    let metric = |d: &Def, with_bound: bool| {
        let mut m = vec![
            ("name", Value::from(d.name)),
            ("unit", Value::from(d.unit)),
            ("better", Value::from(d.better.as_str())),
        ];
        if with_bound {
            m.push(("bound", Value::from(d.bound)));
        }
        Value::object(m)
    };
    Value::object([
        (
            "command",
            Value::Array(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "perf/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(Value::from)
                .collect(),
            ),
        ),
        ("paths", Value::Array(vec![Value::from("perf")])),
        ("run_seconds", Value::from(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|(n, w)| {
                        Value::object([("name", Value::from(*n)), ("why", Value::from(*w))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(END_TO_END.iter().map(|d| metric(d, true)).collect()),
        ),
        (
            "per_layer",
            Value::Array(PER_LAYER.iter().map(|d| metric(d, false)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = BTreeSet::new();
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "{} defined twice", d.name);
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{} unit {}",
                d.name,
                d.unit
            );
        }
        for (n, why) in WORKLOADS {
            assert!(ok_name(n) && seen.insert(n) && why.len() <= 200 && !why.contains('\n'));
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = def("setup_s").expect("the contract requires setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END.iter().map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
    }

    #[test]
    fn committed_benchmark_json_is_what_these_tables_generate() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(Value::parse(&text).expect("valid JSON"), benchmark_json());
    }

    #[test]
    fn metrics_render_every_table_entry_in_order() {
        let mut m = Metrics::default();
        m.set("ops_per_s", 12.5);
        m.set("ops_per_s", 13.5);
        let v = m.to_json(END_TO_END);
        let members = v.as_object().unwrap();
        assert_eq!(members.len(), END_TO_END.len());
        assert_eq!(members[0].0, "setup_s");
        let ops = v.get("ops_per_s").unwrap();
        assert_eq!(ops.get("value").and_then(Value::as_f64), Some(13.5));
        assert_eq!(ops.get("unit").and_then(Value::as_str), Some("1/s"));
    }
}
