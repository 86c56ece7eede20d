//! One workload, one process: size it from `--seconds`, run it untraced
//! (three fresh builds, medians) or traced (a `Timed` build bracketed by
//! two untraced ones, replays, ledger), check its outputs, and hand back
//! the contract's result.

use std::path::PathBuf;

use sirpent::compile::CompiledRoute;
use sirpent::sim::ShardedSimulator;
use sirpent::wire::viper::Priority;

use crate::dir_te::{self, DirSpec};
use crate::fixture::{Mesh, MeshSize};
use crate::json::Value;
use crate::mesh::{self, MeshRun, MeshSpec};
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::replay;
use crate::spans::Spans;
use crate::stats::{highest_supported_percentile, median, min_max, percentile};
use crate::timed::{NodeKind, Probe};

/// Fresh builds per untraced run; the reported value is their median.
pub const REPS: usize = 3;

/// Work one measured second completes on the reference machine (2-core
/// Xeon @ 2.1 GHz): the batch is sized from these so a run's measured
/// phases add up to about `--seconds`. Sizes must not depend on how fast
/// the host happens to be, or `sim_` metrics would not repeat.
const FORWARD_TXN_PER_S: f64 = 9_500.0;
const TOKENS_TXN_PER_S: f64 = 6_400.0;
const CHAOS_TXN_PER_S: f64 = 8_800.0;
// `dir_te` gets half as much again: its ~35 ms queries make for few
// ops per second, and its set-up costs nothing.
const DIR_OPS_PER_S: f64 = 46.0;
/// Transactions per mesh workload under `--smoke`: enough traffic on the
/// 64-router fixture that every output check still bites.
const SMOKE_TXNS: usize = 2_000;

/// What the contract's result line carries, plus human-readable detail.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The measured values.
    pub metrics: Metrics,
    /// Failed output checks.
    pub violations: Vec<String>,
    /// Median/min/max/n lines and other detail, printed before the
    /// result line.
    pub detail: Vec<String>,
}

impl Outcome {
    /// The contract's one-line result.
    pub fn result_line(&self, traced: bool) -> Value {
        let table = if traced { PER_LAYER } else { END_TO_END };
        Value::object([
            ("correct", Value::from(self.correct)),
            ("attempted", Value::from(self.attempted.max(1))),
            ("failed", Value::from(self.failed)),
            ("metrics", self.metrics.to_json(table)),
        ])
    }
}

/// Run parameters common to every workload.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Workload seed.
    pub seed: u64,
    /// Seconds the run's measured phases should add up to.
    pub seconds: u64,
    /// `--smoke`: tiny fixture, tiny batches.
    pub smoke: bool,
}

impl Params {
    fn phase_work(&self, per_second: f64) -> usize {
        (per_second * self.seconds as f64 / REPS as f64)
            .round()
            .max(1.0) as usize
    }

    fn mesh_spec(&self, name: &str) -> Option<MeshSpec> {
        let size = if self.smoke {
            MeshSize::SMOKE
        } else {
            MeshSize::FULL
        };
        let work = |per_second: f64| {
            if self.smoke {
                SMOKE_TXNS
            } else {
                self.phase_work(per_second)
            }
        };
        Some(match name {
            "mesh_forward" => MeshSpec::forward(size, work(FORWARD_TXN_PER_S)),
            "mesh_tokens" => MeshSpec::tokens(size, work(TOKENS_TXN_PER_S)),
            "mesh_chaos" => MeshSpec::chaos(size, work(CHAOS_TXN_PER_S)),
            _ => return None,
        })
    }

    fn dir_spec(&self) -> DirSpec {
        if self.smoke {
            DirSpec::smoke(200)
        } else {
            DirSpec::full(self.phase_work(DIR_OPS_PER_S))
        }
    }
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn summary(name: &str, unit: &str, values: &[f64]) -> String {
    let (lo, hi) = min_max(values);
    format!(
        "  {name:<22} median {:>14.4} min {lo:>14.4} max {hi:>14.4} {unit} (n={})",
        median(values),
        values.len()
    )
}

/// Run workload `name`; `None` if there is no such workload.
pub fn run(name: &str, params: Params, traced: bool) -> Option<Outcome> {
    if name == "dir_te" {
        let spec = params.dir_spec();
        return Some(if traced {
            dir_traced(&spec, params.seed)
        } else {
            dir_untraced(&spec, params.seed)
        });
    }
    let spec = params.mesh_spec(name)?;
    Some(if traced {
        mesh_traced(&spec, params.seed)
    } else {
        mesh_untraced(&spec, params.seed)
    })
}

fn mesh_once(
    spec: &MeshSpec,
    seed: u64,
    probe: Option<&std::sync::Arc<Probe>>,
) -> (MeshRun, Spans) {
    let mut spans = Spans::new(spec.name);
    let built = mesh::build(spec, seed, probe, &mut spans);
    let run = mesh::run(spec, built, &mut spans);
    (run, spans)
}

fn mesh_untraced(spec: &MeshSpec, seed: u64) -> Outcome {
    let runs: Vec<MeshRun> = (0..REPS).map(|_| mesh_once(spec, seed, None).0).collect();
    let first = &runs[0];
    let mut out = Outcome {
        attempted: first.counters.attempted(),
        failed: first.counters.failed(),
        violations: first.violations.clone(),
        ..Outcome::default()
    };
    for (i, r) in runs.iter().enumerate().skip(1) {
        if r.digest != first.digest || r.counters != first.counters {
            out.violations.push(format!(
                "build {i} digest {:016x} differs from build 0 digest {:016x}",
                r.digest, first.digest
            ));
        }
    }
    let col = |f: &dyn Fn(&MeshRun) -> f64| runs.iter().map(f).collect::<Vec<_>>();
    let setup = col(&|r| r.setup_s);
    let ops = col(&|r| r.counters.completed as f64 / r.run_s);
    let query = col(&|r| median(&r.query_us));
    let (p50, p_hi, which) = first.counters.sim_rtt_us();
    let m = &mut out.metrics;
    m.set("setup_s", median(&setup));
    m.set("ops_per_s", median(&ops));
    m.set("query_p50_us", median(&query));
    m.set("route_weight_mean_us", first.route_weight_mean_us);
    m.set("sim_rtt_p50_us", p50);
    m.set("sim_rtt_p99_us", p_hi);
    m.set("peak_rss_mb", peak_rss_mb());
    out.detail = vec![
        format!(
            "{} seed {seed}: {} txns offered over {} flows, digest {:016x}",
            spec.name,
            spec.txns,
            first.flows,
            first.digest
        ),
        summary("setup_s", "s", &setup),
        summary("ops_per_s (txn/s)", "1/s", &ops),
        summary("run_s", "s", &col(&|r| r.run_s)),
        summary("query_p50_us", "us", &query),
        format!(
            "  sim_rtt p50 {p50:.3} us, p{which} {p_hi:.3} us over n={} samples; goodput {:.3} Mb/s; fail_frac {}/{}",
            first.counters.rtts_ns.len(),
            first.counters.sim_goodput_mbps(),
            out.failed,
            out.attempted
        ),
    ];
    out.correct = out.violations.is_empty();
    out
}

/// Where traces and the ledger live: the benchmark's own directory,
/// whether the command runs from the repo root or from inside it.
pub fn perf_dir() -> PathBuf {
    if std::path::Path::new("perf/Cargo.toml").exists() {
        PathBuf::from("perf")
    } else {
        PathBuf::from(".")
    }
}

fn write_trace(workload: &str, spans: &[&Spans], extra: Value) -> Result<(), std::io::Error> {
    let dir = perf_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    let doc = Value::object([
        ("workload", Value::from(workload)),
        (
            "runs",
            Value::Array(spans.iter().map(|s| s.to_json()).collect()),
        ),
        ("probe", extra),
    ]);
    std::fs::write(
        dir.join(format!("trace_{workload}.json")),
        doc.to_string() + "\n",
    )
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn mesh_traced(spec: &MeshSpec, seed: u64) -> Outcome {
    // Untraced, traced, untraced: the two untraced walls bracket the
    // traced one in time, so slow drift of the host's speed cancels out
    // of the overhead figure instead of posing as (negative) overhead.
    let (base, base_spans) = mesh_once(spec, seed, None);
    let probe = Probe::new();
    let (traced, traced_spans) = mesh_once(spec, seed, Some(&probe));
    let (after, _) = mesh_once(spec, seed, None);
    let base_run_s = (base.run_s + after.run_s) / 2.0;
    let c = &base.counters;
    let mut out = Outcome {
        attempted: c.attempted(),
        failed: c.failed(),
        violations: base.violations.clone(),
        ..Outcome::default()
    };
    out.violations.extend(traced.violations.iter().cloned());
    let same = |r: &MeshRun| r.digest == base.digest && r.counters == base.counters;
    let digest_equal = same(&traced) && same(&after);
    if !digest_equal {
        out.violations.push(format!(
            "digests differ — untraced {:016x}, traced {:016x}, untraced again {:016x}: Timed is not behaviour-neutral",
            base.digest, traced.digest, after.digest
        ));
    }

    // (c) replays over what the workload built.
    let mesh = Mesh::new(spec.size);
    let cap = &base.captured;
    let wire = replay::wire(&cap.routes, spec.request_bytes);
    let token = replay::token(
        cap.router_tokens.as_ref(),
        spec.request_bytes + base.route_header_bytes as usize,
    );
    let dir = replay::directory(
        &mesh.te_topology(),
        &cap.queries,
        &spec.query(),
        &cap.advisories,
    );
    let leads: Vec<u64> = mesh
        .adj
        .iter()
        .enumerate()
        .flat_map(|(a, row)| row.iter().map(move |&b| (a, b)))
        .map(|(a, b)| mesh.trunk_prop(a, b).as_nanos())
        .collect();
    let mean_lead_s = leads.iter().sum::<u64>() as f64 / leads.len() as f64 / 1e9;
    let sim_s = c.last_completion_ns.max(1) as f64 / 1e9;
    let depth = (c.events as f64 / sim_s * mean_lead_s) as usize;
    let queue_op_ns = replay::queue_op_ns(depth, &leads);

    // (b) the traced run's stopwatch.
    let router_busy = probe.busy_ns(NodeKind::Router) as f64;
    let host_busy = probe.busy_ns(NodeKind::Host) as f64;
    let busy_s = (router_busy + host_busy) / 1e9;
    // Everything in the ledger comes from the traced run itself, so the
    // host's drifting speed cannot open or close it: the traced wall is
    // node busy time + the stopwatch's own clock reads (timed dispatches
    // × a calibrated read pair) + the engine. What the three layers leave
    // of the wall is the stopwatch.
    let stopwatch_s = probe.timed_calls() as f64 * clock_pair_ns() / 1e9;
    let self_s = traced.run_s - busy_s - stopwatch_s;
    let residual = 1.0 - (self_s + busy_s) / traced.run_s;
    let ns_per_forward = ratio(router_busy, c.forwarded as f64);
    let wire_share = ratio(
        (wire.strip_ns + wire.append_ns) * c.forwarded as f64,
        router_busy,
    );
    let token_share = ratio(
        token.check_hit_ns * c.token_hits as f64 + token.check_miss_ns * c.token_decrypts as f64,
        router_busy,
    );

    let m = &mut out.metrics;
    m.set(
        "e2e.fail_frac",
        ratio(out.failed as f64, out.attempted as f64),
    );
    m.set("e2e.sim_goodput_mbps", c.sim_goodput_mbps());
    m.set("wire.build_ns", wire.build_ns);
    m.set("wire.strip_ns", wire.strip_ns);
    m.set("wire.append_ns", wire.append_ns);
    m.set("wire.trailer_parse_ns", wire.trailer_parse_ns);
    m.set("wire.segments_per_pkt", base.segments_per_route);
    m.set(
        "wire.header_bytes_per_pkt",
        ratio(
            c.uplink_bytes.saturating_sub(c.goodput_bytes) as f64,
            c.uplink_frames as f64,
        ),
    );
    m.set("wire.est_share", wire_share);
    m.set("token.check_hit_ns", token.check_hit_ns);
    m.set("token.check_miss_ns", token.check_miss_ns);
    m.set("token.mint_ns", token.mint_ns);
    let checks = c.token_hits + c.token_decrypts;
    m.set("token.checks", checks as f64);
    m.set("token.hit_ratio", ratio(c.token_hits as f64, checks as f64));
    m.set("token.rejects", c.drops_token as f64);
    m.set("token.blocked", c.token_blocked as f64);
    m.set("token.cache_entries", c.token_cache_entries as f64);
    m.set("token.accounted_bytes", c.token_accounted_bytes as f64);
    m.set("token.est_share", token_share);
    m.set("router.busy_s", router_busy / 1e9);
    m.set("router.ns_per_forward", ns_per_forward);
    m.set("router.forwarded", c.forwarded as f64);
    for (name, n) in [
        "router.stage_parse",
        "router.stage_route",
        "router.stage_authorize",
        "router.stage_police",
        "router.stage_enqueue",
        "router.stage_transmit",
    ]
    .into_iter()
    .zip(c.stages)
    {
        m.set(name, n as f64);
    }
    m.set("router.drops_total", c.drops_total as f64);
    m.set("router.drops_queue_full", c.drops_queue_full as f64);
    m.set("router.drops_next_hop_down", c.drops_next_hop_down as f64);
    m.set("router.drops_token", c.drops_token as f64);
    m.set("router.diversions", c.diversions as f64);
    m.set("router.alternate_down", c.alternate_down as f64);
    m.set("router.truncated", c.truncated as f64);
    m.set(
        "router.residual_ns_per_forward",
        ns_per_forward * (1.0 - wire_share - token_share),
    );
    m.set(
        "router.breakeven_gbps",
        ratio(wire.packet_bits, ns_per_forward),
    );
    m.set("sim.events", c.events as f64);
    m.set("sim.events_per_s", c.events as f64 / base_run_s);
    m.set(
        "sim.events_per_txn",
        ratio(c.events as f64, c.completed as f64),
    );
    m.set("sim.self_s", self_s);
    m.set(
        "sim.self_ns_per_event",
        ratio(self_s * 1e9, c.events as f64),
    );
    m.set("sim.queue_op_ns", queue_op_ns);
    m.set("sim.chaos_kills", c.chaos_kills as f64);
    m.set("sim.link_util_max", c.link_util_max);
    m.set("host.busy_s", host_busy / 1e9);
    m.set("host.ns_per_txn", ratio(host_busy, c.completed as f64));
    m.set("host.requests_sent", c.requests_sent as f64);
    m.set("host.gave_up", c.gave_up as f64);
    m.set("host.route_switches", c.route_switches as f64);
    m.set("host.route_reselections", c.route_reselections as f64);
    m.set("transport.retransmissions", c.retransmissions as f64);
    m.set("transport.acks_sent", c.acks_sent as f64);
    m.set("transport.duplicates", c.duplicates as f64);
    m.set("core.compile_ns", dir.compile_ns);
    m.set("core.route_header_bytes", base.route_header_bytes);
    m.set("directory.k_routes_p50_us", dir.k_routes_p50_us);
    m.set("directory.k_routes_p99_us", dir.k_routes_p99_us);
    m.set(
        "directory.advisory_us",
        ratio(base.query_us.iter().sum(), base.query_us.len() as f64),
    );
    m.set("directory.update_ns", dir.update_ns);
    let (queries, routes, detours, infeasible) = base.dir_counters;
    m.set(
        "directory.routes_per_query",
        ratio(routes as f64, queries as f64),
    );
    m.set("directory.detours", detours as f64);
    m.set("directory.infeasible", infeasible as f64);
    m.set(
        "directory.topology_build_s",
        base_spans.secs("setup.topology"),
    );
    m.set("telemetry.scrape_ms", base.scrape_ms);
    m.set("ledger.residual_frac", residual);
    m.set("trace.overhead_frac", traced.run_s / base_run_s - 1.0);
    m.set("trace.digest_equal", f64::from(u8::from(digest_equal)));

    if spec.name == "mesh_forward" {
        let (events_per_s, equal) = shard_probe(spec, seed, &base);
        m.set("sim.shard_events_per_s", events_per_s);
        m.set(
            "sim.shard_speedup",
            ratio(events_per_s, c.events as f64 / base_run_s),
        );
        m.set("sim.shard_digest_equal", f64::from(u8::from(equal)));
    }

    let probe_json = Value::object([
        ("router_busy_ns", Value::from(router_busy)),
        ("router_calls", Value::from(probe.calls(NodeKind::Router))),
        ("router_events", Value::from(probe.events(NodeKind::Router))),
        ("host_busy_ns", Value::from(host_busy)),
        ("host_calls", Value::from(probe.calls(NodeKind::Host))),
        ("host_events", Value::from(probe.events(NodeKind::Host))),
    ]);
    if let Err(e) = write_trace(spec.name, &[&base_spans, &traced_spans], probe_json) {
        out.violations.push(format!("writing the trace file: {e}"));
    }
    out.detail = vec![
        format!(
            "{} seed {seed} traced: run wall untraced {:.4} s before and {:.4} s after, traced {:.4} s; router busy {:.4} s over {} calls, host busy {:.4} s over {} calls, engine self {self_s:.4} s; ledger residual {residual:.4}; pending depth ≈ {depth}",
            spec.name,
            base.run_s,
            after.run_s,
            traced.run_s,
            router_busy / 1e9,
            probe.calls(NodeKind::Router),
            host_busy / 1e9,
            probe.calls(NodeKind::Host),
        ),
        format!(
            "  faults scheduled {}; digest {:016x} (traced equal: {digest_equal})",
            base.faults, base.digest
        ),
    ];
    out.correct = out.violations.is_empty();
    out
}

/// Host ns of one `Instant::now()` + `elapsed()` pair — what `Timed`
/// spends on the clock per timed dispatch.
fn clock_pair_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let t0 = std::time::Instant::now();
    for _ in 0..PAIRS {
        std::hint::black_box(std::time::Instant::now().elapsed());
    }
    t0.elapsed().as_nanos() as f64 / f64::from(PAIRS)
}

/// The one sharded-engine probe: the same build split across
/// `min(nproc, 4)` shards and threads, its events/s set against the
/// serial run's and its outcome digest against the serial digest.
fn shard_probe(spec: &MeshSpec, seed: u64, serial: &MeshRun) -> (f64, bool) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let mut spans = Spans::new(spec.name);
    let built = mesh::build(spec, seed, None, &mut spans);
    let live = built.live;
    let mut sharded = ShardedSimulator::split(live.sim, threads);
    let (_, wall_s) = spans.scope("run.sharded", |_| {
        sharded.run_until(spec.horizon(), threads)
    });
    let sim = sharded.into_serial();
    let equal = mesh::digest(&sim, &live.hosts, &live.routers) == serial.digest;
    (sim.events_dispatched() as f64 / wall_s, equal)
}

fn dir_metrics_common(r: &dir_te::DirRun) -> (f64, f64, f64) {
    let hi = highest_supported_percentile(r.promised_rtt_ns.len()).min(99.0);
    (
        ratio(
            r.weights_ns.iter().sum::<u64>() as f64,
            r.weights_ns.len() as f64,
        ) / 1e3,
        percentile(&r.promised_rtt_ns, 50.0) as f64 / 1e3,
        percentile(&r.promised_rtt_ns, hi) as f64 / 1e3,
    )
}

fn dir_untraced(spec: &DirSpec, seed: u64) -> Outcome {
    let runs: Vec<dir_te::DirRun> = (0..REPS)
        .map(|_| dir_te::run(spec, seed, &mut Spans::new("dir_te")))
        .collect();
    let first = &runs[0];
    let mut out = Outcome {
        attempted: first.attempted,
        failed: first.failed,
        violations: first.violations.clone(),
        ..Outcome::default()
    };
    for (i, r) in runs.iter().enumerate().skip(1) {
        if r.digest != first.digest || r.weights_ns != first.weights_ns {
            out.violations
                .push(format!("build {i} returned different routes than build 0"));
        }
    }
    let col = |f: &dyn Fn(&dir_te::DirRun) -> f64| runs.iter().map(f).collect::<Vec<_>>();
    // Set-up here is tens of milliseconds, so a few more samples cost
    // nothing and steady the median.
    let mut setup = col(&|r| r.setup_s);
    setup.extend((0..2 * REPS).map(|_| {
        Spans::new("dir_te")
            .scope("setup", |spans| dir_te::setup(spec, seed, spans))
            .1
    }));
    let ops = col(&|r| r.attempted as f64 / r.run_s);
    let query = col(&|r| median(&r.lookup_us));
    let (weight, p50, p_hi) = dir_metrics_common(first);
    let m = &mut out.metrics;
    m.set("setup_s", median(&setup));
    m.set("ops_per_s", median(&ops));
    m.set("query_p50_us", median(&query));
    m.set("route_weight_mean_us", weight);
    // Nothing is simulated here: these are the round trips the directory
    // *promises* (twice the weight of each route it handed out).
    m.set("sim_rtt_p50_us", p50);
    m.set("sim_rtt_p99_us", p_hi);
    m.set("peak_rss_mb", peak_rss_mb());
    out.detail = vec![
        format!(
            "dir_te seed {seed}: {} ops ({} lookups) on {} nodes, digest {:016x}",
            spec.ops,
            first.lookup_us.len(),
            spec.nodes,
            first.digest
        ),
        summary("setup_s", "s", &setup),
        summary("ops_per_s (ops/s)", "1/s", &ops),
        summary("run_s", "s", &col(&|r| r.run_s)),
        summary("query_p50_us", "us", &query),
        format!(
            "  promised rtt p50 {p50:.3} us, tail {p_hi:.3} us over n={} routes; fail_frac {}/{}",
            first.promised_rtt_ns.len(),
            out.failed,
            out.attempted
        ),
    ];
    out.correct = out.violations.is_empty();
    out
}

fn dir_traced(spec: &DirSpec, seed: u64) -> Outcome {
    let mut spans = Spans::new("dir_te");
    let r = dir_te::run(spec, seed, &mut spans);
    let mut out = Outcome {
        attempted: r.attempted,
        failed: r.failed,
        violations: r.violations.clone(),
        ..Outcome::default()
    };
    let machine = dir_te::Machine::new(spec);
    let dir = replay::directory(&machine.te, &r.queries, &dir_te::query(), &r.advisories);
    let token = replay::token(None, 0);
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    // The ledger here: lookups and updates against the loop's wall.
    let accounted_s =
        (r.lookup_us.iter().sum::<f64>() * 1e3 + r.update_ns.iter().sum::<f64>()) / 1e9;
    let (hits, misses, evictions) = r.cache;
    let (queries, routes, detours, infeasible) = r.dir_counters;
    let m = &mut out.metrics;
    m.set("e2e.fail_frac", ratio(r.failed as f64, r.attempted as f64));
    m.set("token.mint_ns", token.mint_ns);
    m.set("core.compile_ns", dir.compile_ns);
    m.set(
        "core.route_header_bytes",
        ratio(
            r.advisories
                .iter()
                .map(|a| {
                    CompiledRoute::compile(&a.route, &a.tokens, Priority::NORMAL).header_bytes()
                })
                .sum::<usize>() as f64,
            r.advisories.len() as f64,
        ),
    );
    m.set("directory.k_routes_p50_us", dir.k_routes_p50_us);
    m.set("directory.k_routes_p99_us", dir.k_routes_p99_us);
    m.set("directory.advisory_us", mean(&r.advisory_us));
    m.set("directory.update_ns", mean(&r.update_ns));
    m.set(
        "directory.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    m.set("directory.cache_invalidations", evictions as f64);
    m.set(
        "directory.routes_per_query",
        ratio(routes as f64, queries as f64),
    );
    m.set("directory.detours", detours as f64);
    m.set("directory.infeasible", infeasible as f64);
    m.set("directory.topology_build_s", r.topology_build_s);
    m.set("ledger.residual_frac", 1.0 - accounted_s / r.run_s);
    m.set("trace.digest_equal", 1.0);
    if let Err(e) = write_trace("dir_te", &[&spans], Value::Null) {
        out.violations.push(format!("writing the trace file: {e}"));
    }
    out.detail = vec![format!(
        "dir_te seed {seed} traced: run wall {:.4} s, {:.4} s inside lookups and updates; cache {hits} hits / {misses} misses; final epoch {}",
        r.run_s, accounted_s, r.epoch
    )];
    out.correct = out.violations.is_empty();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;

    /// The `--smoke` sizing of all four workloads, both modes: API drift
    /// in the measured crates breaks here, loudly.
    #[test]
    fn smoke_suite_runs_green_and_fills_every_metric() {
        let params = Params {
            seed: 5,
            seconds: 3,
            smoke: true,
        };
        for (name, _) in WORKLOADS {
            for traced in [false, true] {
                let out = run(name, params, traced).expect("known workload");
                assert!(out.correct, "{name} traced={traced}: {:?}", out.violations);
                assert!(out.attempted >= 1 && out.failed == 0, "{name}");
                let line = out.result_line(traced);
                let table = if traced { PER_LAYER } else { END_TO_END };
                let metrics = line.get("metrics").and_then(Value::as_object).unwrap();
                assert_eq!(metrics.len(), table.len());
                if !traced {
                    for (k, v) in metrics {
                        let v = v.get("value").and_then(Value::as_f64).unwrap();
                        assert!(v > 0.0, "{name}: end-to-end metric {k} must never be 0");
                    }
                }
            }
        }
        assert!(run("no_such_workload", params, false).is_none());
    }

    #[test]
    fn workload_separation_holds_at_smoke_size() {
        let params = Params {
            seed: 6,
            seconds: 3,
            smoke: true,
        };
        let get = |name: &str, metric: &str| {
            run(name, params, true)
                .unwrap()
                .metrics
                .get(metric)
                .unwrap_or(0.0)
        };
        assert_eq!(get("mesh_forward", "token.checks"), 0.0);
        assert!(get("mesh_tokens", "token.checks") > 0.0);
        assert_eq!(get("mesh_forward", "router.diversions"), 0.0);
        assert_eq!(get("mesh_tokens", "router.diversions"), 0.0);
        assert_eq!(get("dir_te", "sim.events"), 0.0);
        assert_eq!(get("mesh_forward", "trace.digest_equal"), 1.0);
    }
}
