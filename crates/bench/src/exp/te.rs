//! TE — traffic-engineered directory under a heavy-traffic flash
//! crowd: weighted k-constrained routes + residual-weighted per-flow
//! spreading vs shortest-path-only, on a 10 000-node `simtest::topo`
//! mesh.
//!
//! Thousands of heavy-tailed flows start inside one 50 ms arrival
//! window, three of four aimed at a handful of hotspot destinations
//! from clustered crowd origins — the concentration pattern shortest
//! path trees cannot escape. The TE configuration asks the directory
//! for `k = 3` stretch-bounded alternates, spreads flows across them
//! weighted by advertised residual capacity, and lets detour insertion
//! route around trunks that crossed the congestion threshold during
//! placement. Both configurations then execute their planned source
//! routes on the real engine; per-channel busy time is ground truth.
//!
//! `exp te` (~70 s) writes `results/TE.json`; `exp te-small` runs the
//! 256-node configuration in under a second and writes nothing. Both
//! fail unless:
//!
//! * TE peak trunk utilization ≤ 80 % of the shortest-path-only peak
//!   (the load actually spread);
//! * every TE route respects the 1.5× stretch bound;
//! * zero starved flows and zero unroutable flows in both configs.

use crate::json::{obj, Json};
use crate::{Report, Table};
use sirpent_simtest::te::{plan, run, TeRunReport, TeWorkload};

/// Bench seed — fixed so CI compares like with like across commits.
const SEED: u64 = 42;
/// TE peak must come in at or under this many percent of the
/// shortest-path-only peak.
const PEAK_PCT_CEILING: u64 = 80;

fn config_out(label: &str, spec: &TeWorkload, r: &TeRunReport) -> Json {
    obj! {
        label: label,
        k: spec.k,
        flows: r.flows,
        unroutable: r.unroutable,
        detours: r.detours,
        injected_pkts: r.injected_pkts,
        delivered_pkts: r.delivered_pkts,
        starved_flows: r.starved_flows,
        incomplete_flows: r.incomplete_flows,
        peak_util_milli: r.peak_util_milli,
        mean_util_milli: r.mean_util_milli,
        p50_completion_ns: r.p50_completion_ns,
        p99_completion_ns: r.p99_completion_ns,
        max_stretch_milli: r.max_stretch_milli,
        mean_stretch_milli: r.mean_stretch_milli,
        events: r.events,
    }
}

fn row(t: &mut Table, label: &str, r: &TeRunReport) {
    let peak = format!("{:.1}%", r.peak_util_milli as f64 / 10.0);
    let p99 = format!("{:.2}", r.p99_completion_ns as f64 / 1e6);
    let stretch = format!("{:.2}x", r.max_stretch_milli as f64 / 1e3);
    t.row(&[
        &label,
        &r.flows,
        &r.delivered_pkts,
        &peak,
        &p99,
        &stretch,
        &r.starved_flows,
        &r.detours,
    ]);
}

/// Run TE on the 10 000-node flash crowd.
pub fn heavy() -> Report {
    flash_crowd(TeWorkload::heavy(SEED))
}

/// Run TE on the 256-node flash crowd: the same gates in under a
/// second.
pub fn small() -> Report {
    flash_crowd(TeWorkload::small(SEED))
}

fn flash_crowd(te_spec: TeWorkload) -> Report {
    let mut r = Report::default();
    let sp_spec = te_spec.shortest_path_only();

    r.note(format!(
        "[{} flows over {} nodes, k={} vs shortest-path-only]",
        te_spec.flows, te_spec.nodes, te_spec.k
    ));
    let te_plan = plan(&te_spec);
    let sp_plan = plan(&sp_spec);

    let te = run(&te_spec, &te_plan);
    let sp = run(&sp_spec, &sp_plan);

    let mut t = Table::new(
        "TE: flash-crowd load spread, weighted k-constrained routes vs shortest path",
        &[
            "config",
            "flows",
            "delivered",
            "peak util",
            "p99 ms",
            "stretch",
            "starved",
            "detours",
        ],
    );
    row(&mut t, "shortest-path", &sp);
    row(&mut t, "traffic-engineered", &te);
    r.table(&t);

    let reduction = 100i64 - (te.peak_util_milli as i64 * 100) / sp.peak_util_milli.max(1) as i64;
    r.note(format!(
        "[peak trunk utilization: {:.1}% -> {:.1}% ({reduction}% reduction)]",
        sp.peak_util_milli as f64 / 10.0,
        te.peak_util_milli as f64 / 10.0,
    ));

    r.gate(
        te.peak_util_milli * 100 <= sp.peak_util_milli * PEAK_PCT_CEILING,
        format!(
            "TE peak {} milli exceeds {PEAK_PCT_CEILING}% of the shortest-path peak {} milli",
            te.peak_util_milli, sp.peak_util_milli
        ),
    );
    r.gate(
        te.max_stretch_milli <= te_spec.max_stretch_milli as u64,
        format!(
            "max stretch {} milli exceeds the {} milli bound",
            te.max_stretch_milli, te_spec.max_stretch_milli
        ),
    );
    for (label, rep) in [("shortest-path", &sp), ("TE", &te)] {
        r.gate(
            rep.starved_flows == 0,
            format!("{label} run starved {} flow(s)", rep.starved_flows),
        );
        r.gate(
            rep.unroutable == 0,
            format!("{label} plan left {} flow(s) unroutable", rep.unroutable),
        );
    }

    r.json = obj! {
        experiment: "te",
        seed: SEED,
        nodes: te_spec.nodes,
        peak_reduction_percent: reduction,
        stretch_bound_milli: te_spec.max_stretch_milli,
        configs: vec![
            config_out("shortest_path", &sp_spec, &sp),
            config_out("te", &te_spec, &te),
        ],
    };
    r
}
