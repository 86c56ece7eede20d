//! `Timed<N>`: the traced run's per-node stopwatch.
//!
//! The traced run boxes every node in this wrapper. It forwards every
//! [`Node`] method to the inner node untouched — `as_any` hands out the
//! *inner* node, so `sim.node::<ViperRouter>(id)` keeps working — and
//! charges the host-time spent inside `on_event`/`on_events` to the
//! node's kind. Whatever wall-clock the run spends outside those calls
//! is the engine's own (`sim.self_s`).
//!
//! A dispatch costs ~2 µs and a pair of clock reads ~70 ns on the
//! reference box, so timing every dispatch would inflate the run by
//! more than the ledger's closure target. Each node therefore times
//! every [`SAMPLE_EVERY`]th dispatch and scales by that factor; call and
//! event counts stay exact. Over millions of dispatches the sampling
//! error is far below the run-to-run noise of the wall clock itself.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sirpent::sim::stats::NodeStats;
use sirpent::sim::{Context, Event, Node};
use sirpent::telemetry::{Registry, RegistryError};

/// One dispatch in this many is timed.
pub const SAMPLE_EVERY: u64 = 4;

/// Which layer a node's busy time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A `ViperRouter`.
    Router = 0,
    /// A `SirpentHost`.
    Host = 1,
}

/// One node's stopwatch totals.
///
/// Atomics only because `Node: Send` rules out `Cell`. Each node is the
/// single writer of its own counters (the engine never runs one node on
/// two threads), so an update is a plain `load` + `store` — no locked
/// read-modify-write on the dispatch path — and `Relaxed` suffices: the
/// values are statistics that publish no other data.
#[derive(Debug, Default)]
struct Counters {
    busy_ns: AtomicU64,
    calls: AtomicU64,
    events: AtomicU64,
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

/// The stopwatches of one traced run: every [`Timed`] node registers
/// its counters here, and totals are summed per [`NodeKind`] afterwards.
#[derive(Debug, Default)]
pub struct Probe {
    nodes: Mutex<Vec<(NodeKind, Arc<Counters>)>>,
}

impl Probe {
    /// A probe with no nodes yet.
    pub fn new() -> Arc<Probe> {
        Arc::new(Probe::default())
    }

    fn total(&self, kind: NodeKind, field: impl Fn(&Counters) -> &AtomicU64) -> u64 {
        self.nodes
            .lock()
            .expect("no thread panics while registering a node")
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, c)| field(c).load(Ordering::Relaxed))
            .sum()
    }

    /// Host-time nanoseconds spent inside nodes of `kind` (sampled and
    /// scaled; see the module docs).
    pub fn busy_ns(&self, kind: NodeKind) -> u64 {
        self.total(kind, |c| &c.busy_ns)
    }

    /// Dispatch calls (`on_event` + `on_events`) into nodes of `kind`.
    pub fn calls(&self, kind: NodeKind) -> u64 {
        self.total(kind, |c| &c.calls)
    }

    /// Dispatches that were actually timed, over all nodes.
    pub fn timed_calls(&self) -> u64 {
        self.nodes
            .lock()
            .expect("no thread panics while registering a node")
            .iter()
            .map(|(_, c)| c.calls.load(Ordering::Relaxed).div_ceil(SAMPLE_EVERY))
            .sum()
    }

    /// Events delivered to nodes of `kind` (a batch counts each member).
    pub fn events(&self, kind: NodeKind) -> u64 {
        self.total(kind, |c| &c.events)
    }
}

/// A node plus a stopwatch; see the module docs.
pub struct Timed<N: Node> {
    inner: N,
    counters: Arc<Counters>,
}

impl<N: Node> Timed<N> {
    /// Wrap `inner`, charging its busy time to `kind` in `probe`.
    pub fn new(inner: N, kind: NodeKind, probe: &Probe) -> Timed<N> {
        let counters = Arc::new(Counters::default());
        probe
            .nodes
            .lock()
            .expect("no thread panics while registering a node")
            .push((kind, counters.clone()));
        Timed { inner, counters }
    }

    /// Count the dispatch; start the stopwatch if it is a sampled one.
    fn enter(&self, events: u64) -> Option<Instant> {
        let nth = self.counters.calls.load(Ordering::Relaxed);
        bump(&self.counters.calls, 1);
        bump(&self.counters.events, events);
        nth.is_multiple_of(SAMPLE_EVERY).then(Instant::now)
    }

    fn exit(&self, started: Option<Instant>) {
        if let Some(start) = started {
            let ns = start.elapsed().as_nanos() as u64;
            bump(&self.counters.busy_ns, ns * SAMPLE_EVERY);
        }
    }
}

impl<N: Node> Node for Timed<N> {
    fn on_event(&mut self, ctx: &mut Context<'_>, ev: Event) {
        let started = self.enter(1);
        self.inner.on_event(ctx, ev);
        self.exit(started);
    }

    fn on_events(&mut self, ctx: &mut Context<'_>, batch: &mut Vec<Event>) {
        let started = self.enter(batch.len() as u64);
        self.inner.on_events(ctx, batch);
        self.exit(started);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }

    fn node_stats(&self) -> Option<&dyn NodeStats> {
        self.inner.node_stats()
    }

    fn on_restart(&mut self) {
        self.inner.on_restart()
    }

    fn publish_telemetry(&self, reg: &mut Registry) -> Result<(), RegistryError> {
        self.inner.publish_telemetry(reg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirpent::router::viper::{ViperConfig, ViperRouter};
    use sirpent::sim::{ChaosAction, ChaosEvent, FaultSchedule, SimTime, Simulator};

    /// A node that records which trait methods reached it.
    #[derive(Default)]
    struct Spy {
        single: u32,
        batched: u32,
        restarted: bool,
    }

    impl Node for Spy {
        fn on_event(&mut self, _: &mut Context<'_>, _: Event) {
            self.single += 1;
        }
        fn on_events(&mut self, _: &mut Context<'_>, batch: &mut Vec<Event>) {
            self.batched += batch.len() as u32;
            batch.clear();
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
        fn on_restart(&mut self) {
            self.restarted = true;
        }
        fn publish_telemetry(&self, reg: &mut Registry) -> Result<(), RegistryError> {
            reg.publish_count(sirpent::telemetry::names::TE_QUERIES_TOTAL, 7)
        }
    }

    #[test]
    fn forwards_every_node_method_and_counts() {
        let probe = Probe::new();
        let mut sim = Simulator::new(1);
        let id = sim.add_node(Box::new(Timed::new(Spy::default(), NodeKind::Host, &probe)));
        // One solo event, then two same-instant events (one batch).
        sim.kick(SimTime(10), id, 1);
        sim.kick(SimTime(20), id, 2);
        sim.kick(SimTime(20), id, 3);
        sim.run(100);
        let spy = sim.node::<Spy>(id);
        assert_eq!((spy.single, spy.batched), (1, 2));
        assert_eq!(probe.calls(NodeKind::Host), 2);
        assert_eq!(probe.events(NodeKind::Host), 3);
        assert_eq!(probe.calls(NodeKind::Router), 0);
        assert!(
            probe.busy_ns(NodeKind::Host) > 0,
            "the first dispatch is a sampled one"
        );

        let reg = sim.scrape_telemetry().expect("scrape");
        let name = sirpent::telemetry::names::TE_QUERIES_TOTAL;
        assert_eq!(reg.counter(name), 7, "publish_telemetry forwarded");

        // The chaos layer's restart hook must reach the inner node.
        let at = |ns, action| ChaosEvent {
            at: SimTime(ns),
            action,
        };
        let schedule = FaultSchedule::new(vec![
            at(30, ChaosAction::RouterCrash { node: id }),
            at(40, ChaosAction::RouterRestart { node: id }),
        ])
        .expect("valid schedule");
        sim.install_schedule(schedule);
        sim.run_until(SimTime(50));
        assert!(sim.node::<Spy>(id).restarted, "on_restart forwarded");
    }

    #[test]
    fn downcast_and_node_stats_reach_a_wrapped_router() {
        let mut sim = Simulator::new(1);
        let id = sim.add_node(Box::new(Timed::new(
            ViperRouter::new(ViperConfig::basic(9, &[1, 2])),
            NodeKind::Router,
            &Probe::new(),
        )));
        assert_eq!(sim.node::<ViperRouter>(id).router_id(), 9);
        assert!(sim.scrape(id).is_some(), "node_stats forwarded");
    }
}
