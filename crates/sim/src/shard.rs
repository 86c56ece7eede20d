//! Spatial sharding of a [`Simulator`] for parallel execution.
//!
//! A serial simulator is *split* into N shard simulators along topology
//! boundaries: a deterministic partitioner groups nodes so that every
//! transmitter of a channel lives in one shard, each shard gets its own
//! event queue and RNG stream, and the shards advance together in
//! conservative time windows whose width is the minimum propagation
//! delay of any cross-shard channel (see [`crate::sync`] for the window
//! runner and DESIGN.md §11 for the full contract).
//!
//! The split is a pure refactoring of state: `split(sim, 1)` wraps the
//! original simulator untouched, so single-shard runs are byte-identical
//! to the serial engine. After the parallel phase, [`ShardedSimulator::
//! into_serial`] merges the shards back into one ordinary [`Simulator`]
//! so downstream code (scrapes, phase-two workloads, invariants) needs
//! no knowledge of the sharding.

use sirpent_telemetry::{FlightRecorder, HopEvent, Registry, RegistryError};

use crate::chaos::{ChaosEvent, ChaosScope};
use crate::engine::{Core, Pending, Simulator};
use crate::splitmix64;
use crate::time::{SimDuration, SimTime};

/// Derive the RNG seed for `shard` of `total`.
///
/// A single shard keeps the master seed unchanged (the serial engine's
/// stream), so `shards=1` draws are byte-identical to an unsharded run.
/// With more shards, each stream is the master seed XOR-mixed with the
/// splitmix64 image of the shard index — deterministic in the shard
/// *index*, not in thread scheduling, so digests depend only on the
/// partition, never on how many worker threads executed it.
pub fn shard_seed(master: u64, shard: usize, total: usize) -> u64 {
    if total <= 1 {
        master
    } else {
        master ^ splitmix64(shard as u64)
    }
}

/// Union-find over node indices with union-by-minimum: the root of every
/// component is its smallest node id, which makes component enumeration
/// order deterministic without any extra sorting state.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Dsu {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        loop {
            let p = self.parent.get(x).copied().unwrap_or(x);
            if p == x {
                return x;
            }
            // Path halving: point x at its grandparent as we walk up.
            let gp = self.parent.get(p).copied().unwrap_or(p);
            if let Some(slot) = self.parent.get_mut(x) {
                *slot = gp;
            }
            x = gp;
        }
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return;
        }
        // Attach the larger root under the smaller so roots are minima.
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        if let Some(slot) = self.parent.get_mut(hi) {
            *slot = lo;
        }
    }
}

/// Result of partitioning a topology into shards.
///
/// Produced by [`partition_topology`]; deterministic in the topology and
/// the requested shard count (no RNG, no hashing over addresses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Shard index owning each node (indexed by `NodeId.0`).
    pub owner: Vec<usize>,
    /// Shard index owning each channel (indexed by `ChannelId.0`). A
    /// channel is owned by the shard of its transmitters; deliveries to
    /// taps in other shards cross via the window mailboxes.
    pub ch_owner: Vec<usize>,
    /// Effective shard count (may be lower than requested when the
    /// topology has fewer connected components than shards asked for).
    pub shards: usize,
    /// Conservative lookahead: minimum propagation delay in nanoseconds
    /// over all channels whose taps span two shards. `None` when no
    /// channel crosses a shard boundary (shards are fully independent).
    pub lookahead_ns: Option<u64>,
}

/// Deterministically partition a simulator's topology into at most
/// `shards` shards.
///
/// Constraints honoured:
/// * all transmitters of a channel land in one shard (the engine's
///   channel state — FIFO busy time, fault windows, in-flight records —
///   lives with the transmitters; only *deliveries* cross shards);
/// * every tap of a zero-propagation channel is co-located with its
///   transmitters (zero lookahead across a boundary would force
///   zero-width windows, so such channels never cross);
/// * components are assigned greedily, largest-root-last, to the least
///   loaded shard (ties to the lowest shard index).
pub fn partition_topology(sim: &Simulator, shards: usize) -> Partition {
    let core = &sim.core;
    let n = core.tx_map.len().max(core.down.len());
    let n_ch = core.channels.len();

    // Transmitters per channel, from the attach-time port map.
    let mut senders: Vec<Vec<usize>> = vec![Vec::new(); n_ch];
    for (node, ports) in core.tx_map.iter().enumerate() {
        for &(_, ch) in ports {
            if let Some(v) = senders.get_mut(ch.0) {
                v.push(node);
            }
        }
    }

    // One component per set of nodes that must share a shard: a channel's
    // transmitters and — over a zero-prop channel, which must never cross
    // a boundary — every one of its taps.
    let mut dsu = Dsu::new(n);
    for (ch, list) in core.channels.iter().zip(&senders) {
        let taps = ch.taps.iter().map(|&(nid, _)| nid.0);
        let zero_prop = ch.prop.as_nanos() == 0;
        let mut members = list.iter().copied().chain(taps.filter(|_| zero_prop));
        if let Some(anchor) = members.next() {
            for m in members {
                dsu.union(anchor, m);
            }
        }
    }

    // Component sizes, indexed by root (root == smallest member id).
    let roots: Vec<usize> = (0..n).map(|i| dsu.find(i)).collect();
    let mut size = vec![0usize; n];
    for &r in &roots {
        if let Some(s) = size.get_mut(r) {
            *s += 1;
        }
    }

    // Greedy balance: each component, in ascending root order, goes to
    // the currently lightest shard; ties break to the lowest shard index.
    let components = size.iter().filter(|&&s| s > 0).count();
    let s_eff = shards.max(1).min(components.max(1));
    let mut load = vec![0usize; s_eff];
    let mut comp_shard = vec![0usize; n];
    for (slot, &members) in comp_shard.iter_mut().zip(&size) {
        if members == 0 {
            continue;
        }
        let lightest = load.iter().enumerate().min_by_key(|&(k, &l)| (l, k));
        *slot = lightest.map_or(0, |(k, _)| k);
        if let Some(l) = load.get_mut(*slot) {
            *l += members;
        }
    }
    let owner_of = |node: usize| {
        let root = roots.get(node).copied().unwrap_or(node);
        comp_shard.get(root).copied().unwrap_or(0)
    };
    let owner: Vec<usize> = (0..n).map(owner_of).collect();

    // Channel owners and the cross-shard lookahead.
    let mut lookahead: Option<u64> = None;
    let mut ch_owner = Vec::with_capacity(n_ch);
    for (ch, list) in core.channels.iter().zip(&senders) {
        let taps = ch.taps.iter().map(|&(nid, _)| nid.0);
        let own = list.iter().copied().chain(taps).next().map_or(0, owner_of);
        ch_owner.push(own);
        if ch.taps.iter().any(|&(nid, _)| owner_of(nid.0) != own) {
            let p = ch.prop.as_nanos();
            lookahead = Some(lookahead.map_or(p, |l| l.min(p)));
        }
    }

    if lookahead == Some(0) {
        // Defensive: the zero-prop merge above makes this unreachable,
        // but a zero window would livelock the runner, so collapse.
        return Partition {
            owner: vec![0; n],
            ch_owner: vec![0; n_ch],
            shards: 1,
            lookahead_ns: None,
        };
    }

    Partition {
        owner,
        ch_owner,
        shards: s_eff,
        lookahead_ns: lookahead,
    }
}

/// Upper bits of per-shard frame-id namespaces: shard `k > 0` allocates
/// frame ids starting at `k << FRAME_SHARD_SHIFT`, so ids stay globally
/// unique without cross-shard coordination. 2^48 frames per shard is
/// far beyond any run the engine can execute.
const FRAME_SHARD_SHIFT: u32 = 48;

enum Inner {
    /// One shard: the untouched serial simulator (byte-identical path).
    Single(Box<Simulator>),
    /// N > 1 shard simulators plus the bookkeeping to run and re-merge.
    Many {
        shards: Vec<Simulator>,
        owner: Vec<usize>,
        ch_owner: Vec<usize>,
        lookahead_ns: Option<u64>,
        master_seed: u64,
        orig_chaos: Vec<ChaosEvent>,
    },
}

/// A simulator split into spatial shards that advance in conservative
/// time windows on a scoped thread pool.
///
/// Lifecycle: build a serial [`Simulator`], [`ShardedSimulator::split`]
/// it, [`ShardedSimulator::run_until`] the parallel phase, then
/// [`ShardedSimulator::into_serial`] to get an ordinary simulator back
/// for scrapes and any remaining serial work.
pub struct ShardedSimulator {
    inner: Inner,
}

impl ShardedSimulator {
    /// Split `sim` into at most `shards` shards.
    ///
    /// With `shards <= 1`, or when the topology collapses to one shard
    /// (fewer components than shards, or a zero-prop cross link), the
    /// original simulator is wrapped untouched and every subsequent call
    /// is exactly the serial engine. A simulator that has already run
    /// splits too: its ledger, pending events and schedule carry over.
    pub fn split(sim: Simulator, shards: usize) -> ShardedSimulator {
        let part = (shards > 1).then(|| partition_topology(&sim, shards));
        let Some(part) = part.filter(|p| p.shards > 1) else {
            return ShardedSimulator {
                inner: Inner::Single(Box::new(sim)),
            };
        };

        let Simulator {
            mut core,
            nodes,
            batch: _,
        } = sim;
        let n = nodes.len();
        let s = part.shards;
        debug_assert!(
            core.frame_seq < (1u64 << FRAME_SHARD_SHIFT),
            "frame-id namespace exhausted before split"
        );
        let seed = core.seed;
        let orig_chaos: Vec<ChaosEvent> = core.chaos.iter().cloned().collect();
        // Everything keyed — queued events and the reserved keys of
        // completions nobody armed — leaves while the channels holding
        // those records are still here.
        let pending = core.drain_pending();
        let flight_cap = core.flight.as_ref().map(|f| f.capacity());

        let mut sims: Vec<Simulator> = Vec::with_capacity(s);
        for (k, ledger) in std::mem::take(&mut core.ledger)
            .fork(s)
            .into_iter()
            .enumerate()
        {
            let mut c = core.replica(shard_seed(seed, k, s));
            c.ledger = ledger;
            c.remote = part.owner.iter().map(|&o| o != k).collect();
            c.chaos = core
                .chaos
                .iter()
                .filter(|ev| match ev.action.scope() {
                    ChaosScope::Channel(ch) => part.ch_owner.get(ch.0).copied().unwrap_or(0) == k,
                    ChaosScope::Node(_) | ChaosScope::Global => true,
                })
                .cloned()
                .collect();
            // Shard 0 continues the original's dispatch count, frame-id
            // stream and flight ring; the others start empty, on a
            // disjoint id namespace so ids never collide at merge.
            if k == 0 {
                c.events_dispatched = core.events_dispatched;
                c.armed.add(core.armed.get());
                c.frame_seq = core.frame_seq;
                c.flight = core.flight.take();
            } else {
                c.frame_seq = (k as u64) << FRAME_SHARD_SHIFT;
                c.flight = flight_cap.and_then(|cap| FlightRecorder::new(cap).ok());
            }
            sims.push(Simulator::from_parts(c, (0..n).map(|_| None).collect()));
        }

        // Hand each node object to its owning shard.
        for (i, nd) in nodes.into_iter().enumerate() {
            let own = part.owner.get(i).copied().unwrap_or(0);
            if let Some(slot) = sims.get_mut(own).and_then(|sx| sx.nodes.get_mut(i)) {
                *slot = nd;
            }
        }

        // The live channel replaces its owner's shell; every other shard
        // keeps the shell, so ids and per-port rate and propagation
        // queries stay valid everywhere.
        for (ci, ch) in std::mem::take(&mut core.channels).into_iter().enumerate() {
            let own = part.ch_owner.get(ci).copied().unwrap_or(0);
            let slot = sims
                .get_mut(own)
                .and_then(|sx| sx.core.channels.get_mut(ci));
            if let Some(slot) = slot {
                *slot = ch;
            }
        }

        for sx in &mut sims {
            sx.core.recount_noise();
        }

        // Route what was pending (kicks, planned workload timers, frames
        // and completions in flight) to the shard owning its target or
        // channel. The drain is (time, seq)-sorted, so per-shard sequence
        // numbers preserve the serial tie-break order within each shard.
        for item in pending {
            let own = match &item {
                Pending::Event(sch) => part.owner.get(sch.target.0),
                Pending::Completion(ch, _) => part.ch_owner.get(ch.0),
            };
            if let Some(sx) = sims.get_mut(own.copied().unwrap_or(0)) {
                sx.core.requeue(item);
            }
        }

        ShardedSimulator {
            inner: Inner::Many {
                shards: sims,
                owner: part.owner,
                ch_owner: part.ch_owner,
                lookahead_ns: part.lookahead_ns,
                master_seed: seed,
                orig_chaos,
            },
        }
    }

    /// The shard simulators (the one serial simulator when the split
    /// collapsed).
    fn sims(&self) -> &[Simulator] {
        match &self.inner {
            Inner::Single(sim) => std::slice::from_ref(&**sim),
            Inner::Many { shards, .. } => shards,
        }
    }

    /// Effective shard count (1 when the split collapsed to serial).
    pub fn shards(&self) -> usize {
        self.sims().len()
    }

    /// Conservative window width, if any channel crosses shards.
    pub fn lookahead(&self) -> Option<SimDuration> {
        match &self.inner {
            Inner::Single(_) => None,
            Inner::Many { lookahead_ns, .. } => lookahead_ns.map(SimDuration),
        }
    }

    /// Total events dispatched across all shards so far.
    pub fn events_dispatched(&self) -> u64 {
        self.sims().iter().map(|s| s.events_dispatched()).sum()
    }

    /// The global clock: the furthest point every shard has reached.
    pub fn now(&self) -> SimTime {
        let clocks = self.sims().iter().map(|s| s.now());
        clocks.min().unwrap_or(SimTime::ZERO)
    }

    /// Run all shards forward to `deadline` on up to `threads` worker
    /// threads (clamped to the shard count; `threads <= 1` still runs
    /// the windowed protocol, just on the caller's thread).
    ///
    /// The digest of a run depends only on the shard *partition*, never
    /// on `threads`: workers own disjoint shard slices and only meet at
    /// window barriers, so scheduling cannot reorder anything visible.
    pub fn run_until(&mut self, deadline: SimTime, threads: usize) {
        match &mut self.inner {
            Inner::Single(sim) => sim.run_until(deadline),
            Inner::Many {
                shards,
                owner,
                lookahead_ns,
                ..
            } => crate::sync::run_windows(shards, owner, *lookahead_ns, deadline, threads),
        }
    }

    /// Merge the per-shard registries in shard order into one scrape.
    ///
    /// At `shards=1` this is exactly the serial scrape. With more
    /// shards, counters add (chaos mirrors already suppressed their
    /// duplicate partition counts at apply time), so the merged totals
    /// equal what a serial run over the same events would publish.
    pub fn scrape_telemetry(&self) -> Result<Registry, RegistryError> {
        let mut merged = Registry::new();
        for sim in self.sims() {
            merged.absorb(sim.scrape_telemetry()?)?;
        }
        Ok(merged)
    }

    /// Collapse back into one serial [`Simulator`].
    ///
    /// Merge rules (DESIGN.md §11): clock = max shard clock; channels
    /// and per-node state come from their owners; pending events from
    /// all shard queues re-sequence in (time, shard) order; chaos
    /// statistics and telemetry counters sum; flight events re-sort by
    /// (timestamp, shard); the RNG continues shard 0's stream.
    pub fn into_serial(self) -> Simulator {
        match self.inner {
            Inner::Single(sim) => *sim,
            Inner::Many {
                shards,
                ch_owner,
                master_seed,
                orig_chaos,
                ..
            } => merge_shards(shards, &ch_owner, master_seed, orig_chaos),
        }
    }
}

fn merge_shards(
    shard_sims: Vec<Simulator>,
    ch_owner: &[usize],
    master_seed: u64,
    orig_chaos: Vec<ChaosEvent>,
) -> Simulator {
    let (cores, shard_nodes): (Vec<Core>, Vec<_>) =
        shard_sims.into_iter().map(|s| (s.core, s.nodes)).unzip();
    let Some(first) = cores.first() else {
        return Simulator::new(master_seed);
    };
    // World state is replicated, so shard 0's copy speaks for all.
    let mut merged = first.replica(master_seed);
    merged.now = cores.iter().map(|c| c.now).max().unwrap_or(merged.now);
    // Not-yet-applied chaos, from the original schedule (shards hold
    // disjoint channel events plus broadcast copies that must land
    // once). Every shard has applied exactly the actions before the same
    // window edge, so the earliest action still pending anywhere is where
    // the remainder starts.
    let next = cores.iter().filter_map(|c| c.chaos.front()).map(|ev| ev.at);
    merged.chaos = match next.min() {
        Some(t) => orig_chaos.into_iter().filter(|ev| ev.at >= t).collect(),
        None => Default::default(),
    };

    let mut flights = Vec::new();
    for (k, mut c) in cores.into_iter().enumerate() {
        let pending = c.drain_pending();
        // Channels come back from their owners (shells elsewhere carry
        // no state).
        let channels = merged.channels.iter_mut().zip(&mut c.channels);
        for ((slot, real), &own) in channels.zip(ch_owner) {
            if own == k {
                std::mem::swap(slot, real);
            }
        }
        merged.events_dispatched += c.events_dispatched;
        merged.armed.add(c.armed.get());
        // Namespacing makes the maximum the global high-water mark.
        merged.frame_seq = merged.frame_seq.max(c.frame_seq);
        merged.ledger.absorb(std::mem::take(&mut c.ledger));
        if k == 0 {
            // Continue the stream that carried the master seed.
            merged.rng = c.rng.clone();
        }
        // Pending events and reserved completion keys: each drain is
        // (time, seq)-sorted, and fresh sequence numbers give a
        // deterministic (time, shard) order.
        for item in pending {
            merged.requeue(item);
        }
        flights.extend(c.flight.take());
    }
    merged.recount_noise();
    if !flights.is_empty() {
        merged.flight = merge_flights(flights);
    }

    // Each node object comes back from the one shard that held it.
    let mut held = shard_nodes.into_iter();
    let mut nodes = held.next().unwrap_or_default();
    for shard in held {
        for (slot, nd) in nodes.iter_mut().zip(shard) {
            if nd.is_some() {
                *slot = nd;
            }
        }
    }
    Simulator::from_parts(merged, nodes)
}

/// Merge per-shard flight recorders into one ring whose capacity is the
/// sum of the parts, with events ordered by (timestamp, shard).
fn merge_flights(parts: Vec<FlightRecorder>) -> Option<FlightRecorder> {
    let total_cap: usize = parts.iter().map(|f| f.capacity()).sum();
    let mut evs: Vec<(u64, usize, HopEvent)> = Vec::new();
    for (k, f) in parts.iter().enumerate() {
        for ev in f.events() {
            evs.push((ev.t_ns, k, *ev));
        }
    }
    evs.sort_by_key(|&(t, k, _)| (t, k));
    let recorded_total: u64 = parts.iter().map(|f| f.recorded.get()).sum();
    let evicted_total: u64 = parts.iter().map(|f| f.evicted.get()).sum();
    let mut fr = FlightRecorder::new(total_cap.max(1)).ok()?;
    let live = evs.len() as u64;
    for (_, _, ev) in evs {
        fr.record(ev);
    }
    // `record` counted the live events; add back the ones each shard had
    // already evicted so recorded/evicted keep their ledger meaning.
    fr.recorded.add(recorded_total.saturating_sub(live));
    fr.evicted.add(evicted_total);
    Some(fr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Context, Event, NodeId};
    use crate::stats::DropReason;

    /// Minimal relay: a timer seeds a frame; received frames are logged
    /// and forwarded out port 0 with the lead byte (a TTL) decremented.
    #[derive(Default)]
    struct Relay {
        rx: Vec<(u64, Vec<u8>)>,
    }

    impl crate::engine::Node for Relay {
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }

        fn on_event(&mut self, ctx: &mut Context, ev: Event) {
            match ev {
                Event::Frame(f) => {
                    let bytes = f.frame.payload.to_vec();
                    self.rx.push((ctx.now().as_nanos(), bytes.clone()));
                    if let Some((&ttl, _)) = bytes.split_first() {
                        if ttl > 0 {
                            let mut fwd = bytes.clone();
                            fwd[0] = ttl - 1;
                            let _ = ctx.transmit(0, fwd);
                        }
                    }
                }
                Event::Timer { key } => {
                    let _ = ctx.transmit(0, vec![key as u8, 0xAA, 0xBB, 0xCC]);
                }
                _ => {}
            }
        }
    }

    fn chain(n: usize, prop_ns: u64) -> (Simulator, Vec<NodeId>) {
        let mut sim = Simulator::new(7);
        let ids: Vec<NodeId> = (0..n)
            .map(|_| sim.add_node(Box::<Relay>::default()))
            .collect();
        for w in ids.windows(2) {
            if let [a, b] = *w {
                sim.p2p(a, 0, b, 1, 10_000_000, SimDuration(prop_ns));
            }
        }
        (sim, ids)
    }

    #[test]
    fn shard_seed_is_master_for_single_shard() {
        assert_eq!(shard_seed(0xdead_beef, 0, 1), 0xdead_beef);
        assert_ne!(shard_seed(0xdead_beef, 0, 2), shard_seed(0xdead_beef, 1, 2));
        assert_ne!(shard_seed(0xdead_beef, 1, 4), 0xdead_beef);
    }

    #[test]
    fn partition_is_deterministic_and_colocates_transmitters() {
        let (sim, _) = chain(8, 2_000);
        let p1 = partition_topology(&sim, 4);
        let p2 = partition_topology(&sim, 4);
        assert_eq!(p1, p2);
        assert_eq!(p1.owner.len(), 8);
        for (node, ports) in sim.core.tx_map.iter().enumerate() {
            for &(_, ch) in ports {
                // Every transmitter of a channel sits in the channel's
                // owning shard.
                assert_eq!(p1.ch_owner[ch.0], p1.owner[node]);
            }
        }
        assert_eq!(p1.lookahead_ns, Some(2_000));
    }

    #[test]
    fn zero_prop_links_never_cross() {
        let (sim, _) = chain(6, 0);
        let p = partition_topology(&sim, 3);
        // All six nodes collapse into one component -> one shard.
        assert!(p.owner.iter().all(|&o| o == p.owner[0]));
        assert_eq!(p.lookahead_ns, None);
    }

    #[test]
    fn single_shard_split_is_serial() {
        let (mut sim, ids) = chain(3, 1_000);
        sim.kick(SimTime(10), ids[0], 1);
        let mut sh = ShardedSimulator::split(sim, 1);
        assert_eq!(sh.shards(), 1);
        sh.run_until(SimTime(1_000_000), 4);
        let serial = sh.into_serial();
        assert_eq!(serial.now(), SimTime(1_000_000));
    }

    #[test]
    fn sharded_chain_matches_serial_run() {
        // A TTL=4 frame seeded at node 0 relays down the chain, crossing
        // every shard boundary; the sharded run must reproduce the
        // serial run's deliveries, timestamps, and event count exactly.
        let (mut a, ids_a) = chain(6, 2_000);
        a.kick(SimTime(5), ids_a[0], 4);
        a.run_until(SimTime(1_000_000));

        let (mut b_sim, ids_b) = chain(6, 2_000);
        b_sim.kick(SimTime(5), ids_b[0], 4);
        let mut b = ShardedSimulator::split(b_sim, 3);
        assert!(b.shards() > 1);
        assert_eq!(b.lookahead(), Some(SimDuration(2_000)));
        b.run_until(SimTime(1_000_000), 2);
        let b = b.into_serial();
        assert_eq!(a.events_dispatched(), b.events_dispatched());
        assert_eq!(a.now(), b.now());
        for (&ia, &ib) in ids_a.iter().zip(ids_b.iter()) {
            let ra = &a.node::<Relay>(ia).rx;
            let rb = &b.node::<Relay>(ib).rx;
            assert_eq!(ra, rb, "node {ia:?} saw different deliveries");
        }
    }

    #[test]
    fn thread_count_does_not_change_the_run() {
        let run = |threads: usize| {
            let (mut sim, ids) = chain(8, 1_500);
            sim.kick(SimTime(5), ids[0], 7);
            sim.kick(SimTime(9), ids[3], 4);
            let mut sh = ShardedSimulator::split(sim, 4);
            assert!(sh.shards() > 1);
            sh.run_until(SimTime(2_000_000), threads);
            let serial = sh.into_serial();
            let mut sig = Vec::new();
            for &id in &ids {
                sig.push(serial.node::<Relay>(id).rx.clone());
            }
            (serial.events_dispatched(), sig)
        };
        let base = run(1);
        assert_eq!(base, run(2));
        assert_eq!(base, run(4));
        assert_eq!(base, run(8));
    }

    fn chaos(events: Vec<(u64, crate::chaos::ChaosAction)>) -> crate::chaos::FaultSchedule {
        let events = events.into_iter().map(|(at, action)| ChaosEvent {
            at: SimTime(at),
            action,
        });
        crate::chaos::FaultSchedule::new(events.collect()).unwrap()
    }

    #[test]
    fn split_after_a_crash_cycle_keeps_stale_timers_dead() {
        use crate::chaos::ChaosAction::{RouterCrash, RouterRestart};
        // Node 1 is crashed and restarted with a timer armed before the
        // crash still pending; fired, it would send a TTL-3 frame.
        let build = || {
            let (mut sim, ids) = chain(4, 2_000);
            sim.kick(SimTime(500_000), ids[1], 3);
            sim.install_schedule(chaos(vec![
                (100_000, RouterCrash { node: ids[1] }),
                (200_000, RouterRestart { node: ids[1] }),
            ]));
            sim.run_until(SimTime(300_000));
            sim.kick(SimTime(600_000), ids[0], 2);
            (sim, ids)
        };
        let (mut serial, ids) = build();
        serial.run_until(SimTime(2_000_000));

        let mut sharded = ShardedSimulator::split(build().0, 2);
        assert_eq!(sharded.shards(), 2);
        sharded.run_until(SimTime(2_000_000), 2);
        let merged = sharded.into_serial();

        assert_eq!(serial.events_dispatched(), merged.events_dispatched());
        for &id in &ids {
            let rx = &merged.node::<Relay>(id).rx;
            assert_eq!(&serial.node::<Relay>(id).rx, rx, "node {id:?}");
            assert!(
                rx.iter().all(|(_, bytes)| bytes[0] != 3),
                "stale timer fired"
            );
        }
        assert_eq!(
            merged.node::<Relay>(ids[1]).rx.len(),
            1,
            "live traffic flows"
        );
    }

    #[test]
    fn split_then_merge_without_running_changes_nothing() {
        use crate::chaos::ChaosAction::*;
        // A simulator with history: chaos already charged and counted,
        // a crash epoch, an open partition, a frame on the wire, and
        // timers, a delivery, a `TxDone` and chaos actions still pending
        // (at distinct instants — merged same-instant ties order by
        // shard, DESIGN §11.5).
        let build = || {
            let (mut sim, ids) = chain(8, 1_500);
            let ch = crate::engine::ChannelId;
            sim.enable_flight(64);
            sim.install_schedule(chaos(vec![
                (
                    0,
                    DuplicateStart {
                        ch: ch(4),
                        prob: 1.0,
                    },
                ),
                (10_001, LinkDown { ch: ch(0) }),
                (12_000, LinkUp { ch: ch(0) }),
                (39_000, RouterCrash { node: ids[5] }),
                (45_000, RouterRestart { node: ids[5] }),
                (
                    150_000,
                    PartitionStart {
                        side_a: ids[..6].to_vec(),
                    },
                ),
                (300_000, LinkDown { ch: ch(12) }),
                (300_500, LinkUp { ch: ch(12) }),
                (400_000, PartitionEnd),
            ]));
            for (i, &id) in ids.iter().enumerate() {
                sim.kick(SimTime(10_000 + 7_001 * i as u64), id, 6);
                sim.kick(SimTime(200_000 + 9_001 * i as u64), id, 2);
            }
            sim.run_until(SimTime(202_000));
            (sim, ids)
        };
        let pending = |mut sim: Simulator| -> Vec<String> {
            let queued = sim.core.drain_pending();
            let queued = queued.iter().map(|p| match p {
                Pending::Event(s) => format!("{:?} {:?} {:?}", s.time, s.target, s.event),
                Pending::Completion(ch, frame) => format!("completion {ch:?} {frame:?}"),
            });
            queued
                .chain(sim.core.chaos.iter().map(|ev| format!("{ev:?}")))
                .collect()
        };
        let state = |sim: &Simulator| {
            (
                sim.scrape_telemetry().unwrap().to_json(),
                sim.chaos_stats().total_drops(),
                sim.now(),
                sim.events_dispatched(),
            )
        };
        let finish = |mut sim: Simulator, ids: &[NodeId]| {
            sim.run_until(SimTime(2_000_000));
            let rx = ids.iter().map(|&id| sim.node::<Relay>(id).rx.clone());
            (sim.events_dispatched(), rx.collect::<Vec<_>>())
        };
        let (want, ids) = build();
        let drops = &want.chaos_stats().drops;
        assert!(
            drops[DropReason::LinkDown] > 0 && drops[DropReason::RouterDown] > 0,
            "history was charged"
        );
        let (want_state, want_pending) = (state(&want), pending(want));
        assert!(want_pending.len() > 7 + 3, "events and chaos are pending");
        let want_finish = finish(build().0, &ids);
        for k in [1, 2, 4] {
            let round_trip = || {
                let sharded = ShardedSimulator::split(build().0, k);
                assert_eq!(sharded.shards(), k);
                sharded.into_serial()
            };
            let got = round_trip();
            assert_eq!(state(&got), want_state, "{k} shards: state");
            assert_eq!(pending(got), want_pending, "{k} shards: pending order");
            assert_eq!(
                finish(round_trip(), &ids),
                want_finish,
                "{k} shards: rest of run"
            );
        }
    }
}
