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

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sirpent_telemetry::{FlightRecorder, HopEvent, Registry, RegistryError};

use crate::chaos::{ChaosAction, ChaosEvent};
use crate::engine::{Channel, Event, Simulator};
use crate::queue::QueueKind;
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
    let n = sim.core.tx_map.len().max(sim.core.down.len());
    let n_ch = sim.core.channels.len();

    // Transmitters per channel, from the attach-time port map.
    let mut senders: Vec<Vec<usize>> = vec![Vec::new(); n_ch];
    for (node, ports) in sim.core.tx_map.iter().enumerate() {
        for &(_, ch) in ports {
            if let Some(v) = senders.get_mut(ch.0) {
                v.push(node);
            }
        }
    }

    let mut dsu = Dsu::new(n);
    for (ci, ch) in sim.core.channels.iter().enumerate() {
        if let Some(list) = senders.get(ci) {
            let mut it = list.iter();
            if let Some(&first) = it.next() {
                for &other in it {
                    dsu.union(first, other);
                }
            }
        }
        if ch.prop.as_nanos() == 0 {
            // Zero-prop channels must never cross a boundary: merge all
            // taps with the transmitters (or with each other).
            let mut anchor: Option<usize> = senders.get(ci).and_then(|l| l.first().copied());
            for &(nid, _) in ch.taps.iter() {
                match anchor {
                    None => anchor = Some(nid.0),
                    Some(a) => dsu.union(a, nid.0),
                }
            }
        }
    }

    // Component roots in ascending order (root == smallest member id).
    let roots: Vec<usize> = (0..n).map(|i| dsu.find(i)).collect();
    let mut size = vec![0usize; n];
    for &r in &roots {
        if let Some(s) = size.get_mut(r) {
            *s += 1;
        }
    }
    let order: Vec<usize> = (0..n)
        .filter(|&i| size.get(i).copied().unwrap_or(0) > 0)
        .collect();

    // Greedy balance: each component goes to the currently lightest
    // shard; ties break to the lowest shard index.
    let s_eff = shards.max(1).min(order.len().max(1));
    let mut load = vec![0usize; s_eff];
    let mut comp_shard = vec![0usize; n];
    for &r in &order {
        let mut best = 0usize;
        let mut best_load = usize::MAX;
        for (k, &l) in load.iter().enumerate() {
            if l < best_load {
                best = k;
                best_load = l;
            }
        }
        if let Some(slot) = comp_shard.get_mut(r) {
            *slot = best;
        }
        if let Some(l) = load.get_mut(best) {
            *l += size.get(r).copied().unwrap_or(0);
        }
    }
    let owner: Vec<usize> = roots
        .iter()
        .map(|&r| comp_shard.get(r).copied().unwrap_or(0))
        .collect();

    // Channel owners and the cross-shard lookahead.
    let mut lookahead: Option<u64> = None;
    let mut ch_owner = Vec::with_capacity(n_ch);
    for (ci, ch) in sim.core.channels.iter().enumerate() {
        let own = senders
            .get(ci)
            .and_then(|l| l.first())
            .or_else(|| ch.taps.first().map(|(nid, _)| &nid.0))
            .map(|&x| owner.get(x).copied().unwrap_or(0))
            .unwrap_or(0);
        ch_owner.push(own);
        let crosses = ch
            .taps
            .iter()
            .any(|&(nid, _)| owner.get(nid.0).copied().unwrap_or(0) != own);
        if crosses {
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
        kind: QueueKind,
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
    /// is exactly the serial engine. Splitting is intended for a
    /// freshly built simulator (before any events ran); splitting after
    /// a crash/restart cycle is rejected in debug builds.
    pub fn split(sim: Simulator, shards: usize) -> ShardedSimulator {
        if shards <= 1 {
            return ShardedSimulator {
                inner: Inner::Single(Box::new(sim)),
            };
        }
        let part = partition_topology(&sim, shards);
        if part.shards <= 1 {
            return ShardedSimulator {
                inner: Inner::Single(Box::new(sim)),
            };
        }

        let Simulator {
            mut core,
            nodes,
            batch: _,
        } = sim;
        let n = nodes.len();
        let s = part.shards;
        debug_assert!(
            core.node_epoch.iter().all(|&e| e == 0),
            "split expects a simulator that has not crash-cycled nodes"
        );
        debug_assert!(
            core.frame_seq < (1u64 << FRAME_SHARD_SHIFT),
            "frame-id namespace exhausted before split"
        );

        let seed = core.seed;
        let kind = core.queue_kind;
        let flight_cap = core.flight.as_ref().map(|f| f.capacity());
        let orig_chaos: Vec<ChaosEvent> = core.chaos.iter().cloned().collect();

        let mut sims: Vec<Simulator> = (0..s)
            .map(|k| Simulator::with_queue(shard_seed(seed, k, s), kind))
            .collect();

        for (k, sx) in sims.iter_mut().enumerate() {
            sx.core.now = core.now;
            sx.core.down = core.down.clone();
            sx.core.node_epoch = vec![0; n];
            sx.core.remote = part.owner.iter().map(|&o| o != k).collect();
            // Shard 0 continues the original id stream; others get a
            // disjoint namespace so ids never collide at merge.
            sx.core.frame_seq = if k == 0 {
                core.frame_seq
            } else {
                (k as u64) << FRAME_SHARD_SHIFT
            };
            // Partition flips are broadcast to every shard so reachability
            // checks agree; mirrors suppress the chaos counters so merged
            // scrapes count each global event exactly once.
            sx.core.chaos_mirror = k != 0;
            sx.core.partition = core.partition.clone();
            sx.core.cancelled = core.cancelled.clone();
            sx.core.charged = core.charged.clone();
            if let Some(cap) = flight_cap {
                if let Ok(fr) = FlightRecorder::new(cap) {
                    sx.core.flight = Some(fr);
                }
            }
            sx.core.chaos = core
                .chaos
                .iter()
                .filter(|ev| chaos_goes_to(&ev.action, k, &part))
                .cloned()
                .collect::<VecDeque<ChaosEvent>>();
            sx.core.tx_map = (0..n)
                .map(|i| {
                    if part.owner.get(i).copied() == Some(k) {
                        core.tx_map.get(i).cloned().unwrap_or_default()
                    } else {
                        Vec::new()
                    }
                })
                .collect();
            sx.nodes = (0..n).map(|_| None).collect();
        }

        // Hand each node object to its owning shard.
        for (i, nd) in nodes.into_iter().enumerate() {
            let own = part.owner.get(i).copied().unwrap_or(0);
            if let Some(slot) = sims.get_mut(own).and_then(|sx| sx.nodes.get_mut(i)) {
                *slot = nd;
            }
        }

        // Channels: the owner gets the live channel; every other shard
        // gets a shell with the same geometry so ids and per-port rate
        // and propagation queries stay valid everywhere.
        for ch in std::mem::take(&mut core.channels) {
            let rate = ch.rate_bps;
            let prop = ch.prop;
            let ci = sims.first().map(|sx| sx.core.channels.len()).unwrap_or(0);
            let own = part.ch_owner.get(ci).copied().unwrap_or(0);
            let mut real = Some(ch);
            for (k, sx) in sims.iter_mut().enumerate() {
                if k == own {
                    match real.take() {
                        Some(c) => sx.core.channels.push(c),
                        None => sx.core.channels.push(Channel::shell(rate, prop)),
                    }
                } else {
                    sx.core.channels.push(Channel::shell(rate, prop));
                }
            }
        }

        // The dispatch ledger lives in shard 0.
        if let Some(s0) = sims.get_mut(0) {
            s0.core.events_dispatched = core.events_dispatched;
        }

        // Route pre-scheduled events (kicks, planned workload timers) to
        // the shard owning their target, preserving (time, seq) order —
        // pops come out sorted, so per-shard sequence numbers preserve
        // the serial tie-break order within each shard.
        while let Some(sch) = core.queue.pop() {
            let own = part.owner.get(sch.target.0).copied().unwrap_or(0);
            if let Some(sx) = sims.get_mut(own) {
                sx.core.push(sch.time, sch.target, sch.event);
            }
        }

        ShardedSimulator {
            inner: Inner::Many {
                shards: sims,
                owner: part.owner,
                ch_owner: part.ch_owner,
                lookahead_ns: part.lookahead_ns,
                master_seed: seed,
                kind,
                orig_chaos,
            },
        }
    }

    /// Effective shard count (1 when the split collapsed to serial).
    pub fn shards(&self) -> usize {
        match &self.inner {
            Inner::Single(_) => 1,
            Inner::Many { shards, .. } => shards.len(),
        }
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
        match &self.inner {
            Inner::Single(sim) => sim.events_dispatched(),
            Inner::Many { shards, .. } => shards.iter().map(|s| s.events_dispatched()).sum(),
        }
    }

    /// The global clock: the furthest point every shard has reached.
    pub fn now(&self) -> SimTime {
        match &self.inner {
            Inner::Single(sim) => sim.now(),
            Inner::Many { shards, .. } => shards
                .iter()
                .map(|s| s.now())
                .min()
                .unwrap_or(SimTime::ZERO),
        }
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
        match &self.inner {
            Inner::Single(sim) => sim.scrape_telemetry(),
            Inner::Many { shards, .. } => {
                let mut merged = Registry::new();
                for sim in shards {
                    merged.absorb(sim.scrape_telemetry()?)?;
                }
                Ok(merged)
            }
        }
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
                owner,
                ch_owner,
                master_seed,
                kind,
                orig_chaos,
                ..
            } => merge_shards(shards, &owner, &ch_owner, master_seed, kind, orig_chaos),
        }
    }
}

/// Which shard(s) a chaos event belongs to: channel-scoped events go to
/// the channel's owner; router crash/restart and global partition flips
/// go to every shard (mirrors apply the state change but suppress the
/// counters). Broadcasting crashes keeps the per-node `down` flags —
/// which adjacent routers on *other* shards read through
/// `Context::peer_up` at route-decision time — coherent across the
/// fleet: chaos applies at window barriers, so every shard sees the
/// flip before any event in the affected window dispatches.
fn chaos_goes_to(action: &ChaosAction, shard: usize, part: &Partition) -> bool {
    match action {
        ChaosAction::LinkDown { ch }
        | ChaosAction::LinkUp { ch }
        | ChaosAction::DuplicateStart { ch, .. }
        | ChaosAction::DuplicateEnd { ch }
        | ChaosAction::JitterStart { ch, .. }
        | ChaosAction::JitterEnd { ch }
        | ChaosAction::ErrorBurstStart { ch, .. }
        | ChaosAction::ErrorBurstEnd { ch } => {
            part.ch_owner.get(ch.0).copied().unwrap_or(0) == shard
        }
        ChaosAction::RouterCrash { .. }
        | ChaosAction::RouterRestart { .. }
        | ChaosAction::PartitionStart { .. }
        | ChaosAction::PartitionEnd => true,
    }
}

fn merge_shards(
    shard_sims: Vec<Simulator>,
    owner: &[usize],
    ch_owner: &[usize],
    master_seed: u64,
    kind: QueueKind,
    orig_chaos: Vec<ChaosEvent>,
) -> Simulator {
    let n = owner.len();
    let mut cores = Vec::with_capacity(shard_sims.len());
    let mut shard_nodes = Vec::with_capacity(shard_sims.len());
    for sim in shard_sims {
        let Simulator {
            core,
            nodes,
            batch: _,
        } = sim;
        cores.push(core);
        shard_nodes.push(nodes);
    }

    let mut merged = Simulator::with_queue(master_seed, kind);
    let now = cores.iter().map(|c| c.now).max().unwrap_or(SimTime::ZERO);
    merged.core.now = now;

    // Channels come back from their owners (shells elsewhere carry no
    // state). A missing slot is unreachable; a default shell keeps the
    // id space aligned rather than shifting every later channel.
    let n_ch = cores.first().map(|c| c.channels.len()).unwrap_or(0);
    let mut ch_pools: Vec<Vec<Option<Channel>>> = cores
        .iter_mut()
        .map(|c| {
            std::mem::take(&mut c.channels)
                .into_iter()
                .map(Some)
                .collect()
        })
        .collect();
    let mut channels = Vec::with_capacity(n_ch);
    for ci in 0..n_ch {
        let own = ch_owner.get(ci).copied().unwrap_or(0);
        let ch = ch_pools
            .get_mut(own)
            .and_then(|p| p.get_mut(ci))
            .and_then(|o| o.take());
        match ch {
            Some(c) => channels.push(c),
            None => channels.push(Channel::shell(0, SimDuration::ZERO)),
        }
    }
    merged.core.channels = channels;

    // Per-node state from each node's owner.
    let mut nodes: Vec<Option<Box<dyn crate::engine::Node>>> = (0..n).map(|_| None).collect();
    let mut tx_map = vec![Vec::new(); n];
    let mut down = vec![false; n];
    for (i, slot) in nodes.iter_mut().enumerate() {
        let own = owner.get(i).copied().unwrap_or(0);
        if let Some(sn) = shard_nodes.get_mut(own).and_then(|v| v.get_mut(i)) {
            *slot = sn.take();
        }
        if let Some(c) = cores.get(own) {
            if let (Some(src), Some(dst)) = (c.tx_map.get(i), tx_map.get_mut(i)) {
                *dst = src.clone();
            }
            if let (Some(&src), Some(dst)) = (c.down.get(i), down.get_mut(i)) {
                *dst = src;
            }
        }
    }
    merged.core.tx_map = tx_map;
    merged.core.down = down;
    // Crash/restart epochs guarded stale timers inside each shard; the
    // drain below filters against them, so the merged engine restarts
    // from a clean epoch space.
    merged.core.node_epoch = vec![0; n];

    // Summable ledgers.
    merged.core.events_dispatched = cores.iter().map(|c| c.events_dispatched).sum();
    merged.core.frame_seq = cores.iter().map(|c| c.frame_seq).max().unwrap_or(0);
    for c in &cores {
        merged.core.chaos_stats.absorb(&c.chaos_stats);
        merged
            .core
            .chaos_counters
            .events
            .add(c.chaos_counters.events.get());
        merged
            .core
            .chaos_counters
            .link
            .add(c.chaos_counters.link.get());
        merged
            .core
            .chaos_counters
            .router
            .add(c.chaos_counters.router.get());
        merged
            .core
            .chaos_counters
            .partition
            .add(c.chaos_counters.partition.get());
        merged
            .core
            .chaos_counters
            .windows
            .add(c.chaos_counters.windows.get());
        for f in &c.cancelled {
            merged.core.cancelled.insert(*f);
        }
        for f in &c.charged {
            merged.core.charged.insert(*f);
        }
    }
    merged.core.partition = cores.first().and_then(|c| c.partition.clone());
    // Not-yet-applied chaos: re-filter the original schedule so channel
    // and router events land once (shards held disjoint copies, plus
    // broadcast partition mirrors we must not double-apply).
    merged.core.chaos = orig_chaos
        .into_iter()
        .filter(|ev| ev.at > now)
        .collect::<VecDeque<ChaosEvent>>();

    // The merged engine continues shard 0's RNG stream (the stream that
    // carried the master seed), keeping `split(sim, 1)`-equivalent runs
    // on the serial draw sequence.
    if let Some(c0) = cores.get_mut(0) {
        merged.core.rng = std::mem::replace(&mut c0.rng, StdRng::seed_from_u64(0));
    }

    // Pending events: drain shard queues in shard order; pops are
    // already (time, seq)-sorted within a shard, and fresh sequence
    // numbers give a deterministic (time, shard) global order. Stale
    // timers (pre-crash epochs) are dropped here because the merged
    // epoch space restarts at zero.
    for c in cores.iter_mut() {
        while let Some(sch) = c.queue.pop() {
            if matches!(sch.event, Event::Timer { .. })
                && sch.seq < c.node_epoch.get(sch.target.0).copied().unwrap_or(0)
            {
                continue;
            }
            merged.core.push(sch.time, sch.target, sch.event);
        }
    }

    // Flight recorders merge: capacity sums, events re-sort by
    // (timestamp, shard), eviction counters add.
    let flights: Vec<FlightRecorder> = cores.iter_mut().filter_map(|c| c.flight.take()).collect();
    if !flights.is_empty() {
        merged.core.flight = merge_flights(flights);
    }

    merged.nodes = nodes;
    merged
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
    use crate::engine::{Context, NodeId};

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
}
