//! The deterministic discrete-event engine.
//!
//! Nodes (hosts, routers, switches, shared segments) exchange byte frames
//! over **channels**. A channel models a transmission medium with a fixed
//! data rate and propagation delay and one or more taps; a point-to-point
//! full-duplex link is a pair of two-tap channels, a classic Ethernet is a
//! single many-tap channel (half-duplex broadcast bus).
//!
//! ## Partial arrival and cut-through
//!
//! The engine delivers a [`Event::Frame`] to every receiving tap at the
//! moment the **first bit** arrives, carrying the time at which the
//! **last bit** will arrive and the channel rate. A cut-through router
//! can therefore act as soon as the decision fields have arrived
//! (`first_bit + transmission_time(header_len, rate)`), while a
//! store-and-forward router simply waits for `last_bit` — both faithful
//! to the byte-level timing the paper's §6.1 delay arithmetic relies on.
//!
//! ## Preemption
//!
//! A sender may abort its own in-flight transmission
//! ([`Context::abort_current_tx`]) — this is how priorities 6 and 7
//! preempt lower-priority packets mid-transmission (§5). Downstream taps
//! receive [`Event::FrameAborted`] strictly before the aborted frame's
//! `last_bit`, so no receiver can have acted on a complete frame that
//! never fully arrived.
//!
//! ## Determinism
//!
//! Events are ordered by `(time, sequence)` where the sequence is the
//! scheduling order; the only randomness flows from the seeded RNG, so a
//! run is reproducible bit-for-bit from its seed.

use std::any::Any;
use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sirpent_telemetry::{Counter, FlightRecorder, HopEvent, HopKind, Registry, RegistryError};
use sirpent_wire::buf::FrameBuf;

use crate::chaos::{ChaosAction, ChaosEvent, FaultSchedule};
use crate::queue::{CalendarQueue, EventQueue, HeapQueue, Keyed, QueueKind};
use crate::stats::{DropReason, PipelineStats};
use crate::time::{bytes_in, transmission_time, SimDuration, SimTime};

/// Identifies a node within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifies a channel within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelId(pub usize);

/// Identifies one transmitted frame instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameId(pub u64);

/// A frame in flight: an identity plus its bytes.
///
/// The contents are a [`FrameBuf`]: an owned link header in front of a
/// shared, cheaply-cloneable packet body. The engine's per-tap fan-out
/// clones the `FrameBuf`, so a broadcast to N taps copies N small link
/// headers and zero packet bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Engine-assigned unique id.
    pub id: FrameId,
    /// The frame contents.
    pub payload: FrameBuf,
}

/// Delivery of a frame's first bit at a receiving tap.
#[derive(Debug, Clone)]
pub struct FrameEvent {
    /// The local port the frame is arriving on.
    pub port: u8,
    /// The arriving frame (complete bytes; timing fields say when they
    /// are *valid*).
    pub frame: Frame,
    /// When the first bit arrived (== the event's delivery time).
    pub first_bit: SimTime,
    /// When the last bit will have arrived.
    pub last_bit: SimTime,
    /// The channel's data rate, for computing per-byte arrival times.
    pub rate_bps: u64,
    /// Whether the fault injector corrupted this copy.
    pub corrupted: bool,
}

impl FrameEvent {
    /// The instant by which the first `n` bytes have arrived.
    pub fn byte_arrival(&self, n: usize) -> SimTime {
        self.first_bit + transmission_time(n, self.rate_bps)
    }
}

/// An event delivered to a node.
#[derive(Debug, Clone)]
pub enum Event {
    /// First bit of a frame has arrived on a port.
    Frame(FrameEvent),
    /// A frame previously announced on this port was aborted by its
    /// sender after `bytes_received` bytes.
    FrameAborted {
        /// The local receiving port.
        port: u8,
        /// Which frame was aborted.
        frame: FrameId,
        /// Bytes that made it onto the wire before the abort.
        bytes_received: usize,
    },
    /// A transmission this node started on `port` has finished clocking
    /// out.
    TxDone {
        /// The local transmitting port.
        port: u8,
        /// The completed frame.
        frame: FrameId,
    },
    /// A transmission this node started on `port` was killed by the
    /// engine (link went down mid-frame, chaos layer). The engine has
    /// already accounted the loss; the node should only release any
    /// soft state tied to the transmission (e.g. clear its "current
    /// frame" slot) — it must **not** count a drop of its own.
    TxAborted {
        /// The local transmitting port.
        port: u8,
        /// The killed frame.
        frame: FrameId,
    },
    /// A timer set via [`Context::schedule_in`] / [`Context::schedule_at`]
    /// fired.
    Timer {
        /// The caller-chosen key.
        key: u64,
    },
}

/// Information returned when a transmission is accepted.
#[derive(Debug, Clone, Copy)]
pub struct TxInfo {
    /// Engine-assigned frame id.
    pub frame: FrameId,
    /// When the first bit goes onto the wire (>= now; later if the
    /// channel was busy).
    pub start: SimTime,
    /// When the last bit goes onto the wire.
    pub end: SimTime,
}

/// Information returned when an in-flight transmission is aborted.
#[derive(Debug, Clone, Copy)]
pub struct AbortInfo {
    /// The aborted frame.
    pub frame: FrameId,
    /// Bytes already clocked out when the abort took effect.
    pub bytes_sent: usize,
}

/// Engine-level errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// The (node, port) pair is not attached to any channel for
    /// transmission.
    PortNotAttached,
    /// Abort was requested but the channel has queued transmissions
    /// behind the current one (aborting is only supported for a sole
    /// transmitter, e.g. a router output onto a point-to-point link).
    AbortWithQueue,
    /// Abort was requested but nothing this node sent is on the wire.
    NothingToAbort,
    /// The channel behind the port is administratively down (chaos
    /// layer); the transmission was refused.
    LinkDown,
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::PortNotAttached => write!(f, "port not attached to a channel"),
            SimError::AbortWithQueue => write!(f, "cannot abort with queued transmissions"),
            SimError::NothingToAbort => write!(f, "no in-flight transmission to abort"),
            SimError::LinkDown => write!(f, "channel is down"),
        }
    }
}

impl std::error::Error for SimError {}

/// Fault-injection configuration for a channel (applied independently per
/// receiving tap, seeded-deterministic).
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultConfig {
    /// Probability a delivered copy is dropped entirely.
    pub drop_prob: f64,
    /// Probability one random byte of a delivered copy is corrupted.
    pub corrupt_prob: f64,
}

impl FaultConfig {
    /// Check that both probabilities are finite and within `0.0..=1.0`.
    /// Validated once at [`Simulator::set_faults`] time so the delivery
    /// hot path can use them unclamped.
    pub fn validate(&self) -> Result<(), &'static str> {
        for p in [self.drop_prob, self.corrupt_prob] {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err("fault probability must be finite and within 0.0..=1.0");
            }
        }
        Ok(())
    }
}

/// Per-channel counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChannelStats {
    /// Frames accepted for transmission.
    pub frames: u64,
    /// Bytes accepted for transmission.
    pub bytes: u64,
    /// Wire-busy time accumulated.
    pub busy: SimDuration,
    /// Copies dropped by fault injection.
    pub drops: u64,
    /// Copies corrupted by fault injection.
    pub corrupted: u64,
    /// Transmissions aborted by their sender.
    pub aborts: u64,
    /// Extra copies injected by a chaos duplication window.
    pub duplicated: u64,
}

impl ChannelStats {
    /// Fraction of `[0, horizon)` the wire was busy.
    pub fn utilization(&self, horizon: SimDuration) -> f64 {
        if horizon.as_nanos() == 0 {
            0.0
        } else {
            self.busy.as_nanos() as f64 / horizon.as_nanos() as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct TxRecord {
    sender: NodeId,
    frame: FrameId,
    start: SimTime,
    end: SimTime,
    /// Extra propagation delay drawn by an active jitter window (zero
    /// otherwise); added to every receiver-side instant for this frame.
    extra: SimDuration,
    /// Every receiver copy was suppressed at transmit time (partition
    /// cut or fault-injector drop) and accounted there. A later chaos
    /// kill must not count this record a second time.
    condemned: bool,
}

pub(crate) struct Channel {
    pub(crate) rate_bps: u64,
    pub(crate) prop: SimDuration,
    pub(crate) taps: Vec<(NodeId, u8)>,
    pub(crate) free_at: SimTime,
    pub(crate) in_flight: VecDeque<TxRecord>,
    pub(crate) faults: FaultConfig,
    pub(crate) stats: ChannelStats,
    /// Administrative link state (chaos layer). Down channels refuse
    /// transmissions.
    pub(crate) up: bool,
    /// Active duplication window probability (0 = no window).
    pub(crate) dup_prob: f64,
    /// Active jitter window bound (zero = no window).
    pub(crate) jitter_max: SimDuration,
    /// Active error-burst window probability (0 = no window).
    pub(crate) burst_prob: f64,
    /// Active error-burst window maximum run length, bytes.
    pub(crate) burst_run: usize,
}

impl Channel {
    /// An empty shell mirroring a channel owned by another shard: same
    /// wire parameters (so id-indexed lookups stay aligned) but no taps,
    /// so nothing can transmit into it and no state ever accrues.
    pub(crate) fn shell(rate_bps: u64, prop: SimDuration) -> Channel {
        Channel {
            rate_bps,
            prop,
            taps: Vec::new(),
            free_at: SimTime::ZERO,
            in_flight: VecDeque::new(),
            faults: FaultConfig::default(),
            stats: ChannelStats::default(),
            up: true,
            dup_prob: 0.0,
            jitter_max: SimDuration::ZERO,
            burst_prob: 0.0,
            burst_run: 0,
        }
    }
}

/// The behaviour of a simulated node.
///
/// `Send` is a supertrait so a [`Simulator`] (and therefore one shard of
/// a [`crate::shard::ShardedSimulator`]) can move across the scoped
/// worker threads of the parallel runner; node state is owned plain data,
/// never shared, so no `Sync` bound is needed.
pub trait Node: Send + 'static {
    /// Handle one event. `ctx` gives access to the clock, channels and
    /// scheduler.
    fn on_event(&mut self, ctx: &mut Context<'_>, ev: Event);

    /// Handle a batch of same-instant events addressed to this node, in
    /// scheduling order. The engine gathers maximal runs of events with
    /// the same `(time, target)` and delivers them through this entry
    /// point, amortizing dispatch overhead; `TxDone` is always delivered
    /// solo through [`Node::on_event`] (its transmit-retirement
    /// bookkeeping must interleave exactly with abort decisions).
    ///
    /// The default drains the batch through [`Node::on_event`] one
    /// event at a time, so overriding is purely an optimization; an
    /// override must preserve per-event observable behavior (stats,
    /// transmissions, timers) exactly — the golden-trace fixtures pin
    /// it.
    fn on_events(&mut self, ctx: &mut Context<'_>, batch: &mut Vec<Event>) {
        for ev in batch.drain(..) {
            self.on_event(ctx, ev);
        }
    }

    /// Downcast support (used by tests and harnesses to inspect node
    /// state after a run).
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// The node's uniform data-plane counters, if it keeps any. Nodes
    /// with a data plane (routers, switches, hosts) return their
    /// [`crate::stats::PipelineStats`] here so the engine, benches, and
    /// experiment scripts can scrape any node without downcasting.
    fn node_stats(&self) -> Option<&dyn crate::stats::NodeStats> {
        None
    }

    /// Called by the chaos layer when the node restarts after a crash.
    /// Implementations lose whatever their crash/restart contract says a
    /// reboot loses (soft state: queues, caches, pacing) — durable
    /// configuration and already-scraped counters survive. Default: the
    /// node is stateless across restarts.
    fn on_restart(&mut self) {}

    /// Publish this node's telemetry instruments into `reg` at scrape
    /// time, under static names from [`sirpent_telemetry::names`].
    /// [`Simulator::scrape_telemetry`] absorbs every node's registry
    /// into one fleet-wide scrape. Default: publishes nothing.
    fn publish_telemetry(&self, reg: &mut Registry) -> Result<(), RegistryError> {
        let _ = reg;
        Ok(())
    }
}

pub(crate) struct Scheduled {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) target: NodeId,
    pub(crate) event: Event,
}

impl Keyed for Scheduled {
    fn key(&self) -> (u64, u64) {
        (self.time.as_nanos(), self.seq)
    }
}

/// The engine's event queue: either implementation behind static
/// dispatch (an enum, not a trait object, keeps the per-event hot path
/// free of virtual calls). Both drain in identical `(time, seq)` order;
/// the differential suite in `tests/queue_differential.rs` holds them to
/// it.
pub(crate) enum EngineQueue {
    Heap(HeapQueue<Scheduled>),
    Wheel(CalendarQueue<Scheduled>),
}

impl EngineQueue {
    fn new(kind: QueueKind) -> EngineQueue {
        match kind {
            QueueKind::Heap => EngineQueue::Heap(HeapQueue::new()),
            QueueKind::Calendar => EngineQueue::Wheel(CalendarQueue::new()),
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, item: Scheduled) {
        match self {
            EngineQueue::Heap(q) => q.push(item),
            EngineQueue::Wheel(q) => q.push(item),
        }
    }

    #[inline]
    pub(crate) fn min_key(&mut self) -> Option<(u64, u64)> {
        match self {
            EngineQueue::Heap(q) => q.min_key(),
            EngineQueue::Wheel(q) => q.min_key(),
        }
    }

    #[inline]
    fn peek(&mut self) -> Option<&Scheduled> {
        match self {
            EngineQueue::Heap(q) => q.peek(),
            EngineQueue::Wheel(q) => q.peek(),
        }
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Scheduled> {
        match self {
            EngineQueue::Heap(q) => q.pop(),
            EngineQueue::Wheel(q) => q.pop(),
        }
    }
}

/// A scheduling request that crossed a shard boundary. Produced by
/// [`Core::push`] when the target node lives on another shard (and by
/// [`Core::chaos_kill`] for tombstones of frames already exported); the
/// window runner in [`crate::sync`] exchanges these between shards at
/// window barriers. Conservative-lookahead windows guarantee every
/// `Deliver` lands at or after the next window's start, so the receiving
/// shard's clock has never passed it.
#[derive(Debug, Clone)]
pub(crate) enum OutMsg {
    /// Schedule `event` for `target` at `time` on the target's shard.
    Deliver {
        /// Absolute delivery instant (≥ the end of the window that
        /// produced it).
        time: SimTime,
        /// The remote node the event is addressed to.
        target: NodeId,
        /// The event itself.
        event: Event,
    },
    /// Tombstone a frame id on every other shard: its queued transmission
    /// was chaos-killed before the first bit, after delivery events may
    /// already have been exported. Exchanged at the window barrier, which
    /// always precedes the delivery's dispatch window.
    Cancel {
        /// The cancelled frame.
        frame: FrameId,
    },
}

/// Chaos-layer event counters (telemetry instruments; published by
/// [`Simulator::scrape_telemetry`] under the `chaos_*` names).
#[derive(Debug, Default)]
pub(crate) struct ChaosCounters {
    /// Every applied chaos action.
    pub(crate) events: Counter,
    /// Link up/down transitions.
    pub(crate) link: Counter,
    /// Router crash/restart transitions.
    pub(crate) router: Counter,
    /// Partition windows opened or closed.
    pub(crate) partition: Counter,
    /// Channel-condition window updates (dup / jitter / error burst).
    pub(crate) windows: Counter,
}

/// Everything in the simulator except the node objects themselves — this
/// split lets a node borrow the core mutably (through [`Context`]) while
/// it is itself borrowed for dispatch.
pub(crate) struct Core {
    pub(crate) now: SimTime,
    /// Scheduling sequence: strictly monotone for the whole run. Chaos
    /// restarts and purges never rewind it — `node_epoch` fences stale
    /// timers by remembering the sequence watermark instead — so a
    /// `(time, seq)` key is never reused and tie-breaks stay
    /// deterministic across crash/restart cycles.
    pub(crate) seq: u64,
    pub(crate) frame_seq: u64,
    pub(crate) queue: EngineQueue,
    pub(crate) channels: Vec<Channel>,
    /// Transmit attachment per node: `(port, channel)` pairs, linear
    /// scanned (nodes have a handful of ports; beats hashing on the
    /// per-event path).
    pub(crate) tx_map: Vec<Vec<(u8, ChannelId)>>,
    /// Reusable receiver scratch for `transmit_from`/`abort_from` — the
    /// per-transmission fan-out list without a per-call allocation.
    rx_scratch: Vec<(NodeId, u8)>,
    pub(crate) rng: StdRng,
    pub(crate) events_dispatched: u64,
    /// Remaining chaos events, time-sorted (front = next).
    pub(crate) chaos: VecDeque<ChaosEvent>,
    /// Engine-side accounting for chaos-layer losses (LinkDown,
    /// RouterDown, Partitioned), through the shared drop taxonomy.
    pub(crate) chaos_stats: PipelineStats,
    /// Per-node crashed flag (indexed by `NodeId`).
    pub(crate) down: Vec<bool>,
    /// Per-node restart epoch: timers scheduled before this sequence
    /// number are stale soft state from before the last crash and are
    /// swallowed.
    pub(crate) node_epoch: Vec<u64>,
    /// Active partition window: per-node side flag (`true` = side A).
    pub(crate) partition: Option<Vec<bool>>,
    /// Frames whose scheduled deliveries were cancelled before their
    /// first bit (queued transmissions killed by a link-down or crash).
    pub(crate) cancelled: std::collections::BTreeSet<FrameId>,
    /// Frames already charged to the chaos ledger by a mid-flight kill
    /// whose (stale) delivery events are still queued. [`admit`] drains
    /// entries as those events surface so a crashed receiver doesn't
    /// charge the same frame a second `RouterDown` drop.
    pub(crate) charged: std::collections::BTreeSet<FrameId>,
    /// Chaos-layer telemetry counters.
    pub(crate) chaos_counters: ChaosCounters,
    /// The per-packet flight recorder; `None` (the default) records
    /// nothing and leaves every instrumented path byte-identical.
    pub(crate) flight: Option<FlightRecorder>,
    /// The RNG seed this core was created with (recorded so the shard
    /// splitter can derive per-shard streams from the master seed).
    pub(crate) seed: u64,
    /// Which [`EngineQueue`] implementation this core runs on (recorded
    /// so shard shells inherit it).
    pub(crate) queue_kind: QueueKind,
    /// Sharding: `remote[n]` marks nodes owned by another shard. Empty
    /// (or all-false) in a serial simulator, so the single branch it adds
    /// to [`Core::push`] never fires and serial behavior — including seq
    /// allocation — is byte-identical.
    pub(crate) remote: Vec<bool>,
    /// Sharding: events addressed to remote nodes, awaiting the next
    /// window-barrier exchange. Always empty in a serial simulator.
    pub(crate) outbox: Vec<OutMsg>,
    /// Sharding: this shard holds a broadcast mirror of global chaos
    /// state (partition windows). Mirrors apply the state change but
    /// suppress the partition telemetry counters so a merged scrape
    /// counts each global event exactly once.
    pub(crate) chaos_mirror: bool,
}

impl Core {
    pub(crate) fn push(&mut self, time: SimTime, target: NodeId, event: Event) {
        debug_assert!(time >= self.now, "cannot schedule into the past");
        if self.remote.get(target.0).copied().unwrap_or(false) {
            self.outbox.push(OutMsg::Deliver {
                time,
                target,
                event,
            });
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        // Sequence-reuse audit: the counter must never wrap within a run
        // (a reused `(time, seq)` key would silently break tie-break
        // determinism — and the calendar queue's drain contract).
        debug_assert!(self.seq != 0, "scheduling sequence wrapped");
        self.queue.push(Scheduled {
            time,
            seq,
            target,
            event,
        });
    }

    /// The channel `(node, port)` transmits into, if attached.
    #[inline]
    fn tx_lookup(&self, node: NodeId, port: u8) -> Option<ChannelId> {
        self.tx_map
            .get(node.0)?
            .iter()
            .find(|&&(p, _)| p == port)
            .map(|&(_, ch)| ch)
    }

    /// Record a transmit attachment. Returns `false` when the pair is
    /// already attached elsewhere.
    fn tx_insert(&mut self, node: NodeId, port: u8, ch: ChannelId) -> bool {
        while self.tx_map.len() <= node.0 {
            self.tx_map.push(Vec::new());
        }
        if self.tx_lookup(node, port).is_some() {
            return false;
        }
        if let Some(ports) = self.tx_map.get_mut(node.0) {
            ports.push((port, ch));
        }
        true
    }

    fn transmit_from(
        &mut self,
        sender: NodeId,
        port: u8,
        payload: FrameBuf,
    ) -> Result<TxInfo, SimError> {
        let ch_id = self
            .tx_lookup(sender, port)
            .ok_or(SimError::PortNotAttached)?;
        if !self.channels[ch_id.0].up {
            return Err(SimError::LinkDown);
        }
        let now = self.now;
        let frame = FrameId(self.frame_seq);
        self.frame_seq += 1;
        // Jitter window: one extra-propagation draw per transmission,
        // shared by every receiver of this frame so per-frame ordering
        // invariants (abort before tail) survive reordering. No draw —
        // and hence no RNG perturbation — outside a window.
        let jitter_max = self.channels[ch_id.0].jitter_max;
        let extra = if jitter_max > SimDuration::ZERO {
            SimDuration(self.rng.gen_range(0..=jitter_max.as_nanos()))
        } else {
            SimDuration::ZERO
        };
        let mut receivers = std::mem::take(&mut self.rx_scratch);
        receivers.clear();
        let (start, end, prop, rate) = {
            let ch = &mut self.channels[ch_id.0];
            let start = ch.free_at.max(now);
            let end = start + transmission_time(payload.len(), ch.rate_bps);
            ch.free_at = end;
            ch.in_flight.push_back(TxRecord {
                sender,
                frame,
                start,
                end,
                extra,
                condemned: false,
            });
            ch.stats.frames += 1;
            ch.stats.bytes += payload.len() as u64;
            ch.stats.busy = ch.stats.busy + (end - start);
            receivers.extend(ch.taps.iter().copied().filter(|&(n, _)| n != sender));
            (start, end, ch.prop, ch.rate_bps)
        };

        // Sender notification when the last bit clocks out.
        self.push(end, sender, Event::TxDone { port, frame });

        // Per-tap delivery with fault injection. The payload moves into
        // the final tap's copy — a point-to-point link (one receiver)
        // delivers with zero clones.
        let n_receivers = receivers.len();
        let mut suppressed = 0usize;
        let mut payload = Some(payload);
        for (i, &(node, rx_port)) in receivers.iter().enumerate() {
            // Partition window: suppression is deterministic (no RNG
            // draw), so an active partition never perturbs the fault
            // injector's sequence for unaffected flows.
            if let Some(sides) = self.partition.as_ref() {
                let side = |n: NodeId| sides.get(n.0).copied().unwrap_or(false);
                if side(sender) != side(node) {
                    self.chaos_stats.drop(DropReason::Partitioned);
                    suppressed += 1;
                    continue;
                }
            }
            let f = self.channels[ch_id.0].faults;
            let (drop_p, corrupt_p) = (f.drop_prob, f.corrupt_prob);
            if drop_p > 0.0 && self.rng.gen_bool(drop_p) {
                self.channels[ch_id.0].stats.drops += 1;
                suppressed += 1;
                continue;
            }
            // Sharing: each tap's copy is a FrameBuf clone (header bytes
            // only); the last tap takes the original. The body is
            // materialized into a private buffer only when the fault
            // injector actually corrupts this copy.
            let copy = if i + 1 == n_receivers {
                payload.take()
            } else {
                payload.clone()
            };
            let Some(mut copy) = copy else { continue };
            let mut corrupted = false;
            if corrupt_p > 0.0 && !copy.is_empty() && self.rng.gen_bool(corrupt_p) {
                let mut v = copy.to_vec();
                let i = self.rng.gen_range(0..v.len());
                let mut flip = 0u8;
                while flip == 0 {
                    flip = self.rng.gen();
                }
                v[i] ^= flip;
                copy = FrameBuf::from(v);
                corrupted = true;
                self.channels[ch_id.0].stats.corrupted += 1;
            }
            // Error-burst window: a contiguous run of bytes takes hits.
            let burst_p = self.channels[ch_id.0].burst_prob;
            if burst_p > 0.0 && !copy.is_empty() && self.rng.gen_bool(burst_p) {
                let mut v = copy.to_vec();
                let run_max = self.channels[ch_id.0].burst_run.min(v.len()).max(1);
                let run = self.rng.gen_range(1..=run_max);
                let at = self.rng.gen_range(0..=v.len() - run);
                for b in &mut v[at..at + run] {
                    let mut flip = 0u8;
                    while flip == 0 {
                        flip = self.rng.gen();
                    }
                    *b ^= flip;
                }
                copy = FrameBuf::from(v);
                if !corrupted {
                    corrupted = true;
                    self.channels[ch_id.0].stats.corrupted += 1;
                }
            }
            let fe = FrameEvent {
                port: rx_port,
                frame: Frame {
                    id: frame,
                    payload: copy,
                },
                first_bit: start + prop + extra,
                last_bit: end + prop + extra,
                rate_bps: rate,
                corrupted,
            };
            // Duplication window: the copy may be delivered twice.
            let dup_p = self.channels[ch_id.0].dup_prob;
            let dup = dup_p > 0.0 && self.rng.gen_bool(dup_p);
            if dup {
                self.channels[ch_id.0].stats.duplicated += 1;
                self.push(start + prop + extra, node, Event::Frame(fe.clone()));
            }
            self.push(start + prop + extra, node, Event::Frame(fe));
        }
        // Every copy was suppressed and accounted above: mark the record
        // so a chaos kill that later sweeps this channel doesn't charge
        // the same frame a second drop. The record still occupies the
        // wire until its last bit — the sender really transmitted.
        if n_receivers > 0 && suppressed == n_receivers {
            if let Some(rec) = self.channels[ch_id.0]
                .in_flight
                .iter_mut()
                .rev()
                .find(|r| r.frame == frame)
            {
                rec.condemned = true;
            }
        }
        self.rx_scratch = receivers;

        Ok(TxInfo { frame, start, end })
    }

    fn abort_from(&mut self, sender: NodeId, port: u8) -> Result<AbortInfo, SimError> {
        let ch_id = self
            .tx_lookup(sender, port)
            .ok_or(SimError::PortNotAttached)?;
        let now = self.now;
        let mut receivers = std::mem::take(&mut self.rx_scratch);
        receivers.clear();
        let (frame, bytes_sent, prop, extra) = {
            let ch = &mut self.channels[ch_id.0];
            let Some(front) = ch.in_flight.front().copied() else {
                self.rx_scratch = receivers;
                return Err(SimError::NothingToAbort);
            };
            if front.sender != sender || front.start > now || front.end <= now {
                self.rx_scratch = receivers;
                return Err(SimError::NothingToAbort);
            }
            if ch.in_flight.len() > 1 {
                self.rx_scratch = receivers;
                return Err(SimError::AbortWithQueue);
            }
            ch.in_flight.pop_front();
            ch.free_at = now;
            ch.stats.aborts += 1;
            // Give back the unspent busy time.
            let unspent = front.end - now;
            ch.stats.busy =
                SimDuration(ch.stats.busy.as_nanos().saturating_sub(unspent.as_nanos()));
            let bytes_sent = bytes_in(now - front.start, ch.rate_bps);
            receivers.extend(ch.taps.iter().copied().filter(|&(n, _)| n != sender));
            (front.frame, bytes_sent, ch.prop, front.extra)
        };
        // The abort rides the same (jittered) propagation path as the
        // frame itself, so it still lands strictly before the tail.
        for &(node, rx_port) in receivers.iter() {
            self.push(
                now + prop + extra,
                node,
                Event::FrameAborted {
                    port: rx_port,
                    frame,
                    bytes_received: bytes_sent,
                },
            );
        }
        self.rx_scratch = receivers;
        Ok(AbortInfo { frame, bytes_sent })
    }

    /// Chaos layer: kill every unfinished transmission on `ch_id` that
    /// matches `pred`, accounting each as a `why` drop. Mid-flight
    /// frames are aborted toward their receivers (same ordering contract
    /// as sender aborts); queued-but-unstarted frames are cancelled
    /// before their first bit ever appears. Records whose last bit has
    /// already clocked out are left for normal `TxDone` retirement. The
    /// sender of each killed transmission gets [`Event::TxAborted`].
    fn chaos_kill(&mut self, ch_id: ChannelId, why: DropReason, pred: impl Fn(&TxRecord) -> bool) {
        let now = self.now;
        let (prop, rate, taps, killed) = {
            let ch = &mut self.channels[ch_id.0];
            let mut kept = VecDeque::new();
            let mut killed = Vec::new();
            while let Some(rec) = ch.in_flight.pop_front() {
                if rec.end > now && pred(&rec) {
                    killed.push(rec);
                } else {
                    kept.push_back(rec);
                }
            }
            ch.in_flight = kept;
            if !killed.is_empty() {
                // The wire frees when the last survivor ends.
                let tail = ch.in_flight.iter().map(|r| r.end).max().unwrap_or(now);
                ch.free_at = tail.max(now);
                for rec in &killed {
                    // Give back the unspent busy time.
                    let unspent = rec.end - rec.start.max(now);
                    ch.stats.busy =
                        SimDuration(ch.stats.busy.as_nanos().saturating_sub(unspent.as_nanos()));
                    if rec.start <= now {
                        ch.stats.aborts += 1;
                    }
                }
            }
            (ch.prop, ch.rate_bps, ch.taps.clone(), killed)
        };
        for rec in killed {
            // A condemned record was already accounted (partition cut or
            // fault-injector drop) when its deliveries were suppressed at
            // transmit time; charging it again here would break packet
            // conservation. The wire-freeing and abort notices above and
            // below still apply — only the ledger entry is skipped.
            if !rec.condemned {
                self.chaos_stats.drop(why);
            }
            if rec.start <= now {
                // Mid-flight: receivers have (or will have) seen the
                // first bit — retract it ahead of the phantom tail. The
                // already-scheduled delivery events stay queued; remember
                // the charge so a crashed receiver's `admit` doesn't
                // count the frame again when they surface.
                if !rec.condemned {
                    self.charged.insert(rec.frame);
                }
                let bytes_sent = bytes_in(now - rec.start, rate);
                for &(node, rx_port) in taps.iter().filter(|&&(n, _)| n != rec.sender) {
                    self.push(
                        now + prop + rec.extra,
                        node,
                        Event::FrameAborted {
                            port: rx_port,
                            frame: rec.frame,
                            bytes_received: bytes_sent,
                        },
                    );
                }
            } else {
                // Queued: the scheduled first-bit deliveries are
                // tombstoned; receivers never hear of the frame. If any
                // tap lives on another shard, the delivery was already
                // exported — send the tombstone after it. The window
                // algebra guarantees it wins the race: the kill happens
                // inside the current window while the delivery dispatches
                // no earlier than the next one, and the barrier exchange
                // sits in between.
                self.cancelled.insert(rec.frame);
                if !self.remote.is_empty()
                    && taps
                        .iter()
                        .any(|&(n, _)| self.remote.get(n.0).copied().unwrap_or(false))
                {
                    self.outbox.push(OutMsg::Cancel { frame: rec.frame });
                }
            }
            if let Some(&(_, tx_port)) = taps.iter().find(|&&(n, _)| n == rec.sender) {
                self.push(
                    now,
                    rec.sender,
                    Event::TxAborted {
                        port: tx_port,
                        frame: rec.frame,
                    },
                );
            }
        }
    }
}

/// The node-facing handle into the simulation during event dispatch.
pub struct Context<'a> {
    core: &'a mut Core,
    me: NodeId,
}

impl Context<'_> {
    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Queue a frame for transmission out `port`. Accepts anything that
    /// converts into a [`FrameBuf`] — a composed header+body frame, a
    /// shared [`sirpent_wire::buf::PacketBuf`], or a plain `Vec<u8>`. If
    /// the channel is busy the transmission starts when it frees (FIFO in
    /// call order); use [`Context::channel_free_at`] to implement smarter
    /// queueing above.
    pub fn transmit(&mut self, port: u8, frame: impl Into<FrameBuf>) -> Result<TxInfo, SimError> {
        self.core.transmit_from(self.me, port, frame.into())
    }

    /// When the channel behind `port` becomes idle (now or earlier means
    /// idle already).
    pub fn channel_free_at(&self, port: u8) -> Result<SimTime, SimError> {
        let ch = self
            .core
            .tx_lookup(self.me, port)
            .ok_or(SimError::PortNotAttached)?;
        Ok(self.core.channels[ch.0].free_at)
    }

    /// The data rate of the channel behind `port`.
    pub fn channel_rate(&self, port: u8) -> Result<u64, SimError> {
        let ch = self
            .core
            .tx_lookup(self.me, port)
            .ok_or(SimError::PortNotAttached)?;
        Ok(self.core.channels[ch.0].rate_bps)
    }

    /// Whether the channel behind `port` is up (chaos link state). This
    /// is what a real switch learns from loss-of-carrier on the failed
    /// link — local knowledge, available at route-decision time.
    pub fn link_up(&self, port: u8) -> Result<bool, SimError> {
        let ch = self
            .core
            .tx_lookup(self.me, port)
            .ok_or(SimError::PortNotAttached)?;
        Ok(self.core.channels[ch.0].up)
    }

    /// Whether the peer behind `port` is up. Exact for point-to-point
    /// links (one non-self tap: that node's crashed flag); conservative
    /// `true` for shared-bus channels, where no single peer owns the
    /// medium. Models link-level liveness detection (keepalive /
    /// carrier) between adjacent routers — still strictly local state.
    pub fn peer_up(&self, port: u8) -> Result<bool, SimError> {
        let ch = self
            .core
            .tx_lookup(self.me, port)
            .ok_or(SimError::PortNotAttached)?;
        let mut peers = self.core.channels[ch.0]
            .taps
            .iter()
            .filter(|&&(n, _)| n != self.me)
            .map(|&(n, _)| n);
        match (peers.next(), peers.next()) {
            (Some(peer), None) => Ok(!self.core.down.get(peer.0).copied().unwrap_or(false)),
            _ => Ok(true),
        }
    }

    /// Abort this node's own in-flight transmission on `port` (priority
    /// 6/7 preemption, §5). Downstream taps are notified.
    pub fn abort_current_tx(&mut self, port: u8) -> Result<AbortInfo, SimError> {
        self.core.abort_from(self.me, port)
    }

    /// Deliver a [`Event::Timer`] with `key` to this node after `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, key: u64) {
        let at = self.core.now + delay;
        self.core.push(at, self.me, Event::Timer { key });
    }

    /// Deliver a [`Event::Timer`] with `key` to this node at `time`
    /// (clamped to now).
    pub fn schedule_at(&mut self, time: SimTime, key: u64) {
        let at = time.max(self.core.now);
        self.core.push(at, self.me, Event::Timer { key });
    }

    /// The seeded simulation RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.core.rng
    }

    /// Whether the flight recorder is on. Callers use this to skip key
    /// extraction entirely when disabled, keeping the off path free.
    pub fn flight_enabled(&self) -> bool {
        self.core.flight.is_some()
    }

    /// Record a flight hop event for packet `key` at the current instant
    /// (no-op when the recorder is disabled). Draws no randomness.
    pub fn flight_record(&mut self, key: u64, kind: HopKind) {
        let now = self.core.now;
        self.flight_record_at(now, key, kind);
    }

    /// Record a flight hop event at an explicit instant — e.g. a frame's
    /// first-bit arrival, which precedes the dispatch instant the node
    /// runs at (no-op when the recorder is disabled).
    pub fn flight_record_at(&mut self, t: SimTime, key: u64, kind: HopKind) {
        let node = self.me.0 as u32;
        if let Some(fr) = self.core.flight.as_mut() {
            fr.record(HopEvent {
                key,
                node,
                t_ns: t.as_nanos(),
                kind,
            });
        }
    }
}

/// The simulator: nodes + core.
pub struct Simulator {
    pub(crate) core: Core,
    pub(crate) nodes: Vec<Option<Box<dyn Node>>>,
    /// Reusable same-instant dispatch batch (see [`Node::on_events`]).
    pub(crate) batch: Vec<Event>,
}

impl Simulator {
    /// Create a simulator with the given RNG seed, on the default
    /// (calendar-queue) scheduler.
    pub fn new(seed: u64) -> Simulator {
        Simulator::with_queue(seed, QueueKind::default())
    }

    /// Create a simulator on an explicit [`QueueKind`] — the reference
    /// heap or the calendar queue. Identical seeds must produce
    /// identical runs on either; the differential suite asserts it.
    pub fn with_queue(seed: u64, kind: QueueKind) -> Simulator {
        Simulator {
            core: Core {
                now: SimTime::ZERO,
                seq: 0,
                frame_seq: 0,
                queue: EngineQueue::new(kind),
                channels: Vec::new(),
                tx_map: Vec::new(),
                rx_scratch: Vec::new(),
                rng: StdRng::seed_from_u64(seed),
                events_dispatched: 0,
                chaos: VecDeque::new(),
                chaos_stats: PipelineStats::new(),
                down: Vec::new(),
                node_epoch: Vec::new(),
                partition: None,
                cancelled: std::collections::BTreeSet::new(),
                charged: std::collections::BTreeSet::new(),
                chaos_counters: ChaosCounters::default(),
                flight: None,
                seed,
                queue_kind: kind,
                remote: Vec::new(),
                outbox: Vec::new(),
                chaos_mirror: false,
            },
            nodes: Vec::new(),
            batch: Vec::new(),
        }
    }

    /// Add a node; returns its id.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Some(node));
        self.core.down.push(false);
        self.core.node_epoch.push(0);
        if !self.core.remote.is_empty() {
            self.core.remote.push(false);
        }
        id
    }

    /// Create a channel (no taps yet).
    pub fn add_channel(&mut self, rate_bps: u64, prop: SimDuration) -> ChannelId {
        let id = ChannelId(self.core.channels.len());
        self.core.channels.push(Channel {
            rate_bps,
            prop,
            taps: Vec::new(),
            free_at: SimTime::ZERO,
            in_flight: VecDeque::new(),
            faults: FaultConfig::default(),
            stats: ChannelStats::default(),
            up: true,
            dup_prob: 0.0,
            jitter_max: SimDuration::ZERO,
            burst_prob: 0.0,
            burst_run: 0,
        });
        id
    }

    /// Attach `(node, port)` as a tap: it both transmits into and
    /// receives from the channel.
    ///
    /// # Panics
    /// Panics if the `(node, port)` pair is already attached for
    /// transmission elsewhere — a port fronts exactly one channel.
    pub fn attach(&mut self, ch: ChannelId, node: NodeId, port: u8) {
        assert!(
            self.core.tx_insert(node, port, ch),
            "port {port} of node {node:?} already attached"
        );
        self.core.channels[ch.0].taps.push((node, port));
    }

    /// Convenience: a full-duplex point-to-point link as two simplex
    /// channels. Returns `(a_to_b, b_to_a)`.
    pub fn p2p(
        &mut self,
        a: NodeId,
        a_port: u8,
        b: NodeId,
        b_port: u8,
        rate_bps: u64,
        prop: SimDuration,
    ) -> (ChannelId, ChannelId) {
        let ab = self.add_channel(rate_bps, prop);
        let ba = self.add_channel(rate_bps, prop);
        // Simplex: the tx side is attached via tx_map; the rx side is a
        // tap that never transmits. Attach sender to its channel and add
        // the receiver as a bare tap.
        assert!(self.core.tx_insert(a, a_port, ab), "port already attached");
        self.core.channels[ab.0].taps.push((a, a_port));
        self.core.channels[ab.0].taps.push((b, b_port));
        assert!(self.core.tx_insert(b, b_port, ba), "port already attached");
        self.core.channels[ba.0].taps.push((b, b_port));
        self.core.channels[ba.0].taps.push((a, a_port));
        (ab, ba)
    }

    /// Set fault injection for a channel.
    ///
    /// # Panics
    /// Panics if either probability is NaN, infinite, or outside
    /// `0.0..=1.0` — validated here once so the delivery hot path never
    /// re-clamps.
    pub fn set_faults(&mut self, ch: ChannelId, faults: FaultConfig) {
        if let Err(e) = faults.validate() {
            panic!("set_faults on channel {}: {e}", ch.0);
        }
        self.core.channels[ch.0].faults = faults;
    }

    /// Install a chaos [`FaultSchedule`]. Events apply when simulated
    /// time reaches them, before node events at the same instant.
    /// Replaces any previously installed schedule's remaining events.
    pub fn install_schedule(&mut self, schedule: FaultSchedule) {
        self.core.chaos = schedule.into_events().into();
    }

    /// Engine-side chaos accounting: losses the chaos layer itself
    /// inflicted (link kills, crashed-receiver drops, partition
    /// suppressions), through the shared drop taxonomy.
    pub fn chaos_stats(&self) -> &PipelineStats {
        &self.core.chaos_stats
    }

    /// Turn on the per-packet flight recorder with a ring bound of
    /// `capacity` hop events. Off by default: a disabled recorder draws
    /// no randomness, allocates nothing, and leaves every instrumented
    /// path — and therefore golden digests — byte-identical.
    ///
    /// # Panics
    /// Panics if `capacity` is zero or its byte size overflows the
    /// address space — validated here once (the [`Simulator::set_faults`]
    /// hoist pattern) so the record hot path never re-checks.
    pub fn enable_flight(&mut self, capacity: usize) {
        match FlightRecorder::new(capacity) {
            Ok(fr) => self.core.flight = Some(fr),
            Err(e) => panic!("enable_flight: {e}"),
        }
    }

    /// The flight recorder, when enabled.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.core.flight.as_ref()
    }

    /// Scrape telemetry fleet-wide: every node's
    /// [`Node::publish_telemetry`] registry plus the engine's own chaos
    /// and flight-recorder instruments, absorbed into one [`Registry`]
    /// (counters and gauges add, histograms merge — order-independent).
    pub fn scrape_telemetry(&self) -> Result<Registry, RegistryError> {
        let mut fleet = Registry::new();
        for node in self.nodes.iter().flatten() {
            let mut reg = Registry::new();
            node.publish_telemetry(&mut reg)?;
            fleet.absorb(reg)?;
        }
        let mut engine = Registry::new();
        let c = &self.core.chaos_counters;
        engine.publish_counter(sirpent_telemetry::names::CHAOS_EVENTS_TOTAL, &c.events)?;
        engine.publish_counter(
            sirpent_telemetry::names::CHAOS_LINK_TRANSITIONS_TOTAL,
            &c.link,
        )?;
        engine.publish_counter(
            sirpent_telemetry::names::CHAOS_ROUTER_TRANSITIONS_TOTAL,
            &c.router,
        )?;
        engine.publish_counter(
            sirpent_telemetry::names::CHAOS_PARTITION_WINDOWS_TOTAL,
            &c.partition,
        )?;
        engine.publish_counter(
            sirpent_telemetry::names::CHAOS_WINDOW_UPDATES_TOTAL,
            &c.windows,
        )?;
        if let Some(fr) = &self.core.flight {
            engine.publish_counter(
                sirpent_telemetry::names::FLIGHT_EVENTS_RECORDED_TOTAL,
                &fr.recorded,
            )?;
            engine.publish_counter(
                sirpent_telemetry::names::FLIGHT_EVENTS_EVICTED_TOTAL,
                &fr.evicted,
            )?;
        }
        fleet.absorb(engine)?;
        Ok(fleet)
    }

    /// Whether `node` is currently crashed by the chaos layer.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.core.down.get(node.0).copied().unwrap_or(false)
    }

    /// Whether a channel is administratively up.
    pub fn is_link_up(&self, ch: ChannelId) -> bool {
        self.core.channels[ch.0].up
    }

    /// Counters for a channel.
    pub fn channel_stats(&self, ch: ChannelId) -> ChannelStats {
        self.core.channels[ch.0].stats
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Total events dispatched so far.
    pub fn events_dispatched(&self) -> u64 {
        self.core.events_dispatched
    }

    /// Schedule an initial event from outside (e.g. kick a host to start
    /// sending at t=0). Instants in the past are clamped to now.
    pub fn kick(&mut self, at: SimTime, node: NodeId, key: u64) {
        let at = at.max(self.core.now);
        self.core.push(at, node, Event::Timer { key });
    }

    /// Apply the front chaos event if it is due before (or at the same
    /// instant as) the next node event. Returns whether one was applied.
    fn step_chaos(&mut self) -> bool {
        let next_key = self.core.queue.min_key();
        let due = match (self.core.chaos.front(), next_key) {
            (Some(ce), Some(k)) => ce.at.as_nanos() <= k.0,
            (Some(_), None) => true,
            (None, _) => return false,
        };
        if !due {
            return false;
        }
        let Some(ce) = self.core.chaos.pop_front() else {
            return false;
        };
        self.core.now = self.core.now.max(ce.at);
        self.apply_chaos(ce.action);
        true
    }

    /// Apply one chaos action at the current instant.
    fn apply_chaos(&mut self, action: ChaosAction) {
        // Partition windows are global state, broadcast to every shard;
        // only the primary (shard 0, or a serial simulator) counts them,
        // so a merged scrape sees each global event exactly once. Router
        // crash/restart is likewise broadcast (adjacent routers on other
        // shards read the crashed flag through `Context::peer_up`); only
        // the shard hosting the node object counts it.
        let resident = match action {
            ChaosAction::RouterCrash { node } | ChaosAction::RouterRestart { node } => {
                self.nodes.get(node.0).map(|n| n.is_some()).unwrap_or(false)
            }
            _ => true,
        };
        let mirror_silent = (self.core.chaos_mirror
            && matches!(
                action,
                ChaosAction::PartitionStart { .. } | ChaosAction::PartitionEnd
            ))
            || !resident;
        if !mirror_silent {
            let c = &mut self.core.chaos_counters;
            c.events.inc();
            match action {
                ChaosAction::LinkDown { .. } | ChaosAction::LinkUp { .. } => c.link.inc(),
                ChaosAction::RouterCrash { .. } | ChaosAction::RouterRestart { .. } => {
                    c.router.inc()
                }
                ChaosAction::PartitionStart { .. } | ChaosAction::PartitionEnd => c.partition.inc(),
                ChaosAction::DuplicateStart { .. }
                | ChaosAction::DuplicateEnd { .. }
                | ChaosAction::JitterStart { .. }
                | ChaosAction::JitterEnd { .. }
                | ChaosAction::ErrorBurstStart { .. }
                | ChaosAction::ErrorBurstEnd { .. } => c.windows.inc(),
            }
        }
        match action {
            ChaosAction::LinkDown { ch } => {
                self.core.channels[ch.0].up = false;
                self.core.chaos_kill(ch, DropReason::LinkDown, |_| true);
            }
            ChaosAction::LinkUp { ch } => {
                let now = self.core.now;
                let c = &mut self.core.channels[ch.0];
                c.up = true;
                c.free_at = c.free_at.max(now);
            }
            ChaosAction::RouterCrash { node } => {
                if let Some(d) = self.core.down.get_mut(node.0) {
                    *d = true;
                }
                // The node's own transmissions die with it, wherever
                // they are on the wire.
                for i in 0..self.core.channels.len() {
                    self.core
                        .chaos_kill(ChannelId(i), DropReason::RouterDown, |r| r.sender == node);
                }
            }
            ChaosAction::RouterRestart { node } => {
                if let Some(d) = self.core.down.get_mut(node.0) {
                    *d = false;
                }
                // Timers set before the crash are stale soft state.
                if let Some(e) = self.core.node_epoch.get_mut(node.0) {
                    *e = self.core.seq;
                }
                if let Some(n) = self.nodes.get_mut(node.0).and_then(|n| n.as_mut()) {
                    n.on_restart();
                }
            }
            ChaosAction::PartitionStart { side_a } => {
                let mut sides = vec![false; self.nodes.len()];
                for n in side_a {
                    if let Some(s) = sides.get_mut(n.0) {
                        *s = true;
                    }
                }
                self.core.partition = Some(sides);
            }
            ChaosAction::PartitionEnd => self.core.partition = None,
            ChaosAction::DuplicateStart { ch, prob } => self.core.channels[ch.0].dup_prob = prob,
            ChaosAction::DuplicateEnd { ch } => self.core.channels[ch.0].dup_prob = 0.0,
            ChaosAction::JitterStart { ch, max_extra } => {
                self.core.channels[ch.0].jitter_max = max_extra;
            }
            ChaosAction::JitterEnd { ch } => {
                self.core.channels[ch.0].jitter_max = SimDuration::ZERO;
            }
            ChaosAction::ErrorBurstStart { ch, prob, max_run } => {
                let c = &mut self.core.channels[ch.0];
                c.burst_prob = prob;
                c.burst_run = max_run;
            }
            ChaosAction::ErrorBurstEnd { ch } => self.core.channels[ch.0].burst_prob = 0.0,
        }
    }

    /// Filter one popped event against the chaos bookkeeping (cancelled
    /// frames, crashed targets, pre-crash timers) and, for `TxDone`,
    /// retire the matching tx record. Returns `false` when the event is
    /// swallowed without dispatch.
    fn admit(core: &mut Core, sched: &Scheduled) -> bool {
        // Engine-internal bookkeeping: retire the matching tx record so
        // stale TxDones from aborted transmissions are suppressed.
        if let Event::TxDone { port, .. } = sched.event {
            let valid = if let Some(ch) = core.tx_lookup(sched.target, port) {
                let inflight = &mut core.channels[ch.0].in_flight;
                if let Some(pos) = inflight
                    .iter()
                    .position(|t| t.end == sched.time && t.sender == sched.target)
                {
                    inflight.remove(pos);
                    true
                } else {
                    false
                }
            } else {
                false
            };
            if !valid {
                return false; // aborted transmission: swallow the TxDone
            }
        }
        // Chaos: deliveries of frames whose queued transmission was
        // killed before its first bit never happened.
        let mut charged = false;
        if let Event::Frame(fe) = &sched.event {
            if !core.cancelled.is_empty() && core.cancelled.contains(&fe.frame.id) {
                return false;
            }
            // Drain the charged tombstone either way — the frame's loss
            // (if any) is settled once its delivery event surfaces.
            charged = !core.charged.is_empty() && core.charged.remove(&fe.frame.id);
        }
        // Chaos: a crashed node receives nothing. Arriving frames are
        // accounted as RouterDown losses — unless a mid-flight kill
        // already charged them — and everything else addressed to it
        // dies silently.
        if core.down.get(sched.target.0).copied().unwrap_or(false) {
            if matches!(sched.event, Event::Frame(_)) && !charged {
                core.chaos_stats.drop(DropReason::RouterDown);
            }
            return false;
        }
        // Chaos: timers set before the node's last restart belong to
        // soft state the crash destroyed.
        if matches!(sched.event, Event::Timer { .. })
            && sched.seq < core.node_epoch.get(sched.target.0).copied().unwrap_or(0)
        {
            return false;
        }
        true
    }

    /// Dispatch the next event — along with any same-instant events for
    /// the same node, batched through [`Node::on_events`] — or apply the
    /// next due chaos action. Returns `false` when both queues are
    /// empty.
    ///
    /// Batching is dispatch-order preserving: the gathered run is
    /// exactly the consecutive `(time, seq)` prefix addressed to one
    /// node, every chaos filter is applied per event, and
    /// `events_dispatched` counts each event individually — so digests
    /// and traces are byte-identical to one-at-a-time dispatch. `TxDone`
    /// never joins or extends a batch: its in-flight retirement (done
    /// here, engine-side) must stay exactly interleaved with any abort
    /// decisions the node makes in between.
    pub fn step(&mut self) -> bool {
        if self.step_chaos() {
            return true;
        }
        let Some(sched) = self.core.queue.pop() else {
            return false;
        };
        self.core.now = sched.time;
        if !Self::admit(&mut self.core, &sched) {
            return true;
        }
        self.core.events_dispatched += 1;
        let target = sched.target;
        let now = sched.time;
        let solo = matches!(sched.event, Event::TxDone { .. });
        let mut batch = std::mem::take(&mut self.batch);
        batch.clear();
        batch.push(sched.event);
        if !solo {
            // Gather the same-instant run for this node. Chaos cannot
            // fire mid-run (every action due at `now` was applied before
            // the first pop), so the filters in `admit` see the same
            // state each event would have seen dispatched one at a time.
            while let Some(next) = self.core.queue.peek() {
                if next.time != now
                    || next.target != target
                    || matches!(next.event, Event::TxDone { .. })
                {
                    break;
                }
                let Some(next) = self.core.queue.pop() else {
                    break;
                };
                if Self::admit(&mut self.core, &next) {
                    self.core.events_dispatched += 1;
                    batch.push(next.event);
                }
            }
        }
        let mut node = self.nodes[target.0]
            .take()
            .expect("node re-entrancy is impossible in a sequential engine");
        {
            let mut ctx = Context {
                core: &mut self.core,
                me: target,
            };
            if batch.len() == 1 {
                if let Some(ev) = batch.pop() {
                    node.on_event(&mut ctx, ev);
                }
            } else {
                node.on_events(&mut ctx, &mut batch);
            }
        }
        self.nodes[target.0] = Some(node);
        batch.clear();
        self.batch = batch;
        true
    }

    /// Run until the queue drains or `max_events` have been dispatched.
    pub fn run(&mut self, max_events: u64) {
        let limit = self.core.events_dispatched + max_events;
        while self.core.events_dispatched < limit && self.step() {}
    }

    /// Run until simulated `deadline` (events at exactly `deadline` are
    /// processed; later ones stay queued).
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.next_event_ns().is_some_and(|t| t <= deadline.0) {
            self.step();
        }
        self.core.now = self.core.now.max(deadline);
    }

    /// Run strictly *before* `end`: process every event and chaos action
    /// with `time < end`, then advance the clock to `end`. This is the
    /// window primitive of the parallel runner — events at exactly `end`
    /// belong to the next window (they may be preceded by cross-shard
    /// arrivals landing at `end`, which the barrier exchange has not yet
    /// delivered).
    pub(crate) fn run_before(&mut self, end: SimTime) {
        while self.next_event_ns().is_some_and(|t| t < end.0) {
            self.step();
        }
        self.core.now = self.core.now.max(end);
    }

    /// The instant of the next pending work item — node event or chaos
    /// action — in nanoseconds, if any: the one statement of "what is
    /// due next" behind both run loops and the parallel runner's window
    /// placement (each window starts at the global minimum of these).
    #[inline]
    pub(crate) fn next_event_ns(&mut self) -> Option<u64> {
        let next_queue = self.core.queue.min_key().map(|k| k.0);
        let next_chaos = self.core.chaos.front().map(|c| c.at.as_nanos());
        match (next_queue, next_chaos) {
            (Some(h), Some(c)) => Some(h.min(c)),
            (Some(h), None) => Some(h),
            (None, Some(c)) => Some(c),
            (None, None) => None,
        }
    }

    /// Take this shard's accumulated cross-shard messages (empty for a
    /// serial simulator).
    pub(crate) fn take_outbox(&mut self) -> Vec<OutMsg> {
        std::mem::take(&mut self.core.outbox)
    }

    /// Schedule a cross-shard arrival on this (owning) shard. The caller
    /// — the window runner — guarantees `time >= now` via the lookahead
    /// window algebra; `target` must be local to this shard.
    pub(crate) fn inject(&mut self, time: SimTime, target: NodeId, event: Event) {
        debug_assert!(
            !self.core.remote.get(target.0).copied().unwrap_or(false),
            "cross-shard injection must target the owning shard"
        );
        self.core.push(time, target, event);
    }

    /// Tombstone a frame cancelled on another shard: any of its delivery
    /// events still queued here will be swallowed by `admit`.
    pub(crate) fn inject_cancel(&mut self, frame: FrameId) {
        self.core.cancelled.insert(frame);
    }

    /// Immutable access to a node, downcast to its concrete type.
    pub fn node<T: 'static>(&self, id: NodeId) -> &T {
        self.nodes[id.0]
            .as_ref()
            .expect("node present")
            .as_any()
            .downcast_ref::<T>()
            .expect("node type mismatch")
    }

    /// Mutable access to a node, downcast to its concrete type.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> &mut T {
        self.nodes[id.0]
            .as_mut()
            .expect("node present")
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("node type mismatch")
    }

    /// Scrape one node's uniform stats surface (see [`Node::node_stats`]).
    pub fn scrape(&self, id: NodeId) -> Option<&dyn crate::stats::NodeStats> {
        self.nodes[id.0]
            .as_ref()
            .expect("node present")
            .node_stats()
    }

    /// Scrape every node that exposes the uniform stats surface, in node
    /// id order (deterministic).
    pub fn scrape_all(&self) -> Vec<(NodeId, &dyn crate::stats::NodeStats)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| {
                n.as_ref()
                    .and_then(|n| n.node_stats())
                    .map(|s| (NodeId(i), s))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test node that records everything it sees and can be scripted to
    /// transmit on timers.
    #[derive(Default)]
    struct Probe {
        frames: Vec<(SimTime, SimTime, Vec<u8>, bool)>,
        aborted: Vec<(SimTime, usize)>,
        tx_aborted: Vec<(SimTime, FrameId)>,
        tx_done: Vec<SimTime>,
        timers: Vec<(SimTime, u64)>,
        send_on_timer: Option<(u8, Vec<u8>)>,
        abort_on_timer: Option<(u64, u8)>,
        restarts: u32,
    }

    impl Node for Probe {
        fn on_event(&mut self, ctx: &mut Context<'_>, ev: Event) {
            match ev {
                Event::Frame(fe) => self.frames.push((
                    fe.first_bit,
                    fe.last_bit,
                    fe.frame.payload.to_vec(),
                    fe.corrupted,
                )),
                Event::FrameAborted { bytes_received, .. } => {
                    self.aborted.push((ctx.now(), bytes_received))
                }
                Event::TxDone { .. } => self.tx_done.push(ctx.now()),
                Event::TxAborted { frame, .. } => self.tx_aborted.push((ctx.now(), frame)),
                Event::Timer { key } => {
                    self.timers.push((ctx.now(), key));
                    if let Some((abort_key, port)) = self.abort_on_timer {
                        if key == abort_key {
                            ctx.abort_current_tx(port).unwrap();
                            return;
                        }
                    }
                    if let Some((port, bytes)) = self.send_on_timer.clone() {
                        ctx.transmit(port, bytes).unwrap();
                    }
                }
            }
        }
        fn on_restart(&mut self) {
            self.restarts += 1;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    const MBPS_10: u64 = 10_000_000;

    #[test]
    fn frame_timing_is_byte_accurate() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Box::<Probe>::default());
        let b = sim.add_node(Box::<Probe>::default());
        sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::from_micros(5));
        sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![0xAA; 1000]));
        sim.kick(SimTime::ZERO, a, 1);
        sim.run(1000);

        // 1000 bytes at 10 Mb/s = 800 µs; prop 5 µs.
        let probe_b = sim.node::<Probe>(b);
        assert_eq!(probe_b.frames.len(), 1);
        let (first, last, ref bytes, corrupted) = probe_b.frames[0];
        assert_eq!(first, SimTime(5_000));
        assert_eq!(last, SimTime(805_000));
        assert_eq!(bytes.len(), 1000);
        assert!(!corrupted);
        // Sender's TxDone at 800 µs (no prop).
        assert_eq!(sim.node::<Probe>(a).tx_done, vec![SimTime(800_000)]);
    }

    #[test]
    fn byte_arrival_math() {
        let fe = FrameEvent {
            port: 0,
            frame: Frame {
                id: FrameId(0),
                payload: FrameBuf::from(vec![0; 100]),
            },
            first_bit: SimTime(1000),
            last_bit: SimTime(2000),
            rate_bps: 8_000_000_000, // 1 byte/ns
            corrupted: false,
        };
        assert_eq!(fe.byte_arrival(0), SimTime(1000));
        assert_eq!(fe.byte_arrival(18), SimTime(1018));
    }

    #[test]
    fn busy_channel_serializes_fifo() {
        let mut sim = Simulator::new(2);
        let a = sim.add_node(Box::<Probe>::default());
        let b = sim.add_node(Box::<Probe>::default());
        sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::ZERO);
        // Two back-to-back transmissions queued at the same instant.
        sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![1; 125])); // 100 µs each
        sim.kick(SimTime::ZERO, a, 1);
        sim.kick(SimTime::ZERO, a, 2);
        sim.run(1000);
        let probe_b = sim.node::<Probe>(b);
        assert_eq!(probe_b.frames.len(), 2);
        assert_eq!(probe_b.frames[0].0, SimTime::ZERO);
        assert_eq!(probe_b.frames[1].0, SimTime(100_000), "second waits");
    }

    #[test]
    fn abort_notifies_receiver_before_tail() {
        let mut sim = Simulator::new(3);
        let a = sim.add_node(Box::<Probe>::default());
        let b = sim.add_node(Box::<Probe>::default());
        sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::from_micros(1));
        {
            let pa = sim.node_mut::<Probe>(a);
            pa.send_on_timer = Some((0, vec![9; 1250])); // 1 ms tx time
            pa.abort_on_timer = Some((99, 0));
        }
        sim.kick(SimTime::ZERO, a, 1);
        sim.kick(SimTime(400_000), a, 99); // abort 40% through
        sim.run(1000);

        let probe_b = sim.node::<Probe>(b);
        assert_eq!(probe_b.frames.len(), 1, "header already announced");
        let tail = probe_b.frames[0].1;
        assert_eq!(probe_b.aborted.len(), 1);
        let (abort_seen, bytes_rx) = probe_b.aborted[0];
        assert!(abort_seen < tail, "abort must precede the phantom tail");
        // 400 µs at 10 Mb/s = 500 bytes.
        assert_eq!(bytes_rx, 500);
        // Sender never gets a TxDone for the aborted frame.
        assert!(sim.node::<Probe>(a).tx_done.is_empty());
    }

    #[test]
    fn abort_frees_the_channel() {
        let mut sim = Simulator::new(4);
        let a = sim.add_node(Box::<Probe>::default());
        let b = sim.add_node(Box::<Probe>::default());
        let (ab, _) = sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::ZERO);
        {
            let pa = sim.node_mut::<Probe>(a);
            pa.send_on_timer = Some((0, vec![7; 1250]));
            pa.abort_on_timer = Some((99, 0));
        }
        sim.kick(SimTime::ZERO, a, 1);
        sim.kick(SimTime(100_000), a, 99);
        // A new transmission right after the abort goes out immediately.
        sim.kick(SimTime(100_000), a, 2);
        sim.run(1000);
        let probe_b = sim.node::<Probe>(b);
        assert_eq!(probe_b.frames.len(), 2);
        assert_eq!(probe_b.frames[1].0, SimTime(100_000));
        assert_eq!(sim.channel_stats(ab).aborts, 1);
    }

    #[test]
    fn shared_bus_broadcasts_to_all_other_taps() {
        let mut sim = Simulator::new(5);
        let a = sim.add_node(Box::<Probe>::default());
        let b = sim.add_node(Box::<Probe>::default());
        let c = sim.add_node(Box::<Probe>::default());
        let bus = sim.add_channel(MBPS_10, SimDuration::from_micros(2));
        sim.attach(bus, a, 0);
        sim.attach(bus, b, 0);
        sim.attach(bus, c, 0);
        sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![3; 100]));
        sim.kick(SimTime::ZERO, a, 1);
        sim.run(100);
        assert_eq!(sim.node::<Probe>(b).frames.len(), 1);
        assert_eq!(sim.node::<Probe>(c).frames.len(), 1);
        assert_eq!(sim.node::<Probe>(a).frames.len(), 0, "no self-delivery");
    }

    #[test]
    fn bus_fanout_shares_packet_body() {
        use sirpent_wire::buf::PacketBuf;

        #[derive(Default)]
        struct Cap {
            got: Vec<FrameBuf>,
        }
        impl Node for Cap {
            fn on_event(&mut self, _ctx: &mut Context<'_>, ev: Event) {
                if let Event::Frame(fe) = ev {
                    self.got.push(fe.frame.payload);
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        struct Sender(FrameBuf);
        impl Node for Sender {
            fn on_event(&mut self, ctx: &mut Context<'_>, ev: Event) {
                if matches!(ev, Event::Timer { .. }) {
                    ctx.transmit(0, self.0.clone()).unwrap();
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let body = PacketBuf::from(vec![0xEE; 512]);
        let frame = FrameBuf::new(vec![1, 0], body.clone());
        let mut sim = Simulator::new(12);
        let a = sim.add_node(Box::new(Sender(frame)));
        let b = sim.add_node(Box::<Cap>::default());
        let c = sim.add_node(Box::<Cap>::default());
        let bus = sim.add_channel(MBPS_10, SimDuration::ZERO);
        sim.attach(bus, a, 0);
        sim.attach(bus, b, 0);
        sim.attach(bus, c, 0);
        sim.kick(SimTime::ZERO, a, 1);
        sim.run(100);
        for id in [b, c] {
            let cap = sim.node::<Cap>(id);
            assert_eq!(cap.got.len(), 1);
            // The delivered copy shares the sender's body store: the
            // engine fanned out without copying the packet.
            assert!(cap.got[0].body().shares_store_with(&body));
        }
    }

    #[test]
    fn fault_injection_drops_and_corrupts() {
        let mut sim = Simulator::new(6);
        let a = sim.add_node(Box::<Probe>::default());
        let b = sim.add_node(Box::<Probe>::default());
        let (ab, _) = sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::ZERO);
        sim.set_faults(
            ab,
            FaultConfig {
                drop_prob: 0.3,
                corrupt_prob: 0.3,
            },
        );
        sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![0x55; 64]));
        for i in 0..200 {
            sim.kick(SimTime(i * 1_000_000), a, 1);
        }
        sim.run(10_000);
        let st = sim.channel_stats(ab);
        assert!(st.drops > 20, "drops={}", st.drops);
        assert!(st.corrupted > 20, "corrupted={}", st.corrupted);
        let probe_b = sim.node::<Probe>(b);
        assert_eq!(probe_b.frames.len() as u64, 200 - st.drops);
        let corrupt_seen = probe_b.frames.iter().filter(|f| f.3).count() as u64;
        assert_eq!(corrupt_seen, st.corrupted);
        // Corruption really flips a byte.
        for f in probe_b.frames.iter().filter(|f| f.3) {
            assert_ne!(f.2, vec![0x55; 64]);
        }
    }

    #[test]
    fn determinism_same_seed_same_run() {
        fn run(seed: u64) -> Vec<(SimTime, usize)> {
            let mut sim = Simulator::new(seed);
            let a = sim.add_node(Box::<Probe>::default());
            let b = sim.add_node(Box::<Probe>::default());
            let (ab, _) = sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::from_micros(3));
            sim.set_faults(
                ab,
                FaultConfig {
                    drop_prob: 0.2,
                    corrupt_prob: 0.2,
                },
            );
            sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![1; 99]));
            for i in 0..50 {
                sim.kick(SimTime(i * 500_000), a, 1);
            }
            sim.run(10_000);
            sim.node::<Probe>(b)
                .frames
                .iter()
                .map(|f| (f.0, f.2.len()))
                .collect()
        }
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds diverge");
    }

    #[test]
    fn utilization_accounting() {
        let mut sim = Simulator::new(7);
        let a = sim.add_node(Box::<Probe>::default());
        let b = sim.add_node(Box::<Probe>::default());
        let (ab, _) = sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::ZERO);
        sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![1; 125])); // 100 µs
        sim.kick(SimTime::ZERO, a, 1);
        sim.kick(SimTime(500_000), a, 1);
        sim.run_until(SimTime(1_000_000));
        let st = sim.channel_stats(ab);
        assert_eq!(st.frames, 2);
        assert_eq!(st.busy, SimDuration::from_micros(200));
        let u = st.utilization(SimDuration::from_millis(1));
        assert!((u - 0.2).abs() < 1e-9, "u={u}");
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim = Simulator::new(8);
        sim.run_until(SimTime(5_000_000));
        assert_eq!(sim.now(), SimTime(5_000_000));
    }

    #[test]
    #[should_panic(expected = "already attached")]
    fn double_attach_panics() {
        let mut sim = Simulator::new(9);
        let a = sim.add_node(Box::<Probe>::default());
        let ch1 = sim.add_channel(MBPS_10, SimDuration::ZERO);
        let ch2 = sim.add_channel(MBPS_10, SimDuration::ZERO);
        sim.attach(ch1, a, 0);
        sim.attach(ch2, a, 0);
    }

    #[test]
    fn abort_without_tx_errors() {
        struct Aborter(Option<SimError>);
        impl Node for Aborter {
            fn on_event(&mut self, ctx: &mut Context<'_>, ev: Event) {
                if matches!(ev, Event::Timer { .. }) {
                    self.0 = ctx.abort_current_tx(0).err();
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Simulator::new(10);
        let a = sim.add_node(Box::new(Aborter(None)));
        let b = sim.add_node(Box::<Probe>::default());
        sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::ZERO);
        sim.kick(SimTime::ZERO, a, 0);
        sim.run(10);
        assert_eq!(sim.node::<Aborter>(a).0, Some(SimError::NothingToAbort));
    }

    // ----- chaos layer ---------------------------------------------------

    fn schedule(events: Vec<(u64, ChaosAction)>) -> FaultSchedule {
        FaultSchedule::new(
            events
                .into_iter()
                .map(|(at, action)| ChaosEvent {
                    at: SimTime(at),
                    action,
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn link_down_aborts_midflight_before_tail() {
        let mut sim = Simulator::new(20);
        let a = sim.add_node(Box::<Probe>::default());
        let b = sim.add_node(Box::<Probe>::default());
        let (ab, _) = sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::from_micros(1));
        sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![9; 1250])); // 1 ms
        sim.kick(SimTime::ZERO, a, 1);
        sim.install_schedule(schedule(vec![(400_000, ChaosAction::LinkDown { ch: ab })]));
        sim.run(1000);

        let probe_b = sim.node::<Probe>(b);
        assert_eq!(probe_b.frames.len(), 1, "header already announced");
        let tail = probe_b.frames[0].1;
        assert_eq!(probe_b.aborted.len(), 1);
        let (abort_seen, bytes_rx) = probe_b.aborted[0];
        assert!(abort_seen < tail, "abort must precede the phantom tail");
        assert_eq!(bytes_rx, 500, "400 µs at 10 Mb/s");
        let probe_a = sim.node::<Probe>(a);
        assert!(probe_a.tx_done.is_empty(), "no TxDone for a killed frame");
        assert_eq!(probe_a.tx_aborted.len(), 1);
        assert_eq!(probe_a.tx_aborted[0].0, SimTime(400_000));
        assert_eq!(sim.chaos_stats().drops[DropReason::LinkDown], 1);
        assert!(!sim.is_link_up(ab));
    }

    #[test]
    fn link_down_cancels_queued_and_link_up_restores() {
        let mut sim = Simulator::new(21);
        let a = sim.add_node(Box::<Probe>::default());
        let b = sim.add_node(Box::<Probe>::default());
        let (ab, _) = sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::ZERO);
        sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![1; 125])); // 100 µs
                                                                          // Two back-to-back at t=0: the first is mid-flight at 50 µs, the
                                                                          // second still queued behind it.
        sim.kick(SimTime::ZERO, a, 1);
        sim.kick(SimTime::ZERO, a, 2);
        // A third send after the link comes back.
        sim.kick(SimTime(400_000), a, 3);
        sim.install_schedule(schedule(vec![
            (50_000, ChaosAction::LinkDown { ch: ab }),
            (300_000, ChaosAction::LinkUp { ch: ab }),
        ]));
        sim.run(1000);

        let probe_b = sim.node::<Probe>(b);
        // First frame: announced, then aborted. Second: cancelled before
        // its first bit — the receiver never hears of it. Third: clean.
        assert_eq!(probe_b.frames.len(), 2);
        assert_eq!(probe_b.aborted.len(), 1);
        assert_eq!(probe_b.frames[1].0, SimTime(400_000));
        assert_eq!(sim.chaos_stats().drops[DropReason::LinkDown], 2);
        let probe_a = sim.node::<Probe>(a);
        assert_eq!(probe_a.tx_aborted.len(), 2, "both kills notify the sender");
        assert_eq!(probe_a.tx_done.len(), 1, "only the clean frame completes");
        assert!(sim.is_link_up(ab));
    }

    #[test]
    fn transmit_on_down_link_reports_error() {
        struct TxTry(Option<SimError>);
        impl Node for TxTry {
            fn on_event(&mut self, ctx: &mut Context<'_>, ev: Event) {
                if matches!(ev, Event::Timer { .. }) {
                    self.0 = ctx.transmit(0, vec![1; 10]).err();
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Simulator::new(22);
        let a = sim.add_node(Box::new(TxTry(None)));
        let b = sim.add_node(Box::<Probe>::default());
        let (ab, _) = sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::ZERO);
        sim.install_schedule(schedule(vec![(0, ChaosAction::LinkDown { ch: ab })]));
        sim.kick(SimTime(1_000), a, 1);
        sim.run(100);
        assert_eq!(sim.node::<TxTry>(a).0, Some(SimError::LinkDown));
        assert!(sim.node::<Probe>(b).frames.is_empty());
    }

    #[test]
    fn crash_swallows_traffic_and_restart_loses_timers() {
        let mut sim = Simulator::new(23);
        let a = sim.add_node(Box::<Probe>::default());
        let b = sim.add_node(Box::<Probe>::default());
        sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::ZERO);
        sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![5; 125]));
        // A frame lands while b is down; a timer armed pre-crash would
        // fire after the restart.
        sim.kick(SimTime(100_000), a, 1);
        sim.kick(SimTime(150_000), b, 77);
        // After the restart a second frame goes through.
        sim.kick(SimTime(300_000), a, 2);
        sim.install_schedule(schedule(vec![
            (50_000, ChaosAction::RouterCrash { node: b }),
            (120_000, ChaosAction::RouterRestart { node: b }),
        ]));
        sim.run(1000);

        let probe_b = sim.node::<Probe>(b);
        assert_eq!(probe_b.restarts, 1, "the restart hook ran");
        assert!(
            probe_b.timers.is_empty(),
            "pre-crash timers are lost soft state"
        );
        // The down-window frame was swallowed and accounted; the
        // post-restart frame arrived.
        assert_eq!(probe_b.frames.len(), 1);
        assert_eq!(probe_b.frames[0].0, SimTime(300_000));
        assert_eq!(sim.chaos_stats().drops[DropReason::RouterDown], 1);
        assert!(!sim.is_down(b));
    }

    #[test]
    fn crash_kills_the_crashed_nodes_own_transmissions() {
        let mut sim = Simulator::new(24);
        let a = sim.add_node(Box::<Probe>::default());
        let b = sim.add_node(Box::<Probe>::default());
        sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::ZERO);
        sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![8; 1250])); // 1 ms
        sim.kick(SimTime::ZERO, a, 1);
        sim.install_schedule(schedule(vec![(
            400_000,
            ChaosAction::RouterCrash { node: a },
        )]));
        sim.run(1000);
        // The sender crashed mid-transmission: the receiver must see the
        // retraction, and the loss is accounted as RouterDown.
        let probe_b = sim.node::<Probe>(b);
        assert_eq!(probe_b.aborted.len(), 1);
        assert_eq!(sim.chaos_stats().drops[DropReason::RouterDown], 1);
        assert!(sim.is_down(a));
    }

    #[test]
    fn partition_suppresses_cross_side_delivery_only() {
        let mut sim = Simulator::new(25);
        let a = sim.add_node(Box::<Probe>::default());
        let b = sim.add_node(Box::<Probe>::default());
        let c = sim.add_node(Box::<Probe>::default());
        let bus = sim.add_channel(MBPS_10, SimDuration::ZERO);
        sim.attach(bus, a, 0);
        sim.attach(bus, b, 0);
        sim.attach(bus, c, 0);
        sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![3; 100]));
        sim.kick(SimTime(100_000), a, 1);
        sim.kick(SimTime(600_000), a, 2);
        sim.install_schedule(schedule(vec![
            (0, ChaosAction::PartitionStart { side_a: vec![a, b] }),
            (500_000, ChaosAction::PartitionEnd),
        ]));
        sim.run(1000);
        // During the window: same-side b hears a, far-side c does not.
        // After the window heals, everyone hears everything.
        assert_eq!(sim.node::<Probe>(b).frames.len(), 2);
        assert_eq!(sim.node::<Probe>(c).frames.len(), 1);
        assert_eq!(sim.chaos_stats().drops[DropReason::Partitioned], 1);
    }

    #[test]
    fn duplication_window_delivers_twice() {
        let mut sim = Simulator::new(26);
        let a = sim.add_node(Box::<Probe>::default());
        let b = sim.add_node(Box::<Probe>::default());
        let (ab, _) = sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::ZERO);
        sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![4; 50]));
        sim.kick(SimTime(100_000), a, 1);
        sim.kick(SimTime(600_000), a, 2);
        sim.install_schedule(schedule(vec![
            (0, ChaosAction::DuplicateStart { ch: ab, prob: 1.0 }),
            (500_000, ChaosAction::DuplicateEnd { ch: ab }),
        ]));
        sim.run(1000);
        let probe_b = sim.node::<Probe>(b);
        assert_eq!(probe_b.frames.len(), 3, "one doubled + one clean");
        assert_eq!(probe_b.frames[0].2, probe_b.frames[1].2);
        assert_eq!(sim.channel_stats(ab).duplicated, 1);
    }

    #[test]
    fn jitter_keeps_abort_before_tail() {
        let mut sim = Simulator::new(27);
        let a = sim.add_node(Box::<Probe>::default());
        let b = sim.add_node(Box::<Probe>::default());
        let (ab, _) = sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::from_micros(2));
        sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![6; 1250])); // 1 ms
        sim.kick(SimTime(100_000), a, 1);
        sim.install_schedule(schedule(vec![
            (
                0,
                ChaosAction::JitterStart {
                    ch: ab,
                    max_extra: SimDuration::from_micros(50),
                },
            ),
            (500_000, ChaosAction::LinkDown { ch: ab }),
        ]));
        sim.run(1000);
        let probe_b = sim.node::<Probe>(b);
        assert_eq!(probe_b.frames.len(), 1);
        assert_eq!(probe_b.aborted.len(), 1);
        // The abort rides the same jittered path as the frame: it still
        // lands strictly before the phantom tail.
        assert!(probe_b.aborted[0].0 < probe_b.frames[0].1);
        assert!(probe_b.frames[0].0 >= SimTime(102_000), "prop + jitter ≥ 0");
    }

    #[test]
    fn error_burst_flips_a_contiguous_run() {
        let mut sim = Simulator::new(28);
        let a = sim.add_node(Box::<Probe>::default());
        let b = sim.add_node(Box::<Probe>::default());
        let (ab, _) = sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::ZERO);
        sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![0x55; 64]));
        sim.kick(SimTime(100_000), a, 1);
        sim.install_schedule(schedule(vec![(
            0,
            ChaosAction::ErrorBurstStart {
                ch: ab,
                prob: 1.0,
                max_run: 4,
            },
        )]));
        sim.run(1000);
        let probe_b = sim.node::<Probe>(b);
        assert_eq!(probe_b.frames.len(), 1);
        assert!(probe_b.frames[0].3, "flagged corrupted");
        let diffs: Vec<usize> = probe_b.frames[0]
            .2
            .iter()
            .enumerate()
            .filter_map(|(i, &byte)| (byte != 0x55).then_some(i))
            .collect();
        assert!(!diffs.is_empty() && diffs.len() <= 4);
        assert_eq!(
            diffs.last().unwrap() - diffs[0] + 1,
            diffs.len(),
            "the burst is one contiguous run"
        );
        assert_eq!(sim.channel_stats(ab).corrupted, 1);
    }

    #[test]
    fn empty_schedule_is_inert() {
        fn run(install: bool) -> Vec<(SimTime, usize)> {
            let mut sim = Simulator::new(29);
            let a = sim.add_node(Box::<Probe>::default());
            let b = sim.add_node(Box::<Probe>::default());
            let (ab, _) = sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::from_micros(3));
            sim.set_faults(
                ab,
                FaultConfig {
                    drop_prob: 0.2,
                    corrupt_prob: 0.2,
                },
            );
            if install {
                sim.install_schedule(schedule(vec![]));
            }
            sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![1; 99]));
            for i in 0..50 {
                sim.kick(SimTime(i * 500_000), a, 1);
            }
            sim.run(10_000);
            sim.node::<Probe>(b)
                .frames
                .iter()
                .map(|f| (f.0, f.2.len()))
                .collect()
        }
        assert_eq!(run(false), run(true), "chaos present-but-idle is free");
    }

    #[test]
    fn scrape_telemetry_counts_chaos_and_flight_events() {
        use sirpent_telemetry::names;

        let mut sim = Simulator::new(31);
        let a = sim.add_node(Box::<Probe>::default());
        let b = sim.add_node(Box::<Probe>::default());
        let (ab, _) = sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::ZERO);
        sim.enable_flight(64);
        sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![9; 1250]));
        sim.kick(SimTime::ZERO, a, 1);
        sim.install_schedule(schedule(vec![
            (400_000, ChaosAction::LinkDown { ch: ab }),
            (500_000, ChaosAction::LinkUp { ch: ab }),
            (600_000, ChaosAction::DuplicateStart { ch: ab, prob: 0.5 }),
            (700_000, ChaosAction::DuplicateEnd { ch: ab }),
        ]));
        sim.run(1000);
        let reg = sim.scrape_telemetry().unwrap();
        assert_eq!(reg.counter(names::CHAOS_EVENTS_TOTAL), 4);
        assert_eq!(reg.counter(names::CHAOS_LINK_TRANSITIONS_TOTAL), 2);
        assert_eq!(reg.counter(names::CHAOS_WINDOW_UPDATES_TOTAL), 2);
        assert_eq!(reg.counter(names::CHAOS_ROUTER_TRANSITIONS_TOTAL), 0);
        // The recorder is live (Probe records nothing itself, so zero
        // events is correct) and its instruments are published.
        assert!(reg.get(names::FLIGHT_EVENTS_RECORDED_TOTAL).is_some());
        assert!(sim.flight().unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "enable_flight")]
    fn enable_flight_rejects_zero_capacity() {
        let mut sim = Simulator::new(32);
        sim.enable_flight(0);
    }

    #[test]
    fn flight_record_via_context_is_stamped_with_node_and_time() {
        struct Recorder;
        impl Node for Recorder {
            fn on_event(&mut self, ctx: &mut Context<'_>, ev: Event) {
                if matches!(ev, Event::Timer { .. }) {
                    assert!(ctx.flight_enabled());
                    ctx.flight_record(0xFEED, HopKind::Inject);
                    ctx.flight_record_at(SimTime(9_999_999), 0xFEED, HopKind::Delivered);
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Simulator::new(33);
        let a = sim.add_node(Box::new(Recorder));
        sim.enable_flight(8);
        sim.kick(SimTime(1_000), a, 0);
        sim.run(10);
        let fr = sim.flight().unwrap();
        let evs: Vec<HopEvent> = fr.events().copied().collect();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].node, a.0 as u32);
        assert_eq!(evs[0].t_ns, 1_000);
        assert_eq!(evs[1].t_ns, 9_999_999);
        let traces = fr.reconstruct();
        assert_eq!(traces.len(), 1);
        assert!(traces[0].is_complete());
    }

    #[test]
    #[should_panic(expected = "set_faults")]
    fn set_faults_rejects_nan() {
        let mut sim = Simulator::new(30);
        let a = sim.add_node(Box::<Probe>::default());
        let b = sim.add_node(Box::<Probe>::default());
        let (ab, _) = sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::ZERO);
        sim.set_faults(
            ab,
            FaultConfig {
                drop_prob: f64::NAN,
                corrupt_prob: 0.0,
            },
        );
    }
}
