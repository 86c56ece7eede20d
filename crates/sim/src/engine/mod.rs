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
//!
//! ## One event per hop
//!
//! Two primitives let a forwarding hop cost the one event its frame
//! arrives in, without moving an instant or reordering two events:
//!
//! * **Completions on demand.** Starting a transmission takes the
//!   `(end, seq)` key its [`Event::TxDone`] would have had, but queues
//!   nothing. A sender that needs the completion — a frame waits behind
//!   the transmission — arms it ([`Context::arm_completion`]) and gets the
//!   `TxDone` under that key. Any other time it asks
//!   [`Context::tx_finished`], which answers by the same `(time, seq)`
//!   rule dispatch uses. An armed `TxDone` is delivered solo, never in a
//!   batch: its record's retirement must interleave exactly with abort
//!   decisions.
//! * **Deciding ahead.** A node that would set a timer for a decision at
//!   `d` may instead decide in the event it is handling
//!   ([`Context::decide_at`]) when nothing can reach it before `d`
//!   ([`Context::quiet_until`]). The timer's key is reserved and what the
//!   decision schedules is held until the run reaches it, so every event
//!   gets the sequence number the timer path would have given it.
//!
//! ## Layout
//!
//! This file holds the vocabulary — ids, events, the [`Node`] trait, the
//! [`Context`] handed to a node — and the [`Simulator`]'s construction
//! and inspection surface. `channel` is the wire model (what is in
//! flight, completions, aborts, kills), `ledger` decides which
//! chaos-lost frames are charged (exactly once), `quiet` holds what
//! deciding ahead needs, and `dispatch` owns the event queue, the chaos
//! schedule's application and the run loops.

use std::any::Any;

use rand::rngs::StdRng;
use sirpent_telemetry::{names, FlightRecorder, HopEvent, HopKind, Registry, RegistryError};
use sirpent_wire::buf::FrameBuf;

use crate::chaos::FaultSchedule;
use crate::queue::QueueKind;
use crate::stats::PipelineStats;
use crate::time::{transmission_time, SimDuration, SimTime};

mod channel;
mod dispatch;
mod ledger;
mod quiet;
#[cfg(test)]
mod tests;

use channel::Channel;
use dispatch::Core;

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
/// The contents are a [`FrameBuf`]: a link header held inline in front of a
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
    /// A transmission this node started on `port` and armed
    /// ([`Context::arm_completion`]) has finished clocking out.
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
    /// When the last bit goes onto the wire (what
    /// [`Context::tx_finished`] takes).
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

/// The behaviour of a simulated node.
pub trait Node: 'static {
    /// Handle one event. `ctx` gives access to the clock, channels and
    /// scheduler.
    fn on_event(&mut self, ctx: &mut Context<'_>, ev: Event);

    /// Handle a batch of same-instant events addressed to this node, in
    /// scheduling order. The engine gathers maximal runs of events
    /// scheduled one right after another for the same `(time, target)`
    /// — so no other event, reserved decision key or transmission
    /// completion falls between them — and delivers them through this
    /// entry point, amortizing dispatch overhead. An armed `TxDone` is
    /// always delivered solo through [`Node::on_event`] (its
    /// transmit-retirement bookkeeping must interleave exactly with abort
    /// decisions). A node handling a batch of more than one event is
    /// never [quiet](Context::quiet_until).
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

/// The node-facing handle into the simulation during event dispatch.
pub struct Context<'a> {
    core: &'a mut Core,
    me: NodeId,
}

impl Context<'_> {
    /// The channel behind `port`.
    fn channel(&self, port: u8) -> Result<&Channel, SimError> {
        let ch = self
            .core
            .tx_lookup(self.me, port)
            .ok_or(SimError::PortNotAttached)?;
        Ok(&self.core.channels[ch.0])
    }

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

    /// Whether transmission `frame`, started on `port` with its last bit
    /// clocking out at `end` ([`TxInfo::end`]), has finished as of this
    /// dispatch: true exactly when its [`Event::TxDone`], had it been
    /// armed, would already have been delivered. Aborted and killed
    /// transmissions are the caller's to track (it aborted them, or got
    /// [`Event::TxAborted`] before they could finish).
    pub fn tx_finished(&self, port: u8, frame: FrameId, end: SimTime) -> bool {
        self.core.tx_finished(self.me, port, frame, end)
    }

    /// Ask for [`Event::TxDone`] when transmission `frame` on `port`
    /// finishes. Unarmed, a transmission finishes silently and costs no
    /// event; armed, its `TxDone` is delivered exactly where it would
    /// have been had every transmission announced its end. Arming twice,
    /// or arming a finished, aborted or killed transmission, does
    /// nothing.
    pub fn arm_completion(&mut self, port: u8, frame: FrameId) {
        self.core.arm(self.me, port, frame);
    }

    /// Whether this node may make a decision due at `at` now, in the
    /// event it is handling ([`Context::decide_at`]): nothing can reach
    /// it and nothing it reads can change before `at`. Refused while the
    /// node has another event at or before `at` (or later in this
    /// dispatch's batch), when a channel into it is shorter than the
    /// lead, when a chaos action is due by `at`, when `at` is past the
    /// running `run_until` deadline (and outside that loop), when a
    /// channel it sends on has another sender, a fault config or a chaos
    /// window, and while the flight recorder is on.
    pub fn quiet_until(&self, at: SimTime) -> bool {
        self.core.quiet_until(self.me, at)
    }

    /// Make a decision due at `at` now: `decide` runs with the clock
    /// reading `at`, and what it schedules is held and numbered when the
    /// run reaches the key a timer set now for `at` would have had — as
    /// if `decide` had run from that timer. Only for a node
    /// [quiet](Context::quiet_until) until `at`; `decide` must draw no
    /// randomness.
    pub fn decide_at<R>(&mut self, at: SimTime, decide: impl FnOnce(&mut Context<'_>) -> R) -> R {
        let restore = self.core.begin_ahead(self.me, at);
        let r = decide(self);
        self.core.end_ahead(restore);
        r
    }

    /// When the channel behind `port` becomes idle (now or earlier means
    /// idle already).
    pub fn channel_free_at(&self, port: u8) -> Result<SimTime, SimError> {
        Ok(self.channel(port)?.free_at)
    }

    /// The data rate of the channel behind `port`.
    pub fn channel_rate(&self, port: u8) -> Result<u64, SimError> {
        Ok(self.channel(port)?.rate_bps)
    }

    /// Whether the channel behind `port` is up (chaos link state). This
    /// is what a real switch learns from loss-of-carrier on the failed
    /// link — local knowledge, available at route-decision time.
    pub fn link_up(&self, port: u8) -> Result<bool, SimError> {
        Ok(self.channel(port)?.up)
    }

    /// Whether the peer behind `port` is up. Exact for point-to-point
    /// links (one non-self tap: that node's crashed flag); conservative
    /// `true` for shared-bus channels, where no single peer owns the
    /// medium. Models link-level liveness detection (keepalive /
    /// carrier) between adjacent routers — still strictly local state.
    pub fn peer_up(&self, port: u8) -> Result<bool, SimError> {
        let mut peers = self
            .channel(port)?
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
        debug_assert!(
            self.core.holding.is_none(),
            "a decision made ahead must draw no randomness"
        );
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
    core: Core,
    nodes: Vec<Option<Box<dyn Node>>>,
    /// Reusable same-instant dispatch batch (see [`Node::on_events`]).
    batch: Vec<Event>,
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
            core: Core::new(seed, kind),
            nodes: Vec::new(),
            batch: Vec::new(),
        }
    }

    /// Add a node; returns its id.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Some(node));
        self.core.add_node();
        id
    }

    /// Create a channel (no taps yet).
    pub fn add_channel(&mut self, rate_bps: u64, prop: SimDuration) -> ChannelId {
        let id = ChannelId(self.core.channels.len());
        self.core.channels.push(Channel::new(rate_bps, prop));
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
        self.core.add_tap(ch, node, port);
        self.core.add_sender(ch, node);
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
        // Simplex: the sender is attached; the receiver is a bare tap
        // that never transmits.
        self.attach(ab, a, a_port);
        self.core.add_tap(ab, b, b_port);
        self.attach(ba, b, b_port);
        self.core.add_tap(ba, a, a_port);
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
        self.core.set_link(ch, |c| c.faults = faults);
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
        self.core.ledger.stats()
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
        self.core.ledger.publish(&mut engine)?;
        engine.publish_counter(names::SIM_COMPLETIONS_ARMED_TOTAL, &self.core.armed)?;
        if let Some(fr) = &self.core.flight {
            engine.publish_counter(names::FLIGHT_EVENTS_RECORDED_TOTAL, &fr.recorded)?;
            engine.publish_counter(names::FLIGHT_EVENTS_EVICTED_TOTAL, &fr.evicted)?;
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
