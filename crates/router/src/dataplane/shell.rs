//! The forwarding-node shell: what every node that forwards — the VIPER
//! router, the IP router and the CVC switch — keeps around its own
//! decisions.
//!
//! * [`Held`] — arrivals (and VIPER's token-blocked retries) waiting
//!   under a timer key for their decision instant.
//! * [`PortSet`] — the output ports by port number, each a
//!   configuration and an [`OutputPort`] scheduler.
//!
//! The rules for what a held packet or a queued frame becomes when its
//! frame is killed upstream, when the node crashes, or when a port's
//! transmission ends are stated here once (DESIGN §6.4, §8.2).

use sirpent_sim::stats::{DropReason, PipelineStats};
use sirpent_sim::{Context, FrameId, SimTime};
use sirpent_telemetry::{names, Gauge, Registry, RegistryError};

use super::linear::LinearMap;
use super::output::{OutputPort, ServiceHooks};

/// Timer keys from here up name a port's service timer, the port number
/// in the low byte. [`Held`] numbers its keys up from 1, and key 0 is
/// left to the node (VIPER's rate-increase tick).
const SERVICE_TIMER: u64 = 1 << 63;

/// Packets a node holds until their decision instant, each under the
/// key of the timer that ends its wait and tagged with the incoming
/// frame it was cut from.
pub(crate) struct Held<T> {
    held: LinearMap<u64, (Option<FrameId>, T)>,
    next_key: u64,
}

impl<T> Held<T> {
    /// Nothing held.
    pub fn new() -> Held<T> {
        Held {
            held: LinearMap::new(),
            next_key: 1,
        }
    }

    /// Hold `item`, cut from the incoming frame `in_frame`, until `at`.
    pub fn hold(&mut self, ctx: &mut Context<'_>, at: SimTime, in_frame: Option<FrameId>, item: T) {
        let key = self.next_key;
        self.next_key += 1;
        self.held.insert(key, (in_frame, item));
        ctx.schedule_at(at, key);
    }

    /// The hold the timer `key` ends, if it is still held.
    pub fn take(&mut self, key: u64) -> Option<T> {
        self.held.remove(&key).map(|(_, item)| item)
    }

    /// The upstream sender aborted `in_frame`: its tail will never
    /// arrive, so nothing cut from it may be acted on. No drop is
    /// counted — the kill was accounted upstream.
    pub fn abort(&mut self, in_frame: FrameId) {
        self.held.retain(|_, (from, _)| *from != Some(in_frame));
    }

    /// The node crashed: every held packet dies, one
    /// [`DropReason::RouterDown`] each. (The engine discards the timers
    /// themselves.)
    pub fn crash(&mut self, stats: &mut PipelineStats) {
        for _ in self.held.values() {
            stats.drop(DropReason::RouterDown);
        }
        self.held.clear();
    }
}

/// One output port: what the node was configured with for it (`()` for
/// nodes with nothing to configure) and its scheduler.
pub(crate) struct Port<C> {
    pub cfg: C,
    pub sched: OutputPort,
}

/// A node's output ports by port number. A node builds the set from its
/// configuration or, like the CVC switch, adds a port on first use; the
/// set treats both alike.
pub(crate) type PortSet<C> = LinearMap<u8, Port<C>>;

impl<C> PortSet<C> {
    /// Run `port`'s service decision with the node's `hooks`, and set
    /// the service timer the scheduler asks for. (A FIFO port never
    /// asks: its frames are eligible the moment they are pushed.)
    pub fn serve<H: ServiceHooks>(
        &mut self,
        ctx: &mut Context<'_>,
        port: u8,
        hooks: &mut H,
        stats: &mut PipelineStats,
    ) {
        let Some(p) = self.get_mut(&port) else {
            return;
        };
        if let Some(at) = p.sched.try_service(ctx, hooks, stats) {
            ctx.schedule_at(at, SERVICE_TIMER | u64::from(port));
        }
    }

    /// The port whose service timer `key` is, its armed timer cleared —
    /// or `None` when `key` is not a service timer.
    pub fn service_due(&mut self, key: u64) -> Option<u8> {
        let port = u8::try_from(key.checked_sub(SERVICE_TIMER)?).ok()?;
        if let Some(p) = self.get_mut(&port) {
            p.sched.clear_service_timer();
        }
        Some(port)
    }

    /// A transmission on `port` ended: its armed [`Event::TxDone`], or
    /// [`Event::TxAborted`] when the engine killed it (link down, chaos
    /// layer — the engine counted that loss). When it was the
    /// transmission in progress the port is free, so it is served.
    ///
    /// [`Event::TxDone`]: sirpent_sim::Event::TxDone
    /// [`Event::TxAborted`]: sirpent_sim::Event::TxAborted
    pub fn on_tx_end<H: ServiceHooks>(
        &mut self,
        ctx: &mut Context<'_>,
        port: u8,
        frame: FrameId,
        hooks: &mut H,
        stats: &mut PipelineStats,
    ) {
        if self
            .get_mut(&port)
            .is_some_and(|p| p.sched.on_tx_done(frame))
        {
            self.serve(ctx, port, hooks, stats);
        }
    }

    /// The upstream sender aborted `in_frame`, which this node may be
    /// cutting through: drop every queued copy of it, abort every copy
    /// on the wire, and serve the ports that freed. Only cut-through
    /// copies carry the tag, so a store-and-forward node's ports never
    /// match.
    pub fn on_frame_aborted<H: ServiceHooks>(
        &mut self,
        ctx: &mut Context<'_>,
        in_frame: FrameId,
        hooks: &mut H,
        stats: &mut PipelineStats,
    ) {
        for p in self.values_mut() {
            p.sched.purge_in_frame(in_frame);
        }
        let outs: Vec<u8> = self.keys().copied().collect();
        for out in outs {
            if self
                .get_mut(&out)
                .is_some_and(|p| p.sched.abort_in_frame(ctx, in_frame, stats))
            {
                self.serve(ctx, out, hooks, stats);
            }
        }
    }

    /// The node crashed: every port loses its queue
    /// ([`OutputPort::crash_purge`]).
    pub fn crash(&mut self, stats: &mut PipelineStats) {
        for p in self.values_mut() {
            p.sched.crash_purge(stats);
        }
    }

    /// Frames sitting in output queues across all ports. The chaos
    /// harness closes its conservation ledger with this term: a packet
    /// stranded behind a downed link is in-system, not lost, so at any
    /// observation instant injected = delivered + dropped + queued.
    pub fn queued_frames(&self) -> u64 {
        self.values().map(|p| p.sched.len() as u64).sum()
    }

    /// Publish the node's pipeline surface and the queue-depth gauge.
    pub fn publish(&self, stats: &PipelineStats, reg: &mut Registry) -> Result<(), RegistryError> {
        stats.publish_telemetry(reg)?;
        let mut depth = Gauge::new();
        depth.set(self.queued_frames() as i64);
        reg.publish_gauge(names::ROUTER_QUEUE_DEPTH, &depth)
    }
}
